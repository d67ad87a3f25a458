"""Capacitor-investment planning against the value of lost load.

The expected cost of lost load per bus is accumulated from the optimal
load delivery case's hourly shedding; the planning problem then chooses,
per candidate bus, between the annualized capacitor cost and that bus's
expected VoLL. Because the objective is separable, the optimum is the
per-bus threshold rule: install exactly where the capacitor is cheaper
than the shedding it removes. The Case 4 vs Case 3 comparison prices the
recovered demand in $/MW for the investment narrative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ValidationError
from .study import CaseId, CaseResult

# ties within this margin resolve to "do not install"
_TIE_TOL = 1e-9


@dataclass(frozen=True)
class CaseSummary:
    """Minimal aggregate view accepted by economic_comparison, for feeding
    published or re-read figures instead of a full CaseResult."""

    total_cost: float  # $
    load_served: float  # MW summed over hours


def _require_positive(name: str, value: float):
    if not (math.isfinite(value) and value > 0.0):
        raise ValidationError(f"{name} must be finite and positive, got {value}")


def voll_cost(case3: CaseResult, voll_rate: float, dt: float = None) -> dict:
    """Per-bus expected cost of lost load, $: sum over hours of
    shed_MW(t) * voll_rate * dt. case3 must come from the OLD objective."""
    if case3.case_id is not CaseId.OLD:
        raise ValidationError(
            f"voll_cost needs an optimal-load-delivery result, got {case3.case_id.value}"
        )
    return shed_voll_cost(case3.shed_mw_by_bus(), voll_rate, case3.dt if dt is None else dt)


def shed_voll_cost(shed_mw: dict, voll_rate: float, dt: float, dt_name: str = "dt") -> dict:
    """Per-bus cost of lost load, $: shed_mw[b] * voll_rate * dt, where
    shed_mw is each bus's shed MW summed over the hours and dt is hours per
    timestep. dt_name is how an error names dt's source."""
    _require_positive("voll_rate", voll_rate)
    _require_positive(dt_name, dt)
    return {b: mw * voll_rate * dt for b, mw in shed_mw.items()}


@dataclass(frozen=True)
class PlanningInput:
    cap_cost: dict  # candidate bus id -> annualized capacitor cost, $
    c_voll: dict  # bus id -> expected VoLL cost, $ (from voll_cost)
    voll_rate: float

    def __post_init__(self):
        if not self.cap_cost:
            raise ValidationError("candidate set is empty")
        _require_positive("voll_rate", self.voll_rate)
        for b, c in self.cap_cost.items():
            if not (math.isfinite(c) and c >= 0.0):
                raise ValidationError(f"capacitor cost at bus {b} must be finite and >= 0, got {c}")
        for b, c in self.c_voll.items():
            if not math.isfinite(c):
                raise ValidationError(f"VoLL cost at bus {b} must be finite, got {c}")
        missing = [b for b in self.cap_cost if b not in self.c_voll]
        if missing:
            raise ValidationError(f"no VoLL figure for candidate buses {missing}")


@dataclass(frozen=True)
class ComparisonBlock:
    """Case 4 vs Case 3 economics."""

    delta_cost: float  # $
    recovered_mw: float
    price_per_mw: float = None  # None when nothing was recovered
    anomalous: bool = False  # case 4 served less than case 3

    @property
    def narrative(self) -> str:
        if self.anomalous:
            return (
                "capacitor case served less load than the shedding case; "
                "comparison not meaningful"
            )
        if self.price_per_mw is None:
            return "no load was recovered; capacitor investment needs no justification here"
        return (
            f"capacitor enhancement recovers {self.recovered_mw:.2f} MW at "
            f"{self.price_per_mw:.2f} $ per MW of recovered demand; if the "
            f"site-specific VoLL exceeds this price, installation is cost-justified"
        )


@dataclass(frozen=True)
class PlanningDecision:
    install: dict  # bus id -> bool (x_k)
    c_cap: dict
    c_voll: dict
    objective: float  # $ over the candidate set
    uncovered_voll: float  # $ of VoLL at non-candidate buses, reported separately

    @property
    def installed_buses(self) -> tuple:
        return tuple(sorted(b for b, x in self.install.items() if x))


def plan(inp: PlanningInput) -> PlanningDecision:
    """Threshold rule: install at bus k iff c_cap(k) < c_voll(k); ties
    (within 1e-9) resolve to no install. The separable objective equals
    sum over candidates of min(c_cap, c_voll)."""
    install = {}
    objective = 0.0
    for b, c_cap in inp.cap_cost.items():
        c_v = inp.c_voll[b]
        x = c_cap < c_v - _TIE_TOL
        install[b] = bool(x)
        objective += c_cap if x else c_v
    uncovered = sum(v for b, v in inp.c_voll.items() if b not in inp.cap_cost)
    return PlanningDecision(
        install=install,
        c_cap=dict(inp.cap_cost),
        c_voll={b: inp.c_voll[b] for b in inp.cap_cost},
        objective=objective,
        uncovered_voll=float(uncovered),
    )


def economic_comparison(case3, case4) -> ComparisonBlock:
    """Price the load recovered by capacitors against the extra operating
    cost: delta_cost / recovered MW. Accepts CaseResult-like objects with
    total_cost and load_served. Recovered load below 1e-6 MW is solver
    dust and counts as no recovery."""
    delta = case4.total_cost - case3.total_cost
    recovered = case4.load_served - case3.load_served
    if recovered > 1e-6:
        return ComparisonBlock(
            delta_cost=delta, recovered_mw=recovered, price_per_mw=delta / recovered
        )
    if recovered < -1e-6:
        return ComparisonBlock(delta_cost=delta, recovered_mw=recovered, anomalous=True)
    return ComparisonBlock(delta_cost=delta, recovered_mw=0.0)
