"""Four-case comparative study over a demand horizon.

Case 1 dispatches economically at nominal PV power factors; Case 2 reruns
it with stressed power factors (exposing reactive-support scarcity);
Case 3 answers the stress with optimal load delivery (corrective
shedding); Case 4 answers it with shunt capacitors at the top-ranked buses
and reruns the economic objective. Each case builds one OpfStructure
(island, layout, generator data, bounds; under OLD a shed variable at each
island bus) and binds each hour's demand, PV injection and dt to it as
data. Hours are solved in sequence, each warm-started from
the previous optimal hour's whole primal-dual point (voltages, dispatch,
shed fractions, balance and bound multipliers) with one solve and no cold
fallback; hours flagged invalid in the demand series are skipped and
reported separately. The study warns when the hours Case 2 cannot serve
are not the hours Case 3 sheds in.
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .acopf import (Objective, OpfProblem, OpfSolution, OpfStatus, OpfStructure,
                    SolverOptions, solve)
from .model import (
    DemandSeries,
    Network,
    PfSign,
    ShuntCapacitor,
    ValidationError,
    pv_injection,
)
from .sensitivity import (
    RANK_MODES,
    HourlyAggregate,
    RawSensitivity,
    ScoreWeights,
    aggregate_hours,
    cross_case_rank_table,
    extract,
)


SHED_MW = 1e-4  # an hour whose optimal shed exceeds this many MW is a shedding hour


class CaseId(enum.Enum):
    ECONOMIC = "economic"
    VOLTAGE_STRESS = "voltage_stress"
    OLD = "old"
    CAP_ENHANCED = "cap_enhanced"


CASE_NUMBERS = {cid: n for n, cid in enumerate(CaseId, start=1)}


@dataclass(frozen=True)
class Scenario:
    """One case to run: objective, optional PV stress, optional capacitors."""

    case_id: CaseId
    pf_overrides: dict = None  # pv-unit index -> (pf, PfSign)
    capacitors: tuple = ()
    options: SolverOptions = field(default_factory=SolverOptions)
    weights: ScoreWeights = field(default_factory=ScoreWeights)
    rank_mode: str = "mean"

    def __post_init__(self):
        if self.case_id is CaseId.CAP_ENHANCED and not self.capacitors:
            raise ValidationError("cap_enhanced scenario requires a nonempty capacitor set")
        if self.case_id is CaseId.VOLTAGE_STRESS and not self.pf_overrides:
            raise ValidationError("voltage_stress scenario requires at least one pf override")
        if self.pf_overrides:
            for idx, (pf, sign) in self.pf_overrides.items():
                if not (0.0 < pf <= 1.0):
                    raise ValidationError(f"pf override for pv unit {idx} outside (0, 1]")
                if not isinstance(sign, PfSign):
                    raise ValidationError("pf override sign must be a PfSign")
        if self.rank_mode not in RANK_MODES:
            raise ValidationError(f"rank_mode must be one of {RANK_MODES}, got {self.rank_mode!r}")

    @property
    def objective(self) -> Objective:
        if self.case_id is CaseId.OLD:
            return Objective.OPTIMAL_LOAD_DELIVERY
        return Objective.ECONOMIC


def uniform_stress(net: Network, pf: float, sign: PfSign = PfSign.LAGGING) -> dict:
    """Same power-factor override for every PV unit; pf is the stress_pf
    option, checked here for every caller."""
    if not (0.0 < pf <= 1.0):  # nan fails too
        raise ValidationError(f"stress_pf must be in (0, 1], got {pf}")
    return {i: (pf, sign) for i in range(len(net.pv_units))}


@dataclass(frozen=True)
class HourOutcome:
    """One demand timestep: its solution, or None where the demand series
    flags the hour invalid and it was not solved."""

    hour: int
    solution: OpfSolution = None

    @property
    def valid(self) -> bool:
        return self.solution is not None

    @property
    def optimal(self) -> bool:
        return self.valid and self.solution.status is OpfStatus.OPTIMAL

    @functools.cached_property
    def sensitivities(self) -> list:
        """extract of a valid hour's solution, computed once per outcome."""
        return extract(self.solution)


def _sum(values) -> float:
    """Left-to-right float sum in hour order (sum() compensates on Python
    >= 3.12, which would move the last digits)."""
    return functools.reduce(operator.add, values, 0.0)


@dataclass(frozen=True)
class CaseResult:
    """One case: its scenario and its hour outcomes.

    The hours are the one statement of the case: every horizon figure and
    the ranking are derived from them when read. Each figure covers the
    optimal hours (MW and $ summed in hour order, voltages averaged), except
    avg_mismatch, the mean over every bus of every valid hour, p.u.; a
    figure over no hours is 0. load_shed is nonzero under OLD only, and
    demand_total = load_served + load_shed.
    """

    scenario: Scenario
    bus_ids: tuple
    dt: float
    hours: tuple  # HourOutcome per demand timestep

    @property
    def case_id(self) -> CaseId:
        return self.scenario.case_id

    @functools.cached_property
    def ranking(self) -> HourlyAggregate:
        """The valid hours' sensitivities aggregated under the scenario's
        weights and rank mode; non-optimal hours are counted as excluded."""
        return aggregate_hours(
            [o.sensitivities for o in self.hours if o.valid],
            weights=self.scenario.weights,
            mode=self.scenario.rank_mode,
        )

    def _optimal(self) -> list:
        return [o.solution for o in self.hours if o.optimal]

    @property
    def total_cost(self) -> float:  # $
        return _sum(sol.generation_cost * self.dt for sol in self._optimal())

    @property
    def load_served(self) -> float:  # MW
        return _sum(float(sol.p_load_mw.sum()) - sol.shed_mw for sol in self._optimal())

    @property
    def load_shed(self) -> float:  # MW
        return _sum(sol.shed_mw for sol in self._optimal())

    @property
    def demand_total(self) -> float:  # MW
        return _sum(float(sol.p_load_mw.sum()) for sol in self._optimal())

    @property
    def avg_mismatch(self) -> float:
        valid = [o.solution.mismatch for o in self.hours if o.valid]
        n = sum(len(m) for m in valid)
        return _sum(float(m.sum()) for m in valid) / n if n else 0.0

    @property
    def avg_vmin(self) -> float:  # p.u.
        return float(np.mean([float(sol.v.min()) for sol in self._optimal()] or 0.0))

    @property
    def avg_vmax(self) -> float:  # p.u.
        return float(np.mean([float(sol.v.max()) for sol in self._optimal()] or 0.0))

    @property
    def non_optimal_hours(self) -> int:
        return sum(o.valid and not o.optimal for o in self.hours)

    @property
    def invalid_hours(self) -> int:
        return sum(not o.valid for o in self.hours)

    def top_buses(self, m: int) -> tuple:
        return tuple(r.bus_id for r in self.ranking.records[:m])

    def shed_mw_by_bus(self) -> dict:
        """Total MW shed per bus over Optimal hours (sum across hours)."""
        out = {b: 0.0 for b in self.bus_ids}
        for sol in self._optimal():
            for i, b in enumerate(self.bus_ids):
                out[b] += float(sol.shed[i] * sol.p_load_mw[i])
        return out


def _hour_injections(net: Network, hour: int, pf_overrides) -> tuple:
    p = np.zeros(net.n_bus)
    q = np.zeros(net.n_bus)
    for idx, pv in enumerate(net.pv_units):
        override = pf_overrides.get(idx) if pf_overrides else None
        p_mw, q_mvar = pv_injection(pv, hour, override)
        i = net.bus_index(pv.bus)
        p[i] += p_mw
        q[i] += q_mvar
    return p, q


def run_case(scenario: Scenario, network: Network, demand: DemandSeries) -> CaseResult:
    """Solve one case hour by hour; its ranking is derived from the hours.
    The case's OpfStructure is built once from the network and objective,
    and each valid hour is bound to it as data. Each valid hour is one
    solve, warm-started from the previous optimal hour's primal-dual point
    (flat before the first); a non-optimal hour is reported as it ended."""
    net = network.with_shunts(scenario.capacitors) if scenario.capacitors else network
    horizon = demand.horizon
    for pv in net.pv_units:
        if len(pv.p_profile) < horizon:
            raise ValidationError(
                f"pv unit at bus {pv.bus} has a {len(pv.p_profile)}-step profile, "
                f"demand horizon is {horizon}"
            )
    valid = set(demand.valid_hours)
    on = [b in demand.bus_ids for b in net.bus_ids]
    cols = [demand.bus_column(b) for b in net.bus_ids if b in demand.bus_ids]
    p_d, q_d = np.zeros((2, horizon, net.n_bus))
    p_d[:, on], q_d[:, on] = demand.p_mw[:, cols], demand.q_mvar[:, cols]
    structure = OpfStructure(net, scenario.objective)

    outcomes, warm = [], None
    for t in range(horizon):
        if t not in valid:
            outcomes.append(HourOutcome(hour=t))
            continue
        p_inj, q_inj = _hour_injections(net, t, scenario.pf_overrides)
        problem = OpfProblem(
            network=net,
            p_d=p_d[t],
            q_d=q_d[t],
            p_inj=p_inj,
            q_inj=q_inj,
            objective=scenario.objective,
            options=scenario.options,
            dt=demand.dt,
            structure=structure,
        )
        sol = solve(problem, warm_start=warm)
        outcomes.append(HourOutcome(hour=t, solution=sol))
        if sol.status is OpfStatus.OPTIMAL:
            warm = sol
    return CaseResult(scenario, net.island_bus_ids(), demand.dt, tuple(outcomes))


@dataclass
class StudyResult:
    cases: dict  # CaseId -> CaseResult, in case order
    placement: tuple  # bus ids receiving capacitors in Case 4
    cap_mvar: float
    rank_table: object  # RankTable or None when fewer than 2 cases ranked
    capacitors_insufficient: bool
    warnings: tuple

    def case(self, number: int) -> CaseResult:
        for cid, num in CASE_NUMBERS.items():
            if num == number:
                return self.cases[cid]
        raise KeyError(number)


def placement_ranking(case_results, weights: ScoreWeights) -> list:
    """Average the hour-aggregated scores of several cases and re-rank."""
    per_case = (
        [
            RawSensitivity(bus_id=r.bus_id, os_q=r.os_q, os_v=r.os_v,
                           status=OpfStatus.OPTIMAL, reliable=True)
            for r in cr.ranking.records
        ]
        for cr in case_results
    )
    return list(aggregate_hours(per_case, weights, mode="mean").records)


def run_four_case_study(
    network: Network,
    demand: DemandSeries,
    stress_pf: float = 0.85,
    stress_sign: PfSign = PfSign.LAGGING,
    weights: ScoreWeights = None,
    top_m: int = 3,
    cap_mvar: float = 0.5,
    options: SolverOptions = None,
    rank_mode: str = "mean",
    case4_stressed: bool = False,
) -> StudyResult:
    """Run Cases 1-4; Case 4's capacitors go to the top-m buses of the
    score ranking aggregated over Cases 1-3."""
    weights = weights or ScoreWeights()
    options = options or SolverOptions()
    if top_m < 1:
        raise ValidationError(f"top_m must be >= 1, got {top_m}")
    if not (np.isfinite(cap_mvar) and cap_mvar > 0.0):
        raise ValidationError(f"cap_mvar must be finite and positive, got {cap_mvar}")
    stress = uniform_stress(network, stress_pf, stress_sign)
    if not network.pv_units:
        raise ValidationError("network has no PV units for Case 2 to stress")
    warnings = []

    common = dict(options=options, weights=weights, rank_mode=rank_mode)
    cases = {}
    for scenario in (
        Scenario(CaseId.ECONOMIC, **common),
        Scenario(CaseId.VOLTAGE_STRESS, pf_overrides=stress, **common),
        Scenario(CaseId.OLD, pf_overrides=stress, **common),
    ):
        cases[scenario.case_id] = run_case(scenario, network, demand)
    case1, case2, case3 = cases.values()

    stressed = [o.hour for o in case2.hours if o.valid and not o.optimal]
    shedding = [
        o.hour for o in case3.hours
        if o.optimal and o.solution.shed_mw > SHED_MW
    ]
    if stressed != shedding:
        warnings.append(
            f"case 2 non-optimal hours {stressed} differ from case 3 shedding hours {shedding}"
        )

    ranked = placement_ranking([case1, case2, case3], weights)
    if not ranked:
        raise ValidationError("no case produced a usable ranking; study cannot place capacitors")
    m = min(top_m, len(ranked))
    if m < top_m:
        warnings.append(f"top_m clamped from {top_m} to {m} (only {len(ranked)} scored buses)")
    placement = tuple(r.bus_id for r in ranked[:m])
    caps = tuple(
        ShuntCapacitor(bus=b, b_cap=cap_mvar / network.s_base) for b in placement
    )

    case4 = cases[CaseId.CAP_ENHANCED] = run_case(
        Scenario(
            CaseId.CAP_ENHANCED,
            pf_overrides=stress if case4_stressed else None,
            capacitors=caps,
            **common,
        ),
        network,
        demand,
    )

    rankings = {
        f"case{CASE_NUMBERS[cid]}": cr.ranking.records
        for cid, cr in cases.items()
        if cr.ranking.records
    }
    rank_table = cross_case_rank_table(rankings) if len(rankings) >= 2 else None
    if rank_table is None:
        warnings.append("fewer than two cases produced rankings; no cross-case table")

    insufficient = case4.non_optimal_hours > 0 or (
        case4.load_served < case1.load_served - 1e-6
    )
    if insufficient:
        warnings.append(
            "capacitors insufficient: case 4 does not restore case 1 service"
        )
    return StudyResult(
        cases=cases,
        placement=placement,
        cap_mvar=cap_mvar,
        rank_table=rank_table,
        capacitors_insufficient=insufficient,
        warnings=tuple(warnings),
    )
