"""Per-bus optimization sensitivities and the composite placement score.

From an optimal primal-dual point the reactive sensitivity is the
Lagrangian derivative with respect to bus reactive demand (the negated
Q-balance multiplier under this package's sign convention) and the voltage
sensitivity is the derivative with respect to the bus voltage upper bound
(the negated upper-bound multiplier). Candidate buses are ranked by the
weighted composite

    score_k = w_q * |os_q_k| + w_v * |os_v_k|,   w_q + w_v = 1,

larger meaning higher capacitor-upgrade priority. A central-difference
re-solve oracle validates the multipliers, guarded against active-set
changes between the two perturbed solves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .acopf import OpfProblem, OpfSolution, OpfStatus, solve
from .model import ValidationError


@dataclass(frozen=True)
class ScoreWeights:
    w_q: float = 0.5
    w_v: float = 0.5

    def __post_init__(self):
        if not all(np.isfinite(w) and w >= 0.0 for w in (self.w_q, self.w_v)):
            raise ValidationError(f"score weights must be finite and nonnegative, got {self}")
        if abs(self.w_q + self.w_v - 1.0) > 1e-9:
            raise ValidationError(
                f"score weights must sum to 1 within 1e-9, got {self.w_q + self.w_v}"
            )


@dataclass(frozen=True)
class RawSensitivity:
    """Signed per-bus sensitivities extracted from one solution."""

    bus_id: int
    os_q: float  # $/Mvar, dL/dQ_D at the bus
    os_v: float  # $/p.u., dL/dV_max at the bus (<= 0)
    status: OpfStatus
    reliable: bool  # False when the solution is not a KKT point


@dataclass(frozen=True)
class SensitivityRecord:
    bus_id: int
    os_q: float  # $/Mvar magnitude used for scoring
    os_v: float  # $/p.u. magnitude
    s_score: float
    rank: int  # 1-based, descending score, ties by ascending bus id


def extract(solution: OpfSolution) -> list:
    """Per-bus (os_q, os_v) from the solution multipliers.

    Non-optimal solutions yield records tagged unreliable; their
    multipliers are not KKT quantities and must not be aggregated.
    """
    reliable = solution.status is OpfStatus.OPTIMAL
    os_q = -solution.lambda_q_per_mvar
    os_v = -solution.mu_v_max
    return [
        RawSensitivity(bus_id=b, os_q=float(os_q[i]), os_v=float(os_v[i]),
                       status=solution.status, reliable=reliable)
        for i, b in enumerate(solution.bus_ids)
    ]


def composite_score(records, weights: ScoreWeights = ScoreWeights()) -> list:
    """Rank records by the weighted composite of sensitivity magnitudes."""
    scored = sorted(
        ((weights.w_q * abs(r.os_q) + weights.w_v * abs(r.os_v), r) for r in records),
        key=lambda pair: (-pair[0], pair[1].bus_id),
    )
    return [
        SensitivityRecord(bus_id=r.bus_id, os_q=abs(r.os_q), os_v=abs(r.os_v),
                          s_score=s, rank=i + 1)
        for i, (s, r) in enumerate(scored)
    ]


@dataclass(frozen=True)
class HourlyAggregate:
    """Hour-aggregated ranking plus the data-quality tally."""

    records: tuple  # ranked SensitivityRecord
    hours_used: int
    hours_excluded: int  # non-Optimal hours dropped from aggregation
    mode: str


RANK_MODES = ("mean", "max")  # how aggregate_hours pools a bus's hours


def aggregate_hours(per_hour, weights: ScoreWeights = ScoreWeights(), mode: str = "mean") -> HourlyAggregate:
    """Aggregate per-hour raw sensitivities into one ranking.

    per_hour: iterable of lists of RawSensitivity (one list per hour).
    Each bus's magnitudes |os_q| and |os_v| are averaged over the reliable
    hours (default), or each one's peak over those hours is taken with
    mode="max", and the results are scored. Under "max" the two peaks may
    come from different hours, so a bus's score is not the peak of its
    per-hour scores. Unreliable hours are excluded and counted.
    """
    if mode not in RANK_MODES:
        raise ValidationError(f"aggregation mode must be one of {RANK_MODES}, got {mode!r}")
    hours = list(per_hour)
    used = [records for records in hours if records and all(r.reliable for r in records)]
    magnitudes: dict = {}  # bus -> [(|os_q|, |os_v|)] in hour order
    for records in used:
        for r in records:
            magnitudes.setdefault(r.bus_id, []).append((abs(r.os_q), abs(r.os_v)))
    agg = np.mean if mode == "mean" else np.max
    flat = [
        RawSensitivity(bus_id=b, os_q=float(agg([q for q, _ in m])),
                       os_v=float(agg([v for _, v in m])), status=OpfStatus.OPTIMAL, reliable=True)
        for b, m in sorted(magnitudes.items())
    ]
    return HourlyAggregate(
        records=tuple(composite_score(flat, weights)),
        hours_used=len(used),
        hours_excluded=len(hours) - len(used),
        mode=mode,
    )


class FdQuantity(enum.Enum):
    QD = "qd"  # bus reactive demand, perturbed in p.u.
    VMAX = "vmax"  # bus voltage upper bound, p.u.


@dataclass(frozen=True)
class FdResult:
    value: float  # $ per p.u. central difference of the solver objective
    available: bool
    reason: str = ""


def _binding_signature(solution: OpfSolution, tol: float = 1e-4):
    """x - lower < tol, then upper - x < tol, over the finite NLP bounds of
    the solution's hour."""
    x, lower, upper = solution.x, solution.problem.lower, solution.problem.upper
    lo, hi = np.isfinite(lower), np.isfinite(upper)
    return np.concatenate([(x - lower)[lo] < tol, (upper - x)[hi] < tol])


def _perturbed(problem: OpfProblem, bus_id: int, quantity: FdQuantity, delta_pu: float) -> OpfProblem:
    """problem's hour with one entry moved, bound to the same structure."""
    net = problem.network
    i = net.bus_index(bus_id)
    if quantity is FdQuantity.QD:
        q_d = problem.q_d.copy()
        q_d[i] += delta_pu * net.s_base
        return replace(problem, q_d=q_d)
    v_max = problem.v_max.copy()
    v_max[i] += delta_pu
    return replace(problem, v_max=v_max)


def fd_oracle(problem: OpfProblem, bus_id: int, quantity: FdQuantity, eps: float = 1e-3) -> FdResult:
    """Two-re-solve central difference of the optimal solver objective.

    eps is in p.u.; the returned value is $ per p.u. of the perturbed
    quantity (divide by s_base for $/Mvar against extract's os_q). The
    oracle declines (available=False) when either perturbed solve is not
    Optimal or the two sit on different sets of their hour's finite NLP
    bounds (problem.lower and problem.upper).
    """
    if eps <= 0.0:
        raise ValidationError("fd eps must be positive")
    if bus_id not in problem.structure.island_bus_ids:
        raise ValidationError(f"bus {bus_id} is not on the energized island")
    up = solve(_perturbed(problem, bus_id, quantity, +eps))
    dn = solve(_perturbed(problem, bus_id, quantity, -eps))
    if up.status is not OpfStatus.OPTIMAL or dn.status is not OpfStatus.OPTIMAL:
        reason = f"perturbed solve status {up.status.value}/{dn.status.value}"
    elif not np.array_equal(_binding_signature(up), _binding_signature(dn)):
        reason = "active set changed across the perturbation"
    else:
        value = (up.solver_objective - dn.solver_objective) / (2.0 * eps)
        return FdResult(value=float(value), available=True)
    return FdResult(value=float("nan"), available=False, reason=reason)


@dataclass(frozen=True)
class RankTable:
    """Cross-case rank comparison over a common bus set."""

    case_labels: tuple
    bus_ids: tuple
    ranks: np.ndarray  # (n_bus, n_case), 1-based
    high_confidence: tuple  # buses ranked identically in every case
    agreement: np.ndarray  # (n_case, n_case) fraction of buses with equal rank

    def stable_top(self, m: int) -> tuple:
        """Buses in the top m of every case."""
        return tuple(b for b, worst in zip(self.bus_ids, self.ranks.max(axis=1)) if worst <= m)


def cross_case_rank_table(rankings: dict) -> RankTable:
    """Compare per-case rankings; rankings maps case label -> ranked records."""
    if len(rankings) < 2:
        raise ValidationError("need rankings from at least two cases to compare")
    bus_sets = {frozenset(r.bus_id for r in recs) for recs in rankings.values()}
    if len(bus_sets) != 1:
        raise ValidationError("case rankings cover different bus sets")
    bus_ids = tuple(sorted(next(iter(bus_sets))))
    row = {b: i for i, b in enumerate(bus_ids)}
    ranks = np.zeros((len(bus_ids), len(rankings)), dtype=int)
    for j, recs in enumerate(rankings.values()):
        for rec in recs:
            ranks[row[rec.bus_id], j] = rec.rank
    return RankTable(
        case_labels=tuple(rankings),
        bus_ids=bus_ids,
        ranks=ranks,
        high_confidence=tuple(b for b, r in zip(bus_ids, ranks) if (r == r[0]).all()),
        agreement=(ranks[:, :, None] == ranks[:, None, :]).mean(axis=0),
    )
