"""Nonlinear AC optimal power flow with selectable objective.

A case is one OpfStructure, built once per network and objective (island,
admittance matrix, variable layout, generator data and bounds, objective
scaling), and its hours as data: each OpfProblem binds one timestep's
demand, fixed injections (grid-following PV as negative load),
voltage-limit overrides and dt to a structure, or builds its own. Shared data is read from problem.structure;
the hour's NLP bounds, problem.lower and problem.upper, are the one
statement of its limits. Each solve evaluates injections on its own
InjectionModel; a structure holds none. The solve returns its hour's
primal-dual point as the NLP holds it (variables, power-balance
multipliers and bound multipliers, in true units), with the power-balance
mismatch its model holds there; voltages, dispatch, shed and every named
multiplier are read from that point.

Sign conventions. Equalities are written g = (generation - demand - flow)
= 0 per bus, where flow is the network injection V_i sum_j V_j (...). The
Lagrangian is L = f + lam^T g - z_l^T (x - l) - z_u^T (u - x); under this
convention the marginal cost of serving extra demand at a bus is -lam, and
bound multipliers are nonnegative.

The optimal-load-delivery (OLD) objective adds one shed fraction s_k in
[0, 1] per load bus, scaling that bus's P and Q demand at constant power
factor, penalized at voll_rate dollars per shed MWh so that shedding is a
lexicographic last resort. A structure places s_k at every island bus; in
an hour where that bus has no P demand, s_k is pinned (bounds [0, 0]) and
scales nothing, and the solver drops it from the NLP it solves.
"""

from __future__ import annotations

import enum
import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from .admittance import build_admittance
from .ipm import IpmOptions, NlpProblem, solve_nlp
from .model import Network, ValidationError
from .powerflow import InjectionModel


class Objective(enum.Enum):
    ECONOMIC = "economic"
    OPTIMAL_LOAD_DELIVERY = "old"


class OpfStatus(enum.Enum):
    OPTIMAL = "optimal"
    MAX_ITERATIONS = "max_iterations"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class SolverOptions:
    """Solver tolerances and objective shaping knobs (config-file keys)."""

    feas_tol: float = 1e-6
    kkt_tol: float = 1e-6
    comp_tol: float = 1e-6
    max_iter: int = 300
    voll_rate: float = 1000.0  # $/MWh penalty on shed energy (OLD)
    eps_pg: float = 1e-3  # total-generation tie-break weight, relative to cost scale
    eps_loss: float = 1e-4  # loss tie-break weight, relative to cost scale

    def __post_init__(self):
        for names, bound, ok in (
            (("feas_tol", "kkt_tol", "comp_tol", "voll_rate"), "> 0", lambda v: v > 0.0),
            (("eps_pg", "eps_loss"), ">= 0", lambda v: v >= 0.0),
        ):
            for name in names:
                value = getattr(self, name)
                if not (np.isfinite(value) and ok(value)):
                    raise ValidationError(
                        f"solver option {name} must be finite and {bound}, got {value}"
                    )
        if self.max_iter < 1:
            raise ValidationError(f"solver option max_iter must be >= 1, got {self.max_iter}")


class OpfStructure:
    """The part of an AC-OPF that is the same in every hour of a case
    (island order, per-unit). It depends only on the network and the
    objective: under OLD there is one shed variable per island bus, and each
    hour pins the ones at buses without P demand. Its arrays are read-only,
    so the hours bound to one structure may be solved concurrently.
    """

    def __init__(self, network: Network, objective: Objective):
        net = self.network = network
        self.objective = objective
        s = net.s_base
        island = net.island_bus_ids()
        self.island_bus_ids = tuple(island)
        self.full_idx = np.array([net.bus_index(b) for b in island], dtype=int)
        self.n = n = len(island)
        self.y = build_admittance(net).submatrix(island).y  # island admittance, p.u.
        self.slack_pos = next(i for i, b in enumerate(island) if net.bus(b).kind.value == "slack")
        self.nonslack = np.array([i for i in range(n) if i != self.slack_pos], dtype=int)
        # default voltage limits per network bus, for hours without overrides
        self.v_min = np.array([b.v_min for b in net.buses])
        self.v_max = np.array([b.v_max for b in net.buses])

        self.gens = net.generators
        if not self.gens:
            raise ValidationError("network has no generators to dispatch")
        pos = {b: i for i, b in enumerate(island)}
        self.gen_pos = np.array([pos[g.bus] for g in self.gens], dtype=int)
        self.ng = ng = len(self.gens)
        self.pg_min = np.array([g.p_min for g in self.gens]) / s
        self.pg_max = np.array([g.p_max for g in self.gens]) / s
        self.qg_min = np.array([g.q_min for g in self.gens]) / s
        self.qg_max = np.array([g.q_max for g in self.gens]) / s
        self.c2 = np.array([g.c2 for g in self.gens])
        self.c1 = np.array([g.c1 for g in self.gens])
        self.c0 = np.array([g.c0 for g in self.gens])

        self.ns = ns = n if objective is Objective.OPTIMAL_LOAD_DELIVERY else 0

        # variable layout: [theta (non-slack), v, pg, qg, s]
        ends = list(itertools.accumulate((n - 1, n, ng, ng, ns), initial=0))
        self.sl_th, self.sl_v, self.sl_pg, self.sl_qg, self.sl_s = map(slice, ends, ends[1:])
        self.nx = ends[-1]

        # objective scaling keeps internal gradients O(100); depends only on
        # the generators, so warm-started multipliers transfer exactly
        g_inf = max(
            (abs(g.c1) + 2.0 * g.c2 * max(abs(g.p_max), abs(g.p_min))) * s
            for g in self.gens
        )
        self.cost_scale = max(1.0, max(abs(g.c1) for g in self.gens))
        self.f_scale = min(1.0, 100.0 / max(100.0, g_inf))

        # NLP pieces no hour changes; the V bounds and the shed upper bounds
        # are filled in per hour
        self.lower = np.concatenate(
            [np.full(n - 1, -np.inf), np.zeros(n), self.pg_min, self.qg_min, np.zeros(ns)]
        )
        self.upper = np.concatenate(
            [np.full(n - 1, np.inf), np.zeros(n), self.pg_max, self.qg_max, np.ones(ns)]
        )
        self.pg_idx, self.qg_idx = (np.arange(sl.start, sl.stop) for sl in (self.sl_pg, self.sl_qg))
        self.hess_pg_diag = 2.0 * self.c2 * s * s
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def _split(self, x):
        theta = np.zeros(self.n)
        theta[self.nonslack] = x[self.sl_th]
        return theta, x[self.sl_v], x[self.sl_pg], x[self.sl_qg], x[self.sl_s]


@dataclass
class OpfProblem:
    """AC-OPF instance for a single timestep. Demand in MW/Mvar per network bus.

    The hour's data (per-bus arrays in network bus order, or None) is bound
    to `structure`, one built from this problem's own network and objective
    when none is given; a given structure must be for the same network and
    objective. Under OLD, shed_live is 0.0 at each bus without P demand,
    pinning its shed variable at 0; lower and upper are the hour's NLP bounds.
    """

    network: Network
    p_d: np.ndarray  # true (sheddable) load per bus, network bus order
    q_d: np.ndarray
    p_inj: np.ndarray = None  # fixed non-dispatchable injections (PV), MW
    q_inj: np.ndarray = None
    objective: Objective = Objective.ECONOMIC
    options: SolverOptions = field(default_factory=SolverOptions)
    v_min: np.ndarray = None  # per-bus p.u. overrides of the bus limits
    v_max: np.ndarray = None
    dt: float = 1.0  # hours represented by this timestep
    structure: OpfStructure = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        net = self.network
        st = self.structure
        if st is None:
            st = self.structure = OpfStructure(net, self.objective)
        elif st.network is not net or st.objective is not self.objective:
            raise ValidationError("structure is for another network or objective")
        n = net.n_bus

        def as_bus_array(arr, name, default, positive=False):
            out = default if arr is None else np.asarray(arr, dtype=float)
            if out.shape != (n,):
                raise ValidationError(f"{name} must have one entry per bus ({n})")
            if not np.isfinite(out).all() or (positive and np.any(out <= 0.0)):
                raise ValidationError(f"{name} must be finite{' and > 0' if positive else ''}")
            return out.copy()

        self.p_d = as_bus_array(self.p_d, "p_d", np.zeros(n))
        self.q_d = as_bus_array(self.q_d, "q_d", np.zeros(n))
        self.p_inj = as_bus_array(self.p_inj, "p_inj", np.zeros(n))
        self.q_inj = as_bus_array(self.q_inj, "q_inj", np.zeros(n))
        if np.any(self.p_d < 0.0):
            raise ValidationError("p_d must be >= 0 (true demand); model injections via p_inj")
        self.v_min = as_bus_array(self.v_min, "v_min", st.v_min, positive=True)
        self.v_max = as_bus_array(self.v_max, "v_max", st.v_max, positive=True)
        if np.any(self.v_min > self.v_max):
            raise ValidationError("v_min override exceeds v_max")
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValidationError(f"dt must be finite and positive, got {self.dt}")

        used = (self.p_d != 0.0) | (self.q_d != 0.0) | (self.p_inj != 0.0) | (self.q_inj != 0.0)
        used[st.full_idx] = False
        outside = [net.bus_ids[i] for i in np.flatnonzero(used)]
        if outside:
            raise ValidationError(f"demand or injection on de-energized buses {outside}")

        s = net.s_base
        idx = st.full_idx
        self.p_load = self.p_d[idx] / s  # p.u., sheddable
        self.q_load = self.q_d[idx] / s
        self.p_fix = self.p_inj[idx] / s  # p.u., non-dispatchable injection
        self.q_fix = self.q_inj[idx] / s
        self.vmin = self.v_min[idx]
        self.vmax = self.v_max[idx]
        self.shed_live = (self.p_load[: st.ns] > 0.0).astype(float)  # 0.0 pins at 0
        self.lower, self.upper = st.lower.copy(), st.upper.copy()
        self.lower[st.sl_v], self.upper[st.sl_v] = self.vmin, self.vmax
        self.upper[st.sl_s] = self.shed_live

    def _balance(self, model, v, theta, p_g, q_g, shed):
        """Per-unit power-balance residuals (dP, dQ) per island bus, injections
        by model: generation minus effective demand (after shedding and fixed
        injections) minus network injection. shed has one entry per shed
        variable (none under ECONOMIC, one per island bus under OLD)."""
        st = self.structure
        keep = np.ones(st.n)
        keep[: st.ns] -= shed * self.shed_live
        p_eff, q_eff = keep * self.p_load - self.p_fix, keep * self.q_load - self.q_fix
        p_net, q_net = model.injections(v, theta)
        dp = np.bincount(st.gen_pos, weights=p_g, minlength=st.n) - p_eff - p_net
        dq = np.bincount(st.gen_pos, weights=q_g, minlength=st.n) - q_eff - q_net
        return dp, dq

    # -- public evaluation ----------------------------------------------------

    def residuals(self, v, theta, p_g_mw, q_g_mvar, shed=None):
        """Per-island-bus power-balance residuals (dP, dQ) in p.u.

        dP_i = sum of generation at i minus effective demand minus network
        injection; PV and shunt reactive contributions enter through the
        fixed-injection arrays and the admittance diagonal respectively. shed
        is a fraction per island bus, or None for no shedding; it scales
        demand under OLD only.
        """
        st = self.structure
        v = np.asarray(v, dtype=float)
        theta = np.asarray(theta, dtype=float)
        if v.shape != (st.n,) or theta.shape != (st.n,):
            raise ValidationError(f"state dimension mismatch: expected {st.n} island buses")
        p_g = np.asarray(p_g_mw, dtype=float) / self.network.s_base
        q_g = np.asarray(q_g_mvar, dtype=float) / self.network.s_base
        if p_g.shape != (st.ng,) or q_g.shape != (st.ng,):
            raise ValidationError(f"expected {st.ng} generator set-points")
        return self._balance(InjectionModel(st.y), v, theta, p_g, q_g, self._shed_vars(shed))

    def _shed_vars(self, shed):
        """The shed variables' values from a fraction per island bus (None:
        all zero)."""
        st = self.structure
        if shed is None:
            return np.zeros(st.ns)
        shed = np.asarray(shed, dtype=float)
        if shed.shape != (st.n,):
            raise ValidationError(f"shed vector must have one entry per island bus ({st.n})")
        return shed[: st.ns]


def objective_cost(p_g_mw, problem: OpfProblem, shed=None) -> float:
    """Objective value in $: generation cost, plus the shed-energy penalty
    (voll_rate * s_k * P_Dk * dt) under optimal load delivery. shed is a
    fraction per island bus, or None for no shedding."""
    st = problem.structure
    p_g_mw = np.asarray(p_g_mw, dtype=float)
    total = sum(g.cost(p) for g, p in zip(st.gens, p_g_mw))
    shed = problem._shed_vars(shed)
    p_shed_mw = shed * problem.p_load[: st.ns] * problem.network.s_base
    total += problem.options.voll_rate * float(p_shed_mw.sum()) * problem.dt
    return float(total)


class _View:
    """A read-only figure of an OpfSolution, declared by where it lives: the
    value at attribute path `of` of the solution (its point, or its
    problem's hour data), cut to the hour's layout slice `sl` when one is
    named, times s_base when in MW or Mvar. A shed block is per island bus,
    all zero under ECONOMIC; a block of the point is a view of it."""

    def __init__(self, of: str, sl: str = None, in_mw: bool = False):
        self.of, self.sl, self.in_mw = operator.attrgetter(of), sl, in_mw

    def __get__(self, sol, owner=None):
        if sol is None:
            return self
        st = sol.problem.structure
        if self.sl == "sl_s" and not st.ns:
            return np.zeros(st.n)
        value = self.of(sol) if self.sl is None else self.of(sol)[getattr(st, self.sl)]
        return value * st.network.s_base if self.in_mw else value


@dataclass(frozen=True)
class OpfSolution:
    """Primal-dual point of one AC-OPF timestep, and every figure read from it.

    x, z_lower and z_upper are in the solved problem's NLP layout; lam is
    its balance multipliers, the P rows then the Q rows. All are in true
    units, multipliers in $ per p.u. quantity, and read-only. Every other
    name is derived from them and the problem when read: lambda_p_per_mw /
    lambda_q_per_mvar give the $/MW and $/Mvar rescalings, and theta at the
    slack bus is exactly 0.
    """

    status: OpfStatus
    problem: OpfProblem  # the hour that was solved
    x: np.ndarray
    lam: np.ndarray  # $ / p.u., the NLP's (lambda_p is in the loss form)
    z_lower: np.ndarray
    z_upper: np.ndarray
    mismatch: np.ndarray  # per-bus max(|dP|, |dQ|), p.u.
    solver_objective: float  # $, tie-breaks in the loss form (see _loss_price)
    iterations: int  # every IPM iteration the solve ran
    mu_final: float

    bus_ids = _View("problem.structure.island_bus_ids")
    s_base = _View("problem.network.s_base")
    v = _View("x", "sl_v")
    p_g = _View("x", "sl_pg", in_mw=True)  # MW
    q_g = _View("x", "sl_qg", in_mw=True)  # Mvar
    shed = _View("x", "sl_s")  # fraction per island bus, zeros unless OLD
    mu_v_max = _View("z_upper", "sl_v")  # $ / p.u. V
    mu_v_min = _View("z_lower", "sl_v")
    mu_pg_max = _View("z_upper", "sl_pg")  # $ / p.u. P, per generator
    mu_pg_min = _View("z_lower", "sl_pg")
    mu_qg_max = _View("z_upper", "sl_qg")
    mu_qg_min = _View("z_lower", "sl_qg")
    mu_shed_max = _View("z_upper", "sl_s")  # per island bus, zeros unless OLD
    mu_shed_min = _View("z_lower", "sl_s")
    p_load_mw = _View("problem.p_load", in_mw=True)  # true (sheddable) load per island bus
    q_load_mvar = _View("problem.q_load", in_mw=True)
    p_inj_mw = _View("problem.p_fix", in_mw=True)  # fixed injections (PV) per island bus

    def __post_init__(self):
        for array in (self.x, self.lam, self.z_lower, self.z_upper, self.mismatch):
            array.flags.writeable = False

    @property
    def gen_buses(self) -> tuple:
        return tuple(g.bus for g in self.problem.structure.gens)

    @property
    def theta(self) -> np.ndarray:
        return self.problem.structure._split(self.x)[0]

    @property
    def lambda_p(self) -> np.ndarray:
        """$ / p.u. P in the loss form: the NLP's plus _loss_price, except
        in an infeasible hour, which reports no multipliers."""
        lam = self.lam[: self.problem.structure.n]
        return lam if self.status is OpfStatus.INFEASIBLE else lam + _loss_price(self.problem)

    @property
    def lambda_q(self) -> np.ndarray:  # $ / p.u. Q
        return self.lam[self.problem.structure.n :]

    @property
    def objective_value(self) -> float:
        """$, per the problem objective."""
        return objective_cost(self.p_g, self.problem, self.shed)

    @property
    def generation_cost(self) -> float:
        """$ of generation alone, excluding any shed penalty."""
        return objective_cost(self.p_g, self.problem)

    @property
    def max_mismatch(self) -> float:
        return float(self.mismatch.max(initial=0.0))

    @property
    def shed_mw(self) -> float:
        """Load shed in the hour, MW, summed over the island buses."""
        return float((self.shed * self.p_load_mw).sum())

    @property
    def lambda_p_per_mw(self) -> np.ndarray:
        return self.lambda_p / self.s_base

    @property
    def lambda_q_per_mvar(self) -> np.ndarray:
        return self.lambda_q / self.s_base


def _loss_price(problem: OpfProblem) -> float:
    """$ per p.u. of network loss: eps_loss * cost_scale * s_base. As the P
    balance gives sum p_g = sum p_eff + losses, the NLP charges it on p_g and
    on shed P load instead, with the same optimum. The loss form adds it to
    lambda_p, and it times (sum p_fix - sum p_load) to the objective."""
    return problem.options.eps_loss * problem.structure.cost_scale * problem.network.s_base


def _assemble_nlp(problem: OpfProblem, x0, f_scale, model: InjectionModel):
    """IPM callbacks for one hour, scaled by f_scale, and the unscaled NLP
    objective in $, which reads only p_g and shed (the loss tie-break is
    _loss_price on both). The rest evaluate injections on the caller's model,
    sharing each point's T. Only the hour's pieces are formed here: the shed
    Jacobian columns and weights; the bounds are the problem's own. jacobian
    returns a new F-ordered matrix per call; hess_lag returns one array per
    assembly, rewritten by each call."""
    pr, st = problem, problem.structure
    n, s = st.n, st.network.s_base
    c2, c1, c0 = st.c2, st.c1, st.c0
    price = _loss_price(pr)
    pg_w = pr.options.eps_pg * st.cost_scale * s + price  # $ per p.u. of p_g
    shed_w = (pr.options.voll_rate * s * pr.dt + price) * pr.p_load[: st.ns]

    def value(x):
        pg_mw = x[st.sl_pg] * s
        f = float(np.sum(c2 * pg_mw**2 + c1 * pg_mw + c0))
        f += pg_w * float(x[st.sl_pg].sum())
        f += float(shed_w @ x[st.sl_s])
        return f

    def gradient(x):
        g = np.zeros(st.nx)
        g[st.sl_pg] = (2.0 * c2 * x[st.sl_pg] * s + c1) * s + pg_w
        g[st.sl_s] = shed_w
        return f_scale * g

    def constraints(x):
        theta, v, pg, qg, sh = st._split(x)
        return np.concatenate(pr._balance(model, v, theta, pg, qg, sh))

    # generator and shed columns do not depend on x; F-ordered, the layout
    # the solver keeps a Jacobian in. Built per solve, as a structure that
    # held them would keep a dense 2n x nx array alive with its solutions.
    jac_fixed = np.zeros((2 * n, st.nx), order="F")
    jac_fixed[st.gen_pos, st.pg_idx] = 1.0
    jac_fixed[n + st.gen_pos, st.qg_idx] = 1.0
    jac_fixed[: st.ns, st.sl_s] = np.diag(pr.p_load[: st.ns])
    jac_fixed[n : n + st.ns, st.sl_s] = np.diag(pr.q_load[: st.ns] * pr.shed_live)

    def jacobian(x):
        theta, v, pg, qg, sh = st._split(x)
        dp_dth, dp_dv, dq_dth, dq_dv = model.jacobian(v, theta)
        jac = jac_fixed.copy(order="F")
        jac[:n, st.sl_th] = -dp_dth[:, st.nonslack]
        jac[:n, st.sl_v] = -dp_dv
        jac[n:, st.sl_th] = -dq_dth[:, st.nonslack]
        jac[n:, st.sl_v] = -dq_dv
        return jac

    def objective(x):
        return f_scale * value(x)

    ns = st.nonslack
    h = np.zeros((st.nx, st.nx))  # this solve's; each call rewrites its nonzero blocks

    def hess_lag(x, lam, sigma):
        theta, v, pg, qg, sh = st._split(x)
        # only the constraints, which carry -injections, depend on (V, theta)
        h_thth, h_vth, h_vv = model.hessian_weighted(v, theta, -lam[:n], -lam[n:])
        h_vth = h_vth[:, ns]
        h[st.sl_th, st.sl_th] = h_thth[ns][:, ns]
        h[st.sl_v, st.sl_v] = h_vv
        h[st.sl_v, st.sl_th] = h_vth
        h[st.sl_th, st.sl_v] = h_vth.T
        h[st.pg_idx, st.pg_idx] = sigma * f_scale * st.hess_pg_diag
        return h

    nlp = NlpProblem(x0, pr.lower, pr.upper, 2 * n, objective, gradient, constraints, jacobian, hess_lag)
    return nlp, value


def _flat_start(problem: OpfProblem):
    st = problem.structure
    x0 = np.zeros(st.nx)
    x0[st.sl_v] = np.clip(1.0, problem.vmin, problem.vmax)
    x0[st.sl_pg] = 0.5 * (st.pg_min + st.pg_max)
    x0[st.sl_qg] = 0.5 * (st.qg_min + st.qg_max)
    return x0


def _solution_point(problem: OpfProblem, sol: OpfSolution):
    """(x, lam, z_lower, z_upper) of sol in problem's NLP variable layout, in
    true (unscaled) units. The layouts of one island and generator set
    differ only in the shed block, present under OLD alone, so the shared
    prefix is copied and a shed block sol lacks is zero."""
    st, src = problem.structure, sol.problem.structure
    if src.island_bus_ids != st.island_bus_ids:
        raise ValidationError("solution is for a different island")
    if src.ng != st.ng:
        raise ValidationError("solution has a different generator set")
    k = min(st.nx, src.nx)
    x, zl, zu = np.zeros((3, st.nx))
    x[:k], zl[:k], zu[:k] = sol.x[:k], sol.z_lower[:k], sol.z_upper[:k]
    return x, sol.lam, zl, zu


def solve(problem: OpfProblem, warm_start: OpfSolution = None) -> OpfSolution:
    """Solve the AC-OPF with one interior-point run.

    The run starts flat, or from warm_start's stored primal-dual point
    exactly, mapped to this problem's layout by _solution_point: x, the
    balance multipliers and the bound multipliers. A warm run starts near
    that point and floors the carried bound multipliers at 1e-6 / slack, so
    its first barrier parameter follows their complementarity products.
    Whatever status it ends with is returned; there is no second attempt, so
    `iterations` counts every iteration spent.
    """
    pr, st = problem, problem.structure
    f_scale = st.f_scale
    if warm_start is None:
        x0, warm = _flat_start(pr), None
    else:
        x0, *duals = _solution_point(pr, warm_start)
        warm = tuple(d * f_scale for d in duals)

    model = InjectionModel(st.y)  # this solve's own
    nlp, value_fn = _assemble_nlp(pr, x0, f_scale, model)
    opts = IpmOptions(
        tol_stat=pr.options.kkt_tol * f_scale,
        tol_feas=pr.options.feas_tol,
        tol_comp=pr.options.comp_tol * f_scale,
        max_iter=pr.options.max_iter,
    )
    res = solve_nlp(nlp, opts, warm)

    status = {"optimal": OpfStatus.OPTIMAL, "max_iter": OpfStatus.MAX_ITERATIONS,
              "infeasible": OpfStatus.INFEASIBLE}[res.status]

    # at the final point, which the solve's model still holds
    theta, v, pg, qg, sh = st._split(res.x)
    dp, dq = pr._balance(model, v, theta, pg, qg, sh)
    return OpfSolution(
        status=status,
        problem=pr,
        x=res.x,
        lam=res.lam / f_scale,
        z_lower=res.z_lower / f_scale,
        z_upper=res.z_upper / f_scale,
        mismatch=np.maximum(np.abs(dp), np.abs(dq)),
        solver_objective=value_fn(res.x) + _loss_price(pr) * float(pr.p_fix.sum() - pr.p_load.sum()),
        iterations=res.iterations,
        mu_final=res.mu,
    )


@dataclass(frozen=True)
class KktReport:
    stationarity: float  # inf-norm of the Lagrangian gradient, true units
    feasibility: float  # max of balance residuals and bound violations, p.u.
    complementarity: float  # max |multiplier * slack|
    min_multiplier: float
    nonneg_violation: bool
    passed: bool


def kkt_report(solution: OpfSolution, problem: OpfProblem) -> KktReport:
    """Recompute KKT residual norms from the returned point and multipliers,
    independently of solver internals. Stationarity is with respect to the
    NLP's objective and multipliers; the loss form's objective differs by
    _loss_price times the summed P balance rows, so its residual is the same."""
    pr = problem
    x, lam, zl, zu = _solution_point(pr, solution)
    nlp, _ = _assemble_nlp(pr, x, 1.0, InjectionModel(pr.structure.y))

    grad = nlp.gradient(x)
    jac = nlp.jacobian(x)
    r_dual = grad + jac.T @ lam - zl + zu
    stationarity = float(np.abs(r_dual).max())

    c = nlp.constraints(x)
    lo, hi = pr.lower, pr.upper
    viol = np.maximum(lo - x, 0.0)
    viol = np.maximum(viol, np.maximum(x - hi, 0.0))
    feasibility = float(max(np.abs(c).max(), viol.max()))

    has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
    comp_terms = np.concatenate(
        [np.abs(zl[has_lo] * (x - lo)[has_lo]), np.abs(zu[has_hi] * (hi - x)[has_hi])]
    )
    complementarity = float(comp_terms.max(initial=0.0))

    min_multiplier = float(min(zl.min(initial=0.0), zu.min(initial=0.0)))
    nonneg_violation = min_multiplier < -1e-9
    opts = pr.options
    passed = (
        stationarity <= opts.kkt_tol
        and feasibility <= opts.feas_tol
        and complementarity <= opts.comp_tol
        and not nonneg_violation
    )
    return KktReport(
        stationarity=stationarity,
        feasibility=feasibility,
        complementarity=complementarity,
        min_multiplier=min_multiplier,
        nonneg_violation=nonneg_violation,
        passed=passed,
    )
