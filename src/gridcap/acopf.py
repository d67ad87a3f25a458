"""Nonlinear AC optimal power flow with selectable objective.

A case is one OpfStructure, built once per network and objective (island,
injection model, variable layout, generator data and bounds, objective
scaling, constant Jacobian columns, Hessian index objects), and its hours
as data: each OpfProblem binds one timestep's demand, fixed injections
(grid-following PV as negative load), voltage-limit overrides and dt to a
structure, or builds its own. The solve returns a primal-dual point:
generator set-points, voltages, nodal power-balance multipliers and bound
multipliers, with recomputed power-balance mismatch.

Sign conventions. Equalities are written g = (generation - demand - flow)
= 0 per bus, where flow is the network injection V_i sum_j V_j (...). The
Lagrangian is L = f + lam^T g - z_l^T (x - l) - z_u^T (u - x); under this
convention the marginal cost of serving extra demand at a bus is -lam, and
bound multipliers are nonnegative.

The optimal-load-delivery (OLD) objective adds one shed fraction s_k in
[0, 1] per load bus, scaling that bus's P and Q demand at constant power
factor, penalized at voll_rate dollars per shed MWh so that shedding is a
lexicographic last resort. A structure places s_k at each island bus with
positive P demand in some hour it was built from; in an hour where that
bus has no P demand, s_k is pinned (bounds [0, 0]) and scales nothing.
"""

from __future__ import annotations

import enum
import itertools
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
    (island order, per-unit).

    p_d is MW demand per network bus, one row (n_bus,) or one per hour
    (hours, n_bus); under OLD a shed variable goes at each island bus whose
    P demand is positive in some row. Its arrays are read-only, so the hours
    bound to one structure may be solved concurrently.
    """

    def __init__(self, network: Network, objective: Objective, p_d):
        net = self.network = network
        self.objective = objective
        s = net.s_base
        island = net.island_bus_ids()
        self.island_bus_ids = tuple(island)
        self.full_idx = np.array([net.bus_index(b) for b in island], dtype=int)
        self.n = n = len(island)
        ymat = build_admittance(net).submatrix(island)
        self.inj_model = InjectionModel(ymat.g, ymat.b)
        self.slack_pos = next(i for i, b in enumerate(island) if net.bus(b).kind.value == "slack")
        self.nonslack = np.array([i for i in range(n) if i != self.slack_pos], dtype=int)

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

        if objective is Objective.OPTIMAL_LOAD_DELIVERY:
            loads = np.atleast_2d(np.asarray(p_d, dtype=float))[:, self.full_idx] / s
            self.shed_pos = np.flatnonzero((loads > 0.0).any(axis=0))
        else:
            self.shed_pos = np.zeros(0, dtype=int)
        self.ns = ns = len(self.shed_pos)

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

        # NLP pieces no hour changes; the V bounds, the shed upper bounds and
        # the shed Jacobian columns are filled in per hour
        self.lower = np.concatenate(
            [np.full(n - 1, -np.inf), np.zeros(n), self.pg_min, self.qg_min, np.zeros(ns)]
        )
        self.upper = np.concatenate(
            [np.full(n - 1, np.inf), np.zeros(n), self.pg_max, self.qg_max, np.ones(ns)]
        )
        self.pg_idx, self.qg_idx, self.s_idx = (
            np.arange(sl.start, sl.stop) for sl in (self.sl_pg, self.sl_qg, self.sl_s)
        )
        self.jac_gen = np.zeros((2 * n, self.nx))
        self.jac_gen[self.gen_pos, self.pg_idx] = 1.0
        self.jac_gen[n + self.gen_pos, self.qg_idx] = 1.0
        self.th_block = np.ix_(self.nonslack, self.nonslack)
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

    The hour's data is bound to `structure`, one built from this problem's
    own network, objective and p_d when none is given. A given structure
    must be for the same network and objective and, under OLD, have a shed
    variable at every bus with positive P demand. Structure attributes (n,
    gens, pg_max, shed_pos, ...) read through the problem.
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
        n = net.n_bus

        def as_bus_array(arr, name, default):
            if arr is None:
                return default.copy()
            if isinstance(arr, dict):
                out = default.copy()
                for bus_id, val in arr.items():
                    out[net.bus_index(bus_id)] = float(val)
                return out
            out = np.asarray(arr, dtype=float)
            if out.shape != (n,):
                raise ValidationError(f"{name} must have one entry per bus ({n})")
            return out.copy()

        self.p_d = as_bus_array(self.p_d, "p_d", np.zeros(n))
        self.q_d = as_bus_array(self.q_d, "q_d", np.zeros(n))
        self.p_inj = as_bus_array(self.p_inj, "p_inj", np.zeros(n))
        self.q_inj = as_bus_array(self.q_inj, "q_inj", np.zeros(n))
        if np.any(self.p_d < 0.0):
            raise ValidationError("p_d must be >= 0 (true demand); model injections via p_inj")
        if not (np.isfinite(self.p_d).all() and np.isfinite(self.q_d).all()):
            raise ValidationError("demand must be finite")
        self.v_min = as_bus_array(self.v_min, "v_min", np.array([b.v_min for b in net.buses]))
        self.v_max = as_bus_array(self.v_max, "v_max", np.array([b.v_max for b in net.buses]))
        if np.any(self.v_min > self.v_max):
            raise ValidationError("v_min override exceeds v_max")
        if self.dt <= 0.0:
            raise ValidationError("dt must be positive")

        st = self.structure
        if st is None:
            st = self.structure = OpfStructure(net, self.objective, self.p_d)
        elif st.network is not net or st.objective is not self.objective:
            raise ValidationError("structure is for another network or objective")
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
        live = self.p_load[st.shed_pos] > 0.0
        old = self.objective is Objective.OPTIMAL_LOAD_DELIVERY
        if old and np.count_nonzero(live) < np.count_nonzero(self.p_load > 0.0):
            raise ValidationError("P demand at a bus with no shed variable in the structure")
        self.shed_live = live.astype(float)  # 0.0 pins a shed variable at 0

    def __getattr__(self, name):
        structure = self.__dict__.get("structure")
        if structure is None or name.startswith("__"):
            raise AttributeError(name)
        return getattr(structure, name)

    def _balance(self, v, theta, p_g, q_g, shed):
        """Per-unit power-balance residuals (dP, dQ) per island bus: generation
        minus effective demand (after shedding and fixed injections) minus
        network injection. shed has one entry per shed variable."""
        st = self.structure
        keep = np.ones(st.n)
        keep[st.shed_pos] -= shed * self.shed_live
        p_eff, q_eff = keep * self.p_load - self.p_fix, keep * self.q_load - self.q_fix
        p_net, q_net = st.inj_model.injections(v, theta)
        dp = np.bincount(st.gen_pos, weights=p_g, minlength=st.n) - p_eff - p_net
        dq = np.bincount(st.gen_pos, weights=q_g, minlength=st.n) - q_eff - q_net
        return dp, dq

    # -- public evaluation ----------------------------------------------------

    def residuals(self, v, theta, p_g_mw, q_g_mvar, shed=None):
        """Per-island-bus power-balance residuals (dP, dQ) in p.u.

        dP_i = sum of generation at i minus effective demand minus network
        injection; PV and shunt reactive contributions enter through the
        fixed-injection arrays and the admittance diagonal respectively.
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
        shed_v = np.zeros(st.ns) if shed is None else np.asarray(shed, dtype=float)
        if shed_v.shape == (st.n,):  # full length, else one entry per shed variable
            shed_v = shed_v[st.shed_pos]
        elif shed_v.shape != (st.ns,):
            raise ValidationError("shed vector has wrong length")
        return self._balance(v, theta, p_g, q_g, shed_v)

    def shed_fractions_full(self, shed_vars):
        out = np.zeros(self.structure.n)
        out[self.structure.shed_pos] = shed_vars
        return out


def objective_cost(p_g_mw, problem: OpfProblem, shed=None) -> float:
    """Objective value in $: generation cost, plus the shed-energy penalty
    (voll_rate * s_k * P_Dk * dt) under optimal load delivery."""
    st = problem.structure
    p_g_mw = np.asarray(p_g_mw, dtype=float)
    total = sum(g.cost(p) for g, p in zip(st.gens, p_g_mw))
    if problem.objective is Objective.OPTIMAL_LOAD_DELIVERY and shed is not None:
        shed = np.asarray(shed, dtype=float)
        if shed.shape == (st.n,):
            shed = shed[st.shed_pos]
        p_shed_mw = shed * problem.p_load[st.shed_pos] * problem.network.s_base
        total += problem.options.voll_rate * float(p_shed_mw.sum()) * problem.dt
    return float(total)


@dataclass
class OpfSolution:
    """Primal-dual solution of one AC-OPF timestep.

    Multipliers are in $ per p.u. quantity; lambda_p_per_mw / lambda_q_per_mvar
    give the $/MW and $/Mvar rescalings. theta at the slack bus is exactly 0.
    """

    status: OpfStatus
    bus_ids: tuple
    gen_buses: tuple
    v: np.ndarray
    theta: np.ndarray
    p_g: np.ndarray  # MW
    q_g: np.ndarray  # Mvar
    shed: np.ndarray  # fraction per island bus, zeros unless OLD
    lambda_p: np.ndarray  # $ / p.u. P
    lambda_q: np.ndarray  # $ / p.u. Q
    mu_v_max: np.ndarray  # $ / p.u. V
    mu_v_min: np.ndarray
    mu_pg_max: np.ndarray  # $ / p.u. P, per generator
    mu_pg_min: np.ndarray
    mu_qg_max: np.ndarray
    mu_qg_min: np.ndarray
    mu_shed_max: np.ndarray  # per island bus, zeros where no shed variable
    mu_shed_min: np.ndarray
    mismatch: np.ndarray  # per-bus max(|dP|, |dQ|), p.u.
    objective_value: float  # $, per the problem objective
    solver_objective: float  # $, including tie-break scalarization terms
    iterations: int  # every IPM iteration the solve ran
    mu_final: float
    s_base: float
    p_load_mw: np.ndarray = None  # true (sheddable) load per island bus
    q_load_mvar: np.ndarray = None
    p_inj_mw: np.ndarray = None  # fixed injections (PV) per island bus
    generation_cost: float = 0.0  # $ of generation alone, excluding any shed penalty

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


def _assemble_nlp(problem: OpfProblem, x0, f_scale):
    """IPM callbacks for one hour, scaled by f_scale, and the unscaled solver
    objective in $. Only the hour's pieces are formed here: the V bounds, the
    shed bounds, Jacobian columns and weights."""
    pr, st = problem, problem.structure
    n, s = st.n, st.network.s_base
    c2, c1, c0 = st.c2, st.c1, st.c0
    eps1 = pr.options.eps_pg * st.cost_scale
    eps2 = pr.options.eps_loss * st.cost_scale
    shed_w = pr.options.voll_rate * pr.p_load[st.shed_pos] * s * pr.dt
    lower, upper = st.lower.copy(), st.upper.copy()
    lower[st.sl_v], upper[st.sl_v] = pr.vmin, pr.vmax
    upper[st.sl_s] = pr.shed_live

    def value(x):
        theta, v, pg, qg, sh = st._split(x)
        pg_mw = pg * s
        f = float(np.sum(c2 * pg_mw**2 + c1 * pg_mw + c0))
        f += eps1 * float(pg_mw.sum())
        f += eps2 * s * st.inj_model.losses(v, theta)
        f += float(shed_w @ sh)
        return f

    def grad(x):
        theta, v, pg, qg, sh = st._split(x)
        g = np.zeros(st.nx)
        pg_mw = pg * s
        g[st.sl_pg] = (2.0 * c2 * pg_mw + c1) * s + eps1 * s
        dp_dth, dp_dv, _, _ = st.inj_model.jacobian(v, theta)
        dloss_dth = dp_dth.sum(axis=0)
        dloss_dv = dp_dv.sum(axis=0)
        g[st.sl_th] = eps2 * s * dloss_dth[st.nonslack]
        g[st.sl_v] = eps2 * s * dloss_dv
        g[st.sl_s] = shed_w
        return g

    def constraints(x):
        theta, v, pg, qg, sh = st._split(x)
        return np.concatenate(pr._balance(v, theta, pg, qg, sh))

    # generator and shed columns do not depend on x
    jac_fixed = st.jac_gen.copy()
    jac_fixed[st.shed_pos, st.s_idx] = pr.p_load[st.shed_pos]
    jac_fixed[n + st.shed_pos, st.s_idx] = pr.q_load[st.shed_pos] * pr.shed_live

    def jacobian(x):
        theta, v, pg, qg, sh = st._split(x)
        dp_dth, dp_dv, dq_dth, dq_dv = st.inj_model.jacobian(v, theta)
        jac = jac_fixed.copy()
        jac[:n, st.sl_th] = -dp_dth[:, st.nonslack]
        jac[:n, st.sl_v] = -dp_dv
        jac[n:, st.sl_th] = -dq_dth[:, st.nonslack]
        jac[n:, st.sl_v] = -dq_dv
        return jac

    def objective(x):
        return f_scale * value(x)

    def gradient(x):
        return f_scale * grad(x)

    eps2s = eps2 * s
    ones = np.ones(n)
    ns_idx, th_block = st.nonslack, st.th_block

    def hess_lag(x, lam, sigma):
        theta, v, pg, qg, sh = st._split(x)
        lam_p, lam_q = lam[:n], lam[n:]
        # constraint part carries -injections; objective loss term adds +eps2
        mu_w = -lam_p + sigma * f_scale * eps2s * ones
        nu_w = -lam_q
        h_thth, h_vth, h_vv = st.inj_model.hessian_weighted(v, theta, mu_w, nu_w)
        h = np.zeros((st.nx, st.nx))
        h[st.sl_th, st.sl_th] = h_thth[th_block]
        h[st.sl_v, st.sl_v] = h_vv
        h[st.sl_v, st.sl_th] = h_vth[:, ns_idx]
        h[st.sl_th, st.sl_v] = h_vth[:, ns_idx].T
        h[st.pg_idx, st.pg_idx] = sigma * f_scale * st.hess_pg_diag
        return h

    nlp = NlpProblem(x0, lower, upper, 2 * n, objective, gradient, constraints, jacobian, hess_lag)
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
    true (unscaled) units. Shed multipliers are read at problem's shed buses."""
    st = problem.structure
    if tuple(sol.bus_ids) != st.island_bus_ids:
        raise ValidationError("solution is for a different island")
    if len(sol.p_g) != st.ng:
        raise ValidationError("solution has a different generator set")
    x, zl, zu = np.zeros(st.nx), np.zeros(st.nx), np.zeros(st.nx)
    x[st.sl_th] = sol.theta[st.nonslack]
    x[st.sl_v] = sol.v
    x[st.sl_pg] = sol.p_g / st.network.s_base
    x[st.sl_qg] = sol.q_g / st.network.s_base
    x[st.sl_s] = sol.shed[st.shed_pos]
    for sl, lo, hi in (
        (st.sl_v, sol.mu_v_min, sol.mu_v_max),
        (st.sl_pg, sol.mu_pg_min, sol.mu_pg_max),
        (st.sl_qg, sol.mu_qg_min, sol.mu_qg_max),
        (st.sl_s, sol.mu_shed_min[st.shed_pos], sol.mu_shed_max[st.shed_pos]),
    ):
        zl[sl], zu[sl] = lo, hi
    return x, np.concatenate([sol.lambda_p, sol.lambda_q]), zl, zu


def solve(problem: OpfProblem, warm_start: OpfSolution = None) -> OpfSolution:
    """Solve the AC-OPF with one interior-point run.

    The run starts flat, or from warm_start's whole primal-dual point: its
    voltages, dispatch and shed fractions, its balance multipliers and its
    voltage, generator and shed bound multipliers (shed ones read at this
    problem's shed buses). A warm run starts near that point and floors the
    carried bound multipliers at 1e-6 / slack, so its first barrier parameter
    follows their complementarity products. Whatever status it ends with is
    returned; there is no second attempt, so `iterations` counts every
    iteration spent.
    """
    pr, st = problem, problem.structure
    f_scale = st.f_scale
    if warm_start is None:
        x0, warm = _flat_start(pr), None
    else:
        x0, *duals = _solution_point(pr, warm_start)
        warm = tuple(d * f_scale for d in duals)

    nlp, value_fn = _assemble_nlp(pr, x0, f_scale)
    opts = IpmOptions(
        tol_stat=pr.options.kkt_tol * f_scale,
        tol_feas=pr.options.feas_tol,
        tol_comp=pr.options.comp_tol * f_scale,
        max_iter=pr.options.max_iter,
    )
    res = solve_nlp(nlp, opts, warm)

    status = {"optimal": OpfStatus.OPTIMAL, "max_iter": OpfStatus.MAX_ITERATIONS,
              "infeasible": OpfStatus.INFEASIBLE}[res.status]

    s = st.network.s_base
    theta, v, pg, qg, sh = st._split(res.x)
    lam_true = res.lam / f_scale
    zl = res.z_lower / f_scale
    zu = res.z_upper / f_scale
    n = st.n

    p_g_mw = pg * s
    q_g_mvar = qg * s
    dp, dq = pr.residuals(v, theta, p_g_mw, q_g_mvar, sh)
    mismatch = np.maximum(np.abs(dp), np.abs(dq))

    return OpfSolution(
        status=status,
        bus_ids=st.island_bus_ids,
        gen_buses=tuple(g.bus for g in st.gens),
        v=v.copy(),
        theta=theta.copy(),
        p_g=p_g_mw,
        q_g=q_g_mvar,
        shed=pr.shed_fractions_full(sh),
        lambda_p=lam_true[:n].copy(),
        lambda_q=lam_true[n:].copy(),
        mu_v_max=zu[st.sl_v].copy(),
        mu_v_min=zl[st.sl_v].copy(),
        mu_pg_max=zu[st.sl_pg].copy(),
        mu_pg_min=zl[st.sl_pg].copy(),
        mu_qg_max=zu[st.sl_qg].copy(),
        mu_qg_min=zl[st.sl_qg].copy(),
        mu_shed_max=pr.shed_fractions_full(zu[st.sl_s]),
        mu_shed_min=pr.shed_fractions_full(zl[st.sl_s]),
        mismatch=mismatch,
        objective_value=objective_cost(p_g_mw, pr, sh if st.ns else None),
        solver_objective=value_fn(res.x),
        iterations=res.iterations,
        mu_final=res.mu,
        s_base=s,
        p_load_mw=pr.p_load * s,
        q_load_mvar=pr.q_load * s,
        p_inj_mw=pr.p_fix * s,
        generation_cost=float(sum(g.cost(p) for g, p in zip(st.gens, p_g_mw))),
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
    solver objective (including tie-break terms)."""
    pr = problem
    x, lam, zl, zu = _solution_point(pr, solution)
    nlp, _ = _assemble_nlp(pr, x, 1.0)

    grad = nlp.gradient(x)
    jac = nlp.jacobian(x)
    r_dual = grad + jac.T @ lam - zl + zu
    stationarity = float(np.abs(r_dual).max())

    c = nlp.constraints(x)
    lo, hi = nlp.lower, nlp.upper
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
