"""Nonlinear AC optimal power flow with selectable objective.

One OpfProblem is one timestep: a network, per-bus demand, optional fixed
injections (grid-following PV as negative load), and an objective. The
solve returns a primal-dual point: generator set-points, voltages, nodal
power-balance multipliers and bound multipliers, with recomputed
power-balance mismatch.

Sign conventions. Equalities are written g = (generation - demand - flow)
= 0 per bus, where flow is the network injection V_i sum_j V_j (...). The
Lagrangian is L = f + lam^T g - z_l^T (x - l) - z_u^T (u - x); under this
convention the marginal cost of serving extra demand at a bus is -lam, and
bound multipliers are nonnegative.

The optimal-load-delivery (OLD) objective adds one shed fraction s_k in
[0, 1] per load bus, scaling that bus's P and Q demand at constant power
factor, penalized at voll_rate dollars per shed MWh so that shedding is a
lexicographic last resort.
"""

from __future__ import annotations

import enum
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


@dataclass
class OpfProblem:
    """AC-OPF instance for a single timestep. Demand in MW/Mvar per network bus."""

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

        island = net.island_bus_ids()
        outside = [
            bid
            for bid in net.bus_ids
            if bid not in island
            and (
                self.p_d[net.bus_index(bid)] != 0.0
                or self.q_d[net.bus_index(bid)] != 0.0
                or self.p_inj[net.bus_index(bid)] != 0.0
                or self.q_inj[net.bus_index(bid)] != 0.0
            )
        ]
        if outside:
            raise ValidationError(f"demand or injection on de-energized buses {outside}")
        self._build(island)

    # -- internal problem arrays (island order, per-unit) --------------------

    def _build(self, island):
        net = self.network
        s = net.s_base
        self.island_bus_ids = tuple(island)
        full_idx = [net.bus_index(b) for b in island]
        self.n = len(island)
        ymat = build_admittance(net).submatrix(island)
        self.inj_model = InjectionModel(ymat.g, ymat.b)
        self.slack_pos = next(
            i for i, b in enumerate(island) if net.bus(b).kind.value == "slack"
        )

        self.p_load = self.p_d[full_idx] / s  # p.u., sheddable
        self.q_load = self.q_d[full_idx] / s
        self.p_fix = self.p_inj[full_idx] / s  # p.u., non-dispatchable injection
        self.q_fix = self.q_inj[full_idx] / s
        self.vmin = self.v_min[full_idx]
        self.vmax = self.v_max[full_idx]

        self.gens = net.generators
        if not self.gens:
            raise ValidationError("network has no generators to dispatch")
        pos = {b: i for i, b in enumerate(island)}
        self.gen_pos = np.array([pos[g.bus] for g in self.gens], dtype=int)
        self.ng = len(self.gens)
        self.pg_min = np.array([g.p_min for g in self.gens]) / s
        self.pg_max = np.array([g.p_max for g in self.gens]) / s
        self.qg_min = np.array([g.q_min for g in self.gens]) / s
        self.qg_max = np.array([g.q_max for g in self.gens]) / s

        if self.objective is Objective.OPTIMAL_LOAD_DELIVERY:
            self.shed_pos = np.nonzero(self.p_load > 0.0)[0]
        else:
            self.shed_pos = np.zeros(0, dtype=int)
        self.ns = len(self.shed_pos)

        # variable layout: [theta (non-slack), v, pg, qg, s]
        nth = self.n - 1
        self.sl_th = slice(0, nth)
        self.sl_v = slice(nth, nth + self.n)
        self.sl_pg = slice(nth + self.n, nth + self.n + self.ng)
        self.sl_qg = slice(nth + self.n + self.ng, nth + self.n + 2 * self.ng)
        self.sl_s = slice(nth + self.n + 2 * self.ng, nth + self.n + 2 * self.ng + self.ns)
        self.nx = nth + self.n + 2 * self.ng + self.ns
        self.nonslack = np.array(
            [i for i in range(self.n) if i != self.slack_pos], dtype=int
        )

        # objective scaling keeps internal gradients O(100); depends only on
        # network + options so warm-started multipliers transfer exactly
        g_inf = max(
            (abs(g.c1) + 2.0 * g.c2 * max(abs(g.p_max), abs(g.p_min))) * s
            for g in self.gens
        )
        self.cost_scale = max(1.0, max(abs(g.c1) for g in self.gens))
        self.f_scale = min(1.0, 100.0 / max(100.0, g_inf))

    def _split(self, x):
        theta = np.zeros(self.n)
        theta[self.nonslack] = x[self.sl_th]
        return theta, x[self.sl_v], x[self.sl_pg], x[self.sl_qg], x[self.sl_s]

    def _effective_demand(self, shed):
        """Per-unit effective (P, Q) demand after shedding and fixed injections."""
        keep = np.ones(self.n)
        if self.ns:
            keep_shed = np.ones(self.n)
            keep_shed[self.shed_pos] -= shed
            keep = keep_shed
        return keep * self.p_load - self.p_fix, keep * self.q_load - self.q_fix

    # -- public evaluation ----------------------------------------------------

    def residuals(self, v, theta, p_g_mw, q_g_mvar, shed=None):
        """Per-island-bus power-balance residuals (dP, dQ) in p.u.

        dP_i = sum of generation at i minus effective demand minus network
        injection; PV and shunt reactive contributions enter through the
        fixed-injection arrays and the admittance diagonal respectively.
        """
        v = np.asarray(v, dtype=float)
        theta = np.asarray(theta, dtype=float)
        if v.shape != (self.n,) or theta.shape != (self.n,):
            raise ValidationError(
                f"state dimension mismatch: expected {self.n} island buses"
            )
        p_g = np.asarray(p_g_mw, dtype=float) / self.network.s_base
        q_g = np.asarray(q_g_mvar, dtype=float) / self.network.s_base
        if p_g.shape != (self.ng,) or q_g.shape != (self.ng,):
            raise ValidationError(f"expected {self.ng} generator set-points")
        if shed is None:
            shed_v = np.zeros(self.ns)
        else:
            shed_full = np.asarray(shed, dtype=float)
            if shed_full.shape == (self.n,):
                shed_v = shed_full[self.shed_pos]
            elif shed_full.shape == (self.ns,):
                shed_v = shed_full
            else:
                raise ValidationError("shed vector has wrong length")
        p_eff, q_eff = self._effective_demand(shed_v)
        p_net, q_net = self.inj_model.injections(v, theta)
        dp = np.bincount(self.gen_pos, weights=p_g, minlength=self.n) - p_eff - p_net
        dq = np.bincount(self.gen_pos, weights=q_g, minlength=self.n) - q_eff - q_net
        return dp, dq

    def shed_fractions_full(self, shed_vars):
        out = np.zeros(self.n)
        if self.ns:
            out[self.shed_pos] = shed_vars
        return out


def objective_cost(p_g_mw, problem: OpfProblem, shed=None) -> float:
    """Objective value in $: generation cost, plus the shed-energy penalty
    (voll_rate * s_k * P_Dk * dt) under optimal load delivery."""
    p_g_mw = np.asarray(p_g_mw, dtype=float)
    total = sum(g.cost(p) for g, p in zip(problem.gens, p_g_mw))
    if problem.objective is Objective.OPTIMAL_LOAD_DELIVERY and shed is not None:
        shed = np.asarray(shed, dtype=float)
        if shed.shape == (problem.n,):
            shed = shed[problem.shed_pos]
        p_shed_mw = shed * problem.p_load[problem.shed_pos] * problem.network.s_base
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
    def lambda_p_per_mw(self) -> np.ndarray:
        return self.lambda_p / self.s_base

    @property
    def lambda_q_per_mvar(self) -> np.ndarray:
        return self.lambda_q / self.s_base


def _internal_objective_parts(problem: OpfProblem):
    """Returns (value, grad, hess_diag_pg, loss_weight) callables in true $."""
    s = problem.network.s_base
    c2 = np.array([g.c2 for g in problem.gens])
    c1 = np.array([g.c1 for g in problem.gens])
    c0 = np.array([g.c0 for g in problem.gens])
    eps1 = problem.options.eps_pg * problem.cost_scale
    eps2 = problem.options.eps_loss * problem.cost_scale
    voll = problem.options.voll_rate
    shed_w = (
        voll * problem.p_load[problem.shed_pos] * s * problem.dt
        if problem.ns
        else np.zeros(0)
    )

    def value(x):
        theta, v, pg, qg, sh = problem._split(x)
        pg_mw = pg * s
        f = float(np.sum(c2 * pg_mw**2 + c1 * pg_mw + c0))
        f += eps1 * float(pg_mw.sum())
        f += eps2 * s * problem.inj_model.losses(v, theta)
        f += float(shed_w @ sh)
        return f

    def grad(x):
        theta, v, pg, qg, sh = problem._split(x)
        g = np.zeros(problem.nx)
        pg_mw = pg * s
        g[problem.sl_pg] = (2.0 * c2 * pg_mw + c1) * s + eps1 * s
        dp_dth, dp_dv, _, _ = problem.inj_model.jacobian(v, theta)
        dloss_dth = dp_dth.sum(axis=0)
        dloss_dv = dp_dv.sum(axis=0)
        g[problem.sl_th] = eps2 * s * dloss_dth[problem.nonslack]
        g[problem.sl_v] = eps2 * s * dloss_dv
        g[problem.sl_s] = shed_w
        return g

    hess_pg_diag = 2.0 * c2 * s * s
    return value, grad, hess_pg_diag


def _assemble_nlp(problem: OpfProblem, x0, f_scale):
    """Build IPM callbacks for one problem, scaled by f_scale."""
    pr = problem
    n, ns = pr.n, pr.ns
    value, grad_fn, hess_pg_diag = _internal_objective_parts(pr)
    eps2s = pr.options.eps_loss * pr.cost_scale * pr.network.s_base
    ones = np.ones(n)

    lower = np.concatenate(
        [np.full(n - 1, -np.inf), pr.vmin, pr.pg_min, pr.qg_min, np.zeros(ns)]
    )
    upper = np.concatenate(
        [np.full(n - 1, np.inf), pr.vmax, pr.pg_max, pr.qg_max, np.ones(ns)]
    )

    def constraints(x):
        theta, v, pg, qg, sh = pr._split(x)
        p_eff, q_eff = pr._effective_demand(sh)
        p_net, q_net = pr.inj_model.injections(v, theta)
        cp = np.bincount(pr.gen_pos, weights=pg, minlength=n) - p_eff - p_net
        cq = np.bincount(pr.gen_pos, weights=qg, minlength=n) - q_eff - q_net
        return np.concatenate([cp, cq])

    # generator and shed columns do not depend on x
    pg_idx, qg_idx, s_idx = (np.arange(sl.start, sl.stop) for sl in (pr.sl_pg, pr.sl_qg, pr.sl_s))
    jac_fixed = np.zeros((2 * n, pr.nx))
    jac_fixed[pr.gen_pos, pg_idx] = 1.0
    jac_fixed[n + pr.gen_pos, qg_idx] = 1.0
    jac_fixed[pr.shed_pos, s_idx] = pr.p_load[pr.shed_pos]
    jac_fixed[n + pr.shed_pos, s_idx] = pr.q_load[pr.shed_pos]

    def jacobian(x):
        theta, v, pg, qg, sh = pr._split(x)
        dp_dth, dp_dv, dq_dth, dq_dv = pr.inj_model.jacobian(v, theta)
        jac = jac_fixed.copy()
        jac[:n, pr.sl_th] = -dp_dth[:, pr.nonslack]
        jac[:n, pr.sl_v] = -dp_dv
        jac[n:, pr.sl_th] = -dq_dth[:, pr.nonslack]
        jac[n:, pr.sl_v] = -dq_dv
        return jac

    def objective(x):
        return f_scale * value(x)

    def gradient(x):
        return f_scale * grad_fn(x)

    ns_idx = pr.nonslack
    th_block = np.ix_(ns_idx, ns_idx)

    def hess_lag(x, lam, sigma):
        theta, v, pg, qg, sh = pr._split(x)
        lam_p, lam_q = lam[:n], lam[n:]
        # constraint part carries -injections; objective loss term adds +eps2
        mu_w = -lam_p + sigma * f_scale * eps2s * ones
        nu_w = -lam_q
        h_thth, h_vth, h_vv = pr.inj_model.hessian_weighted(v, theta, mu_w, nu_w)
        h = np.zeros((pr.nx, pr.nx))
        h[pr.sl_th, pr.sl_th] = h_thth[th_block]
        h[pr.sl_v, pr.sl_v] = h_vv
        h[pr.sl_v, pr.sl_th] = h_vth[:, ns_idx]
        h[pr.sl_th, pr.sl_v] = h_vth[:, ns_idx].T
        h[pg_idx, pg_idx] = sigma * f_scale * hess_pg_diag
        return h

    return NlpProblem(
        x0=x0,
        lower=lower,
        upper=upper,
        n_eq=2 * n,
        objective=objective,
        gradient=gradient,
        constraints=constraints,
        jacobian=jacobian,
        hess_lag=hess_lag,
    ), value


def _flat_start(problem: OpfProblem):
    x0 = np.zeros(problem.nx)
    x0[problem.sl_v] = np.clip(1.0, problem.vmin, problem.vmax)
    x0[problem.sl_pg] = 0.5 * (problem.pg_min + problem.pg_max)
    x0[problem.sl_qg] = 0.5 * (problem.qg_min + problem.qg_max)
    return x0


def _solution_point(problem: OpfProblem, sol: OpfSolution):
    """(x, lam, z_lower, z_upper) of sol in problem's NLP variable layout, in
    true (unscaled) units. Shed multipliers are read at problem's shed buses."""
    pr = problem
    if tuple(sol.bus_ids) != tuple(pr.island_bus_ids):
        raise ValidationError("solution is for a different island")
    if len(sol.p_g) != pr.ng:
        raise ValidationError("solution has a different generator set")
    x, zl, zu = np.zeros(pr.nx), np.zeros(pr.nx), np.zeros(pr.nx)
    x[pr.sl_th] = sol.theta[pr.nonslack]
    x[pr.sl_v] = sol.v
    x[pr.sl_pg] = sol.p_g / pr.network.s_base
    x[pr.sl_qg] = sol.q_g / pr.network.s_base
    x[pr.sl_s] = sol.shed[pr.shed_pos]
    for sl, lo, hi in (
        (pr.sl_v, sol.mu_v_min, sol.mu_v_max),
        (pr.sl_pg, sol.mu_pg_min, sol.mu_pg_max),
        (pr.sl_qg, sol.mu_qg_min, sol.mu_qg_max),
        (pr.sl_s, sol.mu_shed_min[pr.shed_pos], sol.mu_shed_max[pr.shed_pos]),
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
    pr = problem
    f_scale = pr.f_scale
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

    status = {
        "optimal": OpfStatus.OPTIMAL,
        "max_iter": OpfStatus.MAX_ITERATIONS,
        "infeasible": OpfStatus.INFEASIBLE,
    }[res.status]

    s = pr.network.s_base
    theta, v, pg, qg, sh = pr._split(res.x)
    lam_true = res.lam / f_scale
    zl = res.z_lower / f_scale
    zu = res.z_upper / f_scale
    n, ng = pr.n, pr.ng

    p_g_mw = pg * s
    q_g_mvar = qg * s
    shed_full = pr.shed_fractions_full(sh)
    dp, dq = pr.residuals(v, theta, p_g_mw, q_g_mvar, sh)
    mismatch = np.maximum(np.abs(dp), np.abs(dq))

    mu_shed_min = np.zeros(n)
    mu_shed_max = np.zeros(n)
    if pr.ns:
        mu_shed_min[pr.shed_pos] = zl[pr.sl_s]
        mu_shed_max[pr.shed_pos] = zu[pr.sl_s]

    obj = objective_cost(p_g_mw, pr, sh if pr.ns else None)

    return OpfSolution(
        status=status,
        bus_ids=pr.island_bus_ids,
        gen_buses=tuple(g.bus for g in pr.gens),
        v=v.copy(),
        theta=theta.copy(),
        p_g=p_g_mw,
        q_g=q_g_mvar,
        shed=shed_full,
        lambda_p=lam_true[:n].copy(),
        lambda_q=lam_true[n:].copy(),
        mu_v_max=zu[pr.sl_v].copy(),
        mu_v_min=zl[pr.sl_v].copy(),
        mu_pg_max=zu[pr.sl_pg].copy(),
        mu_pg_min=zl[pr.sl_pg].copy(),
        mu_qg_max=zu[pr.sl_qg].copy(),
        mu_qg_min=zl[pr.sl_qg].copy(),
        mu_shed_max=mu_shed_max,
        mu_shed_min=mu_shed_min,
        mismatch=mismatch,
        objective_value=obj,
        solver_objective=value_fn(res.x),
        iterations=res.iterations,
        mu_final=res.mu,
        s_base=s,
        p_load_mw=pr.p_load * s,
        q_load_mvar=pr.q_load * s,
        p_inj_mw=pr.p_fix * s,
        generation_cost=float(sum(g.cost(p) for g, p in zip(pr.gens, p_g_mw))),
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

    slack_lo = np.where(np.isfinite(lo), x - lo, np.inf)
    slack_hi = np.where(np.isfinite(hi), hi - x, np.inf)
    comp_terms = np.concatenate(
        [
            np.abs(zl[np.isfinite(lo)] * slack_lo[np.isfinite(lo)]),
            np.abs(zu[np.isfinite(hi)] * slack_hi[np.isfinite(hi)]),
        ]
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
