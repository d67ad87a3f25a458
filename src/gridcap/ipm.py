"""Primal-dual interior-point solver for smooth nonlinear programs.

Handles problems of the form

    minimize f(x)   subject to  c(x) = 0,  l <= x <= u,

with logarithmic barriers on the bounds, Newton steps on the perturbed KKT
system, fraction-to-boundary stepping, an l1-penalty line search and, where
that fails away from feasibility, an elastic restoration by the same loop:
min ||c(x)||_1 over the box, which either restores feasibility or certifies
local infeasibility. Multipliers for the equalities (lam) and bounds
(z_lower / z_upper) are first-class outputs.

The barrier parameter is adaptive: each iteration re-centers at
mu = sigma * (average complementarity gap), so mu tracks the actual
progress toward the boundary instead of following a fixed outer schedule.
Inertia of the KKT matrix is corrected by a growing primal regularization
so that Newton directions are descent directions even where the Lagrangian
Hessian is indefinite. Each inertia trial is one Bunch-Kaufman LDL^T
factorization: the inertia is read off its block-diagonal D and, when it is
right, the Newton step is taken from the same factors.

Each point is evaluated once. A `_Point` computes f, grad, the Jacobian and
c on first use and keeps them, and an accepted trial point becomes the
current point with the values its acceptance test computed, so the next
convergence check and line search reuse them. The KKT matrix is built once
per iteration; the inertia trials rewrite only its two diagonals.

A warm start carries a nearby solution's whole primal-dual point: x, lam and
the bound multipliers, with a small bound push and a small floor on the
multipliers.

Inside the loop the bound multipliers are compact, like the slacks: one
entry per finite lower bound (fn.lb) and per finite upper bound (fn.ub).
solve_nlp returns them full length, zero where a bound is infinite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.linalg

_FROZEN_GAP = 1e-11
_MU_INIT = 1e-1
_SIGMA = 0.1  # centering: mu = sigma * complementarity gap / #bounds
_TAU_MIN = 0.99
_ARMIJO_ETA = 1e-4
_MAX_BACKTRACKS = 30
_BOUND_PUSH = 1e-2
# A warm start is a nearby solution: start close to it, near the end of the
# central path, keeping its bound multipliers (Yildirim & Wright, SIAM J.
# Optim. 12(3), 2002). Each initial bound multiplier is floored at
# mu0 / slack, mu0 = _MU_INIT cold or _WARM_MU_INIT warm; the first
# iteration's mu is then _SIGMA times the mean multiplier-slack product.
_WARM_MU_INIT = 1e-6
_WARM_BOUND_PUSH = 1e-6


@dataclass
class NlpProblem:
    """Callback bundle describing one NLP instance.

    hess_lag(x, lam, sigma) must return sigma * hess(f) + sum_j lam_j * hess(c_j).
    """

    x0: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    n_eq: int
    objective: callable
    gradient: callable
    constraints: callable
    jacobian: callable
    hess_lag: callable


@dataclass
class IpmOptions:
    tol_stat: float = 1e-6
    tol_feas: float = 1e-6
    tol_comp: float = 1e-6
    max_iter: int = 200


@dataclass
class IpmResult:
    """Outcome of one solve. From solve_nlp, x, z_lower and z_upper are full
    length, with the pinned variables' net bound multipliers recovered from
    stationarity. _ipm returns x on the free variables and z_lower / z_upper
    compact on the finite bounds (fn.lb / fn.ub)."""

    x: np.ndarray
    lam: np.ndarray
    z_lower: np.ndarray
    z_upper: np.ndarray
    status: str  # optimal | max_iter | infeasible
    iterations: int
    mu: float
    stat_err: float
    feas_err: float
    comp_err: float
    restorations: int = 0
    message: str = ""


class _Funcs:
    """Problem callbacks restricted to the free (non-frozen) variables."""

    def __init__(self, prob: NlpProblem):
        lower = np.asarray(prob.lower, dtype=float)
        upper = np.asarray(prob.upper, dtype=float)
        if np.any(upper - lower < -1e-12):
            raise ValueError("variable bounds cross (upper < lower)")
        self.prob = prob
        self.n_full = lower.size
        self.frozen = (upper - lower) <= _FROZEN_GAP
        self.free = ~self.frozen
        self.x_frozen = np.zeros(self.n_full)
        if np.any(self.frozen):
            self.x_frozen[self.frozen] = 0.5 * (lower[self.frozen] + upper[self.frozen])
        self.lower = lower[self.free]
        self.upper = upper[self.free]
        self.n = int(self.free.sum())
        self.m = prob.n_eq
        self.has_lb = np.isfinite(self.lower)
        self.has_ub = np.isfinite(self.upper)
        # indices of the finite bounds and their values
        self.lb = np.flatnonzero(self.has_lb)
        self.ub = np.flatnonzero(self.has_ub)
        self.lo_b = self.lower[self.lb]
        self.hi_b = self.upper[self.ub]

    def expand(self, x):
        full = self.x_frozen.copy()
        full[self.free] = x
        return full

    def f(self, x):
        return float(self.prob.objective(self.expand(x)))

    def grad_full(self, x):
        return np.asarray(self.prob.gradient(self.expand(x)), dtype=float)

    def grad(self, x):
        return self.grad_full(x)[self.free]

    def c(self, x):
        return np.asarray(self.prob.constraints(self.expand(x)), dtype=float)

    def jac_full(self, x):
        return np.asarray(self.prob.jacobian(self.expand(x)), dtype=float)

    def jac(self, x):
        return self.jac_full(x)[:, self.free]

    def hess(self, x, lam, sigma):
        h = np.asarray(self.prob.hess_lag(self.expand(x), lam, sigma), dtype=float)
        return h[np.ix_(self.free, self.free)]

    def slacks(self, x):
        """(x - l, u - x) on the finite lower and upper bounds."""
        return x[self.lb] - self.lo_b, self.hi_b - x[self.ub]

    def interior(self, x, push=_BOUND_PUSH):
        """Clip a start point strictly inside the bounds, by push times each
        box width (times max(1, |bound|) where only one side is finite)."""
        lo, hi = self.lower, self.upper
        x = np.asarray(x, dtype=float).copy()
        both = self.has_lb & self.has_ub
        if np.any(both):
            pad = push * (hi[both] - lo[both])
            x[both] = np.clip(x[both], lo[both] + pad, hi[both] - pad)
        only_lb = self.has_lb & ~self.has_ub
        if np.any(only_lb):
            pad = push * np.maximum(1.0, np.abs(lo[only_lb]))
            x[only_lb] = np.maximum(x[only_lb], lo[only_lb] + pad)
        only_ub = self.has_ub & ~self.has_lb
        if np.any(only_ub):
            pad = push * np.maximum(1.0, np.abs(hi[only_ub]))
            x[only_ub] = np.minimum(x[only_ub], hi[only_ub] - pad)
        return x

    def barrier_value(self, x, mu):
        sl, su = self.slacks(x)
        if np.any(sl <= 0.0) or np.any(su <= 0.0):
            return np.inf  # outside the open box: reject in any merit comparison
        out = 0.0
        if sl.size:
            out -= mu * float(np.log(sl).sum())
        if su.size:
            out -= mu * float(np.log(su).sum())
        return out

    def barrier_grad(self, x, mu):
        sl, su = self.slacks(x)
        g = np.zeros_like(x)
        g[self.lb] -= mu / sl
        g[self.ub] += mu / su
        return g


class _Point:
    """One primal point; each callback value is computed on first use and kept."""

    def __init__(self, fn: _Funcs, x):
        self.fn = fn
        self.x = x

    @cached_property
    def f(self):
        return self.fn.f(self.x)

    @cached_property
    def g(self):
        return self.fn.grad(self.x)

    @cached_property
    def J(self):
        return self.fn.jac(self.x)

    @cached_property
    def c(self):
        return self.fn.c(self.x)

    @cached_property
    def viol(self):
        return float(np.abs(self.c).max(initial=0.0)) if self.fn.m else 0.0

    @cached_property
    def slacks(self):
        return self.fn.slacks(self.x)


def _inertia(ldu: np.ndarray, ipiv: np.ndarray):
    """(positive, negative, zero) eigenvalue counts of D in a lower dsytrf
    factorization. A 2x2 pivot is two consecutive rows with negative ipiv (runs
    of such rows pair up from their start); its eigenvalues are closed-form."""
    diag = ldu.diagonal()
    in_pair = ipiv < 0
    idx = np.arange(diag.size)
    run_start = np.maximum.accumulate(np.where(in_pair & ~np.r_[False, in_pair[:-1]], idx, 0))
    first = np.flatnonzero(in_pair & ((idx - run_start) % 2 == 0))
    p, q, b = diag[first], diag[first + 1], ldu[first + 1, first]
    mid = 0.5 * (p + q)
    rad = np.hypot(0.5 * (p - q), b)
    evs = np.concatenate([diag[~in_pair], mid + rad, mid - rad])
    d_max = max(1.0, float(np.abs(diag).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    tol = 10.0 * np.finfo(float).eps * d_max
    pos = int(np.count_nonzero(evs > tol))
    neg = int(np.count_nonzero(evs < -tol))
    return pos, neg, diag.size - pos - neg


def _max_step(z, dz, tau):
    """Largest alpha in [0, 1] keeping z + alpha*dz a fraction tau inside
    z >= 0: the fraction-to-boundary rule, for the multipliers and, on the
    slacks (dz = dx[lb] and -dx[ub]), for x."""
    shrink = dz < 0.0
    if not np.any(shrink):
        return 1.0
    return max(min(1.0, float(np.min(-tau * z[shrink] / dz[shrink]))), 0.0)


def _solve_kkt(kkt, rhs, n, m):
    """Check the inertia of the KKT system and solve it, both from one
    Bunch-Kaufman LDL^T factorization (dsytrf, then dsytrs) of the matrix under
    symmetric equilibration (a congruence, so inertia is preserved), which keeps
    the zero-eigenvalue test meaningful when barrier terms dominate. kkt itself
    is never written to.

    Raises ValueError on a non-finite entry, and LinAlgError with 'inertia' or
    'zero' in the message when the direction would not be a descent direction.
    """
    norms = np.abs(kkt).max(axis=1)
    d = 1.0 / np.sqrt(np.maximum(norms, 1e-12))
    scaled = kkt * d[:, None] * d[None, :]
    if not np.isfinite(scaled).all():
        raise ValueError("array must not contain infs or NaNs")
    lapack = scipy.linalg.lapack
    lwork = int(lapack.dsytrf_lwork(scaled.shape[0], lower=1)[0])  # full size: blocked code
    ldu, ipiv, _ = lapack.dsytrf(scaled, lower=1, lwork=lwork)
    pos, neg, zero = _inertia(ldu, ipiv)
    if zero > 0:
        raise np.linalg.LinAlgError(f"kkt matrix has {zero} zero eigenvalues")
    if pos != n or neg != m:
        raise np.linalg.LinAlgError(
            f"wrong inertia ({pos},{neg},{zero}), expected ({n},{m},0)"
        )
    step, _ = lapack.dsytrs(ldu, ipiv, d * rhs, lower=1)
    return d * step


def _comp_error(pt: _Point, zl, zu, mu):
    sl, su = pt.slacks
    comp_l = float(np.abs(zl * sl - mu).max(initial=0.0))
    return max(0.0, comp_l, float(np.abs(zu * su - mu).max(initial=0.0)))


def _kkt_errors(fn: _Funcs, pt: _Point, lam, zl, zu, mu):
    """(stationarity, feasibility, complementarity) errors at pt; zl and zu
    compact on fn.lb and fn.ub."""
    r_dual = pt.g + (pt.J.T @ lam if fn.m else 0.0)
    r_dual[fn.lb] -= zl
    r_dual[fn.ub] += zu
    stat = float(np.abs(r_dual).max(initial=0.0))
    return stat, pt.viol, _comp_error(pt, zl, zu, mu)


def _restore(fn: _Funcs, pt: _Point, mu: float, opts: IpmOptions, budget: int):
    """Elastic feasibility restoration (Waechter & Biegler, Math. Prog. 106,
    2006, sec. 3.3): from x_r = pt.x, solve

        min  sum(p + n) + (zeta/2) ||D (x - x_r)||^2
        s.t. c(x) - p + n = 0,  l <= x <= u,  p, n >= 0

    with zeta = sqrt(max(mu, ||c(x_r)||_inf)) and D = diag(min(1, 1/|x_r|)),
    by the same interior-point loop, started cold from x_r, p = max(c, 0) and
    n = max(-c, 0), with no restoration of its own. The problem is always
    feasible; at its KKT point x is first-order stationary for ||c(x)||_1
    over the box, up to the proximity term. It stops at a tenth of tol_feas
    in feasibility and complementarity, so that where the l1 minimum is zero
    p and n end well below tol_feas.

    Returns (x, status, iterations) of the elastic solve.
    """
    n, m = fn.n, fn.m
    x_r, c_r = pt.x, pt.c
    d2 = np.sqrt(max(mu, pt.viol)) / np.maximum(1.0, np.abs(x_r)) ** 2
    eye = np.eye(m)
    zeros = np.zeros((2 * m, 2 * m))
    y0 = np.concatenate([x_r, np.maximum(c_r, 0.0), np.maximum(-c_r, 0.0)])
    elastic = _Funcs(
        NlpProblem(
            x0=y0,
            lower=np.concatenate([fn.lower, np.zeros(2 * m)]),
            upper=np.concatenate([fn.upper, np.full(2 * m, np.inf)]),
            n_eq=m,
            objective=lambda y: float(y[n:].sum()) + 0.5 * float(d2 @ (y[:n] - x_r) ** 2),
            gradient=lambda y: np.concatenate([d2 * (y[:n] - x_r), np.ones(2 * m)]),
            constraints=lambda y: fn.c(y[:n]) - y[n : n + m] + y[n + m :],
            jacobian=lambda y: np.hstack([fn.jac(y[:n]), -eye, eye]),
            hess_lag=lambda y, lam, sigma: scipy.linalg.block_diag(
                fn.hess(y[:n], lam, 0.0) + np.diag(sigma * d2), zeros
            ),
        )
    )
    tight = 0.1 * opts.tol_feas
    eopts = IpmOptions(opts.tol_stat, tight, min(opts.tol_comp, tight), budget)
    res = _ipm(elastic, eopts, y0, None, elastic=True)
    return res.x[:n], res.status, res.iterations


def solve_nlp(prob: NlpProblem, opts: IpmOptions = None, warm=None) -> IpmResult:
    """Solve prob from prob.x0.

    warm, when given, is (lam, z_lower, z_upper) of a nearby solution, the
    bound multipliers full-length like x0: the start is pushed only
    _WARM_BOUND_PUSH of each box width inside and each finite-bound
    multiplier starts at max(z_warm, _WARM_MU_INIT / slack). Without it the
    start is cold: a push of _BOUND_PUSH, lam = 0 and multipliers
    _MU_INIT / slack. Either way the first iteration's mu is _SIGMA times
    the mean multiplier-slack product: 0.01 cold, at least 1e-7 warm and
    more where the carried multipliers times the new slacks are larger.

    When the line search fails away from feasibility, _restore solves the
    elastic l1 problem. If it reaches tol_feas the solve resumes, cold, from
    its x. If it converges above tol_feas the status is "infeasible", and the
    result is the elastic point itself, with its l1-minimal violation and no
    multipliers (all zero). If it runs out of iterations the status is
    "max_iter".

    A KKT matrix with a non-finite entry (a NaN or inf Hessian or Jacobian
    at a finite point) ends the solve at once with status "max_iter",
    message "non-finite KKT matrix" and the best point seen.
    """
    fn = _Funcs(prob)
    free = np.flatnonzero(fn.free)
    at_lb, at_ub = free[fn.lb], free[fn.ub]  # full-length positions of the finite bounds
    if warm is not None:
        lam, z_lower, z_upper = (np.asarray(a, dtype=float) for a in warm)
        warm = (lam, z_lower[at_lb], z_upper[at_ub])
    x0 = np.asarray(prob.x0, dtype=float)[fn.free]
    res = _ipm(fn, opts or IpmOptions(), x0, warm)
    zl, zu = np.zeros(fn.n_full), np.zeros(fn.n_full)
    zl[at_lb] = res.z_lower
    zu[at_ub] = res.z_upper
    if np.any(fn.frozen):
        # recover net bound multipliers of pinned variables from stationarity
        g_full = fn.grad_full(res.x) + (fn.jac_full(res.x).T @ res.lam if fn.m else 0.0)
        gz = g_full[fn.frozen]
        zl[fn.frozen] = np.maximum(gz, 0.0)
        zu[fn.frozen] = np.maximum(-gz, 0.0)
    return replace(res, x=fn.expand(res.x), z_lower=zl, z_upper=zu)


def _ipm(fn: _Funcs, opts: IpmOptions, x0, warm, elastic=False) -> IpmResult:
    """The interior-point loop on fn's free variables, from x0 and warm
    (None, or (lam, z_lower, z_upper) with the bound multipliers compact on
    fn.lb and fn.ub). The result is on the free variables, its bound
    multipliers compact. The elastic solve itself (elastic=True) ends at a
    line-search failure instead of restoring."""
    lb, ub = fn.lb, fn.ub
    m, n = fn.m, fn.n
    zeros = (np.zeros(m), np.zeros(lb.size), np.zeros(ub.size))  # lam, zl, zu

    def start(x, warm):
        push, mu = (_BOUND_PUSH, _MU_INIT) if warm is None else (_WARM_BOUND_PUSH, _WARM_MU_INIT)
        lam, z_lower, z_upper = warm or zeros
        pt = _Point(fn, fn.interior(x, push))
        sl, su = pt.slacks
        return pt, lam, np.maximum(z_lower, mu / sl), np.maximum(z_upper, mu / su), mu

    pt, lam, zl, zu, mu = start(x0, warm)
    rho = 1.0
    it = 0
    restorations = 0
    need_restore = False
    message = "iteration limit reached"
    best = None  # (point, lam, zl, zu) of least violation, then least f

    def remember():
        # No held array is written in place, so holding references is safe. f is
        # needed only to break a tie in the violation.
        nonlocal best
        if best is None or pt.viol < best[0].viol or (
            pt.viol == best[0].viol and pt.f < best[0].f
        ):
            best = (pt, lam, zl, zu)

    def finish(status, message="", errors=None):
        stat, feas, comp = errors or _kkt_errors(fn, pt, lam, zl, zu, 0.0)
        return IpmResult(pt.x, lam, zl, zu, status, it, mu, stat, feas, comp, restorations, message)

    remember()

    while it < opts.max_iter:
        if need_restore:
            need_restore = False
            if pt.viol <= max(opts.tol_feas, 1e-9):
                # already feasible: the line search deadlocked, so recenter the
                # duals and continue instead of running a full restoration
                sl, su = pt.slacks
                mu = max(mu * 10.0, 1e-6)
                zl, zu = mu / sl, mu / su
                rho = 1.0
                continue
            if elastic or not np.isfinite(pt.viol):
                message = "line search failed"
                break  # no nested restoration, and no elastic problem at a non-finite c
            restorations += 1
            x, status, used = _restore(fn, pt, mu, opts, opts.max_iter - it)
            it += used
            pt, (lam, zl, zu) = _Point(fn, x), zeros
            remember()
            if status != "optimal":
                message = "elastic restoration did not converge"
                break
            if pt.viol > opts.tol_feas:
                return finish("infeasible", "elastic restoration converged above tol_feas")
            pt, lam, zl, zu, mu = start(x, None)
            rho = 1.0
            continue

        stat, feas, comp0 = _kkt_errors(fn, pt, lam, zl, zu, 0.0)
        if stat <= opts.tol_stat and feas <= opts.tol_feas and comp0 <= opts.tol_comp:
            return finish("optimal", errors=(stat, feas, comp0))

        # Adaptive barrier: mu follows the actual complementarity gap, so the
        # central path is tracked without an outer loop that can stall.
        x = pt.x
        sl, su = pt.slacks
        n_bounds = lb.size + ub.size
        gap = float((zl * sl).sum()) + float((zu * su).sum())
        mu = max(_SIGMA * gap / n_bounds, 1e-14) if n_bounds else 0.0

        it += 1

        # Newton step on the perturbed KKT system, z eliminated.
        sig = np.zeros(n)
        sig[lb] += zl / sl
        sig[ub] += zu / su
        grad, jac, c = pt.g, pt.J, pt.c
        w = fn.hess(x, lam, 1.0)

        r_x = grad + (jac.T @ lam if m else 0.0)
        r_x[lb] -= mu / sl
        r_x[ub] += mu / su
        rhs = -np.concatenate([r_x, c])

        # Built once; each inertia trial rewrites only the diagonal, as
        # w + diag(sig) + delta_w*I and -delta_c*I. Off the diagonal the w block
        # holds w + 0.0 and the constraint block -0.0: the bits those sums give.
        kkt = np.zeros((n + m, n + m))
        np.add(w, 0.0, out=kkt[:n, :n])
        if m:
            kkt[:n, n:] = jac.T
            kkt[n:, :n] = jac
            kkt[n:, n:] = -0.0
        diag = kkt.reshape(-1)[:: n + m + 1]
        w_sig = w.diagonal() + sig
        scale = max(1.0, float(np.abs(w).max(initial=0.0)))
        delta_w, delta_c = 0.0, 0.0
        step = None
        try:
            for _ in range(14):
                diag[:n] = w_sig + delta_w
                diag[n:] = -delta_c
                try:
                    step = _solve_kkt(kkt, rhs, n, m)
                    break
                except np.linalg.LinAlgError as exc:
                    if "zero" in str(exc) and m:
                        delta_c = max(delta_c * 100.0, 1e-8)
                delta_w = 1e-8 * scale if delta_w == 0.0 else delta_w * 100.0
                if delta_w > 1e12 * scale:
                    break
        except ValueError:  # no regularization makes a NaN or inf entry finite
            message = "non-finite KKT matrix"
            break
        if step is None:
            need_restore = True
            continue

        dx = step[:n]
        dlam = step[n:] if m else np.zeros(0)
        dzl = (mu - zl * dx[lb]) / sl - zl
        dzu = (mu + zu * dx[ub]) / su - zu

        tau = min(max(_TAU_MIN, 1.0 - mu), 0.99995)
        alpha_max = min(_max_step(sl, dx[lb], tau), _max_step(su, -dx[ub], tau))
        alpha_z = min(_max_step(zl, dzl, tau), _max_step(zu, dzu, tau))

        # Acceptance 1: the full primal-dual step contracts the perturbed KKT
        # residual. A primal merit cannot see dual progress, so Newton steps
        # that mostly re-center the multipliers are accepted on the residual
        # itself (this is also what quadratic local convergence requires).
        # Stationarity and feasibility do not depend on mu.
        err_before = max(stat, feas, _comp_error(pt, zl, zu, mu))
        trial = _Point(fn, x + alpha_max * dx)
        lam_t = lam + alpha_max * dlam if m else lam
        zl_t = zl + alpha_z * dzl
        zu_t = zu + alpha_z * dzu
        sl_t, su_t = trial.slacks
        interior = bool(np.all(sl_t > 0.0) and np.all(su_t > 0.0))
        if (
            interior
            and max(_kkt_errors(fn, trial, lam_t, zl_t, zu_t, mu))
            <= (1.0 - 1e-4 * alpha_max) * err_before
        ):
            pt, lam = trial, lam_t
        else:
            # Acceptance 2: l1 merit line search on the primal step.
            c_norm = float(np.abs(c).sum())
            grad_bar = grad + fn.barrier_grad(x, mu)
            if m and c_norm > 1e-14:
                needed = float(grad_bar @ dx) / (0.9 * c_norm)
                rho = max(rho, needed + 1.0, 1.1 * float(np.abs(lam + dlam).max(initial=0.0)))
            phi0 = pt.f + fn.barrier_value(x, mu) + rho * c_norm
            slope = float(grad_bar @ dx) - rho * c_norm

            # floating-point noise floor: do not reject steps on rounding error
            noise = 100.0 * np.finfo(float).eps * max(1.0, abs(phi0))
            alpha = alpha_max
            cand = trial
            accepted = False
            for _ in range(_MAX_BACKTRACKS):
                phit = cand.f + fn.barrier_value(cand.x, mu) + rho * float(np.abs(cand.c).sum())
                if phit <= phi0 + _ARMIJO_ETA * alpha * min(slope, 0.0) + noise:
                    accepted = True
                    break
                alpha *= 0.5
                if alpha < 1e-12:
                    break
                cand = _Point(fn, x + alpha * dx)
            if not accepted and alpha_max * float(np.abs(dx).max(initial=0.0)) <= 1e-14 * max(
                1.0, float(np.abs(x).max(initial=0.0))
            ):
                alpha, cand = alpha_max, trial
                accepted = True
            if not accepted:
                need_restore = True
                continue
            pt = cand
            lam = lam + alpha * dlam if m else lam
        # keep duals safely positive and bounded relative to mu (centrality guard)
        sl, su = pt.slacks
        sl, su = np.maximum(sl, 1e-300), np.maximum(su, 1e-300)
        zl = np.clip(zl_t, mu / (1e10 * sl), 1e10 * mu / sl)
        zu = np.clip(zu_t, mu / (1e10 * su), 1e10 * mu / su)
        remember()

    # iteration budget exhausted, restoration failed or a KKT matrix was not
    # finite: report the best point seen
    pt, lam, zl, zu = best
    return finish("max_iter", message)
