"""Primal-dual interior-point solver for smooth nonlinear programs.

Handles problems of the form

    minimize f(x)   subject to  c(x) = 0,  l <= x <= u,

with logarithmic barriers on the bounds, Newton steps on the perturbed KKT
system, fraction-to-boundary stepping, an l1-penalty line search and a
Gauss-Newton feasibility-restoration fallback. Multipliers for the
equalities (lam) and bounds (z_lower / z_upper) are first-class outputs.

The barrier parameter is adaptive: each iteration re-centers at
mu = sigma * (average complementarity gap), so mu tracks the actual
progress toward the boundary instead of following a fixed outer schedule.
Inertia of the KKT matrix is corrected by a growing primal regularization
so that Newton directions are descent directions even where the Lagrangian
Hessian is indefinite. Each inertia trial is one Bunch-Kaufman LDL^T
factorization: the inertia is read off its block-diagonal D and, when it is
right, the Newton step is taken from the same factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

_FROZEN_GAP = 1e-11
_MU_INIT = 1e-1
_SIGMA = 0.1  # centering: mu = sigma * complementarity gap / #bounds
_TAU_MIN = 0.99
_ARMIJO_ETA = 1e-4
_MAX_BACKTRACKS = 30
_MAX_RESTORATIONS = 3
_RESTORATION_STALL_ITERS = 20  # stall window before declaring infeasible
_RESTORATION_STALL_VIOL = 1e-4  # p.u. violation threshold for infeasibility
_BOUND_PUSH = 1e-2


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

    def expand(self, x):
        full = self.x_frozen.copy()
        full[self.free] = x
        return full

    def f(self, x):
        return float(self.prob.objective(self.expand(x)))

    def grad(self, x):
        return np.asarray(self.prob.gradient(self.expand(x)), dtype=float)[self.free]

    def grad_full(self, x):
        return np.asarray(self.prob.gradient(self.expand(x)), dtype=float)

    def c(self, x):
        return np.asarray(self.prob.constraints(self.expand(x)), dtype=float)

    def jac(self, x):
        return np.asarray(self.prob.jacobian(self.expand(x)), dtype=float)[:, self.free]

    def jac_full(self, x):
        return np.asarray(self.prob.jacobian(self.expand(x)), dtype=float)

    def hess(self, x, lam, sigma):
        h = np.asarray(self.prob.hess_lag(self.expand(x), lam, sigma), dtype=float)
        return h[np.ix_(self.free, self.free)]


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


def _max_step(x, dx, lo, hi, tau):
    """Largest alpha in (0, 1] keeping x + alpha*dx a fraction tau inside [lo, hi]."""
    alpha = 1.0
    shrink = dx < 0.0
    if np.any(shrink & np.isfinite(lo)):
        sel = shrink & np.isfinite(lo)
        alpha = min(alpha, float(np.min(-tau * (x[sel] - lo[sel]) / dx[sel])))
    grow = dx > 0.0
    if np.any(grow & np.isfinite(hi)):
        sel = grow & np.isfinite(hi)
        alpha = min(alpha, float(np.min(tau * (hi[sel] - x[sel]) / dx[sel])))
    return max(alpha, 0.0)


def _max_step_pos(z, dz, tau):
    """Fraction-to-boundary step for nonnegativity-constrained multipliers."""
    shrink = dz < 0.0
    if not np.any(shrink):
        return 1.0
    return max(min(1.0, float(np.min(-tau * z[shrink] / dz[shrink]))), 0.0)


def _solve_kkt(kkt, rhs, n, m):
    """Check the inertia of the KKT system and solve it, both from one
    Bunch-Kaufman LDL^T factorization (dsytrf, then dsytrs) of the matrix under
    symmetric equilibration (a congruence, so inertia is preserved), which keeps
    the zero-eigenvalue test meaningful when barrier terms dominate.

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


class _Barrier:
    """Interior bookkeeping for one variable box."""

    def __init__(self, funcs: _Funcs):
        self.fn = funcs

    def interior(self, x):
        """Clip a start point strictly inside the bounds."""
        lo, hi = self.fn.lower, self.fn.upper
        x = np.asarray(x, dtype=float).copy()
        both = self.fn.has_lb & self.fn.has_ub
        if np.any(both):
            pad = _BOUND_PUSH * (hi[both] - lo[both])
            x[both] = np.clip(x[both], lo[both] + pad, hi[both] - pad)
        only_lb = self.fn.has_lb & ~self.fn.has_ub
        if np.any(only_lb):
            pad = _BOUND_PUSH * np.maximum(1.0, np.abs(lo[only_lb]))
            x[only_lb] = np.maximum(x[only_lb], lo[only_lb] + pad)
        only_ub = self.fn.has_ub & ~self.fn.has_lb
        if np.any(only_ub):
            pad = _BOUND_PUSH * np.maximum(1.0, np.abs(hi[only_ub]))
            x[only_ub] = np.minimum(x[only_ub], hi[only_ub] - pad)
        return x

    def slacks(self, x):
        sl = np.where(self.fn.has_lb, x - self.fn.lower, np.inf)
        su = np.where(self.fn.has_ub, self.fn.upper - x, np.inf)
        return sl, su

    def value(self, x, mu):
        sl, su = self.slacks(x)
        if np.any(sl[self.fn.has_lb] <= 0.0) or np.any(su[self.fn.has_ub] <= 0.0):
            return np.inf  # outside the open box: reject in any merit comparison
        out = 0.0
        if np.any(self.fn.has_lb):
            out -= mu * float(np.log(sl[self.fn.has_lb]).sum())
        if np.any(self.fn.has_ub):
            out -= mu * float(np.log(su[self.fn.has_ub]).sum())
        return out

    def grad(self, x, mu):
        sl, su = self.slacks(x)
        g = np.zeros_like(x)
        g[self.fn.has_lb] -= mu / sl[self.fn.has_lb]
        g[self.fn.has_ub] += mu / su[self.fn.has_ub]
        return g


def _kkt_errors(fn: _Funcs, x, lam, zl, zu, mu, evals=None):
    """evals: (gradient, Jacobian, constraints) at x, when already computed."""
    sl = np.where(fn.has_lb, x - fn.lower, np.inf)
    su = np.where(fn.has_ub, fn.upper - x, np.inf)
    g, jac, c = evals or (fn.grad(x), fn.jac(x), fn.c(x))
    r_dual = g + (jac.T @ lam if fn.m else 0.0) - zl + zu
    stat = float(np.abs(r_dual).max(initial=0.0))
    feas = float(np.abs(c).max(initial=0.0)) if fn.m else 0.0
    comp = 0.0
    if np.any(fn.has_lb):
        comp = max(comp, float(np.abs(zl[fn.has_lb] * sl[fn.has_lb] - mu).max()))
    if np.any(fn.has_ub):
        comp = max(comp, float(np.abs(zu[fn.has_ub] * su[fn.has_ub] - mu).max()))
    return stat, feas, comp


def _restore(fn: _Funcs, barrier: _Barrier, x, opts: IpmOptions, budget: int):
    """Feasibility restoration: minimize 0.5*||c||^2 inside the bounds.

    Returns (x, feasible: bool, stalled_infeasible: bool, iters_used).
    """
    mu = 1e-4
    nu = 0.0
    best = float(np.abs(fn.c(x)).max(initial=0.0))
    stall = 0
    target = max(opts.tol_feas, 1e-9)
    it = 0
    while it < budget:
        it += 1
        c = fn.c(x)
        viol = float(np.abs(c).max(initial=0.0))
        if viol < best * (1.0 - 1e-6):
            best = viol
            stall = 0
        else:
            stall += 1
        if viol <= target:
            return x, True, False, it
        if stall >= _RESTORATION_STALL_ITERS:
            return x, False, best > _RESTORATION_STALL_VIOL, it

        jac = fn.jac(x)
        sl, su = barrier.slacks(x)
        sigma = np.zeros(fn.n)
        sigma[fn.has_lb] += mu / sl[fn.has_lb] ** 2
        sigma[fn.has_ub] += mu / su[fn.has_ub] ** 2
        grad = jac.T @ c + barrier.grad(x, mu)
        h = jac.T @ jac + np.diag(sigma)

        dx = None
        damping = nu
        for _ in range(12):
            try:
                dx = np.linalg.solve(h + damping * np.eye(fn.n), -grad)
                break
            except np.linalg.LinAlgError:
                damping = max(damping * 10.0, 1e-10)
        if dx is None:
            return x, False, best > _RESTORATION_STALL_VIOL, it
        nu = damping

        tau = max(_TAU_MIN, 1.0 - mu)
        alpha = min(1.0, _max_step(x, dx, fn.lower, fn.upper, tau))
        theta0 = 0.5 * float(c @ c) + barrier.value(x, mu)
        slope = float(grad @ dx)
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            xt = x + alpha * dx
            ct = fn.c(xt)
            theta_t = 0.5 * float(ct @ ct) + barrier.value(xt, mu)
            if theta_t <= theta0 + _ARMIJO_ETA * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            stall += 1
            mu *= 0.1
            if mu < 1e-12:
                return x, False, best > _RESTORATION_STALL_VIOL, it
            continue
        x = xt
        if float(np.abs(grad).max(initial=0.0)) < 10.0 * mu:
            mu = max(mu * 0.1, 1e-12)
    return x, best <= target, False, it


def solve_nlp(prob: NlpProblem, opts: IpmOptions = None, lam0: np.ndarray = None) -> IpmResult:
    opts = opts or IpmOptions()
    fn = _Funcs(prob)
    barrier = _Barrier(fn)

    x = barrier.interior(np.asarray(prob.x0, dtype=float)[fn.free])
    m, n = fn.m, fn.n
    lam = np.zeros(m) if lam0 is None else np.asarray(lam0, dtype=float).copy()
    mu = _MU_INIT
    sl, su = barrier.slacks(x)
    zl = np.where(fn.has_lb, mu / sl, 0.0)
    zu = np.where(fn.has_ub, mu / su, 0.0)

    rho = 1.0
    it = 0
    restorations = 0
    need_restore = False
    best = None  # (viol, f, x, lam, zl, zu)

    def remember(xc, lamc, zlc, zuc):
        nonlocal best
        viol = float(np.abs(fn.c(xc)).max(initial=0.0)) if m else 0.0
        key = (viol, fn.f(xc))
        if best is None or key < (best[0], best[1]):
            best = (key[0], key[1], xc.copy(), lamc.copy(), zlc.copy(), zuc.copy())

    def finish(status, message=""):
        stat, feas, comp = _kkt_errors(fn, x, lam, zl, zu, 0.0)
        return _result(
            fn, x, lam, zl, zu, status, it, mu, stat, feas, comp, restorations, message
        )

    remember(x, lam, zl, zu)

    while it < opts.max_iter:
        if need_restore:
            if restorations >= _MAX_RESTORATIONS:
                viol = float(np.abs(fn.c(x)).max(initial=0.0)) if m else 0.0
                status = "infeasible" if viol > _RESTORATION_STALL_VIOL else "max_iter"
                return finish(status, "restoration budget exhausted")
            restorations += 1
            viol = float(np.abs(fn.c(x)).max(initial=0.0)) if m else 0.0
            if viol <= max(opts.tol_feas, 1e-9):
                # already feasible: the line search deadlocked, so recenter the
                # duals and continue instead of running a full restoration
                sl, su = barrier.slacks(x)
                mu = max(mu * 10.0, 1e-6)
                zl = np.where(fn.has_lb, mu / sl, 0.0)
                zu = np.where(fn.has_ub, mu / su, 0.0)
                rho = 1.0
                need_restore = False
                continue
            x, feasible, hopeless, used = _restore(
                fn, barrier, x, opts, budget=opts.max_iter - it
            )
            it += used
            x = barrier.interior(x)
            sl, su = barrier.slacks(x)
            mu = max(mu, 1e-3)
            lam = np.zeros(m)
            zl = np.where(fn.has_lb, mu / sl, 0.0)
            zu = np.where(fn.has_ub, mu / su, 0.0)
            rho = 1.0
            remember(x, lam, zl, zu)
            if hopeless:
                return finish("infeasible", "restoration stalled above violation threshold")
            need_restore = False
            continue

        evals = fn.grad(x), fn.jac(x), fn.c(x)
        stat, feas, comp0 = _kkt_errors(fn, x, lam, zl, zu, 0.0, evals)
        if stat <= opts.tol_stat and feas <= opts.tol_feas and comp0 <= opts.tol_comp:
            return finish("optimal")

        # Adaptive barrier: mu follows the actual complementarity gap, so the
        # central path is tracked without an outer loop that can stall.
        sl, su = barrier.slacks(x)
        gap = 0.0
        n_bounds = 0
        if np.any(fn.has_lb):
            gap += float((zl[fn.has_lb] * sl[fn.has_lb]).sum())
            n_bounds += int(fn.has_lb.sum())
        if np.any(fn.has_ub):
            gap += float((zu[fn.has_ub] * su[fn.has_ub]).sum())
            n_bounds += int(fn.has_ub.sum())
        mu = _SIGMA * gap / n_bounds if n_bounds else 0.0
        mu = max(mu, 1e-14) if n_bounds else 0.0

        it += 1

        # Newton step on the perturbed KKT system, z eliminated.
        sig = np.zeros(n)
        sig[fn.has_lb] += (zl / sl)[fn.has_lb]
        sig[fn.has_ub] += (zu / su)[fn.has_ub]
        grad, jac, c = evals
        w = fn.hess(x, lam, 1.0)

        r_x = grad + (jac.T @ lam if m else 0.0)
        r_x = r_x - np.where(fn.has_lb, mu / sl, 0.0) + np.where(fn.has_ub, mu / su, 0.0)
        rhs = -np.concatenate([r_x, c])

        scale = max(1.0, float(np.abs(w).max(initial=0.0)))
        delta_w, delta_c = 0.0, 0.0
        step = None
        for _ in range(14):
            kkt = np.zeros((n + m, n + m))
            kkt[:n, :n] = w + np.diag(sig) + delta_w * np.eye(n)
            if m:
                kkt[:n, n:] = jac.T
                kkt[n:, :n] = jac
                kkt[n:, n:] = -delta_c * np.eye(m)
            saw_zero = False
            try:
                step = _solve_kkt(kkt, rhs, n, m)
                break
            except np.linalg.LinAlgError as exc:
                saw_zero = "zero" in str(exc)
            if saw_zero and m:
                delta_c = max(delta_c * 100.0, 1e-8)
            delta_w = 1e-8 * scale if delta_w == 0.0 else delta_w * 100.0
            if delta_w > 1e12 * scale:
                break
        if step is None:
            need_restore = True
            continue

        dx = step[:n]
        dlam = step[n:] if m else np.zeros(0)
        dzl = np.where(fn.has_lb, (mu - zl * dx) / sl - zl, 0.0)
        dzu = np.where(fn.has_ub, (mu + zu * dx) / su - zu, 0.0)

        tau = min(max(_TAU_MIN, 1.0 - mu), 0.99995)
        alpha_max = _max_step(x, dx, fn.lower, fn.upper, tau)
        alpha_z = 1.0
        if np.any(fn.has_lb):
            alpha_z = min(alpha_z, _max_step_pos(zl[fn.has_lb], dzl[fn.has_lb], tau))
        if np.any(fn.has_ub):
            alpha_z = min(alpha_z, _max_step_pos(zu[fn.has_ub], dzu[fn.has_ub], tau))

        # Acceptance 1: the full primal-dual step contracts the perturbed KKT
        # residual. A primal merit cannot see dual progress, so Newton steps
        # that mostly re-center the multipliers are accepted on the residual
        # itself (this is also what quadratic local convergence requires).
        stat_mu, feas_mu, comp_cur = _kkt_errors(fn, x, lam, zl, zu, mu, evals)
        err_before = max(stat_mu, feas_mu, comp_cur)
        xt = x + alpha_max * dx
        lam_t = lam + alpha_max * dlam if m else lam
        zl_t = np.where(fn.has_lb, zl + alpha_z * dzl, 0.0)
        zu_t = np.where(fn.has_ub, zu + alpha_z * dzu, 0.0)
        sl_t, su_t = barrier.slacks(xt)
        interior = bool(
            np.all(sl_t[fn.has_lb] > 0.0) and np.all(su_t[fn.has_ub] > 0.0)
        )
        if (
            interior
            and max(_kkt_errors(fn, xt, lam_t, zl_t, zu_t, mu))
            <= (1.0 - 1e-4 * alpha_max) * err_before
        ):
            x, lam, zl, zu = xt, lam_t, zl_t, zu_t
        else:
            # Acceptance 2: l1 merit line search on the primal step.
            c_norm = float(np.abs(c).sum())
            if m and c_norm > 1e-14:
                grad_bar = grad + barrier.grad(x, mu)
                needed = float(grad_bar @ dx) / (0.9 * c_norm)
                rho = max(rho, needed + 1.0, 1.1 * float(np.abs(lam + dlam).max(initial=0.0)))
            phi0 = fn.f(x) + barrier.value(x, mu) + rho * c_norm
            slope = float((grad + barrier.grad(x, mu)) @ dx) - rho * c_norm

            # floating-point noise floor: do not reject steps on rounding error
            noise = 100.0 * np.finfo(float).eps * max(1.0, abs(phi0))
            alpha = alpha_max
            accepted = False
            for _ in range(_MAX_BACKTRACKS):
                xt = x + alpha * dx
                phit = fn.f(xt) + barrier.value(xt, mu) + rho * float(np.abs(fn.c(xt)).sum())
                if phit <= phi0 + _ARMIJO_ETA * alpha * min(slope, 0.0) + noise:
                    accepted = True
                    break
                alpha *= 0.5
                if alpha < 1e-12:
                    break
            if not accepted and alpha_max * float(np.abs(dx).max(initial=0.0)) <= 1e-14 * max(
                1.0, float(np.abs(x).max(initial=0.0))
            ):
                alpha = alpha_max
                xt = x + alpha * dx
                accepted = True
            if not accepted:
                need_restore = True
                continue
            x = xt
            lam = lam + alpha * dlam if m else lam
            zl = np.where(fn.has_lb, zl + alpha_z * dzl, 0.0)
            zu = np.where(fn.has_ub, zu + alpha_z * dzu, 0.0)
        # keep duals safely positive and bounded relative to mu (centrality guard)
        sl, su = barrier.slacks(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            zl = np.where(
                fn.has_lb,
                np.clip(zl, mu / (1e10 * np.maximum(sl, 1e-300)), 1e10 * mu / np.maximum(sl, 1e-300)),
                0.0,
            )
            zu = np.where(
                fn.has_ub,
                np.clip(zu, mu / (1e10 * np.maximum(su, 1e-300)), 1e10 * mu / np.maximum(su, 1e-300)),
                0.0,
            )
        remember(x, lam, zl, zu)

    # iteration budget exhausted: report the best point seen
    _, _, xb, lamb, zlb, zub = best
    x, lam, zl, zu = xb, lamb, zlb, zub
    stat, feas, comp = _kkt_errors(fn, x, lam, zl, zu, 0.0)
    return _result(
        fn, x, lam, zl, zu, "max_iter", it, mu, stat, feas, comp, restorations,
        "iteration limit reached",
    )


def _result(fn, x, lam, zl, zu, status, it, mu, stat, feas, comp, restorations, message):
    x_full = fn.expand(x)
    zl_full = np.zeros(fn.n_full)
    zu_full = np.zeros(fn.n_full)
    zl_full[fn.free] = zl
    zu_full[fn.free] = zu
    if np.any(fn.frozen):
        # recover net bound multipliers of pinned variables from stationarity
        g_full = fn.grad_full(x) + (fn.jac_full(x).T @ lam if fn.m else 0.0)
        gz = g_full[fn.frozen]
        zl_full[fn.frozen] = np.maximum(gz, 0.0)
        zu_full[fn.frozen] = np.maximum(-gz, 0.0)
    return IpmResult(
        x=x_full,
        lam=lam,
        z_lower=zl_full,
        z_upper=zu_full,
        status=status,
        iterations=it,
        mu=mu,
        stat_err=stat,
        feas_err=feas,
        comp_err=comp,
        restorations=restorations,
        message=message,
    )
