"""Primal-dual interior-point solver for smooth nonlinear programs.

Handles problems of the form

    minimize f(x)   subject to  c(x) = 0,  l <= x <= u,

with logarithmic barriers on the bounds, Newton steps on the perturbed KKT
system, fraction-to-boundary stepping, an l1-penalty line search and, where
a step fails, an elastic restoration by the same loop: min ||c(x)||_1 over
the box, which either restores feasibility or certifies local
infeasibility. Multipliers for the equalities (lam) and bounds
(z_lower / z_upper) are first-class outputs.

The barrier parameter is adaptive: each iteration re-centers at
mu = sigma * (average complementarity gap), so mu tracks the actual
progress toward the boundary instead of following a fixed outer schedule.
Inertia of the KKT matrix is corrected by a growing primal regularization
so that Newton directions are descent directions even where the Lagrangian
Hessian is indefinite. Each inertia trial is one Bunch-Kaufman LDL^T
factorization: the inertia is read off its block-diagonal D and, when it is
right, the Newton step is taken from the same factors.

LAPACK's dsytrf and dsytrs come from the OpenBLAS that a numpy wheel bundles
and has already loaded: its ILP64 symbols are bound once, through ctypes, at
import. Each call allocates the arrays LAPACK writes (ipiv, work, info), as
ctypes releases the GIL and concurrent solves must not share them; only the
read-only sizes are cached. A numpy without a bundled OpenBLAS falls back to
scipy.linalg.lapack, the same routines.

Each point is evaluated once. A `_Point` expands x to full length once,
computes f, grad, the Jacobian and c on first use and keeps them, and an
accepted trial point becomes the current point with the values its
acceptance test computed, so the next convergence check and line search
reuse them. It keeps the free part of the gradient and the Jacobian and
their pinned columns, for the pinned multipliers. Under the callbacks, an
acopf solve shares one T per point (see powerflow).

Allocated once per solve: the (n+m) x (n+m) KKT matrix. Each iteration
rewrites its W and J blocks in place and each inertia trial its diagonal;
the m x m block stays zero off its diagonal. Allocated per _solve_kkt call:
one matrix of the same size (|K|, then the equilibrated copy LAPACK factors
in place), the pivots, the workspace and the step.

A warm start carries a nearby solution's whole primal-dual point: x, lam and
the bound multipliers, with a small bound push and a small floor on the
multipliers.

Inside the loop the finite bounds are one set: each is a row of the slack
s = sign * (x[bound] - value) >= 0, the lower bounds first (sign +1), then
the upper bounds (sign -1), with one multiplier per row in one vector z.
Barrier, complementarity, Newton step and step rules all run once over s
and z. solve_nlp returns z split into full-length z_lower and z_upper, zero
where a bound is infinite.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, replace
from functools import cache, cached_property
from pathlib import Path

import numpy as np

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
    The solver reads a returned Hessian before it calls hess_lag again, so the
    next call may rewrite it: a problem may hand out one array per solve.
    A Jacobian returned F-ordered is kept as it is; any other is copied to
    F order, the layout that sets how J.T @ lam rounds.
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
    stationarity. _ipm returns x on the free variables and its one bound
    multiplier vector split at fn.n_lower: z_lower on the lower-bound rows,
    z_upper on the upper-bound rows."""

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
    """The problem on its free (non-frozen) variables: their bound rows and Hessian."""

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
        self.x_frozen[self.frozen] = 0.5 * (lower[self.frozen] + upper[self.frozen])
        self.lower = lower[self.free]
        self.upper = upper[self.free]
        self.n = int(self.free.sum())
        self.pinned = self.n < self.n_full
        self.m = prob.n_eq
        # One row per finite bound, s = sign * (x[bound] - value): the lower
        # bounds first (side 0, sign +1), then the upper bounds (side 1, sign -1).
        # It is formed as sign * x[bound] - level, level = sign * value, so that
        # an upper row is exactly u - x, the sign of a zero included.
        bounds = np.stack([self.lower, self.upper])
        self.side, self.bound = np.nonzero(np.isfinite(bounds))
        self.n_lower = int(np.count_nonzero(self.side == 0))
        self.sign = 1.0 - 2.0 * self.side
        self.level = self.sign * bounds[self.side, self.bound]
        # the start's push is scaled by the box width u - l, or by
        # max(1, |bound|) where the other side is infinite
        span = self.upper[self.bound] - self.lower[self.bound]
        self.width = np.where(np.isfinite(span), span, np.maximum(1.0, np.abs(self.level)))

    def expand(self, x):
        full = self.x_frozen.copy()
        full[self.free] = x
        return full

    def split(self, a):
        """(free, pinned) columns of a. A boolean column selection returns a
        matrix F-ordered, and that layout sets how J.T @ lam rounds; so with
        nothing pinned the free part is a itself in F order (no copy for a
        vector or an F-ordered matrix) and the pinned part is empty."""
        if not self.pinned:
            return np.asfortranarray(a), a[..., :0]
        return a[..., self.free], a[..., self.frozen]

    def hess(self, pt, lam, sigma):
        """The Lagrangian Hessian at pt on the free variables; with nothing pinned,
        the callback's own array, which its next call may rewrite."""
        h = np.asarray(self.prob.hess_lag(pt.full, lam, sigma), dtype=float)
        return h[self.free][:, self.free] if self.pinned else h

    def slacks(self, x):
        """The slack of every bound row: x - l on the lower rows, u - x on
        the upper rows."""
        return self.sign * x[self.bound] - self.level

    def scatter(self, r, w):
        """r[bound] -= sign * w, one row at a time, so that a variable with
        both bounds gets both of its rows: w is subtracted at its lower row
        and added at its upper row. Returns r, written in place."""
        np.subtract.at(r, self.bound, self.sign * w)
        return r

    def sigma(self, s, z):
        """The barrier Hessian's diagonal: z / s summed per variable over its
        bound rows."""
        return np.bincount(self.bound, z / s, self.n)

    def interior(self, x, push=_BOUND_PUSH):
        """Clip a start point strictly inside the bounds, by push times each
        box width (times max(1, |bound|) where only one side is finite)."""
        edge = self.sign * (self.level + push * self.width)  # l + pad, u - pad
        limits = np.repeat([[-np.inf], [np.inf]], self.n, axis=1)
        limits[self.side, self.bound] = edge
        return np.clip(np.asarray(x, dtype=float), *limits)

    def barrier_value(self, x, mu):
        s = self.slacks(x)
        if np.any(s <= 0.0):
            return np.inf  # outside the open box: reject in any merit comparison
        out = 0.0
        for part in np.split(s, [self.n_lower]):  # summed apart, as the gap in _ipm
            out -= mu * float(np.log(part).sum())
        return out

    def barrier_grad(self, x, mu):
        return self.scatter(np.zeros(self.n), mu / self.slacks(x))


class _Point:
    """One primal point, expanded to full length once (full); each callback
    value is computed on first use and kept. Of the gradient and the Jacobian
    it keeps the free entries (g, J) and the pinned ones (g_pinned, J_pinned)."""

    def __init__(self, fn: _Funcs, x):
        self.fn = fn
        self.x = x
        self.full = fn.expand(x)

    @cached_property
    def f(self):
        return float(self.fn.prob.objective(self.full))

    @cached_property
    def _grad(self):
        return self.fn.split(np.asarray(self.fn.prob.gradient(self.full), dtype=float))

    @cached_property
    def _jac(self):
        return self.fn.split(np.asarray(self.fn.prob.jacobian(self.full), dtype=float))

    g = property(lambda self: self._grad[0])
    g_pinned = property(lambda self: self._grad[1])
    J = property(lambda self: self._jac[0])
    J_pinned = property(lambda self: self._jac[1])

    @cached_property
    def c(self):
        return np.asarray(self.fn.prob.constraints(self.full), dtype=float)

    @cached_property
    def viol(self):
        return float(np.abs(self.c).max(initial=0.0)) if self.fn.m else 0.0

    @cached_property
    def slacks(self):
        return self.fn.slacks(self.x)


def _inertia(ldu: np.ndarray, ipiv: np.ndarray):
    """(positive, negative, zero) eigenvalue counts of D in a lower dsytrf
    factorization. A 2x2 pivot is two consecutive rows with negative ipiv, so
    the negative rows pair up in order; its eigenvalues are closed-form."""
    diag = evs = ldu.diagonal()
    d_max = max(1.0, float(np.abs(diag).max(initial=0.0)))
    first = np.flatnonzero(ipiv < 0)[::2]
    if first.size:  # else every pivot is 1x1 and D is its diagonal
        p, q, b = diag[first], diag[first + 1], ldu[first + 1, first]
        mid = 0.5 * (p + q)
        rad = np.hypot(0.5 * (p - q), b)
        evs = diag.copy()
        evs[first], evs[first + 1] = mid + rad, mid - rad
        d_max = max(d_max, float(np.abs(b).max()))
    tol = 10.0 * np.finfo(float).eps * d_max
    pos = int(np.count_nonzero(evs > tol))
    neg = int(np.count_nonzero(evs < -tol))
    return pos, neg, diag.size - pos - neg


def _max_step(z, dz, tau):
    """Largest alpha in [0, 1] keeping z + alpha*dz a fraction tau inside
    z >= 0: the fraction-to-boundary rule, for the multipliers and, on the
    slacks (dz = sign * dx[bound]), for x."""
    shrink = dz < 0.0
    if not shrink.any():
        return 1.0
    return max(min(1.0, float((-tau * z[shrink] / dz[shrink]).min())), 0.0)


def _bundled_openblas():
    """The OpenBLAS libraries of a numpy wheel: numpy.libs beside the package
    (Linux, Windows) or numpy/.dylibs (macOS)."""
    pkg = Path(np.__file__).resolve().parent
    return [*sorted((pkg.parent / "numpy.libs").glob("*openblas*")),
            *sorted((pkg / ".dylibs").glob("*openblas*"))]


def _bind_lapack(paths):
    """(sytrf, sytrs): lower Bunch-Kaufman factor and solve, from the first
    library in paths that exports ILP64 dsytrf and dsytrs, else from scipy.

    sytrf(a) factors the F-ordered float array a in place and returns
    (ldu, ipiv, info), ipiv 1-based and negative on 2x2 pivots; sytrs(ldu,
    ipiv, b) returns (x, info). An info below zero is a bad argument."""
    for path in paths:
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_", ""):  # numpy >= 2 wheels, then numpy 1.x wheels
            trf = getattr(lib, f"{prefix}dsytrf_64_", None)
            trs = getattr(lib, f"{prefix}dsytrs_64_", None)
            if trf is not None and trs is not None:
                return _ilp64_pair(trf, trs)
    from scipy.linalg import lapack  # a numpy without a bundled OpenBLAS

    lwork = cache(lambda size: int(lapack.dsytrf_lwork(size, lower=1)[0]))
    return (
        lambda a: lapack.dsytrf(a, lower=1, lwork=lwork(a.shape[0]), overwrite_a=1),
        lambda ldu, ipiv, b: lapack.dsytrs(ldu, ipiv, b, lower=1),
    )


def _ilp64_pair(trf, trs):
    """sytrf and sytrs over the Fortran routines trf and trs, in the gfortran
    ABI: every argument by reference, integers 64-bit, and the hidden length
    of the uplo string last, as a size_t. Shapes, dtypes and layouts are
    checked here, before any pointer is passed."""
    i64, ref, ptr = ctypes.c_int64, ctypes.byref, ctypes.POINTER(ctypes.c_int64)
    trf.argtypes = [ctypes.c_char_p, ptr, ctypes.c_void_p, ptr, ctypes.c_void_p,
                    ctypes.c_void_p, ptr, ptr, ctypes.c_size_t]
    trs.argtypes = [ctypes.c_char_p, ptr, ptr, ctypes.c_void_p, ptr, ctypes.c_void_p,
                    ctypes.c_void_p, ptr, ptr, ctypes.c_size_t]
    trf.restype = trs.restype = None
    one = ref(i64(1))

    def at(a):
        """A reference to a's first element that holds a's buffer while it
        lives, that is, to the end of the call it is passed to. An F-ordered
        matrix is passed as its transpose, a C-ordered view of one buffer."""
        return ref(ctypes.c_char.from_buffer(a))

    @cache
    def sizes(size):
        """(n, lda, lwork) by reference and lwork's value, read-only and so
        shared by every call; lwork is the workspace query's optimum
        (lwork = -1), which selects the blocked code, as scipy's
        dsytrf_lwork does."""
        n, lda, opt, info = ref(i64(size)), ref(i64(max(1, size))), ctypes.c_double(), i64()
        trf(b"L", n, None, lda, None, ref(opt), ref(i64(-1)), ref(info), 1)
        lwork = max(1, int(opt.value))
        return n, lda, ref(i64(lwork)), lwork

    def square_f64(a):
        return a.dtype == np.float64 and a.flags.f_contiguous and a.shape == a.shape[:1] * 2

    def sytrf(a):
        if not square_f64(a):
            raise TypeError("dsytrf needs a square F-ordered float64 matrix")
        n, lda, lwork, size = sizes(a.shape[0])
        # LAPACK writes these, so they are fresh on every call
        ipiv, work, info = np.empty(a.shape[0], np.int64), np.empty(size), i64()
        trf(b"L", n, at(a.T), lda, at(ipiv), at(work), lwork, ref(info), 1)
        return a, ipiv, info.value

    def sytrs(ldu, ipiv, b):
        if not (square_f64(ldu) and ipiv.dtype == np.int64 and ipiv.shape == np.shape(b) == ldu.shape[:1]):
            raise TypeError("dsytrs needs sytrf's factor and pivots and one right-hand side")
        n, lda, _, _ = sizes(ldu.shape[0])
        x, info = np.array(b, dtype=np.float64), i64()
        trs(b"L", n, one, at(ldu.T), lda, at(ipiv), at(x), lda, ref(info), 1)
        return x, info.value

    return sytrf, sytrs


_sytrf, _sytrs = _bind_lapack(_bundled_openblas())


def _solve_kkt(kkt, rhs, n, m):
    """Check the inertia of the KKT system and solve it, both from one
    Bunch-Kaufman LDL^T factorization (dsytrf, then dsytrs, bound at import
    from numpy's OpenBLAS or scipy's) of the matrix under symmetric
    equilibration (a congruence, so inertia is preserved), which keeps the
    zero-eigenvalue test meaningful when barrier terms dominate. kkt is taken
    to be exactly symmetric: its C-ordered copy is scaled by columns, then by
    rows, and handed to LAPACK transposed, that is in column order with each
    entry scaled by its row first. kkt itself is never written to. Each call
    allocates one N x N array, which holds |kkt| for the row norms and then
    the copy that is factored in place, and the pivots, workspace and step,
    so concurrent calls share nothing LAPACK writes.

    Raises ValueError on a non-finite entry (its row norm is then not
    finite), and LinAlgError with 'inertia' or 'zero' in the message when
    the direction would not be a descent direction. An exact zero pivot
    (info > 0) is a zero eigenvalue of D.
    """
    scaled = np.abs(kkt)  # this call's one N x N array: |kkt|, then the factor
    norms = scaled.max(axis=1)
    if not np.isfinite(norms).all():  # a NaN or inf entry makes its row's norm so
        raise ValueError("array must not contain infs or NaNs")
    d = 1.0 / np.sqrt(np.maximum(norms, 1e-12))
    # by columns, then by rows: scaled[j, i] = (kkt[j, i] * d[i]) * d[j], so its
    # transpose, F-ordered as LAPACK wants it, is (kkt[i, j] * d[i]) * d[j]
    np.multiply(kkt, d, out=scaled)
    scaled *= d[:, None]
    ldu, ipiv, info = _sytrf(scaled.T)  # factored in place
    if info < 0:
        raise RuntimeError(f"dsytrf rejected argument {-info}")
    pos, neg, zero = _inertia(ldu, ipiv)
    if zero > 0:
        raise np.linalg.LinAlgError(f"kkt matrix has {zero} zero eigenvalues")
    if pos != n or neg != m:
        raise np.linalg.LinAlgError(
            f"wrong inertia ({pos},{neg},{zero}), expected ({n},{m},0)"
        )
    step, info = _sytrs(ldu, ipiv, d * rhs)
    if info < 0:
        raise RuntimeError(f"dsytrs rejected argument {-info}")
    return d * step


def _comp_error(pt: _Point, z, mu):
    return float(np.abs(z * pt.slacks - mu).max(initial=0.0))


def _kkt_errors(fn: _Funcs, pt: _Point, lam, z, mu):
    """(stationarity, feasibility, complementarity) errors at pt; z has one
    entry per bound row of fn."""
    r_dual = fn.scatter(pt.g + (pt.J.T @ lam if fn.m else 0.0), z)
    stat = float(np.abs(r_dual).max(initial=0.0))
    return stat, pt.viol, _comp_error(pt, z, mu)


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
    hess = np.zeros((n + 2 * m, n + 2 * m))  # zero outside the x block
    y0 = np.concatenate([x_r, np.maximum(c_r, 0.0), np.maximum(-c_r, 0.0)])

    def hess_lag(y, lam, sigma):
        hess[:n, :n] = fn.hess(_Point(fn, y[:n]), lam, 0.0) + np.diag(sigma * d2)
        return hess

    elastic = _Funcs(
        NlpProblem(
            x0=y0,
            lower=np.concatenate([fn.lower, np.zeros(2 * m)]),
            upper=np.concatenate([fn.upper, np.full(2 * m, np.inf)]),
            n_eq=m,
            objective=lambda y: float(y[n:].sum()) + 0.5 * float(d2 @ (y[:n] - x_r) ** 2),
            gradient=lambda y: np.concatenate([d2 * (y[:n] - x_r), np.ones(2 * m)]),
            constraints=lambda y: _Point(fn, y[:n]).c - y[n : n + m] + y[n + m :],
            jacobian=lambda y: np.hstack([_Point(fn, y[:n]).J, -eye, eye]),
            hess_lag=hess_lag,
        )
    )
    tight = 0.1 * opts.tol_feas
    eopts = IpmOptions(opts.tol_stat, tight, min(opts.tol_comp, tight), budget)
    res, _ = _ipm(elastic, eopts, y0, None, elastic=True)
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

    When a step fails (the line search, or every inertia trial), _restore
    solves the elastic l1 problem; where c is not finite the solve ends
    instead, "max_iter" with the message "line search failed". If the
    elastic solve reaches tol_feas the solve resumes, cold, from its x. If
    it converges above tol_feas the status is "infeasible", and the result
    is the elastic point itself, with its l1-minimal violation and no
    multipliers (all zero). If it runs out of iterations the status is
    "max_iter".

    A KKT matrix with a non-finite entry (a NaN or inf Hessian or Jacobian
    at a finite point) ends the solve at once with status "max_iter",
    message "non-finite KKT matrix" and the best point seen. Every
    "max_iter" end reports that best point: the least violation, where
    violations below tol_feas count as equal, then the least f; a point
    whose violation or f is not finite is never preferred to a finite one.

    The loop keeps one multiplier per finite bound, the lower bounds' rows
    first: a warm z is gathered from z_lower and z_upper, and the result's,
    split at fn.n_lower, is scattered back to full length.
    """
    fn = _Funcs(prob)
    k = fn.n_lower
    at = np.flatnonzero(fn.free)[fn.bound]  # full-length position of each bound row
    if warm is not None:
        lam, z_lower, z_upper = (np.asarray(a, dtype=float) for a in warm)
        warm = (lam, np.concatenate([z_lower[at[:k]], z_upper[at[k:]]]))
    x0 = np.asarray(prob.x0, dtype=float)[fn.free]
    res, end = _ipm(fn, opts or IpmOptions(), x0, warm)
    zl, zu = np.zeros(fn.n_full), np.zeros(fn.n_full)
    zl[at[:k]], zu[at[k:]] = res.z_lower, res.z_upper
    if np.any(fn.frozen):
        # recover net bound multipliers of pinned variables from stationarity
        # at the final point. J_full.T @ lam is formed with zeros in the free
        # columns, so each pinned row rounds as it does on the whole Jacobian.
        jac = np.zeros((fn.m, fn.n_full))
        if fn.m:
            jac[:, fn.frozen] = end.J_pinned
        gz = end.g_pinned + (jac.T @ res.lam)[fn.frozen]
        zl[fn.frozen] = np.maximum(gz, 0.0)
        zu[fn.frozen] = np.maximum(-gz, 0.0)
    return replace(res, x=fn.expand(res.x), z_lower=zl, z_upper=zu)


def _ipm(fn: _Funcs, opts: IpmOptions, x0, warm, elastic=False) -> tuple:
    """The interior-point loop on fn's free variables, from x0 and warm
    (None, or (lam, z) with z one multiplier per bound row of fn). Every
    bound operation runs once over the slacks s = fn.slacks(x) and z: the
    start, mu, the barrier Hessian sigma = z / s, the Newton right-hand side
    and dz, the fraction-to-boundary steps and the dual clip. The result is
    on the free variables, z split at fn.n_lower into z_lower and z_upper,
    and is returned with the final _Point, whose gradient and Jacobian are
    evaluated. The elastic solve itself (elastic=True) ends at a step
    failure instead of restoring."""
    k, m, n = fn.n_lower, fn.m, fn.n
    zeros = (np.zeros(m), np.zeros(fn.bound.size))  # lam, z
    # this solve's KKT matrix [[W + diag, J^T], [J, diag]], rewritten in place
    kkt = np.zeros((n + m, n + m))
    diag = kkt.reshape(-1)[:: n + m + 1]

    def start(x, warm):
        push, mu = (_BOUND_PUSH, _MU_INIT) if warm is None else (_WARM_BOUND_PUSH, _WARM_MU_INIT)
        lam, z = warm or zeros
        pt = _Point(fn, fn.interior(x, push))
        return pt, lam, np.maximum(z, mu / pt.slacks), mu

    pt, lam, z, mu = start(x0, warm)
    rho = 1.0
    it = 0
    restorations = 0
    need_restore = False
    message = "iteration limit reached"
    best = None  # (rank, point, lam, z) of least violation, then least f

    def remember():
        # Violations below tol_feas tie, so a feasible point is not beaten by
        # one that is only closer to exact feasibility but costs more. A point
        # whose violation or f is not finite ranks after every finite one.
        # No held array is written in place, so holding references is safe.
        nonlocal best
        viol, f = pt.viol, pt.f
        rank = (not (math.isfinite(viol) and math.isfinite(f)), max(viol, opts.tol_feas), f)
        if best is None or rank < best[0]:
            best = (rank, pt, lam, z)

    def finish(status, message="", errors=None):
        stat, feas, comp = errors or _kkt_errors(fn, pt, lam, z, 0.0)
        res = IpmResult(pt.x, lam, z[:k], z[k:], status, it, mu, stat, feas, comp, restorations, message)
        return res, pt

    remember()

    while it < opts.max_iter:
        if need_restore:
            need_restore = False
            if elastic or not np.isfinite(pt.viol):
                message = "line search failed"
                break  # no nested restoration, and no elastic problem at a non-finite c
            restorations += 1
            x, status, used = _restore(fn, pt, mu, opts, opts.max_iter - it)
            it += used
            pt, (lam, z) = _Point(fn, x), zeros
            remember()
            if status != "optimal":
                message = "elastic restoration did not converge"
                break
            if pt.viol > opts.tol_feas:
                return finish("infeasible", "elastic restoration converged above tol_feas")
            pt, lam, z, mu = start(x, None)
            rho = 1.0
            continue

        stat, feas, comp0 = _kkt_errors(fn, pt, lam, z, 0.0)
        if stat <= opts.tol_stat and feas <= opts.tol_feas and comp0 <= opts.tol_comp:
            return finish("optimal", errors=(stat, feas, comp0))

        # Adaptive barrier: mu follows the actual complementarity gap, so the
        # central path is tracked without an outer loop that can stall.
        x, s = pt.x, pt.slacks
        zs = z * s
        # two partial sums, lower rows then upper rows: one sum over all rows
        # rounds differently and changes the iterates
        gap = float(zs[:k].sum()) + float(zs[k:].sum())
        mu = max(_SIGMA * gap / z.size, 1e-14) if z.size else 0.0

        it += 1

        # Newton step on the perturbed KKT system, z eliminated.
        sig = fn.sigma(s, z)
        grad, jac, c = pt.g, pt.J, pt.c
        w = fn.hess(pt, lam, 1.0)

        r_x = fn.scatter(grad + (jac.T @ lam if m else 0.0), mu / s)
        rhs = -np.concatenate([r_x, c])

        # Each inertia trial rewrites only the diagonal, as w + diag(sig) +
        # delta_w*I and -delta_c*I.
        kkt[:n, :n] = w
        if m:
            kkt[:n, n:] = jac.T
            kkt[n:, :n] = jac
        w_sig = w.diagonal() + sig
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
                if delta_w == 0.0:  # the first rejected trial sets the scale
                    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
                    delta_w = 1e-8 * scale
                else:
                    delta_w *= 100.0
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
        ds = fn.sign * dx[fn.bound]  # the slacks' step
        dz = (mu - z * ds) / s - z

        tau = min(max(_TAU_MIN, 1.0 - mu), 0.99995)
        alpha_max = _max_step(s, ds, tau)
        alpha_z = _max_step(z, dz, tau)

        # Acceptance 1: the full primal-dual step contracts the perturbed KKT
        # residual. A primal merit cannot see dual progress, so Newton steps
        # that mostly re-center the multipliers are accepted on the residual
        # itself (this is also what quadratic local convergence requires).
        # Stationarity and feasibility do not depend on mu. Every error must
        # contract, so a NaN one (a trial where c is not finite) fails. The
        # errors do not read f, so a trial where f is not finite fails here
        # too (remember() evaluates f at every accepted point anyway).
        err_before = max(stat, feas, _comp_error(pt, z, mu))
        trial = _Point(fn, x + alpha_max * dx)
        lam_t = lam + alpha_max * dlam if m else lam
        z_t = z + alpha_z * dz
        bound = (1.0 - 1e-4 * alpha_max) * err_before
        if (
            (trial.slacks > 0.0).all()
            and all(e <= bound for e in _kkt_errors(fn, trial, lam_t, z_t, mu))
            and math.isfinite(trial.f)
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
            if not accepted:
                need_restore = True
                continue
            pt = cand
            lam = lam + alpha * dlam if m else lam
        # keep duals safely positive and bounded relative to mu (centrality guard)
        s = np.maximum(pt.slacks, 1e-300)
        z = np.clip(z_t, mu / (1e10 * s), 1e10 * mu / s)
        remember()

    # iteration budget exhausted, restoration failed or a KKT matrix was not
    # finite: report the best point seen
    _, pt, lam, z = best
    return finish("max_iter", message)
