import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

from conftest import hour_problem
from gridcap import acopf, ipm, study
from gridcap.ipm import (
    IpmOptions,
    NlpProblem,
    _Funcs,
    _inertia,
    _max_step,
    _Point,
    _restore,
    _solve_kkt,
    solve_nlp,
)
from gridcap.model import PfSign


def bound_qp():
    # min (x-2)^2 on [0, 1]: x* = 1, upper multiplier = 2
    return NlpProblem(
        x0=np.array([0.5]),
        lower=np.array([0.0]),
        upper=np.array([1.0]),
        n_eq=0,
        objective=lambda x: (x[0] - 2.0) ** 2,
        gradient=lambda x: np.array([2 * (x[0] - 2.0)]),
        constraints=lambda x: np.zeros(0),
        jacobian=lambda x: np.zeros((0, 1)),
        hess_lag=lambda x, lam, s: np.array([[2.0 * s]]),
    )


def test_bound_qp_point_and_multiplier():
    r = solve_nlp(bound_qp())
    assert r.status == "optimal"
    assert r.x[0] == pytest.approx(1.0, abs=1e-6)
    assert r.z_upper[0] == pytest.approx(2.0, abs=1e-4)
    assert r.z_lower[0] == pytest.approx(0.0, abs=1e-6)


def test_equality_qp_multiplier():
    # min ||x||^2 s.t. x0 + x1 = 2: x* = (1,1), lam* = -2 under L = f + lam^T c
    prob = NlpProblem(
        x0=np.zeros(2),
        lower=np.full(2, -np.inf),
        upper=np.full(2, np.inf),
        n_eq=1,
        objective=lambda x: float(x @ x),
        gradient=lambda x: 2 * x,
        constraints=lambda x: np.array([x[0] + x[1] - 2.0]),
        jacobian=lambda x: np.array([[1.0, 1.0]]),
        hess_lag=lambda x, lam, s: 2.0 * s * np.eye(2),
    )
    r = solve_nlp(prob)
    assert r.status == "optimal"
    np.testing.assert_allclose(r.x, [1.0, 1.0], atol=1e-7)
    assert r.lam[0] == pytest.approx(-2.0, abs=1e-6)


def nonconvex_problem():
    # min -xy s.t. x^2 + y^2 = 2 on [0,2]^2: optimum (1,1)
    return NlpProblem(
        x0=np.array([0.7, 1.2]),
        lower=np.zeros(2),
        upper=np.full(2, 2.0),
        n_eq=1,
        objective=lambda x: -x[0] * x[1],
        gradient=lambda x: np.array([-x[1], -x[0]]),
        constraints=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 2.0]),
        jacobian=lambda x: np.array([[2 * x[0], 2 * x[1]]]),
        hess_lag=lambda x, lam, s: np.array([[2 * lam[0], -s], [-s, 2 * lam[0]]]),
    )


def test_nonconvex_equality_with_bounds():
    r = solve_nlp(nonconvex_problem())
    assert r.status == "optimal"
    np.testing.assert_allclose(r.x, [1.0, 1.0], atol=1e-6)


def test_infeasible_box_detected():
    prob = NlpProblem(
        x0=np.array([0.5]),
        lower=np.array([0.0]),
        upper=np.array([1.0]),
        n_eq=1,
        objective=lambda x: 0.0,
        gradient=lambda x: np.zeros(1),
        constraints=lambda x: np.array([x[0] - 3.0]),
        jacobian=lambda x: np.array([[1.0]]),
        hess_lag=lambda x, lam, s: np.zeros((1, 1)),
    )
    r = solve_nlp(prob)
    assert r.status == "infeasible"
    # the certificate: the elastic point minimizes |x - 3| over [0, 1], and
    # it is reported as it is, with no push back inside the box
    assert r.x[0] == pytest.approx(1.0, abs=1e-6)
    assert r.feas_err == pytest.approx(2.0, abs=1e-6)


def test_restore_reaches_feasibility():
    # from (0.3, 0.4), well inside the circle x^2 + y^2 = 2, the elastic
    # solve must end on it, whatever the barrier parameter it is handed
    fn = _Funcs(nonconvex_problem())
    opts = IpmOptions()
    for mu in (1e-1, 1e-8):
        x, status, used = _restore(fn, _Point(fn, np.array([0.3, 0.4])), mu, opts, 50)
        assert status == "optimal" and used < 50
        assert _Point(fn, x).viol <= opts.tol_feas


def solve_failing_until_restored(monkeypatch, x0):
    """solve_nlp on nonconvex_problem from x0, with every Newton step of the
    main loop failing until the elastic solve (which has two more variables)
    has run. Returns the result and the size of each KKT system tried."""
    real_solve_kkt = ipm._solve_kkt
    sizes = []

    def failing_until_restored(kkt, rhs, n, m):
        sizes.append(n)
        if n == 2 and 4 not in sizes:
            raise np.linalg.LinAlgError("kkt matrix has 1 zero eigenvalues")
        return real_solve_kkt(kkt, rhs, n, m)

    monkeypatch.setattr(ipm, "_solve_kkt", failing_until_restored)
    return solve_nlp(dataclasses.replace(nonconvex_problem(), x0=x0)), sizes


def test_solve_resumes_after_a_successful_restoration(monkeypatch):
    # the solve must restore feasibility and then go on to the optimum
    r, sizes = solve_failing_until_restored(monkeypatch, np.array([0.3, 0.4]))
    assert 4 in sizes
    assert r.status == "optimal" and r.restorations == 1
    np.testing.assert_allclose(r.x, [1.0, 1.0], atol=1e-6)


def test_step_failure_at_a_feasible_point_goes_to_restoration(monkeypatch):
    # the start is on the circle, so every failed step of the main loop is at
    # a feasible point; the elastic solve is run all the same, and the solve
    # goes on from its point to the optimum
    x0 = np.array([0.6, np.sqrt(1.64)])
    fn = _Funcs(nonconvex_problem())
    assert _Point(fn, fn.interior(x0)).viol <= 1e-12
    r, sizes = solve_failing_until_restored(monkeypatch, x0)
    assert 4 in sizes
    assert r.status == "optimal" and r.restorations == 1
    np.testing.assert_allclose(r.x, [1.0, 1.0], atol=1e-6)


def test_non_finite_start_ends_without_raising():
    # c = log(x0) - x1 is NaN at x0 = -1: there is no elastic problem to
    # solve from there, so the solve ends with its best point
    def log_constraint(x):
        with np.errstate(invalid="ignore"):
            return np.array([np.log(x[0]) - x[1]])

    prob = NlpProblem(
        x0=np.array([-1.0, 0.5]),
        lower=np.full(2, -np.inf),
        upper=np.full(2, np.inf),
        n_eq=1,
        objective=lambda x: float(x @ x),
        gradient=lambda x: 2 * x,
        constraints=log_constraint,
        jacobian=lambda x: np.array([[1.0 / x[0], -1.0]]),
        hess_lag=lambda x, lam, s: 2.0 * s * np.eye(2) - lam[0] * np.diag([x[0] ** -2, 0.0]),
    )
    r = solve_nlp(prob, IpmOptions(max_iter=50))
    assert r.status == "max_iter" and r.restorations == 0
    np.testing.assert_array_equal(r.x, [-1.0, 0.5])


def test_non_finite_kkt_matrix_ends_the_solve():
    # a NaN Hessian at a finite point: no inertia correction can repair the
    # KKT matrix, so the solve stops at once with its best (finite) point
    prob = NlpProblem(
        x0=np.array([0.5]),
        lower=np.array([0.0]),
        upper=np.array([2.0]),
        n_eq=1,
        objective=lambda x: float(x[0] ** 2),
        gradient=lambda x: 2 * x,
        constraints=lambda x: np.array([x[0] - 1.0]),
        jacobian=lambda x: np.array([[1.0]]),
        hess_lag=lambda x, lam, s: np.array([[np.nan]]),
    )
    r = solve_nlp(prob, IpmOptions(max_iter=50))
    assert r.status == "max_iter" and r.message == "non-finite KKT matrix"
    assert r.iterations == 1 and r.restorations == 0
    assert np.isfinite(r.x).all() and 0.0 < r.x[0] < 2.0


def test_trial_with_non_finite_constraints_is_not_accepted():
    # min (x0 - 3)^2 + x1^2 s.t. x0 + x1 = 2 on [0, 10]^2, with c NaN beyond
    # x0 = 1.5: the first full step lands there with smaller stationarity and
    # complementarity errors, and must be backtracked, not accepted
    def constraints(x):
        return np.array([x[0] + x[1] - 2.0 if x[0] <= 1.5 else np.nan])

    prob, seen = recording(NlpProblem(
        x0=np.array([1.4, 0.6]),
        lower=np.zeros(2),
        upper=np.full(2, 10.0),
        n_eq=1,
        objective=lambda x: float((x[0] - 3.0) ** 2 + x[1] ** 2),
        gradient=lambda x: np.array([2.0 * (x[0] - 3.0), 2.0 * x[1]]),
        constraints=constraints,
        jacobian=lambda x: np.array([[1.0, 1.0]]),
        hess_lag=lambda x, lam, s: 2.0 * s * np.eye(2),
    ))
    r = solve_nlp(prob, IpmOptions(max_iter=50))
    # each iteration evaluates the Hessian once, at the point it accepted last
    accepted = [np.frombuffer(x) for x in seen["hess_lag"]] + [r.x]
    assert r.iterations > 2
    assert all(np.isfinite(constraints(x)).all() for x in accepted)


def test_trial_with_non_finite_objective_is_not_accepted():
    # min -x0 - x1 s.t. x0 - x1 = 0 on [0, 3]^2, with f NaN beyond x0 = 1.2:
    # the residual test does not see f, so without a finite-f check the
    # solve reports "optimal" at (3, 3), where f is NaN
    def objective(x):
        return float(-x[0] - x[1]) if x[0] <= 1.2 else float("nan")

    prob = NlpProblem(
        x0=np.array([1.0, 1.0]),
        lower=np.zeros(2),
        upper=np.full(2, 3.0),
        n_eq=1,
        objective=objective,
        gradient=lambda x: np.array([-1.0, -1.0]),
        constraints=lambda x: np.array([x[0] - x[1]]),
        jacobian=lambda x: np.array([[1.0, -1.0]]),
        hess_lag=lambda x, lam, s: np.zeros((2, 2)),
    )
    r = solve_nlp(prob)
    assert r.status == "max_iter"
    assert np.isfinite(objective(r.x))
    np.testing.assert_allclose(r.x, [1.2, 1.2], atol=1e-9)


def test_failed_solve_reports_the_cheapest_feasible_point_it_reached():
    # The same problem at default options never converges, but it reaches
    # (1.5, 0.5), feasible and cheaper than the exactly feasible start
    # (1.4, 0.6); violations below tol_feas must not outrank the cost.
    prob = NlpProblem(
        x0=np.array([1.4, 0.6]),
        lower=np.zeros(2),
        upper=np.full(2, 10.0),
        n_eq=1,
        objective=lambda x: float((x[0] - 3.0) ** 2 + x[1] ** 2),
        gradient=lambda x: np.array([2.0 * (x[0] - 3.0), 2.0 * x[1]]),
        constraints=lambda x: np.array([x[0] + x[1] - 2.0 if x[0] <= 1.5 else np.nan]),
        jacobian=lambda x: np.array([[1.0, 1.0]]),
        hess_lag=lambda x, lam, s: 2.0 * s * np.eye(2),
    )
    r = solve_nlp(prob)
    assert r.status == "max_iter"
    np.testing.assert_allclose(r.x, [1.5, 0.5], atol=1e-9)
    assert r.feas_err <= IpmOptions().tol_feas


def frozen_problem():
    # x pinned by l = u = 1; stationarity implies z_upper = 4 there
    return NlpProblem(
        x0=np.array([1.0, 3.0]),
        lower=np.array([1.0, 0.0]),
        upper=np.array([1.0, 5.0]),
        n_eq=0,
        objective=lambda x: (x[0] - 3.0) ** 2 + (x[1] - 1.0) ** 2,
        gradient=lambda x: np.array([2 * (x[0] - 3.0), 2 * (x[1] - 1.0)]),
        constraints=lambda x: np.zeros(0),
        jacobian=lambda x: np.zeros((0, 2)),
        hess_lag=lambda x, lam, s: 2.0 * s * np.eye(2),
    )


def test_frozen_variable_eliminated_and_multiplier_recovered():
    r = solve_nlp(frozen_problem())
    assert r.status == "optimal"
    assert r.x[0] == 1.0  # exactly pinned
    assert r.x[1] == pytest.approx(1.0, abs=1e-6)
    assert r.z_upper[0] == pytest.approx(4.0, abs=1e-9)


def test_iteration_cap_returns_best_iterate():
    r = solve_nlp(bound_qp(), IpmOptions(max_iter=1))
    assert r.status == "max_iter"
    assert 0.0 <= r.x[0] <= 1.0


def test_deterministic():
    r1 = solve_nlp(bound_qp())
    r2 = solve_nlp(bound_qp())
    assert np.array_equal(r1.x, r2.x)
    assert r1.iterations == r2.iterations
    assert np.array_equal(r1.z_upper, r2.z_upper)


def assert_same_result(a, b):
    assert (a.status, a.iterations, a.mu) == (b.status, b.iterations, b.mu)
    for name in ("x", "lam", "z_lower", "z_upper"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


@pytest.mark.parametrize("make", [bound_qp, nonconvex_problem])
def test_cold_start_is_unchanged_by_the_warm_path(make, monkeypatch):
    cold = solve_nlp(make())
    monkeypatch.setattr(ipm, "_WARM_MU_INIT", 0.37)
    monkeypatch.setattr(ipm, "_WARM_BOUND_PUSH", 0.2)
    assert_same_result(solve_nlp(make()), cold)
    # a cold start is the warm path with zero multipliers and the cold constants
    monkeypatch.setattr(ipm, "_WARM_MU_INIT", ipm._MU_INIT)
    monkeypatch.setattr(ipm, "_WARM_BOUND_PUSH", ipm._BOUND_PUSH)
    prob = make()
    zeros = np.zeros(prob.x0.size)
    assert_same_result(solve_nlp(prob, warm=(np.zeros(prob.n_eq), zeros, zeros)), cold)


@pytest.mark.parametrize("hour", [0, 7, 19])
def test_cold_opf_solve_is_unchanged_by_the_warm_path(microgrid9, monkeypatch, hour):
    net, demand = microgrid9
    cold = acopf.solve(hour_problem(net, demand, hour))
    assert cold.iterations == 8  # pinned: the cold start of these hours
    monkeypatch.setattr(ipm, "_WARM_MU_INIT", 0.37)
    monkeypatch.setattr(ipm, "_WARM_BOUND_PUSH", 0.2)
    again = acopf.solve(hour_problem(net, demand, hour))
    assert again.iterations == cold.iterations
    assert again.mu_final == cold.mu_final
    for name in ("v", "theta", "p_g", "q_g", "lambda_p", "lambda_q", "mu_v_max", "mu_pg_min"):
        assert getattr(again, name).tobytes() == getattr(cold, name).tobytes(), name


def test_warm_restart_keeps_the_bound_multiplier():
    r = solve_nlp(bound_qp())
    w = solve_nlp(dataclasses.replace(bound_qp(), x0=r.x), warm=(r.lam, r.z_lower, r.z_upper))
    assert w.status == "optimal"
    assert w.iterations <= 2
    assert w.x[0] == pytest.approx(1.0, abs=1e-6)
    assert w.z_upper[0] == pytest.approx(2.0, abs=1e-4)


def test_multiplier_nonnegativity_and_complementarity():
    r = solve_nlp(bound_qp())
    assert r.z_lower.min() >= 0.0 and r.z_upper.min() >= 0.0
    assert r.comp_err <= 1e-6


def sign_counts(a):
    evs = np.linalg.eigvalsh(a)
    tol = 1e-9 * max(1.0, float(np.abs(evs).max()))
    return int((evs > tol).sum()), int((evs < -tol).sum()), int((np.abs(evs) <= tol).sum())


def symmetric_cases():
    rng = np.random.default_rng(3)
    for size in (1, 2, 5, 12, 31):
        a = rng.standard_normal((size, size))
        yield a + a.T
    for size in (4, 8, 16):
        # zero diagonal with [[0,1],[1,0]] blocks: only 2x2 pivots are possible
        a = np.kron(np.eye(size // 2), [[0.0, 1.0], [1.0, 0.0]])
        perm = rng.permutation(size)
        yield a[np.ix_(perm, perm)]
        b = rng.standard_normal((size, size))
        b = b + b.T
        np.fill_diagonal(b, 0.0)
        yield b
    for size, dead in ((6, [2]), (10, [0, 7]), (13, [4, 5, 12])):
        # exactly singular: rows and columns of zeros
        a = rng.standard_normal((size, size))
        a = a + a.T
        a[dead, :] = 0.0
        a[:, dead] = 0.0
        yield a


@pytest.mark.parametrize("a", list(symmetric_cases()))
def test_inertia_matches_eigenvalue_signs(a):
    ldu, ipiv, _ = scipy.linalg.lapack.dsytrf(a, lower=1)
    assert _inertia(ldu, ipiv) == sign_counts(a)


def test_inertia_cases_exercise_two_by_two_pivots():
    pivots = [scipy.linalg.lapack.dsytrf(a, lower=1)[1] for a in symmetric_cases()]
    assert any((p < 0).any() for p in pivots) and any((p > 0).all() for p in pivots)


def block_d(ldu, ipiv):
    """D of a lower dsytrf factorization, its 2x2 pivots paired as LAPACK
    documents them: a negative ipiv[k] starts a pivot on rows k and k + 1."""
    size = ipiv.size
    d = np.diag(ldu.diagonal())
    k = 0
    while k < size:
        if ipiv[k] < 0:
            d[k + 1, k] = d[k, k + 1] = ldu[k + 1, k]
            k += 1
        k += 1
    return d


def d_sign_counts(d):
    """Eigenvalue signs of D by eigvalsh, at _inertia's zero tolerance."""
    tol = 10.0 * np.finfo(float).eps * max(1.0, float(np.abs(d).max()))
    evs = np.linalg.eigvalsh(d)
    return int((evs > tol).sum()), int((evs < -tol).sum()), int((np.abs(evs) <= tol).sum())


def kkt_like_systems():
    """(kkt, n, m) of 60 random KKT-like matrices, with and without 2x2 pivots."""
    rng = np.random.default_rng(17)
    for _ in range(60):
        n, m = int(rng.integers(1, 25)), int(rng.integers(0, 12))
        h = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-4, 4)
        jac = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-2, 2, size=(m, 1))
        kkt = np.zeros((n + m, n + m))
        kkt[:n, :n] = h + h.T + np.diag(rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-3, 3))
        kkt[:n, n:] = jac.T
        kkt[n:, :n] = jac
        kkt[n:, n:] = -np.eye(m) * rng.choice([0.0, 1e-8, 1.0])
        yield kkt, n, m


def kkt_like_cases():
    return (kkt for kkt, _, _ in kkt_like_systems())


def test_inertia_matches_eigvalsh_of_d_on_kkt_like_matrices():
    kinds = set()
    for kkt in kkt_like_cases():
        ldu, ipiv, _ = scipy.linalg.lapack.dsytrf(kkt, lower=1)
        assert _inertia(ldu, ipiv) == d_sign_counts(block_d(ldu, ipiv))
        kinds.add(bool((ipiv < 0).any()))
    assert kinds == {True, False}  # factors with and without 2x2 pivots


def test_inertia_at_the_zero_tolerance():
    tol = 10.0 * np.finfo(float).eps  # max |D| is below 1 here, so 1 sets the scale
    # 1x1 pivots: a diagonal matrix is its own D; exactly +-tol counts as zero
    diag = np.diag([0.5, tol, -tol, 2.0 * tol, -2.0 * tol, 0.5 * tol, 0.0])
    ldu, ipiv, _ = scipy.linalg.lapack.dsytrf(diag, lower=1)
    assert (ipiv > 0).all()
    assert _inertia(ldu, ipiv) == d_sign_counts(block_d(ldu, ipiv)) == (2, 1, 4)
    # 2x2 pivots [[0, b], [b, 0]] have eigenvalues exactly +-b
    for b, counts in ((tol, (0, 0, 2)), (2.0 * tol, (1, 1, 0))):
        pair = np.array([[0.0, b], [b, 0.0]])
        ldu, ipiv, _ = scipy.linalg.lapack.dsytrf(pair, lower=1)
        assert (ipiv < 0).all()
        assert _inertia(ldu, ipiv) == d_sign_counts(block_d(ldu, ipiv)) == counts


def quasi_definite_kkt(n=7, m=3):
    rng = np.random.default_rng(11)
    h = rng.standard_normal((n, n))
    jac = rng.standard_normal((m, n))
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = h @ h.T + np.diag(rng.uniform(1e-3, 1e3, n))
    kkt[:n, n:] = jac.T
    kkt[n:, :n] = jac
    return kkt, rng.standard_normal(n + m), n, m


def test_solve_kkt_matches_dense_solve():
    kkt, rhs, n, m = quasi_definite_kkt()
    step = _solve_kkt(kkt, rhs, n, m)
    expected = np.linalg.solve(kkt, rhs)
    assert np.abs(step - expected).max() <= 1e-10 * np.abs(expected).max()


def test_solve_kkt_rejects_wrong_inertia():
    kkt, rhs, n, m = quasi_definite_kkt()
    with pytest.raises(np.linalg.LinAlgError, match="inertia"):
        _solve_kkt(kkt, rhs, n + 1, m - 1)


def test_solve_kkt_rejects_singular_matrix():
    kkt, rhs, n, m = quasi_definite_kkt()
    kkt[n, :] = 0.0
    kkt[:, n] = 0.0  # a constraint with an all-zero Jacobian row
    with pytest.raises(np.linalg.LinAlgError, match="zero"):
        _solve_kkt(kkt, rhs, n, m)


def test_solve_kkt_rejects_non_finite_entry():
    kkt, rhs, n, m = quasi_definite_kkt()
    kkt[1, 2] = np.nan
    with pytest.raises(ValueError):
        _solve_kkt(kkt, rhs, n, m)


# -- the KKT step against its first form --------------------------------------


def reference_solve_kkt(kkt, rhs, n, m):
    """The KKT step as first written: full |K| row norms, a transposing
    np.multiply into LAPACK's order, then a finiteness pass over the
    equilibrated copy."""
    norms = np.abs(kkt).max(axis=1)
    d = 1.0 / np.sqrt(np.maximum(norms, 1e-12))
    scaled = np.multiply(kkt, d[:, None], order="F")
    scaled *= d[None, :]
    if not np.isfinite(scaled).all():
        raise ValueError("array must not contain infs or NaNs")
    ldu, ipiv, info = ipm._sytrf(scaled)
    if info < 0:
        raise RuntimeError(f"dsytrf rejected argument {-info}")
    pos, neg, zero = _inertia(ldu, ipiv)
    if zero > 0:
        raise np.linalg.LinAlgError(f"kkt matrix has {zero} zero eigenvalues")
    if pos != n or neg != m:
        raise np.linalg.LinAlgError(f"wrong inertia ({pos},{neg},{zero}), expected ({n},{m},0)")
    step, info = ipm._sytrs(ldu, ipiv, d * rhs)
    if info < 0:
        raise RuntimeError(f"dsytrs rejected argument {-info}")
    return d * step


def step_systems():
    """(kkt, rhs, n, m): the KKT-like systems, and the symmetric cases at
    their own inertia and at a wrong one."""
    rng = np.random.default_rng(41)
    for kkt, n, m in kkt_like_systems():
        yield kkt, rng.standard_normal(n + m), n, m
    for a in symmetric_cases():
        pos, neg, _ = sign_counts(a)
        b = rng.standard_normal(a.shape[0])
        yield a, b, pos, neg
        yield a, b, neg, pos


def test_solve_kkt_is_bitwise_its_first_form():
    verdicts = set()
    for kkt, rhs, n, m in step_systems():
        before = kkt.copy()
        got, want = outcome(kkt, rhs, n, m), outcome(kkt, rhs, n, m, reference_solve_kkt)
        if isinstance(want, str):
            assert got == want
            verdicts.add("zero" if "zero" in got else "inertia")
        else:
            assert got.tobytes() == want.tobytes()
            verdicts.add("step")
        assert kkt.tobytes() == before.tobytes()  # the caller's matrix is not written
    assert verdicts == {"step", "zero", "inertia"}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_kkt_rejects_non_finite_entries_as_its_first_form(bad):
    rng = np.random.default_rng(43)
    for kkt, rhs, n, m in step_systems():
        size = kkt.shape[0]
        i, j = rng.integers(size, size=2)
        kkt = kkt.copy()
        kkt[i, j] = kkt[j, i] = bad
        with np.errstate(invalid="ignore"):  # the first form scales inf by 0
            want = outcome(kkt, rhs, n, m, reference_solve_kkt)
        assert outcome(kkt, rhs, n, m) == want == "ValueError: array must not contain infs or NaNs"


def solution_bytes(sol):
    """Every field of sol but the problem it solved, arrays as their bytes."""
    return {name: v.tobytes() if isinstance(v, np.ndarray) else v
            for name, v in vars(sol).items() if name != "problem"}


def recording_verdicts(monkeypatch, solve_kkt):
    """Patch ipm._solve_kkt with solve_kkt, recording each trial's verdict
    (True: a step, False: rejected)."""
    verdicts = []

    def recorded(kkt, rhs, n, m):
        try:
            step = solve_kkt(kkt, rhs, n, m)
        except np.linalg.LinAlgError:
            verdicts.append(False)
            raise
        verdicts.append(True)
        return step

    monkeypatch.setattr(ipm, "_solve_kkt", recorded)
    return verdicts


def stressed_hour(net, demand, hour):
    """Case 2's problem at hour: PV at the study's stressed power factor."""
    p_inj, q_inj = study._hour_injections(net, hour, study.uniform_stress(net, 0.85, PfSign.LAGGING))
    return dataclasses.replace(hour_problem(net, demand, hour), p_inj=p_inj, q_inj=q_inj)


def test_hour_with_rejected_inertia_trials_solves_as_the_first_form(microgrid9, study9, monkeypatch):
    # Case 2 hour 10, warm from hour 9 as in the study, rejects inertia
    # trials. It solves to the study's bits alone, after another hour, and
    # through the first form of the step: nothing carries between trials or
    # between solves.
    net, demand = microgrid9
    case2 = study9.case(2)
    warm, want = case2.hours[9].solution, solution_bytes(case2.hours[10].solution)
    verdicts = recording_verdicts(monkeypatch, ipm._solve_kkt)
    assert solution_bytes(acopf.solve(stressed_hour(net, demand, 10), warm)) == want
    assert False in verdicts and True in verdicts
    acopf.solve(stressed_hour(net, demand, 9))
    assert solution_bytes(acopf.solve(stressed_hour(net, demand, 10), warm)) == want
    first = recording_verdicts(monkeypatch, reference_solve_kkt)
    assert solution_bytes(acopf.solve(stressed_hour(net, demand, 10), warm)) == want
    assert first == verdicts[: len(first)]


# -- the LAPACK binding -------------------------------------------------------

SCIPY_PAIR = ipm._bind_lapack([])  # the fallback of a numpy without OpenBLAS


def use_scipy_pair(mp):
    mp.setattr(ipm, "_sytrf", SCIPY_PAIR[0])
    mp.setattr(ipm, "_sytrs", SCIPY_PAIR[1])


def outcome(kkt, rhs, n, m, solve_kkt=_solve_kkt):
    """solve_kkt's step, or the type and message of what it raised."""
    try:
        return solve_kkt(kkt, rhs, n, m)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.skipif(not ipm._bundled_openblas(), reason="numpy bundles no OpenBLAS")
def test_lapack_is_bound_from_numpys_openblas():
    # the bound pair writes 64-bit pivots; scipy's wrapper returns 32-bit ones
    ldu, ipiv, info = ipm._sytrf(np.asfortranarray(quasi_definite_kkt()[0]))
    assert ipiv.dtype == np.int64 and info == 0


def test_binding_matches_scipy_factor_by_factor():
    rng = np.random.default_rng(23)
    pivots = set()
    for a in [*symmetric_cases(), *kkt_like_cases()]:
        ldu, ipiv, info = ipm._sytrf(np.asfortranarray(a))
        ref_ldu, ref_ipiv, ref_info = scipy.linalg.lapack.dsytrf(a, lower=1)
        assert info == ref_info
        assert _inertia(ldu, ipiv) == _inertia(ref_ldu, ref_ipiv)
        assert np.array_equal(ipiv < 0, ref_ipiv < 0)
        pivots.add(bool((ipiv < 0).any()))
        if info == 0:  # else a pivot is exactly zero and there is no step
            b = rng.standard_normal(a.shape[0])
            step, step_info = ipm._sytrs(ldu, ipiv, b)
            ref_step, _ = scipy.linalg.lapack.dsytrs(ref_ldu, ref_ipiv, b, lower=1)
            assert step_info == 0
            assert np.abs(step - ref_step).max() <= 1e-13 * np.abs(ref_step).max()
    assert pivots == {True, False}


def test_fallback_gives_the_bound_pairs_verdicts_and_steps():
    rng = np.random.default_rng(29)
    systems = [quasi_definite_kkt(), *((k, rng.standard_normal(n + m), n, m) for k, n, m in kkt_like_systems())]
    verdicts = set()
    for kkt, rhs, n, m in systems:
        got = outcome(kkt, rhs, n, m)
        with pytest.MonkeyPatch.context() as mp:
            use_scipy_pair(mp)
            want = outcome(kkt, rhs, n, m)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
            verdicts.add("zero" if "zero" in got else "inertia")
        else:
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            verdicts.add("step")
    assert {"step", "inertia"} <= verdicts


def test_fallback_rejects_what_the_bound_pair_rejects(monkeypatch):
    # the bound pair's rejections are the test_solve_kkt_rejects_* tests
    kkt, rhs, n, m = quasi_definite_kkt()
    singular = kkt.copy()
    singular[n, :] = 0.0
    singular[:, n] = 0.0
    for sytrf in (ipm._sytrf, SCIPY_PAIR[0]):
        assert sytrf(np.asfortranarray(singular))[2] > 0  # LAPACK's info: an exact zero pivot
    use_scipy_pair(monkeypatch)
    with pytest.raises(np.linalg.LinAlgError, match="zero"):
        _solve_kkt(singular, rhs, n, m)
    kkt[3, 3] = np.nan
    with pytest.raises(ValueError):
        _solve_kkt(kkt, rhs, n, m)


@pytest.mark.skipif(not ipm._bundled_openblas(), reason="numpy bundles no OpenBLAS")
def test_binding_checks_what_it_hands_to_lapack():
    kkt, rhs, _, _ = quasi_definite_kkt()
    # the factor is read back as column-major: in a C-ordered buffer the
    # lower triangle would still hold the input, not L
    assert not kkt.flags.f_contiguous
    for bad in (kkt, np.asfortranarray(kkt[:, :-1]), np.asfortranarray(kkt, dtype=np.float32)):
        with pytest.raises(TypeError):
            ipm._sytrf(bad)
    ldu, ipiv, _ = ipm._sytrf(np.asfortranarray(kkt))
    for factor, pivots, b in ((ldu, ipiv.astype(np.int32), rhs), (ldu, ipiv[:-1], rhs), (ldu, ipiv, rhs[:-1]),
                              (ldu.astype(np.float32), ipiv, rhs), (np.ascontiguousarray(ldu), ipiv, rhs)):
        with pytest.raises(TypeError):
            ipm._sytrs(factor, pivots, b)


def concurrent_systems():
    """48 KKT-like systems of one size, 220, half of them of the right inertia."""
    rng = np.random.default_rng(31)
    n, m = 160, 60
    for k in range(48):
        h = rng.standard_normal((n, n))
        jac = rng.standard_normal((m, n))
        kkt = np.zeros((n + m, n + m))
        kkt[:n, :n] = h @ h.T + np.eye(n) if k % 2 else h + h.T
        kkt[:n, n:] = jac.T
        kkt[n:, :n] = jac
        yield kkt, rng.standard_normal(n + m), n, m


def test_two_threads_solve_kkt_systems_as_one_does():
    # ctypes releases the GIL in LAPACK, so two factorizations run at once;
    # pivots, workspace and info must be each call's own
    systems = list(concurrent_systems())
    alone = [outcome(*s) for s in systems]
    assert {isinstance(o, str) for o in alone} == {True, False}
    order = list(range(len(systems)))
    barrier = threading.Barrier(2)

    def run(indices):
        barrier.wait()
        return [(i, outcome(*systems[i])) for i in indices for _ in range(2)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = list(pool.map(run, [order, order[::-1]], timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for results in runs:
        for i, got in results:
            if isinstance(alone[i], str):
                assert got == alone[i]
            else:
                assert not isinstance(got, str) and got.tobytes() == alone[i].tobytes()


# -- each point is evaluated once ---------------------------------------------

VALUE_CALLBACKS = ("objective", "gradient", "constraints", "jacobian")


def recording(prob):
    """prob with each callback wrapped to record the bytes of every x it sees."""
    seen = {name: [] for name in (*VALUE_CALLBACKS, "hess_lag")}

    def wrap(name, fn):
        def recorder(x, *args):
            seen[name].append(x.tobytes())
            return fn(x, *args)

        return recorder

    wrapped = {name: wrap(name, getattr(prob, name)) for name in seen}
    return dataclasses.replace(prob, **wrapped), seen


def assert_each_point_evaluated_once(seen, res):
    assert res.restorations == 0
    for name in VALUE_CALLBACKS:
        assert len(set(seen[name])) == len(seen[name]), f"{name} saw a point twice"
    assert len(seen["hess_lag"]) == res.iterations


def test_nonconvex_solve_evaluates_each_point_once():
    prob, seen = recording(nonconvex_problem())
    res = solve_nlp(prob)
    assert res.status == "optimal"
    assert_each_point_evaluated_once(seen, res)


@pytest.mark.parametrize("hour", [0, 7, 19])
def test_cold_opf_solve_evaluates_each_point_once(microgrid9, monkeypatch, hour):
    runs = []

    def recording_solve_nlp(prob, *args, **kwargs):
        prob, seen = recording(prob)
        res = ipm.solve_nlp(prob, *args, **kwargs)
        runs.append((seen, res))
        return res

    monkeypatch.setattr(acopf, "solve_nlp", recording_solve_nlp)
    net, demand = microgrid9
    sol = acopf.solve(hour_problem(net, demand, hour))
    assert sol.status is acopf.OpfStatus.OPTIMAL
    ((seen, res),) = runs
    assert_each_point_evaluated_once(seen, res)


@pytest.mark.parametrize("pinned", [False, True])
def test_point_splits_columns_only_when_something_is_pinned(pinned):
    # with nothing pinned the point keeps the callback's gradient and an
    # F-ordered Jacobian, the layout a column selection gives, so J.T @ lam
    # rounds as it did through the selection
    rng = np.random.default_rng(37)
    n, m = 60, 40
    jac, grad, lam = rng.standard_normal((m, n)), rng.standard_normal(n), rng.standard_normal(m)
    upper = np.ones(n)
    if pinned:
        upper[[3, 17]] = 0.0
    prob = NlpProblem(np.zeros(n), np.zeros(n), upper, m, lambda x: 0.0, lambda x: grad,
                      lambda x: np.zeros(m), lambda x: jac, lambda x, lam, s: np.eye(n))
    fn = _Funcs(prob)
    pt = _Point(fn, np.full(fn.n, 0.5))
    assert pt.J.flags.f_contiguous
    assert (pt.J.T @ lam).tobytes() == (jac[:, fn.free].T @ lam).tobytes()
    assert np.array_equal(pt.J, jac[:, fn.free]) and np.array_equal(pt.g, grad[fn.free])
    assert np.array_equal(pt.J_pinned, jac[:, fn.frozen]) and np.array_equal(pt.g_pinned, grad[fn.frozen])
    assert (pt.g is grad) == (not pinned) and pt.J_pinned.shape == (m, 2 if pinned else 0)


def test_pinned_multiplier_recovery_evaluates_no_point_again():
    # the recovery reads the final point's own gradient
    prob, seen = recording(frozen_problem())
    res = solve_nlp(prob)
    assert res.status == "optimal" and res.z_upper[0] == pytest.approx(4.0, abs=1e-9)
    assert_each_point_evaluated_once(seen, res)


def test_cold_old_solve_with_pinned_shed_evaluates_each_point_once(microgrid9, monkeypatch):
    runs = []

    def recording_solve_nlp(prob, *args, **kwargs):
        prob, seen = recording(prob)
        res = ipm.solve_nlp(prob, *args, **kwargs)
        runs.append((prob, seen, res))
        return res

    monkeypatch.setattr(acopf, "solve_nlp", recording_solve_nlp)
    net, demand = microgrid9
    sol = acopf.solve(hour_problem(net, demand, 7, acopf.Objective.OPTIMAL_LOAD_DELIVERY))
    assert sol.status is acopf.OpfStatus.OPTIMAL
    ((prob, seen, res),) = runs
    assert np.any(prob.lower == prob.upper)  # idle buses' shed variables are pinned
    assert_each_point_evaluated_once(seen, res)


# -- the stacked bound rows against the full-length mask form -----------------


def reference_max_step(x, dx, lo, hi, tau):
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


def reference_barrier(x, lo, hi, mu):
    """(value, gradient) of -mu * sum(log(slack)) over the finite bounds."""
    has_lb, has_ub = np.isfinite(lo), np.isfinite(hi)
    sl = np.where(has_lb, x - lo, np.inf)
    su = np.where(has_ub, hi - x, np.inf)
    g = np.zeros_like(x)
    g[has_lb] -= mu / sl[has_lb]
    g[has_ub] += mu / su[has_ub]
    if np.any(sl[has_lb] <= 0.0) or np.any(su[has_ub] <= 0.0):
        return np.inf, g
    value = 0.0
    if np.any(has_lb):
        value -= mu * float(np.log(sl[has_lb]).sum())
    if np.any(has_ub):
        value -= mu * float(np.log(su[has_ub]).sum())
    return value, g


def reference_interior(x, lo, hi, push):
    """The start clip over lower/upper masks: inside a two-sided box by push
    times its width, inside a one-sided bound by push * max(1, |bound|)."""
    has_lb, has_ub = np.isfinite(lo), np.isfinite(hi)
    x = x.copy()
    both = has_lb & has_ub
    pad = push * (hi[both] - lo[both])
    x[both] = np.clip(x[both], lo[both] + pad, hi[both] - pad)
    only_lb = has_lb & ~has_ub
    x[only_lb] = np.maximum(x[only_lb], lo[only_lb] + push * np.maximum(1.0, np.abs(lo[only_lb])))
    only_ub = has_ub & ~has_lb
    x[only_ub] = np.minimum(x[only_ub], hi[only_ub] - push * np.maximum(1.0, np.abs(hi[only_ub])))
    return x


def random_boxes():
    """Seeded (lower, upper, x, dx): bounds mixing finite values and +-inf, x
    strictly inside, and dx with exact zeros."""
    rng = np.random.default_rng(17)
    for size in (1, 3, 8, 40):
        for _ in range(25):
            lo = rng.uniform(-2.0, 1.0, size)
            hi = lo + rng.uniform(0.1, 3.0, size)
            lo[rng.random(size) < 0.3] = -np.inf
            hi[rng.random(size) < 0.3] = np.inf
            has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
            frac, gap = rng.uniform(0.05, 0.95, size), rng.uniform(0.01, 2.0, size)
            x = rng.standard_normal(size)
            both = has_lo & has_hi
            x[both] = lo[both] + frac[both] * (hi[both] - lo[both])
            x[has_lo & ~has_hi] = (lo + gap)[has_lo & ~has_hi]
            x[has_hi & ~has_lo] = (hi - gap)[has_hi & ~has_lo]
            dx = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 3, size)
            dx[rng.random(size) < 0.25] = 0.0
            yield lo, hi, x, dx


def box_funcs(lo, hi):
    return _Funcs(NlpProblem(lo.copy(), lo, hi, 0, None, None, None, None, None))


def mask_slacks(x, lo, hi):
    has_lb, has_ub = np.isfinite(lo), np.isfinite(hi)
    return (x - lo)[has_lb], (hi - x)[has_ub]


def test_max_step_matches_mask_form():
    cases = list(random_boxes())
    cases.append((np.full(3, -np.inf), np.full(3, np.inf), np.zeros(3), np.ones(3)))
    for lo, hi, x, dx in cases:
        fn = box_funcs(lo, hi)
        s = fn.slacks(x)
        assert s.tobytes() == np.concatenate(mask_slacks(x, lo, hi)).tobytes()
        for tau in (0.99, 0.99995, 1.0):
            # the multipliers' rule on the slacks is the primal step
            assert _max_step(s, fn.sign * dx[fn.bound], tau) == reference_max_step(x, dx, lo, hi, tau)


def test_scatter_and_sigma_match_mask_form():
    # A box-bounded variable has two rows on one index: a fancy-index
    # r[bound] -= w would keep only one of its two updates.
    rng = np.random.default_rng(5)
    saw_box = False
    for lo, hi, x, dx in random_boxes():
        fn = box_funcs(lo, hi)
        has_lb, has_ub = np.isfinite(lo), np.isfinite(hi)
        saw_box |= np.any(has_lb & has_ub)
        z_lower, z_upper = rng.uniform(1e-8, 5.0, (2, x.size))
        z = np.where(fn.side == 0, z_lower[fn.bound], z_upper[fn.bound])
        # stationarity: r - z_lower + z_upper over the finite bounds
        r = rng.standard_normal(x.size)
        want = r.copy()
        want[has_lb] -= z_lower[has_lb]
        want[has_ub] += z_upper[has_ub]
        assert fn.scatter(r.copy(), z).tobytes() == want.tobytes()
        # sigma: z_lower / (x - l) + z_upper / (u - x)
        sl, su = mask_slacks(x, lo, hi)
        want = np.zeros(x.size)
        want[has_lb] += z_lower[has_lb] / sl
        want[has_ub] += z_upper[has_ub] / su
        assert fn.sigma(fn.slacks(x), z).tobytes() == want.tobytes()
    assert saw_box


@pytest.mark.parametrize("push", [1e-2, 1e-6])
def test_interior_matches_mask_form(push):
    clipped = 0
    for k, (lo, hi, x, dx) in enumerate(random_boxes()):
        fn = box_funcs(lo, hi)
        # every other point steps through the box, so both sides get clipped
        y = x + 10.0 * dx if k % 2 else x
        want = reference_interior(y, lo, hi, push)
        got = fn.interior(y, push)
        assert got.tobytes() == want.tobytes()
        assert np.all(fn.slacks(got) > 0.0)
        clipped += int(np.count_nonzero(got != y))
    assert clipped > 100


def test_barrier_value_and_grad_match_mask_form():
    saw_outside = False
    for k, (lo, hi, x, dx) in enumerate(random_boxes()):
        fn = box_funcs(lo, hi)
        # every third point steps through the box: value must be inf there
        y = x + 10.0 * dx if k % 3 == 0 else x
        for mu in (1e-1, 1e-7):
            value, grad = reference_barrier(y, lo, hi, mu)
            saw_outside |= value == np.inf
            assert fn.barrier_value(y, mu) == value
            assert np.array_equal(fn.barrier_grad(y, mu), grad)
    assert saw_outside
