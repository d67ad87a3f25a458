import dataclasses

import numpy as np
import pytest
import scipy.linalg

from conftest import hour_problem
from gridcap import acopf, ipm
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


def test_solve_resumes_after_a_successful_restoration(monkeypatch):
    # every Newton step of the main loop fails until the elastic solve (which
    # has two more variables) has run, so the solve must restore feasibility
    # and then go on to the optimum
    real_solve_kkt = ipm._solve_kkt
    sizes = []

    def failing_until_restored(kkt, rhs, n, m):
        sizes.append(n)
        if n == 2 and 4 not in sizes:
            raise np.linalg.LinAlgError("kkt matrix has 1 zero eigenvalues")
        return real_solve_kkt(kkt, rhs, n, m)

    monkeypatch.setattr(ipm, "_solve_kkt", failing_until_restored)
    r = solve_nlp(dataclasses.replace(nonconvex_problem(), x0=np.array([0.3, 0.4])))
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


def test_frozen_variable_eliminated_and_multiplier_recovered():
    # x pinned by l = u = 1; stationarity implies z_upper = 4 there
    prob = NlpProblem(
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
    r = solve_nlp(prob)
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


# -- bound index arrays against the full-length mask form ----------------------


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


def test_max_step_matches_mask_form():
    cases = list(random_boxes())
    cases.append((np.full(3, -np.inf), np.full(3, np.inf), np.zeros(3), np.ones(3)))
    for lo, hi, x, dx in cases:
        fn = box_funcs(lo, hi)
        sl, su = fn.slacks(x)
        for tau in (0.99, 0.99995, 1.0):
            # the multipliers' rule on the slacks is the primal step
            alpha = min(_max_step(sl, dx[fn.lb], tau), _max_step(su, -dx[fn.ub], tau))
            assert alpha == reference_max_step(x, dx, lo, hi, tau)


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
