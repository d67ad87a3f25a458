import numpy as np
import pytest

from gridcap.admittance import build_admittance
from gridcap.fixtures import load_fixture
from gridcap.powerflow import InjectionModel


def random_model(seed, n=5, order="C"):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n))
    b = rng.normal(size=(n, n))
    return InjectionModel(np.asarray(g + g.T + 1j * (b + b.T), order=order)), rng


def random_state(rng, n):
    return 1.0 + 0.1 * rng.normal(size=n), 0.3 * rng.normal(size=n)


def test_two_bus_injections_match_textbook_formula():
    # z = r + jx line, hand-expanded injection at bus 1
    r, x = 0.02, 0.1
    y = 1.0 / complex(r, x)
    g, b = y.real, y.imag
    m = InjectionModel(np.array([[y, -y], [-y, y]]))
    v = np.array([1.03, 0.98])
    th = np.array([0.0, -0.05])
    p, q = m.injections(v, th)
    p1_hand = v[0] * v[0] * g + v[0] * v[1] * (-g * np.cos(0.05) + (-b) * np.sin(0.05))
    q1_hand = v[0] * v[0] * (-b) + v[0] * v[1] * ((-g) * np.sin(0.05) - (-b) * np.cos(0.05))
    assert p[0] == pytest.approx(p1_hand, abs=1e-14)
    assert q[0] == pytest.approx(q1_hand, abs=1e-14)


def test_zero_flow_at_flat_state_without_shunts():
    y = 1.0 / 0.1j
    m = InjectionModel(np.array([[y, -y], [-y, y]]))
    p, q = m.injections(np.ones(2), np.zeros(2))
    np.testing.assert_allclose(p, 0.0, atol=1e-15)
    np.testing.assert_allclose(q, 0.0, atol=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_jacobian_matches_finite_differences(seed):
    check_jacobian(*random_model(seed))


def check_jacobian(m, rng):
    v, th = random_state(rng, m.n)
    dp_dth, dp_dv, dq_dth, dq_dv = m.jacobian(v, th)
    eps = 1e-6
    for k in range(m.n):
        for arr, blocks in (("th", (dp_dth, dq_dth)), ("v", (dp_dv, dq_dv))):
            vp, thp = v.copy(), th.copy()
            vm, thm = v.copy(), th.copy()
            if arr == "th":
                thp[k] += eps
                thm[k] -= eps
            else:
                vp[k] += eps
                vm[k] -= eps
            pp, qp = m.injections(vp, thp)
            pm, qm = m.injections(vm, thm)
            np.testing.assert_allclose((pp - pm) / (2 * eps), blocks[0][:, k], atol=2e-6)
            np.testing.assert_allclose((qp - qm) / (2 * eps), blocks[1][:, k], atol=2e-6)


@pytest.mark.parametrize("seed", [0, 3])
def test_weighted_hessian_matches_gradient_differences(seed):
    check_weighted_hessian(*random_model(seed))


def check_weighted_hessian(m, rng):
    v, th = random_state(rng, m.n)
    mu = rng.normal(size=m.n)
    nu = rng.normal(size=m.n)

    def weighted_grad(v, th):
        dp_dth, dp_dv, dq_dth, dq_dv = m.jacobian(v, th)
        return mu @ dp_dth + nu @ dq_dth, mu @ dp_dv + nu @ dq_dv

    h_thth, h_vth, h_vv = m.hessian_weighted(v, th, mu, nu)
    eps = 1e-6
    for k in range(m.n):
        thp, thm = th.copy(), th.copy()
        thp[k] += eps
        thm[k] -= eps
        gthp, gvp = weighted_grad(v, thp)
        gthm, gvm = weighted_grad(v, thm)
        np.testing.assert_allclose((gthp - gthm) / (2 * eps), h_thth[:, k], atol=5e-5)
        np.testing.assert_allclose((gvp - gvm) / (2 * eps), h_vth[:, k], atol=5e-5)
        vp, vm = v.copy(), v.copy()
        vp[k] += eps
        vm[k] -= eps
        _, gvp2 = weighted_grad(vp, th)
        _, gvm2 = weighted_grad(vm, th)
        np.testing.assert_allclose((gvp2 - gvm2) / (2 * eps), h_vv[:, k], atol=5e-5)


def test_fortran_ordered_admittance_matches_finite_differences():
    # the derivative diagonals are written in place, which must hold for any
    # memory order of the arrays built from y
    check_jacobian(*random_model(5, order="F"))
    check_weighted_hessian(*random_model(5, order="F"))


def test_uniform_angle_shift_leaves_injections_unchanged():
    m, rng = random_model(11)
    v, th = random_state(rng, m.n)
    p0, q0 = m.injections(v, th)
    p1, q1 = m.injections(v, th + 0.7)
    np.testing.assert_allclose(p0, p1, atol=1e-12)
    np.testing.assert_allclose(q0, q1, atol=1e-12)
    # consequence: theta rows of the weighted hessian sum to zero
    h_thth, _, _ = m.hessian_weighted(v, th, np.ones(m.n), np.ones(m.n))
    np.testing.assert_allclose(h_thth.sum(axis=1), 0.0, atol=1e-12)


# -- a model evaluates each point once -----------------------------------------


def evaluate_all(model, v, th, mu, nu):
    """Every method's result at (v, th), as one flat list of arrays."""
    p, q = model.injections(v, th)
    loss = np.array(model.losses(v, th))
    return [p, q, loss, *model.jacobian(v, th), *model.hessian_weighted(v, th, mu, nu)]


def as_bits(arrays):
    return [a.tobytes() for a in arrays]


def test_memo_returns_the_bits_of_a_fresh_model_at_points_a_b_a(monkeypatch):
    m, rng = random_model(4, n=6)
    a, b = random_state(rng, m.n), random_state(rng, m.n)
    mu, nu = rng.normal(size=m.n), rng.normal(size=m.n)
    builds = []
    real_t = InjectionModel._t
    monkeypatch.setattr(InjectionModel, "_t", lambda self, *x: builds.append(1) or real_t(self, *x))
    for v, th in (a, b, a):
        got = [as_bits(evaluate_all(m, v, th, mu, nu)) for _ in range(2)]
        before = len(builds)
        fresh = as_bits(evaluate_all(InjectionModel(m.y), v, th, mu, nu))
        assert len(builds) - before == 1  # a fresh model builds one T for all four methods
        assert got == [fresh, fresh]
    assert len(builds) - 3 * 1 == 3  # m itself: one T per point of A, B, A


def test_memo_follows_the_values_of_v_written_in_place():
    m, rng = random_model(8)
    v, th = random_state(rng, m.n)
    memo = InjectionModel(m.y)
    p_before, _ = memo.injections(v, th)
    blocks_before = memo.jacobian(v, th)
    v *= 1.01  # the caller's array, written in place after the calls
    p_after, _ = memo.injections(v, th)
    fresh = InjectionModel(m.y)
    assert p_after.tobytes() == fresh.injections(v, th)[0].tobytes()
    assert as_bits(memo.jacobian(v, th)) == as_bits(fresh.jacobian(v, th))
    assert p_after.tobytes() != p_before.tobytes()
    assert as_bits(memo.jacobian(v, th)) != as_bits(blocks_before)


@pytest.mark.parametrize("moved", [True, False])
def test_kept_arrays_refuse_writes(moved):
    # moved: the model kept another point first, so these arrays replace it.
    # A model keeps only T and (P, Q); the Jacobian blocks are new each call.
    m, rng = random_model(9)
    v, th = random_state(rng, m.n)
    if moved:
        m.injections(*random_state(rng, m.n))
    for arr in m.injections(v, th):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


# -- the weighted Hessian keeps the values of its earlier, copying form ---------


def reference_hessian_weighted(model, v, theta, mu, nu):
    """hessian_weighted as it was before it kept T's diagonal: copies of
    Re T and Im T with zeroed diagonals, the diagonal terms added back as
    np.diag matrices."""
    t = model._at(v, theta)["t"]
    tr, ti = t.real.copy(), t.imag.copy()
    rd = tr.diagonal().copy()
    sd = ti.diagonal().copy()
    np.fill_diagonal(tr, 0.0)
    np.fill_diagonal(ti, 0.0)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)

    a = mu[:, None] * tr + nu[:, None] * ti
    a_sym = a + a.T
    h_thth = a_sym - np.diag(a_sym.sum(axis=1))

    h_vv = (a_sym + 2.0 * np.diag(mu * rd + nu * sd)) / np.outer(v, v)

    c = mu[:, None] * ti - nu[:, None] * tr
    m = c - c.T
    h_vth = (m - np.diag(m.sum(axis=1))) / v[:, None]
    return h_thth, h_vth, h_vv


def zero_signs_dropped(arrays):
    # the reference adds explicit zero entries, which turn an exact -0.0
    # into 0.0; x + 0.0 does the same and leaves every other value's bits
    return as_bits([a + 0.0 for a in arrays])


@pytest.mark.parametrize("n", [1, 2, 7, 70])
def test_weighted_hessian_has_the_bits_of_the_reference(n):
    m, rng = random_model(n, n=n)
    for _ in range(50):
        v, th = random_state(rng, n)
        mu, nu = rng.normal(size=n), rng.normal(size=n)
        got = m.hessian_weighted(v, th, mu, nu)
        want = reference_hessian_weighted(m, v, th, mu, nu)
        assert zero_signs_dropped(got) == zero_signs_dropped(want)
        if n > 1:  # a dense T leaves no exact zero but the n = 1 theta block
            assert as_bits(got) == as_bits(want)


def test_weighted_hessian_has_the_values_of_the_reference_on_a_sparse_island():
    # microgrid9's island admittance has zero entries, so T does too
    net, _ = load_fixture("microgrid9")
    m = InjectionModel(build_admittance(net).submatrix(net.island_bus_ids()).y)
    rng = np.random.default_rng(4)
    for k in range(50):
        v, th = random_state(rng, m.n)
        mu, nu = rng.normal(size=m.n), rng.normal(size=m.n)
        if k % 2:  # negative weights make the products with zero entries -0.0
            mu, nu = -np.abs(mu), -np.abs(nu)
        got = m.hessian_weighted(v, th, mu, nu)
        assert zero_signs_dropped(got) == zero_signs_dropped(
            reference_hessian_weighted(m, v, th, mu, nu)
        )
