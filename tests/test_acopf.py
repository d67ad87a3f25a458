import dataclasses

import numpy as np
import pytest

from conftest import hour_problem
from gridcap import acopf
from gridcap.acopf import (
    Objective,
    OpfProblem,
    OpfStatus,
    OpfStructure,
    SolverOptions,
    kkt_report,
    objective_cost,
    solve,
)
from gridcap.model import ValidationError
from gridcap.powerflow import InjectionModel

# two-bus fixture constants (mirror data/two_bus.grid)
R, X = 0.02, 0.1
Z = complex(R, X)
C2, C1, C0 = 0.02, 25.0, 40.0
S_BASE = 10.0


def two_bus_pf(v1, pd_pu, qd_pu):
    """Closed-form power-flow solution of the single-line system.

    Solves the textbook quadratic in V2^2 for a load (pd, qd) behind an
    impedance from a source held at v1, then recovers the complex voltage
    and the source injection. Returns None when no real root exists.
    Independent of the package's own residual/Jacobian code.
    """
    b = 2.0 * (pd_pu * R + qd_pu * X) - v1 * v1
    c = (pd_pu**2 + qd_pu**2) * abs(Z) ** 2
    disc = b * b - 4.0 * c
    if disc < 0.0:
        return None
    v2sq = (-b + np.sqrt(disc)) / 2.0  # high-voltage root
    s_load = complex(pd_pu, qd_pu)
    v2c = (v2sq + np.conj(Z) * s_load) / v1
    i = (v1 - v2c) / Z
    s1 = v1 * np.conj(i)
    return {
        "v2": abs(v2c),
        "theta2": np.angle(v2c),
        "pg_pu": s1.real,
        "qg_pu": s1.imag,
    }


def economic_oracle(pd_mw, qd_mvar, v_hi=1.05, step=1e-4):
    """Scan the source voltage at `step` resolution; each point's operating
    state comes from the closed-form power flow. Returns the cheapest
    feasible dispatch."""
    best = None
    for v1 in np.arange(0.95, v_hi + step / 2, step):
        pf = two_bus_pf(v1, pd_mw / S_BASE, qd_mvar / S_BASE)
        if pf is None or not (0.95 <= pf["v2"] <= 1.05):
            continue
        pg = pf["pg_pu"] * S_BASE
        qg = pf["qg_pu"] * S_BASE
        if not (0.0 <= pg <= 10.0 and -8.0 <= qg <= 8.0):
            continue
        cost = C2 * pg**2 + C1 * pg + C0
        if best is None or cost < best["cost"]:
            best = {"cost": cost, "v1": v1, "pg": pg, **pf}
    return best


@pytest.fixture()
def base_problem(two_bus):
    net, _ = two_bus
    return OpfProblem(network=net, p_d=np.array([0.0, 4.0]), q_d=np.array([0.0, 1.5]))


class TestResiduals:
    def test_flat_no_flow_state_is_exactly_balanced(self, two_bus):
        net, _ = two_bus
        prob = OpfProblem(network=net, p_d=np.zeros(2), q_d=np.zeros(2))
        dp, dq = prob.residuals(np.ones(2), np.zeros(2), np.zeros(1), np.zeros(1))
        assert np.all(dp == 0.0) and np.all(dq == 0.0)

    def test_hand_solved_operating_point_has_tiny_residual(self, base_problem):
        pf = two_bus_pf(1.0, 0.4, 0.15)
        dp, dq = base_problem.residuals(
            np.array([1.0, pf["v2"]]),
            np.array([0.0, pf["theta2"]]),
            np.array([pf["pg_pu"] * S_BASE]),
            np.array([pf["qg_pu"] * S_BASE]),
        )
        assert np.abs(dp).max() <= 1e-10
        assert np.abs(dq).max() <= 1e-10

    def test_voltage_perturbation_matches_analytic_jacobian(self, base_problem):
        pf = two_bus_pf(1.0, 0.4, 0.15)
        v = np.array([1.0, pf["v2"]])
        th = np.array([0.0, pf["theta2"]])
        pg = np.array([pf["pg_pu"] * S_BASE])
        qg = np.array([pf["qg_pu"] * S_BASE])
        _, dq0 = base_problem.residuals(v, th, pg, qg)
        v_pert = v.copy()
        v_pert[0] += 0.01
        _, dq1 = base_problem.residuals(v_pert, th, pg, qg)
        # hand derivative of the bus-1 reactive residual w.r.t. V1
        y = 1.0 / Z
        b11, g12, b12 = y.imag, -y.real, -y.imag
        t12 = th[0] - th[1]
        dq1_dv1 = -(-2.0 * b11 * v[0] + v[1] * (g12 * np.sin(t12) - b12 * np.cos(t12)))
        predicted = dq1_dv1 * 0.01
        actual = dq1[0] - dq0[0]
        assert np.sign(actual) == np.sign(predicted)
        assert actual == pytest.approx(predicted, rel=0.2)

    def test_dimension_mismatch_rejected(self, base_problem):
        with pytest.raises(ValidationError, match="dimension"):
            base_problem.residuals(np.ones(3), np.zeros(3), np.zeros(1), np.zeros(1))

    def test_generator_count_mismatch_rejected(self, base_problem):
        with pytest.raises(ValidationError, match="generator set-points"):
            base_problem.residuals(np.ones(2), np.zeros(2), np.zeros(2), np.zeros(2))

    def test_shed_vector_is_one_per_island_bus(self, two_bus):
        net, _ = two_bus
        prob = OpfProblem(
            network=net,
            p_d=np.array([0.0, 4.0]),
            q_d=np.array([0.0, 1.5]),
            objective=Objective.OPTIMAL_LOAD_DELIVERY,
        )
        assert prob.structure.ns == 2 and prob.structure.n == 2  # a shed variable per island bus
        assert list(prob.shed_live) == [0.0, 1.0]  # only bus 2 can shed
        state = (np.ones(2), np.zeros(2), np.array([2.0]), np.array([0.7]))
        shed = prob.residuals(*state, shed=np.array([0.0, 0.5]))
        idle = prob.residuals(*state, shed=np.array([0.9, 0.5]))
        unshed = prob.residuals(*state)
        for a, b in zip(shed, idle):  # a pinned variable scales nothing
            assert np.array_equal(a, b)
        # half of bus 2's 0.4 p.u. load and 0.15 p.u. Q is no longer drawn
        np.testing.assert_allclose(shed[0] - unshed[0], [0.0, 0.2], atol=1e-15)
        np.testing.assert_allclose(shed[1] - unshed[1], [0.0, 0.075], atol=1e-15)
        for wrong in (np.zeros(3), np.array([0.5])):
            with pytest.raises(ValidationError, match="shed vector"):
                prob.residuals(*state, shed=wrong)


class TestObjectiveCost:
    def test_linear_cost(self, two_bus):
        net, _ = two_bus
        prob = OpfProblem(network=net, p_d=np.zeros(2), q_d=np.zeros(2))
        # fixture gen cost is (0.02, 25, 40); hand value at 2 MW
        assert objective_cost([2.0], prob) == pytest.approx(0.02 * 4 + 50 + 40)

    def test_fixed_cost_floor(self, two_bus):
        net, _ = two_bus
        prob = OpfProblem(network=net, p_d=np.zeros(2), q_d=np.zeros(2))
        assert objective_cost([0.0], prob) == pytest.approx(40.0)

    def test_old_shed_penalty(self, two_bus):
        net, _ = two_bus
        prob = OpfProblem(
            network=net,
            p_d=np.array([0.0, 1.0]),
            q_d=np.zeros(2),
            objective=Objective.OPTIMAL_LOAD_DELIVERY,
            dt=1.0,
        )
        full_shed = np.zeros(2)
        full_shed[1] = 1.0
        cost = objective_cost([0.0], prob, shed=full_shed)
        assert cost == pytest.approx(40.0 + 1000.0 * 1.0 * 1.0)


class TestSolve:
    def test_economic_matches_scan_oracle(self, base_problem):
        oracle = economic_oracle(4.0, 1.5)
        sol = solve(base_problem)
        assert sol.status is OpfStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(oracle["cost"], rel=1e-4)
        assert sol.p_g[0] == pytest.approx(oracle["pg"], rel=1e-3)
        assert sol.v[0] == pytest.approx(oracle["v1"], abs=2e-4)
        assert sol.v[1] == pytest.approx(oracle["v2"], abs=2e-3)
        # regression anchor frozen from the oracle
        assert sol.objective_value == pytest.approx(141.1907, rel=1e-4)

    def test_generation_covers_load_plus_losses(self, base_problem):
        sol = solve(base_problem)
        losses = sol.p_g.sum() + sol.p_inj_mw.sum() - sol.p_load_mw.sum()
        assert losses > 0.0
        assert sol.p_g[0] == pytest.approx(4.0 + losses, abs=1e-9)

    def test_pinned_voltages_with_load_is_infeasible(self, two_bus):
        net, _ = two_bus
        # oracle: with both voltages pinned, the angle is the only free
        # variable; show no theta satisfies both bus-2 balances
        y = 1.0 / Z
        g, b = y.real, y.imag
        pd, qd = 0.6, 0.2
        thetas = np.arange(-np.pi, np.pi, 1e-4)
        v1 = v2 = 1.0
        p2 = v2 * v2 * g + v2 * v1 * (-g * np.cos(thetas) - b * np.sin(thetas))
        q2 = -v2 * v2 * b + v2 * v1 * (-g * np.sin(thetas) + b * np.cos(thetas))
        residual = np.maximum(np.abs(p2 + pd), np.abs(q2 + qd))
        assert residual.min() > 0.02  # no admissible steady state exists
        prob = OpfProblem(
            network=net,
            p_d=np.array([0.0, pd * S_BASE]),
            q_d=np.array([0.0, qd * S_BASE]),
            v_min=np.array([1.0, 1.0]),
            v_max=np.array([1.0, 1.0]),
        )
        sol = solve(prob)
        assert sol.status is OpfStatus.INFEASIBLE
        assert sol.max_mismatch > 0.01  # degradation is measurable, not binary

    def test_zero_demand_dispatches_to_minimum(self, two_bus):
        net, _ = two_bus
        prob = OpfProblem(network=net, p_d=np.zeros(2), q_d=np.zeros(2))
        sol = solve(prob)
        assert sol.status is OpfStatus.OPTIMAL
        assert sol.p_g[0] == pytest.approx(0.0, abs=1e-6)
        assert sol.objective_value == pytest.approx(40.0, abs=1e-4)

    def test_slack_angle_exactly_zero(self, base_problem):
        sol = solve(base_problem)
        assert sol.theta[0] == 0.0

    def test_deterministic_solves(self, base_problem):
        a, b = solve(base_problem), solve(base_problem)
        assert a.status == b.status
        assert a.objective_value == b.objective_value
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.lambda_q, b.lambda_q)

    def test_warm_start_reaches_same_optimum(self, two_bus, base_problem):
        net, _ = two_bus
        warm_src = solve(base_problem)
        shifted = OpfProblem(network=net, p_d=np.array([0.0, 4.2]), q_d=np.array([0.0, 1.6]))
        warm = solve(shifted, warm_start=warm_src)
        cold = solve(shifted)
        assert warm.status is OpfStatus.OPTIMAL
        assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-9)

    def test_warm_start_dimension_mismatch_rejected(self, five_bus, base_problem):
        net5, demand5 = five_bus
        sol2 = solve(base_problem)
        with pytest.raises(ValidationError):
            solve(hour_problem(net5, demand5, 0), warm_start=sol2)

    def test_warm_start_from_another_generator_set_rejected(self, two_bus, base_problem):
        net, _ = two_bus
        twin = dataclasses.replace(net, generators=net.generators * 2)  # same island
        prob = OpfProblem(network=twin, p_d=base_problem.p_d, q_d=base_problem.q_d)
        with pytest.raises(ValidationError, match="generator set"):
            solve(prob, warm_start=solve(base_problem))

    @pytest.mark.parametrize("objective", [Objective.ECONOMIC, Objective.OPTIMAL_LOAD_DELIVERY])
    @pytest.mark.parametrize("hour", [0, 7, 19, 30])
    def test_restart_at_optimum_is_immediate(self, microgrid9, hour, objective):
        # the warm start carries the whole primal-dual point, bound multipliers
        # included, so re-solving from the hour's own optimum has nothing to do
        # (a primal point and balance multipliers alone take 7-8 iterations)
        net, demand = microgrid9
        problem = hour_problem(net, demand, hour, objective)
        cold = solve(problem)
        warm = solve(problem, warm_start=cold)
        assert cold.status is OpfStatus.OPTIMAL
        assert warm.status is OpfStatus.OPTIMAL
        assert warm.iterations <= 3
        assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-6)

    def test_warm_start_across_objectives(self, microgrid9):
        # shed multipliers are read at the warm-started problem's shed buses,
        # so an economic solution warm-starts an OLD problem and back
        net, demand = microgrid9
        econ, old = (hour_problem(net, demand, 7, objective) for objective in Objective)
        for source, target in ((econ, old), (old, econ)):
            warm = solve(target, warm_start=solve(source))
            cold = solve(target)
            assert warm.status is OpfStatus.OPTIMAL
            assert cold.status is OpfStatus.OPTIMAL
            assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-6)

    def test_multiplier_rescaling(self, base_problem):
        sol = solve(base_problem)
        np.testing.assert_allclose(sol.lambda_p_per_mw, sol.lambda_p / 10.0)
        np.testing.assert_allclose(sol.lambda_q_per_mvar, sol.lambda_q / 10.0)


class TestSolutionIsItsPoint:
    """A solution stores its hour's primal-dual point once; every named
    figure is read from it."""

    def test_fields_are_the_point(self, base_problem):
        sol = solve(base_problem)
        assert [f.name for f in dataclasses.fields(sol)] == [
            "status", "problem", "x", "lam", "z_lower", "z_upper", "mismatch",
            "solver_objective", "iterations", "mu_final"]
        assert sol.problem is base_problem
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.x = sol.x.copy()
        for array in (sol.x, sol.lam, sol.z_lower, sol.z_upper, sol.mismatch, sol.v, sol.mu_v_max):
            assert not array.flags.writeable

    @pytest.mark.parametrize("objective", list(Objective))
    def test_named_figures_are_slices_of_the_point(self, microgrid9, objective):
        net, demand = microgrid9
        problem = hour_problem(net, demand, 7, objective)
        sol, st, s = solve(problem), problem.structure, net.s_base
        assert sol.status is OpfStatus.OPTIMAL
        np.testing.assert_array_equal(sol.p_g, sol.x[st.sl_pg] * s)
        np.testing.assert_array_equal(sol.q_g, sol.x[st.sl_qg] * s)
        assert sol.theta[st.slack_pos] == 0.0
        np.testing.assert_array_equal(sol.theta[st.nonslack], sol.x[st.sl_th])
        for name, z, sl in [("v", sol.x, st.sl_v), ("mu_v_max", sol.z_upper, st.sl_v),
                            ("mu_v_min", sol.z_lower, st.sl_v), ("mu_pg_max", sol.z_upper, st.sl_pg),
                            ("mu_pg_min", sol.z_lower, st.sl_pg), ("mu_qg_max", sol.z_upper, st.sl_qg),
                            ("mu_qg_min", sol.z_lower, st.sl_qg)]:
            assert np.shares_memory(getattr(sol, name), z), name
            np.testing.assert_array_equal(getattr(sol, name), z[sl])
        assert np.shares_memory(sol.lambda_q, sol.lam)
        np.testing.assert_array_equal(sol.lambda_q, sol.lam[st.n:])
        np.testing.assert_array_equal(sol.lambda_p, sol.lam[: st.n] + acopf._loss_price(problem))
        if objective is Objective.OPTIMAL_LOAD_DELIVERY:
            for name, z in [("shed", sol.x), ("mu_shed_max", sol.z_upper), ("mu_shed_min", sol.z_lower)]:
                assert np.shares_memory(getattr(sol, name), z), name
                np.testing.assert_array_equal(getattr(sol, name), z[st.sl_s])
        else:
            for name in ("shed", "mu_shed_max", "mu_shed_min"):
                np.testing.assert_array_equal(getattr(sol, name), np.zeros(st.n))
        np.testing.assert_array_equal(sol.p_load_mw, problem.p_load * s)
        np.testing.assert_array_equal(sol.p_inj_mw, problem.p_fix * s)
        assert sol.bus_ids == st.island_bus_ids and sol.s_base == s
        assert sol.objective_value == objective_cost(sol.p_g, problem, sol.shed)
        gen_cost = sum(g.cost(p) for g, p in zip(net.generators, sol.p_g))
        assert sol.generation_cost == pytest.approx(gen_cost, rel=1e-15)

    @staticmethod
    def captured_starts(monkeypatch):
        """Patch acopf.solve_nlp to record each solve's (x0, warm)."""
        starts, real = [], acopf.solve_nlp

        def recording(nlp, opts, warm):
            starts.append((nlp.x0.copy(), warm))
            return real(nlp, opts, warm)

        monkeypatch.setattr(acopf, "solve_nlp", recording)
        return starts

    def test_warm_start_passes_the_point_exactly(self, microgrid9, monkeypatch):
        net, demand = microgrid9
        source = solve(hour_problem(net, demand, 7))
        target = hour_problem(net, demand, 8, structure=source.problem.structure)
        starts = self.captured_starts(monkeypatch)
        solve(target, warm_start=source)
        (x0, (lam, z_lower, z_upper)), = starts
        f_scale = target.structure.f_scale
        assert x0.tobytes() == source.x.tobytes()
        assert lam.tobytes() == (source.lam * f_scale).tobytes()
        assert z_lower.tobytes() == (source.z_lower * f_scale).tobytes()
        assert z_upper.tobytes() == (source.z_upper * f_scale).tobytes()

    def test_warm_start_across_objectives_maps_the_layout_prefix(self, microgrid9, monkeypatch):
        net, demand = microgrid9
        econ, old = (solve(hour_problem(net, demand, 7, objective)) for objective in Objective)
        starts = self.captured_starts(monkeypatch)
        solve(old.problem, warm_start=econ)
        solve(econ.problem, warm_start=old)
        (to_old, warm_old), (to_econ, warm_econ) = starts
        k = econ.problem.structure.nx
        sl_s = old.problem.structure.sl_s
        assert to_old[:k].tobytes() == econ.x.tobytes() and not to_old[sl_s].any()
        assert not warm_old[1][sl_s].any() and not warm_old[2][sl_s].any()
        assert to_econ.tobytes() == old.x[:k].tobytes()


class TestOptimalLoadDelivery:
    def test_no_shedding_when_service_feasible(self, two_bus):
        net, _ = two_bus
        econ = solve(OpfProblem(network=net, p_d=np.array([0.0, 4.0]), q_d=np.array([0.0, 1.5])))
        old = solve(
            OpfProblem(
                network=net,
                p_d=np.array([0.0, 4.0]),
                q_d=np.array([0.0, 1.5]),
                objective=Objective.OPTIMAL_LOAD_DELIVERY,
            )
        )
        assert old.status is OpfStatus.OPTIMAL
        assert float((old.shed * old.p_load_mw).sum()) <= 1e-5
        assert old.objective_value == pytest.approx(econ.objective_value, rel=1e-6)

    def test_overload_sheds_to_capacity(self, two_bus):
        net, _ = two_bus
        # 15 MW demanded, 10 MW generator: shedding is unavoidable
        sol = solve(
            OpfProblem(
                network=net,
                p_d=np.array([0.0, 15.0]),
                q_d=np.array([0.0, 5.0]),
                objective=Objective.OPTIMAL_LOAD_DELIVERY,
            )
        )
        assert sol.status is OpfStatus.OPTIMAL
        assert sol.p_g[0] == pytest.approx(10.0, abs=1e-5)
        assert sol.shed[1] > 0.3
        served = float(((1 - sol.shed) * sol.p_load_mw).sum())
        assert served < 10.0


class TestRelaxationMonotonicity:
    def test_widening_voltage_box_never_costs_more(self, two_bus, five_bus, microgrid9):
        cases = []
        for (net, demand), hours in (
            (two_bus, (0, 3)),
            (five_bus, (1, 3)),
            (microgrid9, (10, 19)),
        ):
            for h in hours:
                cases.append((net, demand, h))
        assert len(cases) >= 5
        for net, demand, h in cases:
            tight = solve(hour_problem(net, demand, h))
            wide = solve(
                hour_problem(
                    net,
                    demand,
                    h,
                    v_min=np.array([b.v_min - 0.02 for b in net.buses]),
                    v_max=np.array([b.v_max + 0.02 for b in net.buses]),
                )
            )
            assert tight.status is OpfStatus.OPTIMAL and wide.status is OpfStatus.OPTIMAL
            # local solutions: allow numerical slack, never a real increase
            assert wide.objective_value <= tight.objective_value + 1e-6 * abs(tight.objective_value)


class TestKktReport:
    def test_optimal_solution_passes(self, base_problem):
        sol = solve(base_problem)
        rep = kkt_report(sol, base_problem)
        assert rep.passed
        assert rep.stationarity <= 1e-6
        assert rep.feasibility <= 1e-6
        assert rep.complementarity <= 1e-6
        assert not rep.nonneg_violation

    def test_corrupted_multiplier_flagged(self, base_problem):
        sol = solve(base_problem)
        # the point is read-only: corrupt a copy of z_upper, at mu_v_max[0]
        z_upper = sol.z_upper.copy()
        z_upper[base_problem.structure.sl_v.start] = -abs(sol.mu_v_max[0]) - 1.0
        sol = dataclasses.replace(sol, z_upper=z_upper)
        assert sol.mu_v_max[0] == z_upper[base_problem.structure.sl_v.start]
        rep = kkt_report(sol, base_problem)
        assert rep.nonneg_violation
        assert not rep.passed

    def test_non_optimal_solutions_report_without_raising(self, five_bus):
        net, demand = five_bus
        sol = solve(hour_problem(net, demand, 3, options=SolverOptions(max_iter=2)))
        assert sol.status is OpfStatus.MAX_ITERATIONS
        rep = kkt_report(sol, hour_problem(net, demand, 3, options=SolverOptions(max_iter=2)))
        assert rep.stationarity >= 0.0


class TestProblemValidation:
    def test_demand_on_dead_bus_rejected(self, microgrid9):
        net, _ = microgrid9
        p_d = np.zeros(net.n_bus)
        p_d[net.bus_index(8)] = 1.0  # POI stub beyond an open switch
        with pytest.raises(ValidationError, match="de-energized"):
            OpfProblem(network=net, p_d=p_d, q_d=np.zeros(net.n_bus))

    def test_negative_demand_rejected(self, two_bus):
        net, _ = two_bus
        with pytest.raises(ValidationError, match="p_d"):
            OpfProblem(network=net, p_d=np.array([0.0, -1.0]), q_d=np.zeros(2))

    def test_wrong_length_rejected(self, two_bus):
        net, _ = two_bus
        with pytest.raises(ValidationError):
            OpfProblem(network=net, p_d=np.zeros(3), q_d=np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_demand_rejected(self, two_bus, bad):
        net, _ = two_bus
        with pytest.raises(ValidationError, match="finite"):
            OpfProblem(network=net, p_d=np.array([0.0, bad]), q_d=np.zeros(2))
        with pytest.raises(ValidationError, match="finite"):
            OpfProblem(network=net, p_d=np.zeros(2), q_d=np.array([0.0, bad]))

    @pytest.mark.parametrize("name, bad", [
        ("p_inj", np.nan), ("q_inj", np.nan), ("p_inj", -np.inf), ("q_inj", np.inf),
        ("v_min", -np.inf), ("v_min", np.nan), ("v_min", 0.0), ("v_min", -0.5),
        ("v_max", np.nan), ("v_max", np.inf), ("v_max", 0.0),
    ])
    def test_non_finite_or_non_positive_hour_input_rejected(self, two_bus, name, bad):
        # left unchecked, a NaN ends max_iterations with a NaN mismatch and a
        # -inf v_min solves optimal with an unbounded voltage
        net, _ = two_bus
        arr = {"p_inj": np.zeros(2), "q_inj": np.zeros(2),
               "v_min": np.full(2, 0.95), "v_max": np.full(2, 1.05)}[name]
        arr[1] = bad
        with pytest.raises(ValidationError, match=f"^{name} must be finite"):
            OpfProblem(network=net, p_d=np.zeros(2), q_d=np.zeros(2), **{name: arr})

    def test_v_min_override_above_v_max_rejected(self, two_bus):
        net, _ = two_bus
        with pytest.raises(ValidationError, match="v_min override"):
            OpfProblem(network=net, p_d=np.zeros(2), q_d=np.zeros(2), v_min=np.array([1.06, 0.95]))

    @pytest.mark.parametrize("dt", [0.0, -1.0, np.nan, np.inf])
    def test_non_positive_dt_rejected(self, two_bus, dt):
        # left unchecked, nan ends max_iterations with a NaN objective_value,
        # inf an infinite objective_value under OLD
        net, _ = two_bus
        with pytest.raises(ValidationError, match="^dt must be finite and positive"):
            OpfProblem(network=net, p_d=np.zeros(2), q_d=np.zeros(2), dt=dt)

    def test_network_without_generators_rejected(self, two_bus):
        net, _ = two_bus
        with pytest.raises(ValidationError, match="no generators"):
            OpfProblem(
                network=dataclasses.replace(net, generators=()), p_d=np.zeros(2), q_d=np.zeros(2)
            )


class TestLossTieBreakFold:
    """The NLP prices the loss tie-break on p_g and on shed P load, which
    rests on sum p_g = sum p_eff + losses; the reported lambda_p and
    solver_objective stay in the loss form."""

    @pytest.mark.parametrize("case", [1, 3])  # economic, and OLD with shedding
    def test_generation_covers_effective_demand_plus_losses(self, microgrid9, study9, case):
        net, _ = microgrid9
        result = study9.case(case)
        objective = Objective.OPTIMAL_LOAD_DELIVERY if case == 3 else Objective.ECONOMIC
        model = InjectionModel(OpfStructure(net, objective).y)
        sols = [h.solution for h in result.hours
                if h.valid and h.solution.status is OpfStatus.OPTIMAL]
        assert sols and (case == 1 or any(sol.shed_mw > 0.0 for sol in sols))
        s, n = net.s_base, len(sols[0].bus_ids)
        for sol in sols:
            p_net, _ = model.injections(sol.v, sol.theta)
            p_eff = ((1.0 - sol.shed) * sol.p_load_mw - sol.p_inj_mw) / s
            gap = sol.p_g.sum() / s - p_eff.sum() - p_net.sum()
            assert abs(gap) <= n * SolverOptions().feas_tol

    @pytest.mark.parametrize("hour", [3, 12, 20])
    def test_lambda_p_prices_demand_in_the_solver_objective(self, microgrid9, hour):
        # leaving out the lambda_p shift or the objective's constant is off by
        # about 8e-5 relative
        net, demand = microgrid9
        base = hour_problem(net, demand, hour)
        sol = solve(base)
        assert sol.status is OpfStatus.OPTIMAL
        bus = 7
        i, pos = net.bus_index(bus), sol.bus_ids.index(bus)
        step = 1e-3 * net.s_base  # 1e-3 p.u., in MW
        objs = []
        for sign in (1.0, -1.0):
            p_d = base.p_d.copy()
            p_d[i] += sign * step
            objs.append(solve(dataclasses.replace(base, p_d=p_d)).solver_objective)
        fd = (objs[0] - objs[1]) / (2.0 * step)
        assert fd == pytest.approx(-sol.lambda_p_per_mw[pos], rel=1e-6)

    def test_infeasible_hour_reports_zero_lambda_p(self, study9):
        sol = study9.case(2).hours[12].solution
        assert sol.status is OpfStatus.INFEASIBLE
        assert not sol.lambda_p.any() and not sol.lambda_q.any()
