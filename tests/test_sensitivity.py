import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import hour_problem
from gridcap.acopf import Objective, OpfProblem, OpfStatus, SolverOptions, solve
from gridcap.model import (
    Branch,
    Bus,
    BusKind,
    Generator,
    Network,
    ValidationError,
)
from gridcap.sensitivity import (
    FdQuantity,
    RawSensitivity,
    ScoreWeights,
    SensitivityRecord,
    aggregate_hours,
    composite_score,
    cross_case_rank_table,
    _binding_signature,
    _perturbed,
    extract,
    fd_oracle,
)

OPT = OpfStatus.OPTIMAL


def raw(bus, os_q, os_v, reliable=True):
    return RawSensitivity(bus, os_q, os_v, OPT, reliable)


class TestExtract:
    def test_two_bus_signs_and_magnitudes(self, two_bus):
        net, _ = two_bus
        prob = OpfProblem(network=net, p_d=np.array([0.0, 4.0]), q_d=np.array([0.0, 1.5]))
        sol = solve(prob)
        recs = {r.bus_id: r for r in extract(sol)}
        # reactive demand at the load bus costs money
        assert recs[2].os_q > 0.0
        # the binding source voltage cap: relaxing it cannot raise cost
        assert recs[1].os_v < 0.0
        assert all(r.reliable for r in recs.values())

    def test_slack_bounds_give_zero_voltage_sensitivity(self):
        # heavy line charging plus a tight absorption limit pins the
        # voltage optimum strictly inside a wide box: os_v must vanish
        net = Network(
            buses=(
                Bus(1, BusKind.SLACK, 0.95, 1.3, 12.47),
                Bus(2, BusKind.PQ, 0.95, 1.3, 12.47),
            ),
            branches=(Branch(1, 2, 0.02, 0.1, b_sh=0.4),),
            generators=(Generator(1, 0.0, 10.0, -3.0, 8.0, 0.02, 25.0, 40.0),),
            s_base=10.0,
        )
        prob = OpfProblem(network=net, p_d=np.array([0.0, 4.0]), q_d=np.array([0.0, 1.5]))
        sol = solve(prob)
        assert sol.status is OPT
        assert np.all(sol.v < 1.29)  # interior
        for r in extract(sol):
            assert abs(r.os_v) <= 1e-6

    def test_non_optimal_solution_tagged_unreliable(self, two_bus):
        net, _ = two_bus
        prob = OpfProblem(
            network=net,
            p_d=np.array([0.0, 6.0]),
            q_d=np.array([0.0, 2.0]),
            v_min=np.array([1.0, 1.0]),
            v_max=np.array([1.0, 1.0]),
        )
        sol = solve(prob)
        assert sol.status is not OPT
        assert all(not r.reliable for r in extract(sol))


class TestDualVsFiniteDifference:
    def test_load_bus_reactive_sensitivity_within_one_percent(self, two_bus):
        net, _ = two_bus
        prob = OpfProblem(network=net, p_d=np.array([0.0, 4.0]), q_d=np.array([0.0, 1.5]))
        sol = solve(prob)
        fd = fd_oracle(prob, 2, FdQuantity.QD, eps=1e-3)
        assert fd.available
        dual = -float(sol.lambda_q[1])  # $ per p.u.
        assert abs(dual - fd.value) / max(abs(fd.value), 1e-6) <= 0.01

    def test_binding_vmax_sensitivity_within_one_percent(self, two_bus):
        net, _ = two_bus
        prob = OpfProblem(network=net, p_d=np.array([0.0, 4.0]), q_d=np.array([0.0, 1.5]))
        sol = solve(prob)
        assert sol.mu_v_max[0] > 0.1  # source voltage cap binds
        fd = fd_oracle(prob, 1, FdQuantity.VMAX, eps=1e-3)
        assert fd.available
        dual = -float(sol.mu_v_max[0])
        assert dual < 0.0
        assert abs(dual - fd.value) / max(abs(fd.value), 1e-6) <= 0.01

    def test_richardson_step_halving(self, five_bus):
        net, demand = five_bus
        prob = hour_problem(net, demand, 2)
        a = fd_oracle(prob, 4, FdQuantity.QD, eps=1e-3)
        b = fd_oracle(prob, 4, FdQuantity.QD, eps=5e-4)
        assert a.available and b.available
        assert abs(a.value - b.value) / abs(a.value) < 1e-3

    def test_active_set_flip_detected(self, five_bus):
        net, demand = five_bus
        # cap the second unit's reactive output a hair above its optimum:
        # the +eps perturbation pushes it onto the limit (the first unit
        # substitutes, so the problem stays feasible), -eps leaves it free
        base = solve(hour_problem(net, demand, 5))
        assert base.status is OPT
        q_star = float(base.q_g[1])
        gen2 = dataclasses.replace(net.generators[1], q_max=q_star + 0.02)
        tight = dataclasses.replace(net, generators=(net.generators[0], gen2))
        prob = hour_problem(tight, demand, 5)
        fd = fd_oracle(prob, 4, FdQuantity.QD, eps=1e-2)
        assert not fd.available
        assert "active set" in fd.reason

    @staticmethod
    def flipped_bounds(prob, bus_id, quantity, eps):
        """(variable, side) of each signature entry that differs between the
        +eps and -eps solves, side 0 lower and 1 upper; the signature lists
        the finite lower bounds, then the finite upper bounds."""
        sigs = []
        for delta in (eps, -eps):
            sol = solve(_perturbed(prob, bus_id, quantity, delta))
            assert sol.status is OPT
            sigs.append(_binding_signature(sol))
        rows = [(int(i), side) for side, bounds in enumerate((prob.lower, prob.upper))
                for i in np.flatnonzero(np.isfinite(bounds))]
        return {rows[k] for k in np.flatnonzero(sigs[0] != sigs[1])}

    def test_voltage_bound_flip_detected(self, two_bus):
        # bus 2's voltage cap sits eps/2 above its free optimum: the -eps
        # perturbation lowers the cap onto the voltage, +eps leaves it free;
        # with bus 2 capped, bus 1 comes off its own cap
        net, _ = two_bus
        free = OpfProblem(network=net, p_d=np.array([0.0, 4.0]), q_d=np.array([0.0, 1.5]))
        v_star = float(solve(free).v[1])
        eps = 1e-3
        prob = dataclasses.replace(free, v_max=np.array([1.05, v_star + 0.5 * eps]))
        v1 = prob.structure.sl_v.start
        assert self.flipped_bounds(prob, 2, FdQuantity.VMAX, eps) == {(v1, 1), (v1 + 1, 1)}
        fd = fd_oracle(prob, 2, FdQuantity.VMAX, eps=eps)
        assert not fd.available
        assert "active set" in fd.reason

    def test_shed_bound_flip_detected(self, two_bus):
        # bus 2's reactive demand sits just below what the unit's q_max can
        # serve (7.2635 Mvar): +eps sheds a fraction of the load, -eps sheds
        # none, and the unit's Q limit flips with it
        net, _ = two_bus
        prob = OpfProblem(network=net, p_d=np.array([0.0, 4.0]), q_d=np.array([0.0, 7.26]),
                          objective=Objective.OPTIMAL_LOAD_DELIVERY)
        st_ = prob.structure
        shed2, qg = st_.sl_s.start + 1, st_.sl_qg.start
        assert self.flipped_bounds(prob, 2, FdQuantity.QD, 1e-2) == {(shed2, 0), (qg, 1)}
        fd = fd_oracle(prob, 2, FdQuantity.QD, eps=1e-2)
        assert not fd.available
        assert "active set" in fd.reason

    def test_low_reactive_flow_sensitivity_is_marginal_loss_scale(self, two_bus):
        net, _ = two_bus
        prob = OpfProblem(network=net, p_d=np.array([0.0, 2.0]), q_d=np.array([0.0, 0.2]))
        sol = solve(prob)
        fd = fd_oracle(prob, 2, FdQuantity.QD, eps=1e-3)
        assert fd.available
        assert fd.value > 0.0  # inductive demand can only cost money
        dual = -float(sol.lambda_q[1])
        assert abs(dual - fd.value) / max(abs(fd.value), 1e-6) <= 0.01
        # order-of-magnitude check against the hand loss-marginal estimate
        v2 = float(sol.v[1])
        q_flow = 0.02 + 0.0  # p.u. reactive load carried by the line
        price = -float(sol.lambda_p[0])  # $ per p.u. energy
        hand = 2.0 * q_flow * 0.02 / v2**2 * price
        assert fd.value < 10.0 * max(hand, 0.1)

    def test_bad_eps_rejected(self, two_bus):
        net, _ = two_bus
        prob = OpfProblem(network=net, p_d=np.array([0.0, 4.0]), q_d=np.array([0.0, 1.5]))
        with pytest.raises(ValidationError):
            fd_oracle(prob, 2, FdQuantity.QD, eps=0.0)

    def test_perturbed_solve_failure_returns_unavailable(self, two_bus):
        net, _ = two_bus
        # pinned voltages: the base problem itself is infeasible, so both
        # perturbed solves fail and the oracle declines rather than raising
        prob = OpfProblem(
            network=net,
            p_d=np.array([0.0, 6.0]),
            q_d=np.array([0.0, 2.0]),
            v_min=np.array([1.0, 1.0]),
            v_max=np.array([1.0, 1.0]),
        )
        fd = fd_oracle(prob, 2, FdQuantity.QD, eps=1e-3)
        assert not fd.available
        assert "status" in fd.reason


class TestCompositeScore:
    def test_weighted_composite_arithmetic(self):
        out = composite_score([raw(1, 2.0, 0.0), raw(2, 1.0, 4.0)], ScoreWeights(0.5, 0.5))
        assert [(r.bus_id, r.s_score) for r in out] == [(2, 2.5), (1, 1.0)]
        assert [r.rank for r in out] == [1, 2]

    def test_pure_reactive_weighting_ranks_by_os_q(self):
        records = [raw(1, 0.5, 9.0), raw(2, 2.0, 0.0), raw(3, 1.0, 5.0)]
        out = composite_score(records, ScoreWeights(1.0, 0.0))
        assert [r.bus_id for r in out] == [2, 3, 1]

    def test_tie_break_by_ascending_bus_id(self):
        out = composite_score([raw(7, 1.0, 1.0), raw(3, 1.0, 1.0)])
        assert [r.bus_id for r in out] == [3, 7]

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            ScoreWeights(-0.1, 1.1)

    @pytest.mark.parametrize("w", [(float("nan"), 0.5), (0.5, float("nan")), (float("inf"), 0.0)])
    def test_non_finite_weight_rejected(self, w):
        with pytest.raises(ValidationError, match="finite"):
            ScoreWeights(*w)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            ScoreWeights(0.5, 0.6)
        ScoreWeights(0.5, 0.5 + 5e-10)  # within the 1e-9 allowance

    def test_magnitudes_enter_the_score(self):
        out = composite_score([raw(1, -3.0, -1.0)], ScoreWeights(0.5, 0.5))
        assert out[0].s_score == pytest.approx(2.0)

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(-10, 10),
        st.floats(-10, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_weight_convexity(self, alpha, wq1, os_q, os_v):
        w1 = ScoreWeights(wq1, 1.0 - wq1)
        w2 = ScoreWeights(0.25, 0.75)
        mixed = ScoreWeights(
            alpha * w1.w_q + (1 - alpha) * w2.w_q,
            alpha * w1.w_v + (1 - alpha) * w2.w_v,
        )
        r = [raw(1, os_q, os_v)]
        s1 = composite_score(r, w1)[0].s_score
        s2 = composite_score(r, w2)[0].s_score
        sm = composite_score(r, mixed)[0].s_score
        assert sm == pytest.approx(alpha * s1 + (1 - alpha) * s2, rel=1e-9, abs=1e-12)

    def test_cost_scaling_leaves_ranking_unchanged_live(self, five_bus):
        net, demand = five_bus
        tight = SolverOptions(kkt_tol=1e-9, comp_tol=1e-9, feas_tol=1e-9)
        base = composite_score(
            extract(solve(hour_problem(net, demand, 2, options=tight)))
        )
        alpha = 2.5
        scaled_gens = tuple(
            dataclasses.replace(g, c2=g.c2 * alpha, c1=g.c1 * alpha, c0=g.c0 * alpha)
            for g in net.generators
        )
        scaled_net = dataclasses.replace(net, generators=scaled_gens)
        scaled = composite_score(
            extract(solve(hour_problem(scaled_net, demand, 2, options=tight)))
        )
        assert [r.bus_id for r in base] == [r.bus_id for r in scaled]
        # multipliers at tolerance-converged optima carry O(tol) noise, so
        # equivariance of the values is checked to solver precision
        floor = 1e-4 * base[0].s_score
        for a, b in zip(base, scaled):
            assert b.s_score == pytest.approx(alpha * a.s_score, rel=1e-4, abs=floor)


class TestAggregation:
    def test_mean_mode_excludes_unreliable_hours(self):
        hours = [
            [raw(1, 1.0, 0.0), raw(2, 3.0, 0.0)],
            [raw(1, 3.0, 0.0), raw(2, 5.0, 0.0)],
            [raw(1, 99.0, 0.0, reliable=False), raw(2, 99.0, 0.0, reliable=False)],
        ]
        agg = aggregate_hours(hours)
        assert agg.hours_used == 2 and agg.hours_excluded == 1
        by_bus = {r.bus_id: r for r in agg.records}
        assert by_bus[1].os_q == pytest.approx(2.0)
        assert by_bus[2].os_q == pytest.approx(4.0)
        assert by_bus[2].rank == 1

    def test_max_mode(self):
        hours = [[raw(1, 1.0, 0.0)], [raw(1, 5.0, 0.0)]]
        agg = aggregate_hours(hours, mode="max")
        assert agg.records[0].os_q == pytest.approx(5.0)

    def test_max_mode_scores_the_peak_magnitudes_not_the_peak_score(self):
        # hour A has q only, hour B v only: each hour scores 0.5, but the
        # peaks |os_q| = |os_v| = 1 score 1.0
        hours = [[raw(1, 1.0, 0.0)], [raw(1, 0.0, -1.0)]]
        (rec,) = aggregate_hours(hours, ScoreWeights(0.5, 0.5), mode="max").records
        assert (rec.os_q, rec.os_v, rec.s_score) == (1.0, 1.0, 1.0)

    def test_all_hours_unreliable_gives_empty_ranking(self):
        agg = aggregate_hours([[raw(1, 1.0, 0.0, reliable=False)]])
        assert agg.records == () and agg.hours_excluded == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_hours([], mode="median")


class TestCrossCaseRankTable:
    def sens(self, order):
        return [SensitivityRecord(b, 0.0, 0.0, 0.0, i + 1) for i, b in enumerate(order)]

    def test_identical_rankings_all_high_confidence(self):
        table = cross_case_rank_table(
            {"a": self.sens([5, 3, 1]), "b": self.sens([5, 3, 1])}
        )
        assert set(table.high_confidence) == {1, 3, 5}
        assert np.all(table.agreement == 1.0)

    def test_top_two_shared_third_differs(self):
        table = cross_case_rank_table(
            {
                "case1": self.sens([508, 364, 675, 783]),
                "case2": self.sens([508, 364, 675, 783]),
                "case3": self.sens([508, 364, 783, 675]),
                "case4": self.sens([508, 364, 675, 783]),
            }
        )
        assert set(table.high_confidence) == {508, 364}
        assert table.stable_top(2) == (364, 508)
        assert table.stable_top(1) == (508,)
        assert table.stable_top(4) == (364, 508, 675, 783)
        assert table.stable_top(0) == ()
        case3 = table.case_labels.index("case3")
        for a in range(4):
            for b in range(4):
                expected = 0.5 if (a == case3) != (b == case3) else 1.0
                assert table.agreement[a, b] == expected

    def test_single_case_rejected(self):
        with pytest.raises(ValidationError, match="two cases"):
            cross_case_rank_table({"only": self.sens([1, 2])})

    def test_mismatched_bus_sets_rejected(self):
        with pytest.raises(ValidationError, match="different bus sets"):
            cross_case_rank_table({"a": self.sens([1, 2]), "b": self.sens([1, 3])})
