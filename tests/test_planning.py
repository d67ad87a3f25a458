import itertools
import typing

import numpy as np
import pytest

from gridcap.model import Branch, Bus, BusKind, Generator, Network, ValidationError
from gridcap.planning import (
    CaseSummary,
    PlanningInput,
    economic_comparison,
    plan,
    shed_voll_cost,
    voll_cost,
)
from gridcap.study import CaseId, CaseResult, HourOutcome, Scenario
from gridcap.acopf import Objective, OpfProblem, OpfSolution, OpfStatus


def test_voll_cost_annotations_resolve():
    hints = typing.get_type_hints(voll_cost)
    assert hints["case3"] is CaseResult


def fake_old_result(bus_ids, shed_mw_rows, dt=1.0):
    """CaseResult of all-optimal OLD hours on a real chain network with
    10 MW of load at each bus, each hour's point shedding the given MW per
    bus; every other entry of the point is zero."""
    net = Network(
        buses=tuple(Bus(b, BusKind.SLACK if i == 0 else BusKind.PQ, 0.95, 1.05, 12.47)
                    for i, b in enumerate(bus_ids)),
        branches=tuple(Branch(a, b, 0.02, 0.1) for a, b in zip(bus_ids, bus_ids[1:])),
        generators=(Generator(bus_ids[0], 0.0, 10.0, -8.0, 8.0, 0.02, 25.0, 40.0),),
    )
    load = np.full(len(bus_ids), 10.0)
    hours = []
    for t, row in enumerate(shed_mw_rows):
        problem = OpfProblem(network=net, p_d=load, q_d=np.zeros(len(bus_ids)),
                             objective=Objective.OPTIMAL_LOAD_DELIVERY, dt=dt)
        st = problem.structure
        x = np.zeros(st.nx)
        x[st.sl_s] = np.array(row) / load
        sol = OpfSolution(
            status=OpfStatus.OPTIMAL, problem=problem, x=x, lam=np.zeros(2 * st.n),
            z_lower=np.zeros(st.nx), z_upper=np.zeros(st.nx), mismatch=np.zeros(st.n),
            solver_objective=0.0, iterations=1, mu_final=0.0,
        )
        hours.append(HourOutcome(hour=t, solution=sol))
    return CaseResult(
        scenario=Scenario(CaseId.OLD),
        bus_ids=tuple(bus_ids),
        dt=dt,
        hours=tuple(hours),
    )


class TestVollCost:
    def test_no_shedding_gives_zero_everywhere(self):
        case = fake_old_result((1, 2), [[0.0, 0.0], [0.0, 0.0]])
        assert voll_cost(case, voll_rate=1000.0) == {1: 0.0, 2: 0.0}

    def test_two_megawatts_for_three_hours(self):
        case = fake_old_result((1, 2), [[0.0, 2.0]] * 3)
        costs = voll_cost(case, voll_rate=1000.0)
        assert costs[2] == pytest.approx(6000.0)
        assert costs[1] == 0.0

    def test_dt_scales_energy(self):
        case = fake_old_result((1,), [[4.0]], dt=0.5)
        assert voll_cost(case, voll_rate=100.0)[1] == pytest.approx(200.0)

    def test_requires_old_objective(self, study9):
        with pytest.raises(ValidationError, match="optimal-load-delivery"):
            voll_cost(study9.case(1), voll_rate=1000.0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -5.0])
    def test_voll_rate_must_be_finite_and_positive(self, rate):
        case = fake_old_result((1,), [[4.0]])
        with pytest.raises(ValidationError, match="voll_rate"):
            voll_cost(case, voll_rate=rate)

    def test_non_finite_dt_rejected(self):
        case = fake_old_result((1,), [[4.0]])
        with pytest.raises(ValidationError, match="dt"):
            voll_cost(case, voll_rate=1000.0, dt=float("nan"))

    def test_shed_totals_priced_by_the_same_formula(self):
        # gridcap plan prices the bus CSV's shed totals; voll_cost a CaseResult
        case = fake_old_result((1, 2), [[0.5, 2.0], [0.25, 0.0]], dt=0.25)
        assert voll_cost(case, voll_rate=900.0) == shed_voll_cost(
            case.shed_mw_by_bus(), voll_rate=900.0, dt=0.25
        )

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -1.0])
    def test_shed_voll_cost_names_the_source_of_a_bad_dt(self, dt):
        with pytest.raises(ValidationError, match="dt in study/meta.csv must be finite and positive"):
            shed_voll_cost({1: 4.0}, voll_rate=1000.0, dt=dt, dt_name="dt in study/meta.csv")

    def test_fixture_case3_accumulates_shed(self, study9):
        costs = voll_cost(study9.case(3), voll_rate=1000.0)
        assert sum(costs.values()) == pytest.approx(study9.case(3).load_shed * 1000.0, rel=1e-9)
        assert max(costs.values()) > 0.0


class TestPlan:
    def brute_force(self, cap_cost, c_voll):
        buses = sorted(cap_cost)
        best = None
        for mask in itertools.product((0, 1), repeat=len(buses)):
            obj = sum(
                cap_cost[b] if x else c_voll[b] for b, x in zip(buses, mask)
            )
            key = (obj, mask.count(1), mask)  # deterministic tie handling
            if best is None or key < best:
                best = key
        return best[0], {b: bool(x) for b, x in zip(buses, best[2])}

    def test_all_expensive_capacitors_install_nothing(self):
        inp = PlanningInput(
            cap_cost={1: 100.0, 2: 100.0}, c_voll={1: 10.0, 2: 20.0}, voll_rate=1000.0
        )
        decision = plan(inp)
        assert decision.installed_buses == ()
        assert decision.objective == pytest.approx(30.0)

    def test_threshold_example(self):
        inp = PlanningInput(
            cap_cost={1: 100.0, 2: 100.0}, c_voll={1: 50.0, 2: 200.0}, voll_rate=1000.0
        )
        decision = plan(inp)
        assert decision.install == {1: False, 2: True}
        assert decision.objective == pytest.approx(150.0)

    def test_tie_resolves_to_no_install(self):
        inp = PlanningInput(cap_cost={1: 100.0}, c_voll={1: 100.0}, voll_rate=1.0)
        assert plan(inp).install == {1: False}

    def test_uncovered_voll_reported_separately(self):
        inp = PlanningInput(
            cap_cost={1: 10.0}, c_voll={1: 50.0, 2: 70.0}, voll_rate=1.0
        )
        decision = plan(inp)
        assert decision.objective == pytest.approx(10.0)
        assert decision.uncovered_voll == pytest.approx(70.0)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(20240817)
        for _ in range(100):
            n = int(rng.integers(1, 13))
            buses = list(range(1, n + 1))
            cap_cost = {b: float(rng.uniform(0, 100)) for b in buses}
            c_voll = {b: float(rng.choice([0.0, rng.uniform(0, 150)])) for b in buses}
            decision = plan(PlanningInput(cap_cost, c_voll, voll_rate=1000.0))
            obj, install = self.brute_force(cap_cost, c_voll)
            assert decision.objective == pytest.approx(obj, abs=1e-12)
            assert decision.install == install

    def test_voll_rate_monotonicity(self):
        rng = np.random.default_rng(7)
        shed = {b: float(rng.uniform(0, 5)) for b in range(1, 9)}
        cap_cost = {b: float(rng.uniform(0, 3000)) for b in shed}
        installed_before = set()
        for rate in (100.0, 400.0, 1600.0, 6400.0):
            c_voll = {b: mw * rate for b, mw in shed.items()}
            decision = plan(PlanningInput(cap_cost, c_voll, voll_rate=rate))
            now = set(decision.installed_buses)
            assert installed_before <= now  # raising VoLL never uninstalls
            installed_before = now

    def test_objective_dominance(self):
        rng = np.random.default_rng(99)
        cap_cost = {b: float(rng.uniform(0, 10)) for b in range(1, 11)}
        c_voll = {b: float(rng.uniform(0, 10)) for b in range(1, 11)}
        decision = plan(PlanningInput(cap_cost, c_voll, voll_rate=1.0))
        assert decision.objective <= sum(cap_cost.values()) + 1e-12
        assert decision.objective <= sum(c_voll.values()) + 1e-12

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            PlanningInput(cap_cost={}, c_voll={}, voll_rate=1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_money_figures_rejected(self, bad):
        with pytest.raises(ValidationError, match="voll_rate"):
            PlanningInput(cap_cost={1: 5.0}, c_voll={1: 1.0}, voll_rate=bad)
        with pytest.raises(ValidationError, match="capacitor cost at bus 1"):
            PlanningInput(cap_cost={1: bad}, c_voll={1: 1.0}, voll_rate=1.0)
        with pytest.raises(ValidationError, match="VoLL cost at bus 2"):
            PlanningInput(cap_cost={1: 5.0}, c_voll={1: 1.0, 2: bad}, voll_rate=1.0)

    def test_missing_voll_figure_rejected(self):
        with pytest.raises(ValidationError, match="VoLL"):
            PlanningInput(cap_cost={1: 5.0}, c_voll={}, voll_rate=1.0)


class TestEconomicComparison:
    def test_published_four_case_figures(self):
        # Table-style aggregates: shedding case vs capacitor case
        case3 = CaseSummary(total_cost=7045.99, load_served=71.74)
        case4 = CaseSummary(total_cost=8605.34, load_served=87.81)
        block = economic_comparison(case3, case4)
        assert block.delta_cost == pytest.approx(1559.35, abs=1e-9)
        assert block.recovered_mw == pytest.approx(16.07, abs=1e-9)
        assert block.price_per_mw == pytest.approx(97.035, abs=0.01)
        assert "per MW of recovered demand" in block.narrative

    def test_price_times_recovered_equals_delta(self):
        block = economic_comparison(
            CaseSummary(1000.0, 50.0), CaseSummary(1500.0, 60.0)
        )
        assert block.price_per_mw * block.recovered_mw == pytest.approx(
            block.delta_cost, rel=1e-9
        )

    def test_identical_results_have_no_price(self):
        block = economic_comparison(CaseSummary(10.0, 5.0), CaseSummary(10.0, 5.0))
        assert block.price_per_mw is None
        assert not block.anomalous
        assert "no load was recovered" in block.narrative

    def test_regression_flagged_anomalous(self):
        block = economic_comparison(CaseSummary(10.0, 5.0), CaseSummary(12.0, 4.0))
        assert block.anomalous
        assert block.price_per_mw is None
