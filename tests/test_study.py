import pytest

from gridcap import acopf, study
from gridcap.model import PfSign, ShuntCapacitor, ValidationError
from gridcap.netfile import parse_demand
from gridcap.study import (
    CaseId,
    Scenario,
    run_case,
    run_four_case_study,
    uniform_stress,
)


class TestScenarioValidation:
    def test_cap_enhanced_requires_capacitors(self):
        with pytest.raises(ValidationError, match="capacitor"):
            Scenario(CaseId.CAP_ENHANCED)

    def test_voltage_stress_requires_override(self):
        with pytest.raises(ValidationError, match="pf override"):
            Scenario(CaseId.VOLTAGE_STRESS)

    def test_pf_override_range_checked(self):
        with pytest.raises(ValidationError):
            Scenario(CaseId.VOLTAGE_STRESS, pf_overrides={0: (1.5, PfSign.LAGGING)})

    def test_old_scenario_uses_old_objective(self):
        s = Scenario(CaseId.OLD)
        assert s.objective.value == "old"


def assert_chained_matches_cold(scenario, net, demand, monkeypatch):
    """Run the case chained; each hour must end as a cold solve of the same
    problem does, with the same objective."""
    problems = []

    def recording_solve(problem, warm_start=None):
        problems.append(problem)
        return acopf.solve(problem, warm_start=warm_start)

    monkeypatch.setattr(study, "solve", recording_solve)
    chained = run_case(scenario, net, demand)
    valid = [o for o in chained.hours if o.valid]
    assert len(problems) == len(valid) == len(demand.valid_hours)
    for outcome, problem in zip(valid, problems):
        cold = acopf.solve(problem)
        assert outcome.solution.status is cold.status
        assert outcome.solution.objective_value == pytest.approx(
            cold.objective_value, rel=1e-6
        )
        if cold.status is not acopf.OpfStatus.OPTIMAL:
            # a failed hour reports the l1-minimal imbalance of its elastic
            # point, which must not depend on where the hour started
            assert outcome.solution.max_mismatch == pytest.approx(cold.max_mismatch, rel=0.01)
    return chained


class TestRunCase:
    def test_economic_fixture_runs_clean(self, microgrid9, study9):
        case1 = study9.case(1)
        assert case1.non_optimal_hours == 0
        assert case1.invalid_hours == 1  # the deliberately bad demand hour
        assert case1.load_shed == 0.0
        assert len(case1.hours) == 48
        assert case1.avg_mismatch <= 1e-6

    def test_old_sheds_only_in_the_overloaded_hour(self, two_bus):
        net, _ = two_bus
        # hour 1 demands more than the generator can ever deliver (15 > 10)
        text = (
            "hour,bus_id,p_mw,q_mvar\n"
            "0,2,4.0,1.5\n"
            "1,2,15.0,5.0\n"
            "2,2,3.0,1.1\n"
        )
        demand = parse_demand(text, net=net)
        result = run_case(Scenario(CaseId.OLD), net, demand)
        assert result.non_optimal_hours == 0
        shed_by_hour = [
            float((o.solution.shed * o.solution.p_load_mw).sum()) for o in result.hours
        ]
        assert shed_by_hour[0] <= 1e-4
        assert shed_by_hour[1] > 4.0
        assert shed_by_hour[2] <= 1e-4

    def test_served_plus_shed_equals_demand(self, two_bus):
        net, _ = two_bus
        text = "hour,bus_id,p_mw,q_mvar\n0,2,4.0,1.5\n1,2,15.0,5.0\n"
        demand = parse_demand(text, net=net)
        result = run_case(Scenario(CaseId.OLD), net, demand)
        assert result.load_served + result.load_shed == pytest.approx(
            result.demand_total, abs=1e-6
        )

    def test_identity_stress_equals_nominal(self, microgrid9):
        net, demand = microgrid9
        nominal = run_case(Scenario(CaseId.ECONOMIC), net, demand)
        identity = run_case(
            Scenario(
                CaseId.VOLTAGE_STRESS,
                pf_overrides={i: (pv.pf_nominal, pv.pf_sign) for i, pv in enumerate(net.pv_units)},
            ),
            net,
            demand,
        )
        assert identity.total_cost == pytest.approx(nominal.total_cost, abs=1e-9)
        assert identity.load_served == pytest.approx(nominal.load_served, abs=1e-9)
        assert identity.avg_mismatch == pytest.approx(nominal.avg_mismatch, abs=1e-9)

    def test_warm_start_equivalence(self, microgrid9, monkeypatch):
        net, demand = microgrid9
        assert_chained_matches_cold(Scenario(CaseId.ECONOMIC), net, demand, monkeypatch)

    @pytest.mark.parametrize("case", [3, 4])
    def test_warm_start_equivalence_with_bound_duals(self, microgrid9, study9, monkeypatch, case):
        # Case 3 chains shed multipliers through shed_pos; Case 4 solves a
        # network with capacitors
        net, demand = microgrid9
        if case == 3:
            scenario = Scenario(CaseId.OLD, pf_overrides=uniform_stress(net, 0.85, PfSign.LAGGING))
        else:
            caps = tuple(ShuntCapacitor(bus=b, b_cap=0.5 / net.s_base) for b in study9.placement)
            scenario = Scenario(CaseId.CAP_ENHANCED, capacitors=caps)
        chained = assert_chained_matches_cold(scenario, net, demand, monkeypatch)
        if case == 3:
            assert any(o.solution.mu_shed_min.any() for o in chained.hours if o.valid)
            assert chained.load_shed > 0.0

    def test_warm_start_equivalence_in_infeasible_hours(self, microgrid9, monkeypatch):
        net, demand = microgrid9
        scenario = Scenario(
            CaseId.VOLTAGE_STRESS, pf_overrides=uniform_stress(net, 0.85, PfSign.LAGGING)
        )
        chained = assert_chained_matches_cold(scenario, net, demand, monkeypatch)
        infeasible = [
            o.hour for o in chained.hours
            if o.valid and o.solution.status is acopf.OpfStatus.INFEASIBLE
        ]
        assert infeasible == [10, 11, 12, 13, 14, 15, 34, 35, 36, 37, 38]
        assert chained.non_optimal_hours == len(infeasible)

    def test_one_nlp_solve_per_valid_hour(self, microgrid9, monkeypatch):
        net, demand = microgrid9
        real_solve_nlp = acopf.solve_nlp
        results = []

        def counting_solve_nlp(*args, **kwargs):
            res = real_solve_nlp(*args, **kwargs)
            results.append(res)
            return res

        monkeypatch.setattr(acopf, "solve_nlp", counting_solve_nlp)
        case2 = run_case(
            Scenario(
                CaseId.VOLTAGE_STRESS,
                pf_overrides=uniform_stress(net, 0.85, PfSign.LAGGING),
            ),
            net,
            demand,
        )
        valid = [o for o in case2.hours if o.valid]
        assert case2.non_optimal_hours > 0  # the stressed case exercises failed hours
        assert len(results) == len(valid) == 47
        assert sum(o.solution.iterations for o in valid) == sum(
            r.iterations for r in results
        )

    def test_profile_shorter_than_horizon_rejected(self, microgrid9, two_bus):
        net9, _ = microgrid9
        _, demand2 = two_bus
        long_text = "hour,bus_id,p_mw,q_mvar\n" + "\n".join(
            f"{t},2,1.0,0.3" for t in range(60)
        )
        demand = parse_demand(long_text + "\n", net=net9)
        with pytest.raises(ValidationError, match="profile"):
            run_case(Scenario(CaseId.ECONOMIC), net9, demand)


class TestFourCaseStudy:
    def test_case_degradation_pattern(self, study9):
        c1, c2, c3, c4 = (study9.case(i) for i in (1, 2, 3, 4))
        assert c2.avg_mismatch > c1.avg_mismatch
        assert c2.non_optimal_hours > 0
        assert c3.load_served < c1.load_served
        assert c3.load_shed > 0.0
        assert c4.load_served == pytest.approx(c1.load_served, abs=1e-6)
        assert c4.load_shed == 0.0

    def test_top_two_stable_across_unshedding_cases(self, study9):
        c1, c2, c4 = (study9.case(i) for i in (1, 2, 4))
        assert c1.top_buses(2) == c2.top_buses(2) == c4.top_buses(2)

    def test_case4_restoration_or_flag(self, study9):
        c1, c4 = study9.case(1), study9.case(4)
        restored = (
            c4.load_shed == 0.0
            and c4.non_optimal_hours == 0
            and abs(c4.load_served - c1.load_served) < 1e-6
        )
        assert restored or study9.capacitors_insufficient

    def test_placement_comes_from_cases_1_to_3(self, study9):
        assert len(study9.placement) == 3
        assert study9.cap_mvar == 0.5

    def test_rank_table_covers_all_cases(self, study9):
        assert study9.rank_table is not None
        assert set(study9.rank_table.case_labels) == {"case1", "case2", "case3", "case4"}

    def test_stress_monotonicity(self, microgrid9):
        net, demand = microgrid9
        degradation = []
        for pf in (1.0, 0.95, 0.9, 0.85):
            case = run_case(
                Scenario(
                    CaseId.VOLTAGE_STRESS,
                    pf_overrides=uniform_stress(net, pf, PfSign.LAGGING),
                ),
                net,
                demand,
            )
            degradation.append(case.avg_mismatch + case.non_optimal_hours)
        for lo, hi in zip(degradation, degradation[1:]):
            assert hi >= lo - 1e-12

    def test_top_m_clamped_with_warning(self, microgrid9):
        net, demand = microgrid9
        study = run_four_case_study(net, demand, top_m=99)
        assert any("clamped" in w for w in study.warnings)
        assert len(study.placement) == 7  # island size

    def test_invalid_parameters_rejected(self, microgrid9):
        net, demand = microgrid9
        with pytest.raises(ValidationError):
            run_four_case_study(net, demand, top_m=0)
        with pytest.raises(ValidationError):
            run_four_case_study(net, demand, cap_mvar=0.0)

    def test_determinism(self, microgrid9, study9):
        net, demand = microgrid9
        again = run_four_case_study(net, demand)
        for i in (1, 2, 3, 4):
            a, b = study9.case(i), again.case(i)
            assert a.total_cost == b.total_cost
            assert a.load_served == b.load_served
            assert a.avg_mismatch == b.avg_mismatch
            assert a.top_buses(3) == b.top_buses(3)
        assert again.placement == study9.placement


class TestCapacitorMechanics:
    def test_capacitors_attach_to_network_copy(self, microgrid9):
        net, _ = microgrid9
        plus = net.with_shunts((ShuntCapacitor(7, 0.05),))
        assert len(plus.shunts) == len(net.shunts) + 1
        assert len(net.shunts) == 0  # original untouched
