import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import hour_problem
from gridcap import acopf, powerflow, study
from gridcap.model import DemandSeries, PfSign, ShuntCapacitor, ValidationError
from gridcap.fixtures import fixture_text
from gridcap.netfile import parse_demand, parse_network
from gridcap.reporting import read_rows, write_study
from gridcap.sensitivity import FdQuantity, ScoreWeights, aggregate_hours, extract, fd_oracle
from gridcap.study import (
    CaseId,
    CaseResult,
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

    def test_unknown_rank_mode_rejected(self):
        with pytest.raises(ValidationError, match="median"):
            Scenario(CaseId.ECONOMIC, rank_mode="median")


def run_recording(scenario, net, demand, monkeypatch):
    """run_case, plus the OpfProblem of each valid hour in solve order."""
    problems = []

    def recording_solve(problem, warm_start=None):
        problems.append(problem)
        return acopf.solve(problem, warm_start=warm_start)

    monkeypatch.setattr(study, "solve", recording_solve)
    return run_case(scenario, net, demand), problems


def assert_chained_matches_cold(scenario, net, demand, monkeypatch):
    """Run the case chained; each hour must end as a cold solve of the same
    problem does, with the same objective."""
    chained, problems = run_recording(scenario, net, demand, monkeypatch)
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
        # Case 3 chains shed multipliers; Case 4 solves a network with capacitors
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


HOUR_FIELDS = [f.name for f in dataclasses.fields(acopf.OpfProblem) if f.name != "structure"]
SOLUTION_ARRAYS = (
    "v", "theta", "p_g", "q_g", "shed", "lambda_p", "lambda_q", "mu_v_max", "mu_v_min",
    "mu_pg_max", "mu_pg_min", "mu_qg_max", "mu_qg_min", "mu_shed_max", "mu_shed_min",
)


def standalone(problem):
    """The same hour as an OpfProblem that builds its own structure."""
    return acopf.OpfProblem(**{name: getattr(problem, name) for name in HOUR_FIELDS})


def assert_same_bits(a, b):
    assert a.status is b.status and a.iterations == b.iterations
    for name in SOLUTION_ARRAYS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
    assert a.solver_objective == b.solver_objective


class TestCaseStructure:
    def stressed_old(self, net):
        return Scenario(CaseId.OLD, pf_overrides=uniform_stress(net, 0.85, PfSign.LAGGING))

    def test_one_structure_per_case_and_none_per_fd_oracle(self, microgrid9, monkeypatch):
        net, demand = microgrid9
        builds = []
        real_init = acopf.OpfStructure.__init__

        def counting_init(self, *args):
            builds.append(1)
            real_init(self, *args)

        monkeypatch.setattr(acopf.OpfStructure, "__init__", counting_init)
        for scenario in (Scenario(CaseId.ECONOMIC), self.stressed_old(net)):
            builds.clear()
            _, problems = run_recording(scenario, net, demand, monkeypatch)
            assert len(builds) == 1 and len(problems) == 47
            assert all(p.structure is problems[0].structure for p in problems)
        builds.clear()
        assert fd_oracle(problems[20], 7, FdQuantity.QD).available
        assert fd_oracle(problems[20], 7, FdQuantity.VMAX).available
        assert builds == []

    @pytest.mark.parametrize("case", [1, 3])
    def test_shared_structure_solves_bitwise_like_standalone(self, microgrid9, monkeypatch, case):
        net, demand = microgrid9
        scenario = Scenario(CaseId.ECONOMIC) if case == 1 else self.stressed_old(net)
        _, problems = run_recording(scenario, net, demand, monkeypatch)
        for problem in problems:
            alone = standalone(problem)
            assert alone.structure is not problem.structure
            assert_same_bits(acopf.solve(problem), acopf.solve(alone))
        # solving another hour on the structure in between changes nothing
        a, b = problems[12], problems[30]
        first = acopf.solve(a)
        acopf.solve(b, warm_start=first)
        assert_same_bits(acopf.solve(a), first)

    def test_hours_on_one_structure_solve_concurrently(self, microgrid9, monkeypatch):
        # threads solving hours bound to one structure, with frequent thread
        # switches, must give each hour the bits it gets alone
        net, demand = microgrid9
        _, problems = run_recording(self.stressed_old(net), net, demand, monkeypatch)
        hours = problems[8:16] * 2
        alone = [acopf.solve(p) for p in hours]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(acopf.solve, p) for p in hours]
                together = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(together, alone):
            assert_same_bits(a, b)

    def test_two_threads_on_one_structure_keep_their_own_point_memo(self, microgrid9, monkeypatch):
        # eight voltage-stress hours, six of them infeasible (restoration runs),
        # on two threads: each solve's injection memo is its own, and the
        # structure holds no injection model and no writable array
        net, demand = microgrid9
        scenario = Scenario(CaseId.VOLTAGE_STRESS, pf_overrides=uniform_stress(net, 0.85))
        _, problems = run_recording(scenario, net, demand, monkeypatch)
        hours = problems[8:16]
        assert sum(acopf.solve(p).status is acopf.OpfStatus.INFEASIBLE for p in hours) == 6
        alone = [acopf.solve(p) for p in hours]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                together = list(pool.map(acopf.solve, hours, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(together, alone):
            assert_same_bits(a, b)
        for value in vars(hours[0].structure).values():
            assert not isinstance(value, powerflow.InjectionModel)
            assert not (isinstance(value, np.ndarray) and value.flags.writeable)

    def test_a_solve_builds_no_t_after_its_nlp_returns(self, microgrid9, monkeypatch):
        # the reported mismatch and solver objective come from the solve's own
        # injection model, which still holds the final point
        net, demand = microgrid9
        stress = uniform_stress(net, 0.85)
        hours = []
        for scenario in (
            Scenario(CaseId.ECONOMIC),
            Scenario(CaseId.VOLTAGE_STRESS, pf_overrides=stress),
            self.stressed_old(net),
        ):
            hours += run_recording(scenario, net, demand, monkeypatch)[1][8:16]
        builds, at_return = [], []
        real_t, real_solve_nlp = powerflow.InjectionModel._t, acopf.solve_nlp

        def recording_solve_nlp(*args):
            res = real_solve_nlp(*args)
            at_return.append(len(builds))
            return res

        monkeypatch.setattr(powerflow.InjectionModel, "_t",
                            lambda self, *x: builds.append(1) or real_t(self, *x))
        monkeypatch.setattr(acopf, "solve_nlp", recording_solve_nlp)
        statuses = set()
        for problem in hours:
            statuses.add(acopf.solve(problem).status)
            assert len(builds) == at_return[-1]
        assert statuses == {acopf.OpfStatus.OPTIMAL, acopf.OpfStatus.INFEASIBLE}

    def test_hour_without_p_load_pins_its_shed_variable(self, microgrid9, monkeypatch):
        # bus 7 sheds in hour 15 of Case 3; with its P demand (not Q) zeroed
        # there, its shed variable is pinned at 0 and scales nothing
        net, demand = microgrid9
        hour, bus = 15, 7
        p_mw = demand.p_mw.copy()
        p_mw[hour, demand.bus_column(bus)] = 0.0
        synthetic = DemandSeries(demand.bus_ids, p_mw, demand.q_mvar, demand.dt)
        result, problems = run_recording(self.stressed_old(net), net, synthetic, monkeypatch)
        problem = problems[synthetic.valid_hours.index(hour)]
        k = net.island_bus_ids().index(bus)
        assert problem.upper[problem.structure.sl_s][k] == 0.0 and problem.shed_live[k] == 0.0
        sol = result.hours[hour].solution
        assert sol.status is acopf.OpfStatus.OPTIMAL
        assert sol.shed[k] == 0.0 and sol.mu_shed_max[k] == 0.0 and sol.mu_shed_min[k] == 0.0
        assert sol.shed.max() > 1e-2  # another bus sheds instead
        alone = standalone(problem)
        assert acopf.solve(problem).objective_value == pytest.approx(
            acopf.solve(alone).objective_value, rel=1e-9
        )

    def test_structure_must_fit_the_hour(self, microgrid9):
        net, demand = microgrid9
        econ = hour_problem(net, demand, 12)
        old = hour_problem(net, demand, 12, acopf.Objective.OPTIMAL_LOAD_DELIVERY)
        with pytest.raises(ValidationError, match="another network or objective"):
            dataclasses.replace(old, structure=econ.structure)
        with pytest.raises(ValueError):
            econ.structure.pg_max[0] = 0.0  # read-only: hours may share it

    def test_structure_binds_load_at_a_bus_idle_in_every_other_hour(self, microgrid9):
        # bus 1 has no load in any fixture hour; an hour with 20 MW there binds
        # to the structure of an hour without it, and sheds at bus 1
        net, demand = microgrid9
        old = acopf.Objective.OPTIMAL_LOAD_DELIVERY
        idle = hour_problem(net, demand, 12, old)
        hour = hour_problem(net, demand, 15, old)
        i, k = net.bus_index(1), net.island_bus_ids().index(1)
        assert not demand.p_mw[:, demand.bus_column(1)].any()
        p_d, q_d = hour.p_d.copy(), hour.q_d.copy()
        p_d[i], q_d[i] = 20.0, 6.0
        loaded = dataclasses.replace(hour, p_d=p_d, q_d=q_d, structure=idle.structure)
        assert idle.shed_live[k] == 0.0 and loaded.shed_live[k] == 1.0
        sol = acopf.solve(loaded)
        assert sol.status is acopf.OpfStatus.OPTIMAL
        assert sol.shed[k] > 0.1
        assert_same_bits(sol, acopf.solve(standalone(loaded)))


class TestFourCaseStudy:
    def test_case_degradation_pattern(self, study9):
        c1, c2, c3, c4 = (study9.case(i) for i in (1, 2, 3, 4))
        assert c2.avg_mismatch > c1.avg_mismatch
        assert c2.non_optimal_hours > 0
        assert c3.load_served < c1.load_served
        assert c3.load_shed > 0.0
        assert c4.load_served == pytest.approx(c1.load_served, abs=1e-6)
        assert c4.load_shed == 0.0

    def test_unknown_rank_mode_rejected_before_any_solve(self, microgrid9, monkeypatch):
        net, demand = microgrid9
        solves = []

        def counting_solve(problem, warm_start=None):
            solves.append(problem)
            return acopf.solve(problem, warm_start=warm_start)

        monkeypatch.setattr(study, "solve", counting_solve)
        with pytest.raises(ValidationError, match="median"):
            run_four_case_study(net, demand, rank_mode="median")
        assert solves == []

    @pytest.mark.parametrize("stressed, cost", [(False, 23159.80), (True, 23203.93)])
    def test_case4_carries_the_stress_only_with_the_flag(
        self, microgrid9, study9, monkeypatch, stressed, cost
    ):
        # Cases 1-3 are the shared study's (same inputs); Case 4 is solved here
        net, demand = microgrid9
        scenarios = []

        def reusing_run_case(scenario, network, demand):
            scenarios.append(scenario)
            if scenario.case_id is CaseId.CAP_ENHANCED:
                return run_case(scenario, network, demand)
            return study9.cases[scenario.case_id]

        monkeypatch.setattr(study, "run_case", reusing_run_case)
        result = run_four_case_study(net, demand, case4_stressed=stressed)
        assert [sc.case_id for sc in scenarios] == list(study9.cases)
        assert scenarios[-1].pf_overrides == (uniform_stress(net, 0.85) if stressed else None)
        assert result.case(4).total_cost == pytest.approx(cost, abs=0.005)

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

    def test_case2_failures_match_case3_shedding(self, study9):
        assert not any("case 2 non-optimal hours" in w for w in study9.warnings)

    def test_case2_case3_mismatch_warns(self, microgrid9, monkeypatch):
        # Case 3 with hour 10 dropped no longer sheds in every hour Case 2 fails
        net, demand = microgrid9
        real_run_case = study.run_case

        def run_case_dropping_hour_10(scenario, *args):
            result = real_run_case(scenario, *args)
            if scenario.case_id is CaseId.OLD:
                hours = list(result.hours)
                hours[10] = study.HourOutcome(hour=10)
                result = dataclasses.replace(result, hours=tuple(hours))
            return result

        monkeypatch.setattr(study, "run_case", run_case_dropping_hour_10)
        warnings = run_four_case_study(net, demand).warnings
        assert (
            "case 2 non-optimal hours [10, 11, 12, 13, 14, 15, 34, 35, 36, 37, 38] differ "
            "from case 3 shedding hours [11, 12, 13, 14, 15, 34, 35, 36, 37, 38]"
        ) in warnings

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

    @pytest.mark.parametrize("cap_mvar", [float("nan"), float("inf")])
    def test_non_finite_cap_mvar_rejected_before_any_case(self, microgrid9, monkeypatch, cap_mvar):
        def no_case(*args, **kwargs):
            raise AssertionError("a case ran")

        monkeypatch.setattr(study, "run_case", no_case)
        net, demand = microgrid9
        with pytest.raises(ValidationError, match="cap_mvar"):
            run_four_case_study(net, demand, cap_mvar=cap_mvar)

    @pytest.mark.parametrize("stress_pf", [float("nan"), 0.0, -0.5, 1.5])
    def test_stress_pf_outside_unit_interval_rejected_before_any_case(
        self, microgrid9, monkeypatch, stress_pf
    ):
        ran = []
        monkeypatch.setattr(study, "run_case", lambda scenario, *args: ran.append(scenario))
        net, demand = microgrid9
        with pytest.raises(ValidationError, match="stress_pf"):
            run_four_case_study(net, demand, stress_pf=stress_pf)
        assert ran == []

    def test_network_without_pv_rejected_before_any_case(self, two_bus, monkeypatch):
        ran = []
        monkeypatch.setattr(study, "run_case", lambda scenario, *args: ran.append(scenario))
        net, demand = two_bus
        assert not net.pv_units
        with pytest.raises(ValidationError, match="no PV units"):
            run_four_case_study(net, demand)
        assert ran == []

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


FIGURES = (
    "total_cost", "load_served", "load_shed", "demand_total", "avg_mismatch",
    "avg_vmin", "avg_vmax", "non_optimal_hours", "invalid_hours",
)


def recomputed_figures(case) -> dict:
    """The nine case figures, summed in hour order straight from the hours."""
    cost = served = shed = demand = mismatch = 0.0
    n_mismatch = non_optimal = invalid = 0
    vmins, vmaxs = [], []
    for o in case.hours:
        sol = o.solution
        if sol is None:
            invalid += 1
            continue
        mismatch += float(sol.mismatch.sum())
        n_mismatch += sol.mismatch.size
        if sol.status is not acopf.OpfStatus.OPTIMAL:
            non_optimal += 1
            continue
        load = float(sol.p_load_mw.sum())
        cost += sol.generation_cost * case.dt
        served += load - sol.shed_mw
        shed += sol.shed_mw
        demand += load
        vmins.append(float(sol.v.min()))
        vmaxs.append(float(sol.v.max()))
    return dict(
        total_cost=cost, load_served=served, load_shed=shed, demand_total=demand,
        avg_mismatch=mismatch / n_mismatch, avg_vmin=float(np.mean(vmins)),
        avg_vmax=float(np.mean(vmaxs)), non_optimal_hours=non_optimal, invalid_hours=invalid,
    )


class TestCaseFigures:
    """A case is its hours: each figure is derived from the hour outcomes."""

    def test_an_hour_without_a_solution_is_invalid(self):
        hour = study.HourOutcome(hour=3)
        assert not hour.valid and not hour.optimal
        with pytest.raises(TypeError):
            study.HourOutcome(hour=3, valid=True)

    @pytest.mark.parametrize("number", [2, 3])
    def test_figures_are_recomputed_from_the_hours(self, study9, number):
        case = study9.case(number)
        assert case.non_optimal_hours + case.invalid_hours > 0
        assert {name: getattr(case, name) for name in FIGURES} == recomputed_figures(case)

    def test_each_valid_hour_is_extracted_once(self, microgrid9, tmp_path, monkeypatch):
        # the ranking and the sensitivity CSVs both read the hour's one
        # cached extract
        calls, real = [], study.extract
        monkeypatch.setattr(study, "extract", lambda sol: calls.append(sol) or real(sol))
        net, demand = microgrid9
        result = run_four_case_study(net, demand)
        write_study(tmp_path, result, ScoreWeights(), 3)
        valid = [o.solution for case in result.cases.values() for o in case.hours if o.valid]
        assert len(calls) == len(valid) == 188
        assert {id(sol) for sol in calls} == {id(sol) for sol in valid}

    def test_figures_follow_a_replaced_hour(self, study9):
        case = study9.case(3)
        sol = case.hours[12].solution
        assert case.hours[12].optimal and sol.shed_mw > study.SHED_MW
        hours = list(case.hours)
        hours[12] = study.HourOutcome(hour=12)
        edited = dataclasses.replace(case, hours=tuple(hours))
        assert edited.invalid_hours == case.invalid_hours + 1
        assert edited.non_optimal_hours == case.non_optimal_hours
        assert edited.total_cost == pytest.approx(
            case.total_cost - sol.generation_cost * case.dt, rel=1e-12)
        assert edited.load_served == pytest.approx(
            case.load_served - (float(sol.p_load_mw.sum()) - sol.shed_mw), rel=1e-12)
        assert edited.load_shed == pytest.approx(case.load_shed - sol.shed_mw, rel=1e-12)
        assert {name: getattr(edited, name) for name in FIGURES} == recomputed_figures(edited)

    def test_a_case_is_its_scenario_and_its_hours(self, study9):
        assert [f.name for f in dataclasses.fields(CaseResult)] == [
            "scenario", "bus_ids", "dt", "hours"]
        case = study9.case(1)
        assert case.case_id is case.scenario.case_id is CaseId.ECONOMIC
        with pytest.raises(dataclasses.FrozenInstanceError):
            case.hours = ()

    @pytest.mark.parametrize("number", [1, 2, 3, 4])
    def test_ranking_is_aggregated_from_the_valid_hours(self, study9, number):
        case = study9.case(number)
        assert case.ranking == aggregate_hours(
            [extract(o.solution) for o in case.hours if o.valid],
            weights=case.scenario.weights,
            mode=case.scenario.rank_mode,
        )

    def test_ranking_follows_a_replaced_hour(self, study9):
        case = study9.case(1)
        t = next(o.hour for o in case.hours if o.optimal)
        hours = list(case.hours)
        hours[t] = study.HourOutcome(hour=t)
        edited = dataclasses.replace(case, hours=tuple(hours))
        assert edited.ranking.hours_used == case.ranking.hours_used - 1
        assert edited.ranking.hours_excluded == case.ranking.hours_excluded

    def test_write_study_refuses_weights_other_than_the_studys(self, study9, tmp_path):
        # the per-hour scores would disagree with the ranking and placement
        with pytest.raises(ValidationError, match="weights"):
            write_study(tmp_path, study9, ScoreWeights(0.3, 0.7), 3)
        assert not list(tmp_path.glob("*.csv"))

    def test_dispatch_long_reshapes_the_optimal_hourly_rows(self, study9, tmp_path):
        write_study(tmp_path, study9, ScoreWeights(), 3)
        series = ("p_gen_mw", "q_gen_mvar", "loss_mw", "cost_usd", "shed_mw")
        expected = [
            {"case": str(num), "hour": row["hour"], "series": name, "value": row[name]}
            for num in (1, 2, 3, 4)
            for row in read_rows(tmp_path / f"case{num}_hourly.csv")
            if row["status"] == "optimal"
            for name in series
        ]
        got = read_rows(tmp_path / "dispatch_long.csv")
        assert len(got) == 5 * sum(o.optimal for c in study9.cases.values() for o in c.hours)
        assert got == expected


def reversed_records(text, sections=("BUS", "BRANCH")):
    """Network-file text with the records of each named section reversed."""
    out, block = [], None
    for line in text.splitlines():
        head = line.strip().upper()
        if block is None:
            out.append(line)
            if head in sections:
                block = []
        elif head == "END":
            out += block[::-1] + [line]
            block = None
        else:
            block.append(line)
    return "\n".join(out) + "\n"


def edited_records(text, edit):
    """Network-file text with each record replaced by edit(section, tokens);
    section is None outside a section (the SBASE line)."""
    out, section = [], None
    for line in text.splitlines():
        tokens = line.split()
        head = tokens[0].upper() if tokens else "#"
        if len(tokens) == 1 and head in ("BUS", "BRANCH", "GEN", "PV", "SHUNT"):
            section = head
        elif head == "END":
            section = None
        elif not head.startswith("#"):
            line = " ".join(edit(section, tokens))
        out.append(line)
    return "\n".join(out) + "\n"


BUS_ID_COLUMNS = {"BUS": (0,), "BRANCH": (0, 1), "GEN": (0,), "PV": (0,), "SHUNT": (0,)}


def shifted_bus_ids(shift):
    """The microgrid9 network and demand texts with every bus id + shift."""
    def edit(section, tokens):
        for col in BUS_ID_COLUMNS.get(section, ()):
            tokens[col] = str(int(tokens[col]) + shift)
        return tokens

    lines = fixture_text("microgrid9_demand.csv").splitlines()
    demand = [lines[0]]
    for line in lines[1:]:
        hour, bus, *rest = line.split(",")
        demand.append(",".join([hour, str(int(bus) + shift), *rest]))
    return edited_records(fixture_text("microgrid9.grid"), edit), "\n".join(demand) + "\n"


def rescaled_base(factor):
    """The microgrid9 network text (which has no SHUNT records) at SBASE
    times factor, its per-unit branch impedances times factor and charging
    susceptances over factor: the same physical network."""
    def edit(section, tokens):
        if section is None and tokens[0].upper() == "SBASE":
            tokens[1] = repr(float(tokens[1]) * factor)
        elif section == "BRANCH":
            r, x, b = (float(t) for t in tokens[2:5])
            tokens[2:5] = (repr(r * factor), repr(x * factor), repr(b / factor))
        return tokens

    return edited_records(fixture_text("microgrid9.grid"), edit)


# Compared at optimal hours: per-bus V and theta, per-unit MW and Mvar, shed
# fractions, and multipliers in $/MW, $/Mvar and $/p.u. V.
PRIMAL = ("v", "theta", "p_g", "q_g", "shed")
PRICES = ("lambda_p_per_mw", "lambda_q_per_mvar")
VOLTAGE_PRICES = ("mu_v_max", "mu_v_min")


def assert_same_physical_study(ref, got, bus_map, tol):
    """Same placement and hour statuses and, at optimal hours, each field in
    tol (a tolerance per field group, relative to max(1, |value|)) within
    it, buses matched by id through bus_map. Iteration counts are not
    compared."""
    assert got.placement == tuple(bus_map[b] for b in ref.placement)
    for i in (1, 2, 3, 4):
        for h, g in zip(ref.case(i).hours, got.case(i).hours):
            assert h.valid == g.valid
            if not h.valid:
                continue
            a, b = h.solution, g.solution
            assert a.status is b.status, (i, h.hour)
            if a.status is not acopf.OpfStatus.OPTIMAL:
                continue
            assert b.bus_ids == tuple(bus_map[x] for x in a.bus_ids)
            assert b.gen_buses == tuple(bus_map[x] for x in a.gen_buses)
            for names, rtol in tol.items():
                for name in names:
                    want, value = getattr(a, name), getattr(b, name)
                    assert np.all(np.abs(value - want) <= rtol * np.maximum(1.0, np.abs(want))), (
                        i, h.hour, name)


class TestInputOrderInvariance:
    def test_shifted_bus_ids_give_the_same_study(self, microgrid9, study9):
        network_text, demand_text = shifted_bus_ids(100)
        net = parse_network(network_text)
        assert [b.id for b in net.buses] == [b.id + 100 for b in microgrid9[0].buses]
        again = run_four_case_study(net, parse_demand(demand_text, net=net))
        exact = dict.fromkeys((PRIMAL, PRICES, VOLTAGE_PRICES), 0.0)
        assert_same_physical_study(study9, again, {b.id: b.id + 100 for b in microgrid9[0].buses}, exact)

    def test_rescaled_base_gives_the_same_study(self, microgrid9, study9):
        net = parse_network(rescaled_base(10.0))
        assert net.s_base == 100.0 == 10.0 * microgrid9[0].s_base
        again = run_four_case_study(net, parse_demand(fixture_text("microgrid9_demand.csv"), net=net))
        # the per-unit tolerances now stand for other physical amounts, so
        # the solves stop at other points; measured worst cases over the
        # study: 2.2e-7 (q_g, Mvar), 1.3e-6 (lambda_q, $/Mvar) and 2.1e-4
        # (mu_v_max, $/p.u. V, a barrier residual where V is not at its limit)
        tol = {PRIMAL: 1e-6, PRICES: 1e-5, VOLTAGE_PRICES: 1e-3}
        assert_same_physical_study(study9, again, {b.id: b.id for b in net.buses}, tol)

    def test_reversed_bus_and_branch_records_give_the_same_study(self, microgrid9, study9):
        net = parse_network(reversed_records(fixture_text("microgrid9.grid")))
        assert [b.id for b in net.buses] == [b.id for b in microgrid9[0].buses][::-1]
        demand = parse_demand(fixture_text("microgrid9_demand.csv"), net=net)
        again = run_four_case_study(net, demand)
        assert again.placement == study9.placement
        for i in (1, 2, 3, 4):
            for h, g in zip(study9.case(i).hours, again.case(i).hours):
                assert h.valid == g.valid
                if not h.valid:
                    continue
                ref, sol = h.solution, g.solution
                assert ref.status is sol.status, (i, h.hour)
                if ref.status is not acopf.OpfStatus.OPTIMAL:
                    continue  # iteration counts and non-optimal points may differ
                order = [sol.bus_ids.index(bus) for bus in ref.bus_ids]
                for name in ("v", "theta", "lambda_p", "lambda_q", "mu_v_max", "shed"):
                    want, got = getattr(ref, name), getattr(sol, name)[order]
                    assert np.all(np.abs(got - want) <= 1e-8 * np.maximum(1.0, np.abs(want))), (
                        i, h.hour, name)


class TestCapacitorMechanics:
    def test_capacitors_attach_to_network_copy(self, microgrid9):
        net, _ = microgrid9
        plus = net.with_shunts((ShuntCapacitor(7, 0.05),))
        assert len(plus.shunts) == len(net.shunts) + 1
        assert len(net.shunts) == 0  # original untouched
