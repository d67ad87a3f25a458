"""Tests of the benchmark's own code: PYTHONPATH=src python3 -m pytest -q bench"""

import copy
import time

import pytest

from gridcap import acopf, cli, ipm, powerflow, sensitivity, study
from gridcap.fixtures import load_fixture
from gridcap.netfile import parse_demand, parse_network
from gridcap.study import CaseId, Scenario, uniform_stress

from scaled import COPIES, HOURS, scaled_inputs_text
from tracing import Tracer
from workloads import compare_summary, hour_inputs, load_reference


def test_scaled_inputs_are_seeded_and_byte_identical():
    assert scaled_inputs_text(7) == scaled_inputs_text(7)
    assert scaled_inputs_text(7)[1] != scaled_inputs_text(8)[1]


def test_scaled_network_passes_validation():
    network_text, demand_text = scaled_inputs_text(0)
    net = parse_network(network_text)
    net.validate()
    demand = parse_demand(demand_text, net=net)
    assert net.n_bus == 9 * COPIES
    assert len(net.island_bus_ids()) == 7 * COPIES
    assert len(net.generators) == COPIES
    assert demand.valid_hours == tuple(range(len(HOURS)))


@pytest.mark.parametrize("name", ["two_bus", "five_bus"])
def test_fixtures_without_pv_cannot_run_the_stress_case(name):
    net, _ = load_fixture(name)
    with pytest.raises(Exception, match="pf override"):
        Scenario(CaseId.VOLTAGE_STRESS, pf_overrides=uniform_stress(net, 0.85))


def test_self_times_add_up_to_the_outer_span():
    tracer = Tracer()
    inner = tracer.span("inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()

    outer = tracer.span("outer", body)
    t0 = time.perf_counter()
    outer()
    total = time.perf_counter() - t0
    assert tracer.self_s["inner"] >= 0.02
    assert 0.01 <= tracer.self_s["outer"] < 0.02
    assert tracer.self_s["inner"] + tracer.self_s["outer"] == pytest.approx(total, abs=1e-3)


def test_uninstall_restores_every_patched_attribute():
    before = (acopf.solve, study.solve, sensitivity.solve, acopf.solve_nlp, ipm._solve_kkt,
              powerflow.InjectionModel.jacobian, acopf.OpfProblem.__post_init__,
              cli.run_four_case_study)
    tracer = Tracer()
    tracer.install()
    assert study.solve is not before[1] and sensitivity.solve is not before[2]
    tracer.uninstall()
    after = (acopf.solve, study.solve, sensitivity.solve, acopf.solve_nlp, ipm._solve_kkt,
             powerflow.InjectionModel.jacobian, acopf.OpfProblem.__post_init__,
             cli.run_four_case_study)
    assert all(a is b for a, b in zip(before, after))


def test_traced_cold_solve_counts():
    net, demand = load_fixture("five_bus")
    problem = acopf.OpfProblem(**hour_inputs(net, demand, 2))
    tracer = Tracer()
    tracer.install()
    try:
        sol = acopf.solve(problem)
    finally:
        tracer.uninstall()
    m = tracer.pass_metrics(1.0, 0)
    assert m["acopf.solve_calls"] == m["ipm.solve_nlp_calls"] == 1
    assert m["ipm.iters_spent"] == m["ipm.iters_reported"] == sol.iterations
    assert m["ipm.retries"] == 0 and m["ipm.restore_calls"] == 0
    assert m["ipm.kkt_calls"] - m["ipm.kkt_rejected"] == sol.iterations
    assert m["powerflow.jacobian_calls"] > 0 and m["nlp.jacobian_s"] > 0.0


def test_reference_comparison_flags_changes():
    ref = load_reference()["mg9-study"]
    assert compare_summary(ref, ref) == []
    moved = copy.deepcopy(ref)
    moved["cases"]["1"]["total_cost"] *= 1.0 + 1e-4
    moved["cases"]["2"]["statuses"].pop("10")
    moved["placement"] = moved["placement"][::-1]
    assert len(compare_summary(moved, ref)) == 3
    within = copy.deepcopy(ref)
    within["cases"]["3"]["load_shed"] += 1e-7
    assert compare_summary(within, ref) == []
