"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its runtime budget."""

import filecmp
import itertools
import os
import time

import numpy as np
import pytest

from conftest import hour_problem
from gridcap.acopf import OpfStatus, solve
from gridcap.cli import main
from gridcap.fixtures import FIXTURES, fixture_path, load_fixture
from gridcap.planning import CaseSummary, PlanningInput, economic_comparison, plan
from gridcap.sensitivity import (
    FdQuantity,
    RawSensitivity,
    ScoreWeights,
    composite_score,
    fd_oracle,
)
from gridcap.study import run_four_case_study


def report(n, elapsed, limit, detail):
    print(f"ACCEPTANCE {n} PASS ({elapsed:.2f}s < {limit:.0f}s): {detail}")


def test_criterion_1_economic_comparison_arithmetic():
    """Published horizon aggregates reproduce the $/MW recovered-demand price."""
    t0 = time.monotonic()
    shed_case = CaseSummary(total_cost=7045.99, load_served=71.74)
    cap_case = CaseSummary(total_cost=8605.34, load_served=87.81)
    block = economic_comparison(shed_case, cap_case)
    assert block.delta_cost == pytest.approx(1559.35, abs=1e-9)
    assert block.recovered_mw == pytest.approx(16.07, abs=1e-9)
    assert block.price_per_mw == pytest.approx(97.04, abs=0.01)
    assert abs(block.price_per_mw - 97.0) < 1.0  # within $1 of the published figure
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, elapsed, 1, f"delta=${block.delta_cost:.2f}, price=${block.price_per_mw:.2f}/MW")


def test_criterion_2_kkt_solution_quality():
    """Optimal solves on every bundled fixture meet the KKT tolerances."""
    t0 = time.monotonic()
    checked = 0
    for name in FIXTURES:
        net, demand = load_fixture(name)
        for hour in demand.valid_hours:
            sol = solve(hour_problem(net, demand, hour))
            assert sol.status is OpfStatus.OPTIMAL, (name, hour, sol.status)
            assert sol.max_mismatch <= 1e-6, (name, hour, sol.max_mismatch)
            multipliers = np.concatenate(
                [sol.mu_v_max, sol.mu_v_min, sol.mu_pg_max, sol.mu_pg_min,
                 sol.mu_qg_max, sol.mu_qg_min]
            )
            assert multipliers.min() >= -1e-9, (name, hour)
            # complementarity: multiplier times slack per bound
            s = sol.s_base
            pr = hour_problem(net, demand, hour)
            comp = np.concatenate([
                sol.mu_v_max * (pr.vmax - sol.v),
                sol.mu_v_min * (sol.v - pr.vmin),
                sol.mu_pg_max * (pr.structure.pg_max - sol.p_g / s),
                sol.mu_pg_min * (sol.p_g / s - pr.structure.pg_min),
                sol.mu_qg_max * (pr.structure.qg_max - sol.q_g / s),
                sol.mu_qg_min * (sol.q_g / s - pr.structure.qg_min),
            ])
            assert np.abs(comp).max() <= 1e-6, (name, hour)
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(2, elapsed, 10, f"{checked} optimal solves across {len(FIXTURES)} fixtures")


def test_criterion_3_dual_vs_finite_difference():
    """extract() agrees with the two-re-solve oracle within 1% relative."""
    t0 = time.monotonic()
    pairs = []
    two_net, two_dem = load_fixture("two_bus")
    pairs += [(two_net, two_dem, 0, b, q) for b, q in
              ((2, FdQuantity.QD), (1, FdQuantity.VMAX))]
    pairs += [(two_net, two_dem, 1, 2, FdQuantity.QD)]
    five_net, five_dem = load_fixture("five_bus")
    pairs += [(five_net, five_dem, 2, b, FdQuantity.QD) for b in (2, 4, 5)]
    pairs += [(five_net, five_dem, 2, 1, FdQuantity.VMAX)]
    nine_net, nine_dem = load_fixture("microgrid9")
    pairs += [(nine_net, nine_dem, 10, b, FdQuantity.QD) for b in (3, 4, 6, 7)]

    agreed = 0
    for net, demand, hour, bus, qty in pairs:
        prob = hour_problem(net, demand, hour)
        sol = solve(prob)
        assert sol.status is OpfStatus.OPTIMAL
        fd = fd_oracle(prob, bus, qty, eps=1e-3)
        assert fd.available, (bus, qty, fd.reason)
        i = sol.bus_ids.index(bus)
        dual = -float(sol.lambda_q[i]) if qty is FdQuantity.QD else -float(sol.mu_v_max[i])
        rel = abs(dual - fd.value) / max(abs(fd.value), 1e-6)
        assert rel <= 0.01, (bus, qty, dual, fd.value, rel)
        agreed += 1
    assert agreed >= 10
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(3, elapsed, 60, f"{agreed} (fixture, bus) pairs within 1%")


def test_criterion_4_planning_oracle_equivalence():
    """plan() equals exhaustive subset enumeration on random instances."""
    t0 = time.monotonic()
    rng = np.random.default_rng(31337)
    for trial in range(100):
        n = int(rng.integers(1, 13))
        buses = list(range(1, n + 1))
        cap_cost = {b: float(rng.uniform(0.0, 120.0)) for b in buses}
        c_voll = {b: float(rng.uniform(0.0, 120.0)) for b in buses}
        decision = plan(PlanningInput(cap_cost, c_voll, voll_rate=500.0))
        best_obj = None
        best_mask = None
        for mask in itertools.product((0, 1), repeat=n):
            obj = sum(cap_cost[b] if x else c_voll[b] for b, x in zip(buses, mask))
            key = (obj, sum(mask), mask)
            if best_obj is None or key < best_obj:
                best_obj = key
                best_mask = mask
        assert decision.objective == pytest.approx(best_obj[0], abs=1e-12), trial
        assert decision.install == {
            b: bool(x) for b, x in zip(buses, best_mask)
        }, trial
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(4, elapsed, 10, "100 instances, N <= 12, exact match")


def test_criterion_5_four_case_pattern():
    """The bundled stress fixture reproduces the qualitative case pattern."""
    t0 = time.monotonic()
    net, demand = load_fixture("microgrid9")
    study = run_four_case_study(net, demand)
    c1, c2, c3, c4 = (study.case(i) for i in (1, 2, 3, 4))
    assert c2.avg_mismatch > c1.avg_mismatch
    assert c3.load_served < c1.load_served
    assert c3.load_shed > 0.0
    assert c4.load_served == pytest.approx(c1.load_served, abs=1e-6)
    assert c4.load_shed == 0.0
    assert c1.top_buses(2) == c2.top_buses(2) == c4.top_buses(2)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(
        5, elapsed, 300,
        f"mismatch {c1.avg_mismatch:.2e}->{c2.avg_mismatch:.2e}, "
        f"served {c1.load_served:.1f}/{c3.load_served:.1f}/{c4.load_served:.1f} MW, "
        f"top2 {c1.top_buses(2)}",
    )


def test_criterion_6_study_determinism(tmp_path):
    """Two identical study invocations emit byte-identical directories."""
    t0 = time.monotonic()
    net = str(fixture_path("microgrid9.grid"))
    dem = str(fixture_path("microgrid9_demand.csv"))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["study", "--network", net, "--demand", dem, "--out", str(out_a)]) == 0
    assert main(["study", "--network", net, "--demand", dem, "--out", str(out_b)]) == 0
    names_a = sorted(os.listdir(out_a))
    assert names_a == sorted(os.listdir(out_b))
    for name in names_a:
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name
    elapsed = time.monotonic() - t0
    report(6, elapsed, 600, f"{len(names_a)} files byte-identical")


def test_criterion_7_score_algebra():
    """Weight convexity and cost-scaling argsort invariance, 1000 trials."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2718)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        records = [
            RawSensitivity(b, float(rng.normal()), float(rng.normal()),
                           OpfStatus.OPTIMAL, True)
            for b in range(1, n + 1)
        ]
        wq1, wq2 = rng.uniform(0.0, 1.0, size=2)
        alpha = float(rng.uniform(0.0, 1.0))
        w1, w2 = ScoreWeights(wq1, 1 - wq1), ScoreWeights(wq2, 1 - wq2)
        mixed = ScoreWeights(
            alpha * wq1 + (1 - alpha) * wq2, alpha * (1 - wq1) + (1 - alpha) * (1 - wq2)
        )
        s1 = {r.bus_id: r.s_score for r in composite_score(records, w1)}
        s2 = {r.bus_id: r.s_score for r in composite_score(records, w2)}
        sm = {r.bus_id: r.s_score for r in composite_score(records, mixed)}
        for b in s1:
            assert sm[b] == pytest.approx(alpha * s1[b] + (1 - alpha) * s2[b],
                                          rel=1e-9, abs=1e-12)
        # cost scaling multiplies every sensitivity, leaving the order fixed
        scale = float(rng.uniform(0.1, 10.0))
        scaled = [
            RawSensitivity(r.bus_id, scale * r.os_q, scale * r.os_v,
                           OpfStatus.OPTIMAL, True)
            for r in records
        ]
        base_rank = [r.bus_id for r in composite_score(records, w1)]
        scaled_rank = [r.bus_id for r in composite_score(scaled, w1)]
        assert base_rank == scaled_rank
        for a, b in zip(composite_score(records, w1), composite_score(scaled, w1)):
            assert b.s_score == pytest.approx(scale * a.s_score, rel=1e-9, abs=1e-12)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(7, elapsed, 5, "1000 randomized trials")
