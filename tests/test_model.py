from dataclasses import replace

import numpy as np
import pytest

from gridcap.model import (
    Branch,
    BranchStatus,
    Bus,
    BusKind,
    DemandSeries,
    Generator,
    Network,
    PfSign,
    PvUnit,
    ShuntCapacitor,
    ValidationError,
    pv_injection,
)


def bus(i, kind=BusKind.PQ, v=(0.95, 1.05)):
    return Bus(i, kind, v[0], v[1], 12.47)


def simple_net(**kw):
    fields = dict(
        buses=(bus(1, BusKind.SLACK), bus(2)),
        branches=(Branch(1, 2, 0.02, 0.1),),
        generators=(Generator(1, 0.0, 10.0, -8.0, 8.0, 0.02, 25.0, 40.0),),
        s_base=10.0,
    )
    fields.update(kw)
    return Network(**fields)


class TestBusValidation:
    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValidationError):
            Bus(1, BusKind.PQ, 1.05, 0.95, 12.47).validate()

    def test_equal_bounds_rejected(self):
        with pytest.raises(ValidationError):
            Bus(1, BusKind.PQ, 1.0, 1.0, 12.47).validate()

    def test_nonpositive_id(self):
        with pytest.raises(ValidationError):
            Bus(0, BusKind.PQ, 0.95, 1.05, 12.47).validate()


class TestNetworkValidation:
    def test_minimal_network_passes(self):
        net = simple_net()
        assert net.n_bus == 2

    def test_duplicate_bus_ids(self):
        with pytest.raises(ValidationError, match="duplicate"):
            simple_net(buses=(bus(1, BusKind.SLACK), bus(1)))

    def test_no_slack(self):
        with pytest.raises(ValidationError, match="no slack"):
            simple_net(buses=(bus(1), bus(2)), generators=())

    def test_two_slacks(self):
        with pytest.raises(ValidationError, match="multiple slack"):
            simple_net(buses=(bus(1, BusKind.SLACK), bus(2, BusKind.SLACK)))

    def test_dangling_branch(self):
        with pytest.raises(ValidationError, match="99"):
            simple_net(branches=(Branch(1, 99, 0.02, 0.1),))

    def test_zero_reactance(self):
        with pytest.raises(ValidationError, match="zero reactance"):
            simple_net(branches=(Branch(1, 2, 0.02, 0.0),))

    def test_pv_bus_needs_generator(self):
        with pytest.raises(ValidationError, match="no generator"):
            simple_net(buses=(bus(1, BusKind.SLACK), bus(2, BusKind.PV)))

    def test_pq_bus_must_not_host_generator(self):
        with pytest.raises(ValidationError, match="hosts a generator"):
            simple_net(
                generators=(
                    Generator(1, 0.0, 10.0, -8.0, 8.0, 0.02, 25.0, 40.0),
                    Generator(2, 0.0, 1.0, -1.0, 1.0, 0.0, 10.0, 0.0),
                )
            )

    def test_device_outside_island_rejected(self):
        # bus 3 hangs off an open branch; a shunt there is unreachable
        with pytest.raises(ValidationError, match="not connected"):
            simple_net(
                buses=(bus(1, BusKind.SLACK), bus(2), bus(3)),
                branches=(
                    Branch(1, 2, 0.02, 0.1),
                    Branch(2, 3, 0.02, 0.1, status=BranchStatus.OPEN),
                ),
                shunts=(ShuntCapacitor(3, 0.05),),
            )

    def test_dead_stub_beyond_open_branch_allowed(self):
        net = simple_net(
            buses=(bus(1, BusKind.SLACK), bus(2), bus(3)),
            branches=(
                Branch(1, 2, 0.02, 0.1),
                Branch(2, 3, 0.02, 0.1, status=BranchStatus.OPEN),
            ),
        )
        assert net.island_bus_ids() == (1, 2)

    def test_nonconvex_cost_rejected(self):
        with pytest.raises(ValidationError, match="convex"):
            simple_net(generators=(Generator(1, 0.0, 10.0, -8.0, 8.0, -0.1, 25.0, 0.0),))

    def test_shunt_requires_positive_susceptance(self):
        with pytest.raises(ValidationError, match="positive"):
            simple_net(shunts=(ShuntCapacitor(2, 0.0),))


NAN, INF = float("nan"), float("inf")


class TestNonFiniteRejected:
    """Objects built in code: a non-finite number fails validation, naming
    the device and the field, instead of leaking into a solve."""

    @pytest.mark.parametrize(
        "kw, match",
        [
            (dict(s_base=INF), "network: s_base must be finite"),
            (dict(buses=(bus(1, BusKind.SLACK, v=(0.95, INF)), bus(2))), "bus 1: v_max"),
            (dict(buses=(bus(1, BusKind.SLACK), Bus(2, BusKind.PQ, 0.95, 1.05, NAN))),
             "bus 2: base_kv"),
            (dict(branches=(Branch(1, 2, NAN, 0.1),)), "branch 1-2: r must be finite"),
            (dict(branches=(Branch(1, 2, 0.02, -INF),)), "branch 1-2: x must be finite"),
            (dict(branches=(Branch(1, 2, 0.02, 0.1, NAN),)), "branch 1-2: b_sh"),
            (dict(generators=(Generator(1, 0.0, 10.0, -8.0, 8.0, 0.02, INF, 40.0),)),
             "generator at bus 1: c1 must be finite"),
            (dict(generators=(Generator(1, 0.0, NAN, -8.0, 8.0, 0.02, 25.0, 40.0),)),
             "generator at bus 1: p_max"),
            (dict(pv_units=(PvUnit(2, (0.5, NAN, 0.5)),)), "pv unit at bus 2: profile hour 1"),
            (dict(shunts=(ShuntCapacitor(2, NAN),)), "shunt capacitor at bus 2: b_cap"),
        ],
    )
    def test_non_finite_field_rejected(self, kw, match):
        with pytest.raises(ValidationError, match=match):
            simple_net(**kw)

    @pytest.mark.parametrize("dt", [NAN, INF])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValidationError, match="dt must be finite"):
            DemandSeries(bus_ids=(1,), p_mw=np.ones((1, 1)), q_mvar=np.zeros((1, 1)), dt=dt)


def graph_components(bus_ids, edges):
    """Independent connected components over an undirected edge list, as sets."""
    adj = {b: set() for b in bus_ids}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, comps = set(), []
    for start in bus_ids:
        if start in seen:
            continue
        comp, stack = set(), [start]
        while stack:
            node = stack.pop()
            if node in comp:
                continue
            comp.add(node)
            stack.extend(adj[node] - comp)
        seen |= comp
        comps.append(comp)
    return comps


def reference_island(net, edges):
    comp = next(c for c in graph_components(net.bus_ids, edges) if net.slack_bus.id in c)
    return tuple(b for b in net.bus_ids if b in comp)


class TestTopology:
    def test_opening_branches_never_merges_components(self, microgrid9):
        net, _ = microgrid9
        closed = [(b.from_bus, b.to_bus) for b in net.branches if b.closed]
        n_before = len(graph_components(net.bus_ids, closed))
        assert net.island_bus_ids() == reference_island(net, closed)
        for k in range(len(closed)):
            fewer = closed[:k] + closed[k + 1 :]
            assert len(graph_components(net.bus_ids, fewer)) >= n_before

    def test_island_after_opening_one_branch(self, microgrid9):
        # the island shrinks to the slack's side; a cut that strands a
        # device bus is rejected by validation instead
        net, _ = microgrid9
        devices = {g.bus for g in net.generators} | {pv.bus for pv in net.pv_units}
        for k, br in enumerate(net.branches):
            if not br.closed:
                continue
            branches = list(net.branches)
            branches[k] = replace(br, status=BranchStatus.OPEN)
            edges = [(b.from_bus, b.to_bus) for b in branches if b.closed]
            island = reference_island(net, edges)
            if devices <= set(island):
                assert replace(net, branches=tuple(branches)).island_bus_ids() == island
            else:
                with pytest.raises(ValidationError, match="not connected to the slack"):
                    replace(net, branches=tuple(branches))


class TestPvInjection:
    def unit(self, pf=1.0, sign=PfSign.LEADING, profile=(1.0,)):
        return PvUnit(bus=2, p_profile=profile, pf_nominal=pf, pf_sign=sign)

    def test_unity_pf_injects_no_q(self):
        p, q = pv_injection(self.unit(profile=(3.7,)), 0)
        assert p == 3.7 and q == 0.0

    def test_leading_08(self):
        p, q = pv_injection(self.unit(pf=0.8, profile=(1.0,)), 0)
        assert p == 1.0
        assert q == pytest.approx(0.75, abs=1e-12)

    def test_lagging_absorbs(self):
        _, q = pv_injection(self.unit(pf=0.8, sign=PfSign.LAGGING, profile=(1.0,)), 0)
        assert q == pytest.approx(-0.75, abs=1e-12)

    def test_zero_output_hour(self):
        assert pv_injection(self.unit(pf=0.8, profile=(0.0,)), 0) == (0.0, 0.0)

    def test_override(self):
        _, q = pv_injection(self.unit(profile=(2.0,)), 0, pf_override=(0.8, PfSign.LAGGING))
        assert q == pytest.approx(-1.5, abs=1e-12)

    def test_bad_override_rejected(self):
        with pytest.raises(ValidationError):
            pv_injection(self.unit(), 0, pf_override=(0.0, PfSign.LEADING))

    def test_hour_out_of_profile(self):
        with pytest.raises(ValidationError):
            pv_injection(self.unit(), 5)


class TestDemandSeries:
    def test_negative_load_rejected(self):
        with pytest.raises(ValidationError):
            DemandSeries(bus_ids=(1,), p_mw=np.array([[-1.0]]), q_mvar=np.array([[0.0]]))

    def test_nan_hour_flagged_invalid(self):
        d = DemandSeries(
            bus_ids=(1, 2),
            p_mw=np.array([[1.0, 2.0], [np.nan, 2.0], [1.0, 2.0]]),
            q_mvar=np.zeros((3, 2)),
        )
        assert d.valid_hours == (0, 2)

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValidationError):
            DemandSeries(bus_ids=(1,), p_mw=np.zeros((0, 1)), q_mvar=np.zeros((0, 1)))
