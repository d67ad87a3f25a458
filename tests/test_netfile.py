import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcap.fixtures import fixture_text
from gridcap.model import (
    Branch,
    BranchStatus,
    Bus,
    BusKind,
    Generator,
    Network,
    PfSign,
    PvUnit,
    ShuntCapacitor,
)
from gridcap.netfile import (
    NetworkFileError,
    load_demand,
    load_network,
    parse_demand,
    parse_network,
    serialize_demand,
    serialize_network,
)

MINIMAL = """
SBASE 10.0
BUS
1 slack 0.95 1.05 12.47
2 pq 0.95 1.05 12.47
END
BRANCH
1 2 0.02 0.1 0.0 closed
END
GEN
1 0.0 10.0 -8.0 8.0 0.02 25.0 40.0
END
"""


def test_minimal_file_parses():
    net = parse_network(MINIMAL)
    assert net.n_bus == 2
    assert len(net.branches) == 1
    assert len(net.generators) == 1
    assert net.s_base == 10.0


def test_dangling_bus_reference_names_bus():
    text = MINIMAL.replace("1 2 0.02 0.1 0.0 closed", "1 99 0.02 0.1 0.0 closed")
    with pytest.raises(NetworkFileError, match="99"):
        parse_network(text)


def test_zero_reactance_rejected():
    text = MINIMAL.replace("1 2 0.02 0.1 0.0 closed", "1 2 0.02 0.0 0.0 closed")
    with pytest.raises(NetworkFileError, match="zero reactance"):
        parse_network(text)


def test_no_slack_rejected():
    text = MINIMAL.replace("1 slack", "1 pv")
    with pytest.raises(NetworkFileError, match="no slack"):
        parse_network(text)


def test_syntax_error_carries_line_number():
    bad = "SBASE 10.0\nBUS\n1 slack 0.95 oops 12.47\nEND\n"
    with pytest.raises(NetworkFileError, match="line 3"):
        parse_network(bad)


def test_missing_sbase():
    text = "\n".join(l for l in MINIMAL.splitlines() if not l.startswith("SBASE"))
    with pytest.raises(NetworkFileError, match="SBASE"):
        parse_network(text)


def test_unclosed_section():
    with pytest.raises(NetworkFileError, match="not closed"):
        parse_network("SBASE 10\nBUS\n1 slack 0.95 1.05 12.47\n")


def test_bundled_microgrid_counts():
    net = parse_network(fixture_text("microgrid9.grid"))
    assert net.n_bus == 9
    assert len(net.generators) == 1  # the diesel unit
    assert len(net.pv_units) == 3
    open_branches = [b for b in net.branches if b.status is BranchStatus.OPEN]
    assert len(open_branches) == 2  # both points of interconnection open
    assert len(net.island_bus_ids()) == 7


@pytest.mark.parametrize("name", ["two_bus", "five_bus", "microgrid9"])
def test_serialize_parse_round_trip(name):
    net = parse_network(fixture_text(f"{name}.grid"))
    again = parse_network(serialize_network(net))
    assert again == net


def test_demand_round_trip(microgrid9):
    _, demand = microgrid9
    text = serialize_demand(demand)
    again = parse_demand(text)
    assert again.bus_ids == demand.bus_ids
    assert again.valid_hours == demand.valid_hours
    import numpy as np

    np.testing.assert_array_equal(
        np.nan_to_num(again.p_mw, nan=-1), np.nan_to_num(demand.p_mw, nan=-1)
    )


def test_demand_header_checked():
    with pytest.raises(NetworkFileError, match="header"):
        parse_demand("h,b,p,q\n0,1,1.0,0.0\n")


def test_demand_duplicate_pair_rejected():
    text = "hour,bus_id,p_mw,q_mvar\n0,1,1.0,0.0\n0,1,2.0,0.0\n"
    with pytest.raises(NetworkFileError, match="duplicate"):
        parse_demand(text)


def test_demand_missing_pairs_default_zero():
    d = parse_demand("hour,bus_id,p_mw,q_mvar\n0,1,1.0,0.5\n2,2,3.0,0.0\n")
    assert d.horizon == 3
    assert d.p_mw[1].sum() == 0.0
    assert d.p_mw[0, d.bus_column(1)] == 1.0


def test_demand_negative_load_rejected():
    with pytest.raises(NetworkFileError):
        parse_demand("hour,bus_id,p_mw,q_mvar\n0,1,-1.0,0.0\n")


def test_demand_unknown_bus_rejected_when_network_given(two_bus):
    net, _ = two_bus
    with pytest.raises(NetworkFileError, match="77"):
        parse_demand("hour,bus_id,p_mw,q_mvar\n0,77,1.0,0.0\n", net=net)


# -- non-finite numbers and file names in errors --------------------------------

MG9 = fixture_text("microgrid9.grid")


@pytest.mark.parametrize(
    "old, new, lineno, what",
    [
        ("0.0000,0.1275,0.5164", "0.0000,nan,0.5164", 31, "pv profile value"),
        ("1 2 0.010 0.020", "1 2 nan 0.020", 17, "r"),
        ("5.6 1.0 90.0 15.0", "5.6 1.0 inf 15.0", 28, "generator field"),
        ("SBASE 10.0", "SBASE inf", 2, "SBASE"),
        ("4 pq 0.95 1.05", "4 pq 0.95 inf", 8, "v_max"),
        ("2 3 0.015 0.030 0.0 closed", "2 3 0.015 0.030 -inf closed", 18, "b_sh"),
    ],
)
def test_non_finite_network_value_rejected_with_line(old, new, lineno, what):
    assert MG9.count(old) == 1
    with pytest.raises(NetworkFileError, match=f"^line {lineno}: {what} must be finite"):
        parse_network(MG9.replace(old, new))


def test_non_finite_shunt_rejected_with_line():
    text = MINIMAL + "SHUNT\n2 nan\nEND\n"
    with pytest.raises(NetworkFileError, match="^line 14: b_cap must be finite"):
        parse_network(text)


def test_demand_keeps_nan_as_invalid_hour_marker():
    d = parse_demand("hour,bus_id,p_mw,q_mvar\n0,1,1.0,0.5\n1,1,nan,0.5\n2,1,1.0,inf\n")
    assert d.valid_hours == (0,)


def test_load_network_names_the_file(tmp_path):
    path = tmp_path / "bad.grid"
    path.write_text(MINIMAL.replace("1 2 0.02 0.1", "1 2 nan 0.1"))
    expected = f"^{re.escape(str(path))}, line 8: r must be finite"
    with pytest.raises(NetworkFileError, match=expected) as info:
        load_network(path)
    assert (info.value.source, info.value.line) == (path, 8)


def test_load_network_names_the_file_without_a_line(tmp_path):
    path = tmp_path / "bad.grid"
    path.write_text(MINIMAL.replace("1 slack", "1 pv"))
    with pytest.raises(NetworkFileError, match=f"^{re.escape(str(path))}: no slack"):
        load_network(path)


def test_load_demand_names_the_file(tmp_path, two_bus):
    net, _ = two_bus
    path = tmp_path / "bad.csv"
    path.write_text("hour,bus_id,p_mw,q_mvar\n0,1,1.0,0.0\n0,1,x,0.0\n")
    expected = f"^{re.escape(str(path))}, line 3: expected a number for p_mw"
    with pytest.raises(NetworkFileError, match=expected):
        load_demand(path, net=net)


# -- the file's grammar: one SBASE, outside sections; each section closed ------


@pytest.mark.parametrize(
    "old, new, lineno, message",
    [
        ("SBASE 10.0\nBUS\n", "BUS\nSBASE 10.0\n", 3, "SBASE inside section BUS"),
        ("12.47\nEND\nBRANCH\n", "12.47\nBRANCH\n", 14, "section BRANCH opened before BUS closed with END"),
    ],
)
def test_grammar_break_names_its_line(old, new, lineno, message):
    assert MG9.count(old) == 1
    with pytest.raises(NetworkFileError) as info:
        parse_network(MG9.replace(old, new))
    assert str(info.value) == f"line {lineno}: {message}"


def test_second_sbase_names_both_lines():
    lineno = len(MG9.splitlines()) + 1
    with pytest.raises(NetworkFileError) as info:
        parse_network(MG9 + "SBASE 100\n")
    assert str(info.value) == f"line {lineno}: second SBASE (the first is on line 2)"


# -- errors on one line name it, and the leftmost bad field ----------------------

PV_AND_SHUNT = MINIMAL + "PV\n2 1.0 leading 0.5,0.0\nEND\nSHUNT\n2 0.5\nEND\n"


@pytest.mark.parametrize(
    "old, new, lineno, message",
    [
        # a record's own checks
        ("1 2 0.02 0.1 0.0", "1 2 0.02 0.0 0.0", 8, "branch 1-2: zero reactance"),
        ("1 2 0.02 0.1 0.0", "1 2 -0.02 0.1 0.0", 8, "branch 1-2: negative resistance -0.02"),
        ("1 2 0.02", "2 2 0.02", 8, "branch 2-2: self-loop"),
        (
            "2 pq 0.95 1.05",
            "2 pq 1.06 1.05",
            5,
            "bus 2: voltage bounds must satisfy 0 < v_min < v_max, got [1.06, 1.05]",
        ),
        ("2 pq", "-2 pq", 5, "bus id must be a positive integer, got -2"),
        ("0.02 25.0 40.0", "-0.02 25.0 40.0", 11, "generator at bus 1: cost must be convex (c2 >= 0)"),
        ("1 0.0 10.0 -8.0", "1 10.5 10.0 -8.0", 11, "generator at bus 1: p_min > p_max"),
        ("2 1.0 leading", "2 1.5 leading", 14, "pv unit at bus 2: power factor must be in (0, 1], got 1.5"),
        ("0.5,0.0\n", "0.5,-1.0\n", 14, "pv unit at bus 2: profile values must be >= 0"),
        ("2 0.5\n", "2 -0.5\n", 17, "shunt capacitor at bus 2: b_cap must be positive"),
        # field counts, enum values and field types
        ("2 pq 0.95 1.05 12.47", "2 pq 0.95 1.05", 5, "BUS record needs 5 fields: id kind v_min v_max base_kv"),
        ("0.0 closed", "0.0 closed 1", 8, "BRANCH record needs 6 fields: from to r x b_sh status"),
        ("25.0 40.0", "25.0", 11, "GEN record needs 8 fields: bus p_min p_max q_min q_max c2 c1 c0"),
        ("2 1.0 leading", "2 leading", 14, "PV record needs 4 fields: bus pf sign profile"),
        ("2 0.5\n", "2 0.5 0.5\n", 17, "SHUNT record needs 2 fields: bus b_cap"),
        ("2 pq", "2 pqq", 5, "bus kind must be slack, pv or pq, got 'pqq'"),
        ("0.0 closed", "0.0 shut", 8, "branch status must be closed or open, got 'shut'"),
        ("1.0 leading", "1.0 ahead", 14, "pv sign must be leading or lagging, got 'ahead'"),
        ("1 2 0.02", "1.5 2 0.02", 8, "expected an integer for from bus, got '1.5'"),
        ("1 2 0.02", "1 two 0.02", 8, "expected an integer for to bus, got 'two'"),
        ("0.5,0.0\n", "0.5,,0.0\n", 14, "expected a number for pv profile value, got ''"),
        # several bad fields on one line: the leftmost is reported
        ("1 slack 0.95", "x y 0.95", 4, "expected an integer for bus id, got 'x'"),
        ("1 0.0 10.0", "x nan 10.0", 11, "expected an integer for bus, got 'x'"),
        ("2 1.0 leading 0.5", "2 x ahead 0.5", 14, "expected a number for pf, got 'x'"),
        ("0.1 0.0 closed", "0.1 inf shut", 8, "b_sh must be finite, got 'inf'"),
    ],
)
def test_line_error_names_its_line_and_field(old, new, lineno, message):
    assert PV_AND_SHUNT.count(old) == 1
    with pytest.raises(NetworkFileError) as info:
        parse_network(PV_AND_SHUNT.replace(old, new))
    assert str(info.value) == f"line {lineno}: {message}"
    assert (info.value.detail, info.value.line) == (message, lineno)


def test_load_network_names_the_file_and_line_of_a_record_check(tmp_path):
    path = tmp_path / "bad.grid"
    path.write_text(MINIMAL.replace("1 2 0.02 0.1", "1 2 0.02 0.0"))
    expected = f"^{re.escape(str(path))}, line 8: branch 1-2: zero reactance$"
    with pytest.raises(NetworkFileError, match=expected) as info:
        load_network(path)
    assert (info.value.source, info.value.line) == (path, 8)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("1 2 0.02 0.1 0.0 closed", "1 77 0.02 0.1 0.0 closed", "branch 1-77 references undeclared bus 77"),
        ("2 pq 0.95", "1 pq 0.95", "duplicate bus id(s): [1]"),
        ("2 pq 0.95", "2 slack 0.95", "multiple slack buses declared: [1, 2]"),
        ("2 pq 0.95", "2 pv 0.95", "PV bus 2 has no generator"),
        ("0.0 closed", "0.0 open", "buses [2] carry devices but are not connected to the slack bus through closed branches"),
    ],
)
def test_cross_record_check_names_no_line(old, new, message):
    assert PV_AND_SHUNT.count(old) == 1
    with pytest.raises(NetworkFileError) as info:
        parse_network(PV_AND_SHUNT.replace(old, new))
    assert str(info.value) == message
    assert info.value.line is None


# -- any valid network survives a round trip -------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)


@st.composite
def networks(draw):
    """Valid networks: a chain of closed branches from the slack bus over
    the island, bare pq stubs off it, random open branches, a generator at
    every pv bus (and maybe at the slack), PV units and shunts on the island.
    GEN, PV and SHUNT may each be empty."""
    ids = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=6, unique=True))
    island = ids[: draw(st.integers(1, len(ids)))]
    kinds = {b: BusKind.PQ for b in ids}
    kinds[island[0]] = BusKind.SLACK
    kinds.update({b: draw(st.sampled_from([BusKind.PV, BusKind.PQ])) for b in island[1:]})

    def ordered(strategy, strict=False):
        pair = sorted(draw(st.lists(strategy, min_size=2, max_size=2, unique=strict)))
        return tuple(pair)

    buses = [Bus(b, kinds[b], *ordered(POSITIVE, strict=True), draw(POSITIVE)) for b in ids]
    closed = [
        Branch(a, b, draw(NON_NEGATIVE), draw(FINITE.filter(bool)), draw(FINITE))
        for a, b in zip(island, island[1:])
    ]
    opened = []
    if len(ids) > 1:
        ends = st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True)
        opened = [
            Branch(a, b, draw(NON_NEGATIVE), draw(FINITE.filter(bool)), draw(FINITE), BranchStatus.OPEN)
            for a, b in draw(st.lists(ends, max_size=3))
        ]
    hosts = [b for b in island if kinds[b] is BusKind.PV]
    hosts += draw(st.lists(st.just(island[0]), max_size=1))
    gens = [
        Generator(b, *ordered(FINITE), *ordered(FINITE), draw(NON_NEGATIVE), draw(FINITE), draw(FINITE))
        for b in hosts
    ]
    pv = st.builds(
        PvUnit,
        bus=st.sampled_from(island),
        p_profile=st.lists(NON_NEGATIVE, min_size=1, max_size=4).map(tuple),
        pf_nominal=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        pf_sign=st.sampled_from(PfSign),
    )
    shunt = st.builds(ShuntCapacitor, bus=st.sampled_from(island), b_cap=POSITIVE)
    return Network(
        buses=tuple(draw(st.permutations(buses))),
        branches=tuple(draw(st.permutations(closed + opened))),
        generators=tuple(gens),
        pv_units=tuple(draw(st.lists(pv, max_size=3))),
        shunts=tuple(draw(st.lists(shunt, max_size=2))),
        s_base=draw(POSITIVE),
    )


@settings(max_examples=150, deadline=None)
@given(networks())
def test_any_valid_network_round_trips(net):
    text = serialize_network(net)
    again = parse_network(text)
    assert again == net
    assert serialize_network(again) == text
