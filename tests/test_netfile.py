import re

import pytest

from gridcap.fixtures import fixture_text
from gridcap.model import BranchStatus
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
