"""Text formats: the line-oriented network file and the hourly demand CSV.

Network file grammar (UTF-8, `#` starts a comment, blank lines ignored):

    SBASE <mva>
    BUS
    <id> <slack|pv|pq> <v_min> <v_max> <base_kv>
    END
    BRANCH
    <from> <to> <r_pu> <x_pu> <b_sh_pu> <closed|open>
    END
    GEN
    <bus> <p_min_mw> <p_max_mw> <q_min_mvar> <q_max_mvar> <c2> <c1> <c0>
    END
    PV
    <bus> <pf> <leading|lagging> <p_mw,p_mw,...>
    END
    SHUNT
    <bus> <b_cap_pu>
    END

Sections may appear in any order; GEN, PV and SHUNT are optional. The PV
profile is a comma-separated MW value per timestep with no spaces.

Every number in the network file must be finite. Demand CSV: header
``hour,bus_id,p_mw,q_mvar``; missing (hour, bus) pairs default to zero; a
non-finite value marks that hour invalid.

load_network and load_demand name the file in their errors:
``FILE, line N: message``.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from .model import (
    Branch,
    BranchStatus,
    Bus,
    BusKind,
    DemandSeries,
    Generator,
    GridcapError,
    Network,
    PfSign,
    PvUnit,
    ShuntCapacitor,
    ValidationError,
)


class NetworkFileError(GridcapError):
    """Syntax or reference error in an input file, with a line number and,
    from load_network / load_demand, the file's path."""

    def __init__(self, message: str, line: int = None, source=None):
        self.detail, self.line, self.source = message, line, source
        where = [str(source)] if source is not None else []
        if line is not None:
            where.append(f"line {line}")
        super().__init__(f"{', '.join(where)}: {message}" if where else message)


_SECTIONS = ("BUS", "BRANCH", "GEN", "PV", "SHUNT")


def _parse_float(token: str, what: str, line: int, finite: bool = True) -> float:
    try:
        value = float(token)
    except ValueError:
        raise NetworkFileError(f"expected a number for {what}, got {token!r}", line)
    if finite and not math.isfinite(value):
        raise NetworkFileError(f"{what} must be finite, got {token!r}", line)
    return value


def _parse_int(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise NetworkFileError(f"expected an integer for {what}, got {token!r}", line)


def parse_network(text: str) -> Network:
    """Parse network-file contents into a validated Network."""
    s_base = None
    buses, branches, gens, pvs, shunts = [], [], [], [], []
    section = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0].upper()

        if head == "SBASE":
            if len(tokens) != 2:
                raise NetworkFileError("SBASE takes exactly one value", lineno)
            s_base = _parse_float(tokens[1], "SBASE", lineno)
            continue
        if head in _SECTIONS and len(tokens) == 1:
            section = head
            continue
        if head == "END" and len(tokens) == 1:
            if section is None:
                raise NetworkFileError("END outside any section", lineno)
            section = None
            continue
        if section is None:
            raise NetworkFileError(f"unexpected content {line!r} outside a section", lineno)

        if section == "BUS":
            if len(tokens) != 5:
                raise NetworkFileError(
                    "BUS record needs 5 fields: id kind v_min v_max base_kv", lineno
                )
            try:
                kind = BusKind(tokens[1].lower())
            except ValueError:
                raise NetworkFileError(
                    f"bus kind must be slack, pv or pq, got {tokens[1]!r}", lineno
                )
            buses.append(
                Bus(
                    id=_parse_int(tokens[0], "bus id", lineno),
                    kind=kind,
                    v_min=_parse_float(tokens[2], "v_min", lineno),
                    v_max=_parse_float(tokens[3], "v_max", lineno),
                    base_kv=_parse_float(tokens[4], "base_kv", lineno),
                )
            )
        elif section == "BRANCH":
            if len(tokens) != 6:
                raise NetworkFileError(
                    "BRANCH record needs 6 fields: from to r x b_sh status", lineno
                )
            try:
                status = BranchStatus(tokens[5].lower())
            except ValueError:
                raise NetworkFileError(
                    f"branch status must be closed or open, got {tokens[5]!r}", lineno
                )
            branches.append(
                Branch(
                    from_bus=_parse_int(tokens[0], "from bus", lineno),
                    to_bus=_parse_int(tokens[1], "to bus", lineno),
                    r=_parse_float(tokens[2], "r", lineno),
                    x=_parse_float(tokens[3], "x", lineno),
                    b_sh=_parse_float(tokens[4], "b_sh", lineno),
                    status=status,
                )
            )
        elif section == "GEN":
            if len(tokens) != 8:
                raise NetworkFileError(
                    "GEN record needs 8 fields: bus p_min p_max q_min q_max c2 c1 c0",
                    lineno,
                )
            vals = [_parse_float(t, "generator field", lineno) for t in tokens[1:]]
            gens.append(Generator(_parse_int(tokens[0], "bus", lineno), *vals))
        elif section == "PV":
            if len(tokens) != 4:
                raise NetworkFileError(
                    "PV record needs 4 fields: bus pf sign profile", lineno
                )
            try:
                sign = PfSign(tokens[2].lower())
            except ValueError:
                raise NetworkFileError(
                    f"pv sign must be leading or lagging, got {tokens[2]!r}", lineno
                )
            profile = tuple(
                _parse_float(v, "pv profile value", lineno)
                for v in tokens[3].split(",")
            )
            pvs.append(
                PvUnit(
                    bus=_parse_int(tokens[0], "bus", lineno),
                    p_profile=profile,
                    pf_nominal=_parse_float(tokens[1], "pf", lineno),
                    pf_sign=sign,
                )
            )
        elif section == "SHUNT":
            if len(tokens) != 2:
                raise NetworkFileError("SHUNT record needs 2 fields: bus b_cap", lineno)
            shunts.append(
                ShuntCapacitor(
                    bus=_parse_int(tokens[0], "bus", lineno),
                    b_cap=_parse_float(tokens[1], "b_cap", lineno),
                )
            )

    if section is not None:
        raise NetworkFileError(f"section {section} not closed with END")
    if s_base is None:
        raise NetworkFileError("missing SBASE directive")

    try:
        return Network(
            buses=tuple(buses),
            branches=tuple(branches),
            generators=tuple(gens),
            pv_units=tuple(pvs),
            shunts=tuple(shunts),
            s_base=s_base,
        )
    except ValidationError as exc:
        raise NetworkFileError(str(exc)) from exc


def serialize_network(net: Network) -> str:
    """Render a Network back to file text; parse(serialize(net)) == net."""
    out = [f"SBASE {net.s_base!r}", "BUS"]
    for b in net.buses:
        out.append(f"{b.id} {b.kind.value} {b.v_min!r} {b.v_max!r} {b.base_kv!r}")
    out.append("END")
    out.append("BRANCH")
    for br in net.branches:
        out.append(
            f"{br.from_bus} {br.to_bus} {br.r!r} {br.x!r} {br.b_sh!r} {br.status.value}"
        )
    out.append("END")
    if net.generators:
        out.append("GEN")
        for g in net.generators:
            out.append(
                f"{g.bus} {g.p_min!r} {g.p_max!r} {g.q_min!r} {g.q_max!r} "
                f"{g.c2!r} {g.c1!r} {g.c0!r}"
            )
        out.append("END")
    if net.pv_units:
        out.append("PV")
        for pv in net.pv_units:
            profile = ",".join(repr(p) for p in pv.p_profile)
            out.append(f"{pv.bus} {pv.pf_nominal!r} {pv.pf_sign.value} {profile}")
        out.append("END")
    if net.shunts:
        out.append("SHUNT")
        for sh in net.shunts:
            out.append(f"{sh.bus} {sh.b_cap!r}")
        out.append("END")
    return "\n".join(out) + "\n"


def parse_demand(text: str, net: Network = None, dt: float = 1.0) -> DemandSeries:
    """Parse demand CSV text into a DemandSeries.

    When a network is given, bus ids are checked against it and columns
    cover every network bus; otherwise columns cover the ids seen.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise NetworkFileError("empty demand file")
    expected = ["hour", "bus_id", "p_mw", "q_mvar"]
    if [h.strip().lower() for h in header] != expected:
        raise NetworkFileError(
            f"demand header must be {','.join(expected)}, got {','.join(header)}", 1
        )

    known = set(net.bus_ids) if net is not None else None
    records = {}
    max_hour = -1
    seen_ids = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 4:
            raise NetworkFileError(f"demand row needs 4 fields, got {len(row)}", lineno)
        hour = _parse_int(row[0].strip(), "hour", lineno)
        bus_id = _parse_int(row[1].strip(), "bus_id", lineno)
        p = _parse_float(row[2].strip(), "p_mw", lineno, finite=False)
        q = _parse_float(row[3].strip(), "q_mvar", lineno, finite=False)
        if hour < 0:
            raise NetworkFileError(f"hour must be >= 0, got {hour}", lineno)
        if known is not None and bus_id not in known:
            raise NetworkFileError(f"demand references undeclared bus {bus_id}", lineno)
        if (hour, bus_id) in records:
            raise NetworkFileError(
                f"duplicate demand record for hour {hour}, bus {bus_id}", lineno
            )
        records[(hour, bus_id)] = (p, q)
        max_hour = max(max_hour, hour)
        if bus_id not in seen_ids:
            seen_ids.append(bus_id)

    if max_hour < 0:
        raise NetworkFileError("demand file has no records")

    bus_ids = net.bus_ids if net is not None else tuple(sorted(seen_ids))
    horizon = max_hour + 1
    p_mw = np.zeros((horizon, len(bus_ids)))
    q_mvar = np.zeros((horizon, len(bus_ids)))
    col = {bid: j for j, bid in enumerate(bus_ids)}
    for (hour, bus_id), (p, q) in records.items():
        p_mw[hour, col[bus_id]] = p
        q_mvar[hour, col[bus_id]] = q

    try:
        return DemandSeries(bus_ids=bus_ids, p_mw=p_mw, q_mvar=q_mvar, dt=dt)
    except ValidationError as exc:
        raise NetworkFileError(str(exc)) from exc


def serialize_demand(demand: DemandSeries) -> str:
    """Render a DemandSeries as CSV text (zero rows are kept explicit)."""
    out = ["hour,bus_id,p_mw,q_mvar"]
    for t in range(demand.horizon):
        for j, bid in enumerate(demand.bus_ids):
            out.append(
                f"{t},{bid},{float(demand.p_mw[t, j])!r},{float(demand.q_mvar[t, j])!r}"
            )
    return "\n".join(out) + "\n"


def _load(path, parse, **kwargs):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse(text, **kwargs)
    except NetworkFileError as exc:
        raise NetworkFileError(exc.detail, exc.line, path) from None


def load_network(path) -> Network:
    return _load(path, parse_network)


def load_demand(path, net: Network = None, dt: float = 1.0) -> DemandSeries:
    return _load(path, parse_demand, net=net, dt=dt)
