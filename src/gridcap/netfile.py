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

Sections may appear in any order; GEN, PV and SHUNT are optional. SBASE
comes once, outside every section, and each section closes with END before
the next opens. The PV profile is a comma-separated MW value per timestep
with no spaces.

Every number in the network file must be finite. Demand CSV: header
``hour,bus_id,p_mw,q_mvar``; missing (hour, bus) pairs default to zero; a
non-finite value marks that hour invalid.

load_network and load_demand name the file in their errors:
``FILE, line N: message``. In code the network grammar is stated once, as
the table _GRAMMAR that parse_network and serialize_network both read.
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


# Field codecs: a (parse, format) pair. parse(token, line) reads one token
# and names the field as `what` in its errors; format(value) writes it back.


def _number(what):
    return (lambda token, line: _parse_float(token, what, line)), repr


def _integer(what):
    return (lambda token, line: _parse_int(token, what, line)), str


def _choice(kind, what):
    values = [member.value for member in kind]
    options = f"{', '.join(values[:-1])} or {values[-1]}"

    def parse(token, line):
        try:
            return kind(token.lower())
        except ValueError:
            raise NetworkFileError(f"{what} must be {options}, got {token!r}", line)

    return parse, lambda member: member.value


_PROFILE = (
    lambda token, line: tuple(_parse_float(v, "pv profile value", line) for v in token.split(",")),
    lambda profile: ",".join(map(repr, profile)),
)


def _numbers(*names, what=None):
    """Number fields named alike in the arity message and the record, each
    labelled by its own name in errors unless `what` is given."""
    return tuple((name, name, _number(what or name)) for name in names)


# The network file's grammar, stated once: parse_network reads records and
# serialize_network writes them from this table, sections in write order.
# Each section is (the model record its lines build, the Network field the
# records fill, its fields in file order as (name in the arity message,
# record attribute, codec)).
_GRAMMAR = {
    "BUS": (Bus, "buses", (
        ("id", "id", _integer("bus id")),
        ("kind", "kind", _choice(BusKind, "bus kind")),
        *_numbers("v_min", "v_max", "base_kv"),
    )),
    "BRANCH": (Branch, "branches", (
        ("from", "from_bus", _integer("from bus")),
        ("to", "to_bus", _integer("to bus")),
        *_numbers("r", "x", "b_sh"),
        ("status", "status", _choice(BranchStatus, "branch status")),
    )),
    "GEN": (Generator, "generators", (
        ("bus", "bus", _integer("bus")),
        *_numbers("p_min", "p_max", "q_min", "q_max", "c2", "c1", "c0", what="generator field"),
    )),
    "PV": (PvUnit, "pv_units", (
        ("bus", "bus", _integer("bus")),
        ("pf", "pf_nominal", _number("pf")),
        ("sign", "pf_sign", _choice(PfSign, "pv sign")),
        ("profile", "p_profile", _PROFILE),
    )),
    "SHUNT": (ShuntCapacitor, "shunts", (
        ("bus", "bus", _integer("bus")),
        *_numbers("b_cap"),
    )),
}


def parse_network(text: str) -> Network:
    """Parse network-file contents into a validated Network.

    A record's fields are read from the left, so a line with several bad
    fields reports the leftmost; the record's own checks (its validate())
    run on that line too and name it. Checks across records (undeclared or
    duplicate buses, slack count, generators at pv buses, the island) run
    on the whole network and name no line.
    """
    s_base = sbase_line = None
    rows = {attr: [] for _, attr, _ in _GRAMMAR.values()}
    section = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0].upper()

        if head == "SBASE":
            if section is not None:
                raise NetworkFileError(f"SBASE inside section {section}", lineno)
            if sbase_line is not None:
                raise NetworkFileError(f"second SBASE (the first is on line {sbase_line})", lineno)
            if len(tokens) != 2:
                raise NetworkFileError("SBASE takes exactly one value", lineno)
            s_base, sbase_line = _parse_float(tokens[1], "SBASE", lineno), lineno
            continue
        if head in _GRAMMAR and len(tokens) == 1:
            if section is not None:
                raise NetworkFileError(f"section {head} opened before {section} closed with END", lineno)
            section = head
            continue
        if head == "END" and len(tokens) == 1:
            if section is None:
                raise NetworkFileError("END outside any section", lineno)
            section = None
            continue
        if section is None:
            raise NetworkFileError(f"unexpected content {line!r} outside a section", lineno)

        record_type, attr, fields = _GRAMMAR[section]
        if len(tokens) != len(fields):
            names = " ".join(name for name, _, _ in fields)
            raise NetworkFileError(f"{section} record needs {len(fields)} fields: {names}", lineno)
        record = record_type(
            **{field: codec[0](token, lineno) for token, (_, field, codec) in zip(tokens, fields)}
        )
        try:
            record.validate()
        except ValidationError as exc:
            raise NetworkFileError(str(exc), lineno) from exc
        rows[attr].append(record)

    if section is not None:
        raise NetworkFileError(f"section {section} not closed with END")
    if s_base is None:
        raise NetworkFileError("missing SBASE directive")

    try:
        return Network(s_base=s_base, **{attr: tuple(records) for attr, records in rows.items()})
    except ValidationError as exc:
        raise NetworkFileError(str(exc)) from exc


def serialize_network(net: Network) -> str:
    """Render a Network back to file text; parse(serialize(net)) == net.

    BUS and BRANCH are always written; GEN, PV and SHUNT only when they hold
    records.
    """
    out = [f"SBASE {net.s_base!r}"]
    for section, (_, attr, fields) in _GRAMMAR.items():
        records = getattr(net, attr)
        if records or section in ("BUS", "BRANCH"):
            out.append(section)
            out.extend(
                " ".join(codec[1](getattr(record, field)) for _, field, codec in fields)
                for record in records
            )
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
