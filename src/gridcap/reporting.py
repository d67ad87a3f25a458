"""CSV emission and read-back for study artifacts, plus the text summary.

Everything is plain CSV so regression fixtures diff cleanly; identical
inputs produce byte-identical files. Per study directory:

    case{1..4}_hourly.csv       one row per demand timestep
    case{1..4}_bus.csv          one row per (valid hour, island bus)
    case{1..4}_sensitivity.csv  hour,bus_id,os_q,os_v,s_score,rank,status
    cross_case.csv              case,total_cost,load_served,load_shed,
                                avg_mismatch,avg_vmin,avg_vmax,top_cap_buses
    dispatch_long.csv           case,hour,series,value (plot-ready)
    meta.csv                    key,value run parameters
"""

from __future__ import annotations

import csv
import io
import math
import os

import numpy as np

from .model import GridcapError, ValidationError
from .planning import CaseSummary, economic_comparison
from .sensitivity import composite_score
from .study import CASE_NUMBERS, StudyResult


class ReportError(GridcapError):
    pass


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".10g")


def _fmt_floats(row):
    """_fmt of each float in row, e.g. a row of an array's tolist()."""
    return [format(x, ".10g") for x in row]


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


HOURLY_HEADER = [
    "hour", "status", "cost_usd", "p_gen_mw", "q_gen_mvar", "load_mw",
    "served_mw", "shed_mw", "loss_mw", "v_min_pu", "v_max_pu",
    "max_mismatch_pu", "iterations",
]

BUS_HEADER = [
    "hour", "bus_id", "status", "v_pu", "theta_rad", "p_load_mw", "q_load_mvar",
    "p_pv_mw", "shed_frac", "shed_mw", "lambda_p_usd_per_pu", "lambda_q_usd_per_pu",
]

SENSITIVITY_HEADER = ["hour", "bus_id", "os_q", "os_v", "s_score", "rank", "status"]

CROSS_CASE_HEADER = [
    "case", "total_cost", "load_served", "load_shed", "avg_mismatch",
    "avg_vmin", "avg_vmax", "top_cap_buses",
]


def write_case_files(outdir, case_number: int, case, weights, prefix: str = "case") -> list:
    """Emit hourly, per-bus and sensitivity CSVs for one case; returns the
    hourly CSV's rows (HOURLY_HEADER's columns, cells as written). Each
    valid hour's sensitivities are scored under weights, which must be the
    case's own, so that the per-hour scores and the case's ranking agree."""
    if weights != case.scenario.weights:
        raise ValidationError(f"weights {weights} are not the case's own {case.scenario.weights}")
    tag = f"{prefix}{case_number}" if case_number else prefix
    hourly_rows = []
    bus_rows = []
    sens_rows = []
    for outcome in case.hours:
        t = outcome.hour
        if not outcome.valid:
            hourly_rows.append([t, "invalid"] + [""] * (len(HOURLY_HEADER) - 2))
            continue
        sol, optimal = outcome.solution, outcome.optimal
        status = sol.status.value
        load, shed_mw = float(sol.p_load_mw.sum()), sol.shed_mw
        served = load - shed_mw
        loss = float(sol.p_g.sum() + sol.p_inj_mw.sum()) - served
        hourly_rows.append([
            t, status,
            _fmt(sol.generation_cost * case.dt) if optimal else "",
            _fmt(sol.p_g.sum()), _fmt(sol.q_g.sum()), _fmt(load),
            _fmt(served) if optimal else "",
            _fmt(shed_mw) if optimal else "",
            _fmt(loss) if optimal else "",
            _fmt(sol.v.min()), _fmt(sol.v.max()),
            _fmt(sol.max_mismatch), sol.iterations,
        ])
        values = np.column_stack([
            sol.v, sol.theta, sol.p_load_mw, sol.q_load_mvar, sol.p_inj_mw,
            sol.shed, sol.shed * sol.p_load_mw, sol.lambda_p, sol.lambda_q,
        ]).tolist()
        for b, row in zip(sol.bus_ids, values):
            bus_rows.append([t, b, status, *_fmt_floats(row)])
        raw = outcome.sensitivities  # signed, in bus order
        by_bus = {r.bus_id: r for r in raw}
        for rec in composite_score(raw, weights):
            signed = by_bus[rec.bus_id]
            sens_rows.append([
                t, rec.bus_id, *_fmt_floats((signed.os_q, signed.os_v, rec.s_score)),
                rec.rank, status,
            ])
    _write_csv(os.path.join(outdir, f"{tag}_hourly.csv"), HOURLY_HEADER, hourly_rows)
    _write_csv(os.path.join(outdir, f"{tag}_bus.csv"), BUS_HEADER, bus_rows)
    _write_csv(
        os.path.join(outdir, f"{tag}_sensitivity.csv"), SENSITIVITY_HEADER, sens_rows
    )
    return hourly_rows


def write_cross_case(outdir, study: StudyResult, top_m: int = 3):
    rows = []
    for cid, case in study.cases.items():
        rows.append([
            CASE_NUMBERS[cid],
            _fmt(case.total_cost), _fmt(case.load_served), _fmt(case.load_shed),
            _fmt(case.avg_mismatch), _fmt(case.avg_vmin), _fmt(case.avg_vmax),
            " ".join(str(b) for b in case.top_buses(top_m)),
        ])
    _write_csv(os.path.join(outdir, "cross_case.csv"), CROSS_CASE_HEADER, rows)


_DISPATCH_SERIES = ("p_gen_mw", "q_gen_mvar", "loss_mw", "cost_usd", "shed_mw")


def write_dispatch_long(outdir, hourly: dict):
    """Plot-ready long-format dispatch profiles: each optimal row of the
    hourly CSVs (case number -> rows, as write_case_files returns them)
    becomes one row per series."""
    cols = [HOURLY_HEADER.index(series) for series in _DISPATCH_SERIES]
    rows = [
        [num, row[0], series, row[col]]
        for num, case_rows in hourly.items()
        for row in case_rows
        if row[1] == "optimal"
        for series, col in zip(_DISPATCH_SERIES, cols)
    ]
    _write_csv(
        os.path.join(outdir, "dispatch_long.csv"),
        ["case", "hour", "series", "value"],
        rows,
    )


def write_meta(outdir, entries: dict):
    rows = [[k, str(v)] for k, v in entries.items()]
    _write_csv(os.path.join(outdir, "meta.csv"), ["key", "value"], rows)


def write_study(outdir, study: StudyResult, weights, top_m: int, extra_meta: dict = None):
    os.makedirs(outdir, exist_ok=True)
    hourly = {
        CASE_NUMBERS[cid]: write_case_files(outdir, CASE_NUMBERS[cid], case, weights)
        for cid, case in study.cases.items()
    }
    write_cross_case(outdir, study, top_m)
    write_dispatch_long(outdir, hourly)
    meta = {
        "placement": " ".join(str(b) for b in study.placement),
        "cap_mvar": _fmt(study.cap_mvar),
        "capacitors_insufficient": str(study.capacitors_insufficient).lower(),
        "dt": _fmt(study.cases[next(iter(study.cases))].dt),
        "top_m": top_m,
    }
    for i, w in enumerate(study.warnings):
        meta[f"warning_{i}"] = w
    meta.update(extra_meta or {})
    write_meta(outdir, meta)


def write_plan_csv(path, decision, s_scores: dict):
    """plan.csv: bus_id,c_cap,c_voll,install,s_score."""
    rows = []
    for b in sorted(decision.c_cap):
        rows.append([
            b, _fmt(decision.c_cap[b]), _fmt(decision.c_voll[b]),
            1 if decision.install[b] else 0, _fmt(s_scores.get(b)),
        ])
    _write_csv(path, ["bus_id", "c_cap", "c_voll", "install", "s_score"], rows)


# -- read-back ---------------------------------------------------------------


def read_rows(path) -> list:
    return [row for _, row in _read_table(path, ())]


def _read_table(path, columns) -> list:
    """(line number, row dict) of each data row of a study CSV whose header
    names every one of columns; a row with another cell count than the
    header is an error naming its line."""
    if not os.path.exists(path):
        raise ReportError(f"missing file: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in columns if c not in header]
        if missing:
            raise ReportError(f"{path}, line 1: missing column {', '.join(missing)}")
        rows = []
        for cells in filter(None, reader):  # a blank line is no row
            if len(cells) != len(header):
                raise ReportError(
                    f"{path}, line {reader.line_num}: {len(cells)} cells, header has {len(header)}"
                )
            rows.append((reader.line_num, dict(zip(header, cells))))
        return rows


def _number(path, line, row, column, kind=float):
    """row[column] as a finite kind, or an error naming the file and line."""
    try:
        value = kind(row[column])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ReportError(f"{path}, line {line}: {column} is not a finite number: {row[column]!r}")
    return value


def read_cross_case(outdir) -> dict:
    """case number -> CaseSummary plus the raw row dict, every figure
    checked to be a finite number."""
    path = os.path.join(outdir, "cross_case.csv")
    out = {}
    for line, row in _read_table(path, CROSS_CASE_HEADER):
        figures = {c: _number(path, line, row, c) for c in CROSS_CASE_HEADER[1:-1]}
        summary = CaseSummary(total_cost=figures["total_cost"], load_served=figures["load_served"])
        out[_number(path, line, row, "case", int)] = (summary, row)
    return out


def read_meta(outdir) -> dict:
    path = os.path.join(outdir, "meta.csv")
    if not os.path.exists(path):
        return {}
    return {row["key"]: row["value"] for _, row in _read_table(path, ("key", "value"))}


def read_shed_by_bus(outdir, case_number: int = 3) -> dict:
    """Per-bus MW shed summed over optimal hours, from the bus CSV."""
    path = os.path.join(outdir, f"case{case_number}_bus.csv")
    out = {}
    for line, row in _read_table(path, ("status", "bus_id", "shed_mw")):
        if row["status"] != "optimal":
            continue
        b = _number(path, line, row, "bus_id", int)
        out[b] = out.get(b, 0.0) + _number(path, line, row, "shed_mw")
    return out


def read_mean_scores(outdir, case_number: int = 3) -> dict:
    """Per-bus mean s_score over optimal hours from the sensitivity CSV."""
    path = os.path.join(outdir, f"case{case_number}_sensitivity.csv")
    acc = {}
    for line, row in _read_table(path, ("status", "bus_id", "s_score")):
        if row["status"] != "optimal":
            continue
        b = _number(path, line, row, "bus_id", int)
        acc.setdefault(b, []).append(_number(path, line, row, "s_score"))
    return {b: float(np.mean(v)) for b, v in acc.items()}


REQUIRED_STUDY_FILES = tuple(
    [f"case{i}_hourly.csv" for i in (1, 2, 3, 4)] + ["cross_case.csv"]
)


def check_study_dir(outdir) -> list:
    """Missing required files, empty when the directory is complete."""
    return [
        name
        for name in REQUIRED_STUDY_FILES
        if not os.path.exists(os.path.join(outdir, name))
    ]


def build_summary(outdir) -> str:
    """Human-readable study summary from an emitted study directory."""
    missing = check_study_dir(outdir)
    if missing:
        raise ReportError(
            "study directory incomplete; missing: " + ", ".join(missing)
        )
    cross = read_cross_case(outdir)
    meta = read_meta(outdir)
    out = io.StringIO()
    print("four-case study summary", file=out)
    print("=======================", file=out)
    for num in sorted(cross):
        _, row = cross[num]
        print(
            f"case {num}: cost ${float(row['total_cost']):.2f}, "
            f"served {float(row['load_served']):.2f} MW, "
            f"shed {float(row['load_shed']):.2f} MW, "
            f"avg mismatch {float(row['avg_mismatch']):.6f} p.u., "
            f"V in [{float(row['avg_vmin']):.4f}, {float(row['avg_vmax']):.4f}] p.u., "
            f"top buses: {row['top_cap_buses']}",
            file=out,
        )
    if meta.get("placement"):
        print(
            f"capacitors placed at buses {meta['placement']} "
            f"({meta.get('cap_mvar', '?')} Mvar each)",
            file=out,
        )
    if meta.get("capacitors_insufficient") == "true":
        print("warning: capacitors insufficient to restore full service", file=out)
    if 3 in cross and 4 in cross:
        comparison = economic_comparison(cross[3][0], cross[4][0])
        print(f"case 4 vs case 3: {comparison.narrative}", file=out)
    return out.getvalue()
