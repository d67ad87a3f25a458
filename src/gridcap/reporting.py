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
import os

import numpy as np

from .acopf import OpfStatus
from .model import GridcapError
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


def _hour_totals(sol):
    """(load, served, shed, loss) of one hour's solution, MW."""
    load, shed = float(sol.p_load_mw.sum()), sol.shed_mw
    served = load - shed
    return load, served, shed, float(sol.p_g.sum() + sol.p_inj_mw.sum()) - served


def write_case_files(outdir, case_number: int, case, weights, prefix: str = "case"):
    """Emit hourly, per-bus and sensitivity CSVs for one case."""
    tag = f"{prefix}{case_number}" if case_number else prefix
    hourly_rows = []
    bus_rows = []
    sens_rows = []
    for outcome in case.hours:
        t = outcome.hour
        if not outcome.valid:
            hourly_rows.append([t, "invalid"] + [""] * (len(HOURLY_HEADER) - 2))
            continue
        sol = outcome.solution
        status = sol.status.value
        optimal = sol.status is OpfStatus.OPTIMAL
        load, served, shed_mw, loss = _hour_totals(sol)
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
        for i, b in enumerate(sol.bus_ids):
            bus_rows.append([
                t, b, status,
                _fmt(sol.v[i]), _fmt(sol.theta[i]),
                _fmt(sol.p_load_mw[i]), _fmt(sol.q_load_mvar[i]),
                _fmt(sol.p_inj_mw[i]),
                _fmt(sol.shed[i]), _fmt(sol.shed[i] * sol.p_load_mw[i]),
                _fmt(sol.lambda_p[i]), _fmt(sol.lambda_q[i]),
            ])
    for t, records in zip((o.hour for o in case.hours), case.hour_sensitivities):
        if records is None:
            continue
        ranked = composite_score(records, weights)
        status_by_bus = {r.bus_id: r.status.value for r in records}
        signed = {r.bus_id: (r.os_q, r.os_v) for r in records}
        for rec in ranked:
            os_q, os_v = signed[rec.bus_id]
            sens_rows.append([
                t, rec.bus_id, _fmt(os_q), _fmt(os_v), _fmt(rec.s_score),
                rec.rank, status_by_bus[rec.bus_id],
            ])
    _write_csv(os.path.join(outdir, f"{tag}_hourly.csv"), HOURLY_HEADER, hourly_rows)
    _write_csv(os.path.join(outdir, f"{tag}_bus.csv"), BUS_HEADER, bus_rows)
    _write_csv(
        os.path.join(outdir, f"{tag}_sensitivity.csv"), SENSITIVITY_HEADER, sens_rows
    )


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


def write_dispatch_long(outdir, study: StudyResult):
    """Plot-ready long-format dispatch profiles for every case."""
    rows = []
    for cid, case in study.cases.items():
        num = CASE_NUMBERS[cid]
        for outcome in case.hours:
            if not outcome.valid or not outcome.optimal:
                continue
            sol = outcome.solution
            _, _, shed_mw, loss = _hour_totals(sol)
            values = {
                "p_gen_mw": float(sol.p_g.sum()),
                "q_gen_mvar": float(sol.q_g.sum()),
                "loss_mw": loss,
                "cost_usd": sol.generation_cost * case.dt,
                "shed_mw": shed_mw,
            }
            for series in _DISPATCH_SERIES:
                rows.append([num, outcome.hour, series, _fmt(values[series])])
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
    for cid, case in study.cases.items():
        write_case_files(outdir, CASE_NUMBERS[cid], case, weights)
    write_cross_case(outdir, study, top_m)
    write_dispatch_long(outdir, study)
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
    if not os.path.exists(path):
        raise ReportError(f"missing file: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader)


def read_cross_case(outdir) -> dict:
    """case number -> CaseSummary plus the raw row dict."""
    rows = read_rows(os.path.join(outdir, "cross_case.csv"))
    out = {}
    for row in rows:
        num = int(row["case"])
        out[num] = (
            CaseSummary(
                total_cost=float(row["total_cost"]),
                load_served=float(row["load_served"]),
            ),
            row,
        )
    return out


def read_meta(outdir) -> dict:
    path = os.path.join(outdir, "meta.csv")
    if not os.path.exists(path):
        return {}
    return {row["key"]: row["value"] for row in read_rows(path)}


def read_shed_by_bus(outdir, case_number: int = 3) -> dict:
    """Per-bus MW shed summed over optimal hours, from the bus CSV."""
    rows = read_rows(os.path.join(outdir, f"case{case_number}_bus.csv"))
    out = {}
    for row in rows:
        if row["status"] != "optimal":
            continue
        b = int(row["bus_id"])
        out[b] = out.get(b, 0.0) + float(row["shed_mw"])
    return out


def read_mean_scores(outdir, case_number: int = 3) -> dict:
    """Per-bus mean s_score over optimal hours from the sensitivity CSV."""
    rows = read_rows(os.path.join(outdir, f"case{case_number}_sensitivity.csv"))
    acc = {}
    for row in rows:
        if row["status"] != "optimal":
            continue
        acc.setdefault(int(row["bus_id"]), []).append(float(row["s_score"]))
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
