"""Command-line interface.

Subcommands: validate (parse + invariant check), solve (one case over the
horizon), study (the full four-case comparison), plan (capacitor cost vs
VoLL), report (summarize an emitted study directory). Exit codes: 0 on
success, 1 on input errors, 2 when a solve left some valid hour
non-optimal (results are still written).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from . import __version__
from .acopf import SolverOptions
from .config import ConfigError, load_config, solver_options_from
from .model import GridcapError, PfSign, ValidationError
from .netfile import load_demand, load_network
from .planning import PlanningInput, economic_comparison, plan as solve_plan, shed_voll_cost
from .reporting import (
    ReportError,
    build_summary,
    read_cross_case,
    read_mean_scores,
    read_meta,
    read_shed_by_bus,
    write_case_files,
    write_meta,
    write_plan_csv,
    write_study,
)
from .sensitivity import RANK_MODES, ScoreWeights
from .study import CaseId, Scenario, run_case, run_four_case_study, uniform_stress


_SOLVER_FLAGS = tuple(f.name for f in fields(SolverOptions))


def _version_string() -> str:
    defaults = SolverOptions()
    tols = ", ".join(f"{name}={getattr(defaults, name)}" for name in _SOLVER_FLAGS)
    return f"gridcap {__version__} (defaults: {tols})"


def _add_solver_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="solver config file (key = value lines)")
    for f in fields(SolverOptions):  # one flag per field, typed like its default
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), dest=f.name)


def _solver_options(args) -> SolverOptions:
    config = load_config(args.config) if args.config else {}
    overrides = {name: getattr(args, name, None) for name in _SOLVER_FLAGS}
    return solver_options_from(config, overrides)


def _parse_weights(text: str) -> ScoreWeights:
    try:
        wq, wv = (float(v) for v in text.split(","))
    except ValueError:
        raise ValidationError(f"--weights expects 'wq,wv', got {text!r}")
    return ScoreWeights(wq, wv)


def _load_inputs(args):
    net = load_network(args.network)
    demand = load_demand(args.demand, net=net, dt=args.dt)
    return net, demand


def cmd_validate(args) -> int:
    net = load_network(args.network)
    print(
        f"{args.network}: {net.n_bus} buses, {len(net.branches)} branches, "
        f"{len(net.generators)} generators, {len(net.pv_units)} pv units, "
        f"{len(net.shunts)} shunts; island of {len(net.island_bus_ids())} buses"
    )
    if args.demand:
        demand = load_demand(args.demand, net=net, dt=args.dt)
        print(
            f"{args.demand}: horizon {demand.horizon}, "
            f"{len(demand.valid_hours)} valid hours"
        )
    print("ok")
    return 0


def cmd_solve(args) -> int:
    net, demand = _load_inputs(args)
    options = _solver_options(args)
    weights = _parse_weights(args.weights)
    case_id = CaseId(args.case)
    overrides = None
    if args.stress_pf is not None:
        overrides = uniform_stress(net, args.stress_pf, PfSign(args.stress_sign))
    scenario = Scenario(
        case_id=case_id, pf_overrides=overrides, options=options, weights=weights
    )
    result = run_case(scenario, net, demand)
    os.makedirs(args.out, exist_ok=True)
    write_case_files(args.out, None, result, weights, prefix="solve")
    write_meta(
        args.out,
        {
            "case": args.case,
            "dt": demand.dt,
            "non_optimal_hours": result.non_optimal_hours,
            "invalid_hours": result.invalid_hours,
        },
    )
    print(
        f"{args.case}: cost ${result.total_cost:.2f}, served {result.load_served:.2f} MW, "
        f"shed {result.load_shed:.2f} MW, non-optimal hours {result.non_optimal_hours}, "
        f"invalid hours {result.invalid_hours}"
    )
    return 2 if result.non_optimal_hours else 0


def cmd_study(args) -> int:
    net, demand = _load_inputs(args)
    options = _solver_options(args)
    weights = _parse_weights(args.weights)
    study = run_four_case_study(
        net,
        demand,
        stress_pf=args.stress_pf,
        stress_sign=PfSign(args.stress_sign),
        weights=weights,
        top_m=args.top_m,
        cap_mvar=args.cap_mvar,
        options=options,
        rank_mode=args.rank_mode,
        case4_stressed=args.case4_stressed,
    )
    write_study(
        args.out,
        study,
        weights,
        args.top_m,
        extra_meta={"stress_pf": args.stress_pf, "stress_sign": args.stress_sign},
    )
    for warning in study.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"study written to {args.out}")
    print(f"capacitor placement: buses {' '.join(str(b) for b in study.placement)}")
    return 0


def _parse_cap_costs(text: str, default_buses=()) -> dict:
    """Parse 'bus=usd,...' pairs; a bare number applies that cost to every
    default candidate bus (the study's capacitor placement)."""
    text = text.strip()
    if "=" not in text:
        try:
            flat = float(text)
        except ValueError:
            raise ValidationError(
                f"--cap-cost expects 'bus=usd,...' or a flat usd figure, got {text!r}"
            )
        if not default_buses:
            raise ValidationError(
                "flat --cap-cost given but the study recorded no placement"
            )
        return {b: flat for b in default_buses}
    out = {}
    for item in text.split(","):
        if not item.strip():
            continue
        try:
            bus, _, usd = item.partition("=")
            bus, usd = int(bus.strip()), float(usd.strip())
        except ValueError:
            raise ValidationError(
                f"--cap-cost expects 'bus=usd,bus=usd,...', got {item!r}"
            )
        if bus in out:
            raise ValidationError(f"--cap-cost gives bus {bus} more than once")
        out[bus] = usd
    return out


def cmd_plan(args) -> int:
    meta = read_meta(args.case3)
    meta_placement = tuple(int(b) for b in meta.get("placement", "").split() if b)
    cap_cost = _parse_cap_costs(args.cap_cost, default_buses=meta_placement)
    shed = read_shed_by_bus(args.case3, case_number=3)
    if not shed:
        raise ReportError(f"no case-3 shed data found under {args.case3}")
    meta_csv = os.path.join(args.case3, "meta.csv")
    try:
        dt = float(meta.get("dt", 1.0))
    except ValueError:
        raise ValidationError(f"dt in {meta_csv} is not a number: {meta['dt']!r}")
    c_voll = shed_voll_cost(shed, args.voll, dt, dt_name=f"dt in {meta_csv}")
    missing = [b for b in cap_cost if b not in c_voll]
    if missing:
        raise ValidationError(f"candidate buses not present in the study: {missing}")
    decision = solve_plan(PlanningInput(cap_cost=cap_cost, c_voll=c_voll, voll_rate=args.voll))
    scores = read_mean_scores(args.case3, case_number=3)
    cross_csv = os.path.join(args.case3, "cross_case.csv")
    cross = read_cross_case(args.case3) if os.path.exists(cross_csv) else {}
    write_plan_csv(args.out, decision, scores)
    installed = decision.installed_buses
    print(
        f"install at buses {' '.join(str(b) for b in installed) if installed else '(none)'}; "
        f"objective ${decision.objective:.2f} over candidates, "
        f"${decision.uncovered_voll:.2f} VoLL uncovered elsewhere"
    )
    if 3 in cross and 4 in cross:
        print("case 4 vs case 3:", economic_comparison(cross[3][0], cross[4][0]).narrative)
    print(f"plan written to {args.out}")
    return 0


def cmd_report(args) -> int:
    summary = build_summary(args.study)
    out_path = args.out or os.path.join(args.study, "summary.txt")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(summary)
    sys.stdout.write(summary)
    print(f"summary written to {out_path}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridcap",
        description="AC-OPF studies, sensitivity-ranked capacitor placement and VoLL planning for islanded microgrids",
    )
    parser.add_argument("--version", action="version", version=_version_string())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse inputs and check invariants")
    p.add_argument("--network", required=True)
    p.add_argument("--demand")
    p.add_argument("--dt", type=float, default=1.0)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="solve one case over the demand horizon")
    p.add_argument("--network", required=True)
    p.add_argument("--demand", required=True)
    p.add_argument("--case", choices=("economic", "old"), default="economic")
    p.add_argument("--stress-pf", type=float, dest="stress_pf")
    p.add_argument("--stress-sign", choices=("leading", "lagging"), default="lagging")
    p.add_argument("--weights", default="0.5,0.5")
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--out", required=True)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("study", help="run the four-case comparative study")
    p.add_argument("--network", required=True)
    p.add_argument("--demand", required=True)
    p.add_argument("--stress-pf", type=float, default=0.85, dest="stress_pf")
    p.add_argument("--stress-sign", choices=("leading", "lagging"), default="lagging")
    p.add_argument("--weights", default="0.5,0.5")
    p.add_argument("--top-m", type=int, default=3, dest="top_m")
    p.add_argument("--cap-mvar", type=float, default=0.5, dest="cap_mvar")
    p.add_argument("--rank-mode", choices=RANK_MODES, default="mean")
    p.add_argument("--case4-stressed", action="store_true", dest="case4_stressed")
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--out", required=True)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("plan", help="capacitor-vs-VoLL planning from a case-3 directory")
    p.add_argument("--case3", required=True, help="study output directory")
    p.add_argument("--cap-cost", required=True, help="bus=usd,bus=usd,...")
    p.add_argument("--voll", type=float, required=True, help="$ per MWh of lost load")
    p.add_argument("--out", default="plan.csv")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("report", help="summarize an emitted study directory")
    p.add_argument("--study", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 1
    except (GridcapError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
