"""End-to-end and per-layer benchmark of the gridcap planning study.

    python3 bench/run.py --workload mg9-study --seed 0 --seconds 50 --trace 0

Workloads: mg9-study, scaled-study, sens-audit, or `all` to run each in
turn in its own process. With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it alternates plain and traced passes and reports
the per-layer metrics. Every pass is checked; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. Run it from a checkout: the package is imported from ./src.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

WORKLOAD_NAMES = ("mg9-study", "scaled-study", "sens-audit")
BLAS_THREADS = "1"  # one core's work; OpenBLAS thread spin-up on a shared box is noise
MIN_PASSES = 3  # per kind (plain, traced), whatever --seconds says
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0, help="timed pass seconds to run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    worst = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def environment(args) -> dict:
    import numpy
    import scipy

    def openblas(mod):
        try:
            return mod.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError):
            return "unknown"

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": openblas(numpy), "scipy": openblas(scipy)},
        "blas_threads": {"numpy": blas_threads(numpy), "scipy": blas_threads(scipy)},
    }


def blas_threads(mod):
    """Thread count of the OpenBLAS bundled with a wheel, asked through ctypes."""
    import ctypes

    libdir = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def setup_seconds(name: str, seed: int) -> list:
    """Set-up time of SETUP_PROBES fresh interpreters, one after another."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(probe, env=env, capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def measure(workload, seconds: float, tracer):
    """Passes until `seconds` of timed passes and MIN_PASSES of each kind.

    Pass 0 warms caches and its output directory is the one later passes
    must reproduce byte for byte; its time is not used. With a tracer,
    plain and traced passes alternate.
    """
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    plain, traced, layers = [], [], []
    attempted = failed = 0
    reasons = []
    try:
        i = 0
        while True:
            kinds_done = len(plain) >= MIN_PASSES and (tracer is None or len(traced) >= MIN_PASSES)
            if i > 0 and kinds_done and sum(plain) + sum(traced) >= seconds:
                break
            use_tracer = tracer is not None and i > 0 and i % 2 == 0
            outdir = work / f"pass{i}"
            if use_tracer:
                tracer.reset()
                tracer.install()
            t0 = perf_counter()
            try:
                run = workload.run_pass(outdir)
            finally:
                dt = perf_counter() - t0
                if use_tracer:
                    tracer.uninstall()
            verdicts = workload.check(run)
            attempted += len(verdicts)
            bad = [v for v in verdicts if v is not None]
            failed += len(bad)
            reasons += bad[: 3 - len(reasons)]
            if use_tracer:
                traced.append(dt)
                layers.append(tracer.pass_metrics(dt, workload.bytes_written(run)))
            elif i > 0:
                plain.append(dt)
            if i > 0 and outdir.exists():
                shutil.rmtree(outdir)
            del run
            i += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    return plain, traced, layers, attempted, failed, reasons


def layer_metrics(layers, plain, traced, solve_ms) -> dict:
    """Median over traced passes; counts must repeat exactly and are reported as such."""
    out = {}
    for key in layers[0]:
        values = [m[key] for m in layers]
        if len(set(values)) == 1:
            out[key] = values[0]
            continue
        if all(isinstance(v, int) for v in values):
            print(f"note: count {key} differs between traced passes: {values}", file=sys.stderr)
        out[key] = statistics.median(values)
    if solve_ms:
        out["acopf.solve_ms_p50"] = statistics.median(solve_ms)
        q = statistics.quantiles(solve_ms, n=10) if len(solve_ms) > 1 else solve_ms * 9
        out["acopf.solve_ms_p90"] = q[8]
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gridcap" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'gridcap'}; run from a gridcap checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import gridcap

    if Path(gridcap.__file__).resolve().parent != SRC / "gridcap":
        print(f"error: imported gridcap from {gridcap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    env = environment(args)
    print("env " + json.dumps(env), flush=True)
    setup = setup_seconds(args.workload, args.seed) if not args.trace else []
    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    plain, traced, layers, attempted, failed, reasons = measure(workload, args.seconds, tracer)

    for reason in reasons:
        print(f"check failed: {reason}", file=sys.stderr)
    wall = statistics.median(plain)
    lo, hi = quartiles(plain)
    print(f"{workload.name}: {len(plain)} plain passes of {workload.solves_per_pass} solves, "
          f"wall p25/p50/p75 {lo:.4f}/{wall:.4f}/{hi:.4f} s")
    print(f"  fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted} operations failed)")
    if getattr(workload, "tally", None):
        print(f"fd pairs in the last pass: {workload.tally}")
    if args.trace:
        metrics = layer_metrics(layers, plain, traced, tracer.solve_ms)
        units = {}
        for key, value in sorted(metrics.items()):
            units[key] = unit_of(key)
            print(f"  {key:28s} {value:14.6g} {units[key]}")
    else:
        metrics = {
            "wall_s": wall,
            "solves_per_s": workload.solves_per_pass / wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"wall_s": "s", "solves_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
        for key, value in metrics.items():
            print(f"  {key:14s} {value:12.6g} {units[key]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def unit_of(key: str) -> str:
    if key.endswith("_ms_p50") or key.endswith("_ms_p90"):
        return "ms"
    if key.endswith("_s") or key == "powerflow.s":
        return "s"
    if key == "reporting.bytes":
        return "bytes"
    if key.endswith("_frac") or key.endswith("_per_iter"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
