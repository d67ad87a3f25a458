"""A traced benchmark pass must report every per-layer metric that
BENCHMARK.json names, as finite numbers that strict JSON can carry. A
traced entry point that is renamed or removed drops its metrics silently,
and a NaN makes the benchmark's last line invalid JSON."""

import contextlib
import importlib.util
import io
import json
import math
from pathlib import Path
from time import perf_counter

from gridcap import cli
from gridcap.fixtures import fixture_path

ROOT = Path(__file__).resolve().parents[1]


def bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_mg9_study_reports_every_per_layer_metric(tmp_path):
    tracing, run = bench_module("tracing"), bench_module("run")
    out = tmp_path / "study"
    argv = ["study", "--network", str(fixture_path("microgrid9.grid")),
            "--demand", str(fixture_path("microgrid9_demand.csv")), "--out", str(out)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    assert rc == 0
    layer = tracer.pass_metrics(wall, sum(f.stat().st_size for f in out.iterdir()))
    metrics = run.layer_metrics([layer], [wall], [wall], tracer.solve_ms)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert sorted({m["name"] for m in declared} - metrics.keys()) == []
    assert [k for k, v in metrics.items() if not math.isfinite(v)] == []
    json.dumps({"correct": True, "metrics": metrics}, allow_nan=False)
