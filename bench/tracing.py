"""Per-layer spans and counts, recorded from outside the package.

`Tracer.install()` replaces each layer's entry points with timed wrappers
by attribute patching; `uninstall()` puts the originals back. Nothing in
the package changes. Spans nest on a stack, so each layer's self time is
its spans' duration minus the time its child spans cover, and the self
times of all layers add up to the traced wall time without double counts:

    cli.main > study.run > acopf.solve > ipm.solve_nlp
        > {ipm.kkt, ipm.restore, nlp.*} and nlp.* > powerflow.*

A layer whose entry point no longer exists is left out of `layers` and
its metrics are reported missing, not zero.
"""

from __future__ import annotations

import copy
import sys
from collections import defaultdict
from time import perf_counter

from gridcap import acopf, cli, ipm, netfile, powerflow, reporting, sensitivity, study

NLP_FIELDS = {
    "objective": "nlp.objective",
    "gradient": "nlp.gradient",
    "constraints": "nlp.constraints",
    "jacobian": "nlp.jacobian",
    "hess_lag": "nlp.hess",
}
POWERFLOW_METHODS = {
    "jacobian": "powerflow.jacobian",
    "injections": "powerflow.injections",
    "hessian_weighted": "powerflow.hessian",
    "losses": "powerflow.losses",
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.counts = defaultdict(int)
        self.solve_ms = []  # acopf.solve latency per call, kept across passes
        self.layers = set()
        self._stack = []
        self._undo = []

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.errors.clear()
        self.counts.clear()

    # -- wrapping --------------------------------------------------------------

    def span(self, name, fn, on_result=None):
        """fn wrapped in a span named `name`; on_result(result, seconds) after each call."""
        stack = self._stack
        calls, self_s, errors = self.calls, self.self_s, self.errors

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[name] += 1
                self_s[name] += dt - frame[0]
            if on_result is not None:
                on_result(result, dt)
            return result

        return traced

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrap(self, owner, attr, name, on_result=None):
        """Wrap owner.attr, a method or module-level function, if it exists."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        self._patch(owner, attr, self.span(name, fn, on_result))
        self.layers.add(name)

    def wrap_everywhere(self, module, attr, name, on_result=None):
        """Wrap module.attr and every other package binding of the same object
        (`from .acopf import solve` copies the name into other modules)."""
        fn = getattr(module, attr, None)
        if fn is None:
            return
        traced = self.span(name, fn, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "gridcap" or mod_name.startswith("gridcap."):
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, key, traced)
        self.layers.add(name)

    # -- the package's layers ---------------------------------------------------

    def install(self):
        count = self.counts

        def on_solve(sol, dt):
            count["iters_reported"] += sol.iterations
            self.solve_ms.append(1e3 * dt)

        def on_nlp(res, dt):
            count["iters_spent"] += res.iterations

        def on_fd(res, dt):
            count["fd_declined"] += not res.available

        self.wrap(cli, "main", "cli.main")
        for attr in ("run_four_case_study", "run_case"):
            self.wrap_everywhere(study, attr, "study.run")
        for mod, attr in (
            (sensitivity, "aggregate_hours"),
            (study, "placement_ranking"),
            (sensitivity, "cross_case_rank_table"),
        ):
            self.wrap_everywhere(mod, attr, "study.aggregate")
        for attr in ("parse_network", "parse_demand"):
            self.wrap_everywhere(netfile, attr, "netfile.parse")
        self.wrap_everywhere(reporting, "write_study", "reporting.write_study")
        self.wrap_everywhere(acopf, "solve", "acopf.solve", on_solve)
        self.wrap(acopf.OpfProblem, "__post_init__", "acopf.build")
        self.wrap_everywhere(acopf, "kkt_report", "acopf.kkt_report")
        self.wrap_everywhere(sensitivity, "extract", "sensitivity.extract")
        self.wrap_everywhere(sensitivity, "fd_oracle", "sensitivity.fd_oracle", on_fd)
        self.wrap(ipm, "_solve_kkt", "ipm.kkt")
        self.wrap(ipm, "_restore", "ipm.restore")
        for attr, name in POWERFLOW_METHODS.items():
            self.wrap(powerflow.InjectionModel, attr, name)

        inner = getattr(acopf, "solve_nlp", None)
        if inner is None:
            return
        solve_nlp = self.span("ipm.solve_nlp", inner, on_nlp)
        declared = getattr(ipm.NlpProblem, "__dataclass_fields__", {})
        fields = {a: n for a, n in NLP_FIELDS.items() if a in declared}

        def solve_nlp_with_timed_callbacks(prob, *args, **kwargs):
            prob = copy.copy(prob)
            for attr, name in fields.items():
                setattr(prob, attr, self.span(name, getattr(prob, attr)))
            return solve_nlp(prob, *args, **kwargs)

        self._patch(acopf, "solve_nlp", solve_nlp_with_timed_callbacks)
        self.layers.update({"ipm.solve_nlp", *fields.values()})

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- metrics -----------------------------------------------------------------

    def pass_metrics(self, wall_s: float, bytes_written: int) -> dict:
        """Per-layer metrics of the pass just traced; keys missing for absent layers."""
        has = self.layers.__contains__
        calls, own, count = self.calls, self.self_s, self.counts
        m = {"trace.wall_s": wall_s, "reporting.bytes": bytes_written}
        iters = count["iters_spent"]
        per_iter = (lambda x: x / iters if iters else 0.0)

        if has("cli.main"):
            m["cli.self_s"] = own["cli.main"]
        if has("study.run"):
            m["study.self_s"] = own["study.run"]
        if has("study.aggregate"):
            m["study.aggregate_s"] = own["study.aggregate"]
        if has("netfile.parse"):
            m["netfile.parse_s"] = own["netfile.parse"]
        if has("reporting.write_study"):
            m["reporting.write_study_s"] = own["reporting.write_study"]
        if has("acopf.solve"):
            m["acopf.solve_calls"] = calls["acopf.solve"]
            m["acopf.solve_s"] = own["acopf.solve"]
        if has("acopf.build"):
            m["acopf.build_s"] = own["acopf.build"]
        if has("acopf.kkt_report"):
            m["acopf.kkt_report_s"] = own["acopf.kkt_report"]
        if has("sensitivity.extract"):
            m["sensitivity.extract_s"] = own["sensitivity.extract"]
        if has("sensitivity.fd_oracle"):
            m["sensitivity.fd_oracle_s"] = own["sensitivity.fd_oracle"]
            m["sensitivity.fd_declined"] = count["fd_declined"]

        nlp_calls = calls["ipm.solve_nlp"]
        if has("ipm.solve_nlp"):
            m["ipm.solve_nlp_calls"] = nlp_calls
            m["ipm.self_s"] = own["ipm.solve_nlp"]
            m["ipm.iters_spent"] = iters
        if has("acopf.solve") and has("ipm.solve_nlp"):
            m["ipm.iters_reported"] = count["iters_reported"]
            m["ipm.iters_useful_frac"] = per_iter(count["iters_reported"])
            m["ipm.retries"] = nlp_calls - calls["acopf.solve"]
        if has("ipm.kkt"):
            m["ipm.kkt_s"] = own["ipm.kkt"]
            m["ipm.kkt_calls"] = calls["ipm.kkt"]
            m["ipm.kkt_rejected"] = self.errors["ipm.kkt"]
            m["ipm.kkt_per_iter"] = per_iter(calls["ipm.kkt"])
        if has("ipm.restore"):
            m["ipm.restore_s"] = own["ipm.restore"]
            m["ipm.restore_calls"] = calls["ipm.restore"]

        for name in NLP_FIELDS.values():
            if has(name):
                m[f"{name}_s"] = own[name]
        m["nlp.evals_per_iter"] = per_iter(sum(calls[n] for n in NLP_FIELDS.values()))

        pf_names = [n for n in POWERFLOW_METHODS.values() if has(n)]
        for name in pf_names:
            m[f"{name}_calls"] = calls[name]
        m["powerflow.s"] = sum(own[n] for n in pf_names)
        if has("powerflow.jacobian"):
            m["powerflow.jac_per_iter"] = per_iter(calls["powerflow.jacobian"])

        m["trace.attributed_s"] = sum(own.values())
        return m

