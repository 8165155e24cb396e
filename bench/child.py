"""One benchmark child: run the courtlearn CLI exactly as ``python -m courtlearn.cli``.

Usage: python child.py REPORT_JSON TRACE(0|1) -- CLI_ARGS...

Before handing control to the CLI module, this file replaces, from outside the
package, the module attributes that the CLI and the simulator look up at call
time.  With TRACE=0 only ``load_config`` and ``run_experiment`` are timed (one
call each per process).  With TRACE=1 every hook listed in ``HOOKS`` is
wrapped: per-step hooks keep in-memory aggregates (calls and self time), and
full spans (name, start, end, parent) are recorded only at the cell,
replication, environment-draw, baseline and emission boundaries.  A hooked
name that no longer exists is reported as absent instead of failing.

The report written to REPORT_JSON holds ``config_loaded_at`` (a
``time.monotonic`` reading, comparable with the parent's clock), ``wall_s``
(duration of ``run_experiment``), and, when traced, the aggregates and spans.
"""

from __future__ import annotations

import importlib
import json
import os
import runpy
import sys
import time

# (module, attribute, reported name, records full spans).  The module is where
# the caller looks the name up, so the wrapper is seen on the next call.
HOOKS = (
    ("courtlearn.config", "load_config", "config.load_config", True),
    ("courtlearn.experiment", "run_experiment", "experiment.run_experiment", True),
    ("courtlearn.experiment", "estimate_regret", "sim.estimate_regret", True),
    ("courtlearn.sim", "_simulate", "sim._simulate", True),
    ("courtlearn.sim", "draw_environment", "sim.draw_environment", True),
    ("courtlearn.sim", "offline_baseline", "sim.offline_baseline", True),
    ("courtlearn.experiment", "_ledger_line", "experiment._ledger_line", True),
    ("courtlearn.experiment", "_write_text", "experiment._write_text", True),
    ("courtlearn.sim", "make_policy", "policies.make_policy", False),
    ("courtlearn.sim", "agent_decision", "policies.agent_decision", False),
    ("courtlearn.sim", "fit", "learners.fit", False),
    ("courtlearn.sim", "predict", "learners.predict", False),
    ("courtlearn.sim", "CaseFeatures", "core.CaseFeatures", False),
    ("courtlearn.sim", "StepRecord", "core.StepRecord", False),
    ("courtlearn.core.Dataset", "append", "core.Dataset.append", False),
)
# Methods wrapped on each policy instance that make_policy returns.
POLICY_HOOKS = (("select", "policies.select"), ("record_court", "policies.record_court"))

HOOK_NAMES = tuple(h[2] for h in HOOKS) + tuple(h[1] for h in POLICY_HOOKS)


def _resolve(dotted: str):
    """Import ``a.b`` as a module, or ``a.b.C`` as attribute C of module a.b."""
    try:
        return importlib.import_module(dotted)
    except ImportError:
        module, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(module), attr, None)


class Tracer:
    """Self-time aggregates per hook, plus spans at coarse boundaries."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {name: [0, 0.0] for name in HOOK_NAMES}
        self.absent: set[str] = set()
        self.counters = {"compel": 0, "subsidy_offers": 0, "subsidy_taken": 0}
        self.spans: list[tuple] = []
        # Child time accumulated by the innermost open call; index 0 is the root.
        self._child_time = [0.0]
        self._open_spans: list[int] = [-1]

    def wrap(self, name: str, fn, span: bool):
        stat = self.stats[name]
        child_time = self._child_time
        open_spans = self._open_spans
        spans = self.spans
        clock = time.perf_counter

        if span:

            def traced(*args, **kwargs):
                span_id = len(spans)
                spans.append(None)
                open_spans.append(span_id)
                start = clock()
                child_time.append(0.0)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    elapsed = end - start
                    stat[0] += 1
                    stat[1] += elapsed - child_time.pop()
                    child_time[-1] += elapsed
                    open_spans.pop()
                    spans[span_id] = (span_id, name, start, end, open_spans[-1])

        else:

            def traced(*args, **kwargs):
                start = clock()
                child_time.append(0.0)
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stat[0] += 1
                    stat[1] += elapsed - child_time.pop()
                    child_time[-1] += elapsed

        return traced

    def install(self) -> None:
        for module_name, attr, name, span in HOOKS:
            owner = _resolve(module_name)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.add(name)
                continue
            if name == "policies.make_policy":
                wrapped = self._wrap_make_policy(fn)
            elif name == "policies.agent_decision":
                wrapped = self._count_subsidies(self.wrap(name, fn, span))
            else:
                wrapped = self.wrap(name, fn, span)
            setattr(owner, attr, wrapped)
        if "policies.make_policy" in self.absent:
            self.absent.update(name for _, name in POLICY_HOOKS)

    def _wrap_make_policy(self, make_policy):
        wrapped_make = self.wrap("policies.make_policy", make_policy, False)
        counters = self.counters

        def make(*args, **kwargs):
            policy = wrapped_make(*args, **kwargs)
            for method, name in POLICY_HOOKS:
                fn = getattr(policy, method, None)
                if fn is None:
                    self.absent.add(name)
                    continue
                traced = self.wrap(name, fn, False)
                if method == "select":
                    traced = _count_compels(traced, counters)
                try:
                    setattr(policy, method, traced)
                except AttributeError:
                    self.absent.add(name)
            return policy

        return make

    def _count_subsidies(self, traced):
        counters = self.counters

        def decide(*args, **kwargs):
            litigates = traced(*args, **kwargs)
            subsidy = args[1] if len(args) > 1 else kwargs.get("subsidy", 0.0)
            if subsidy > 0.0:
                counters["subsidy_offers"] += 1
                if litigates:
                    counters["subsidy_taken"] += 1
            return litigates

        return decide

    def report(self) -> dict:
        return {
            "stats": {name: {"calls": c, "self_s": s} for name, (c, s) in self.stats.items()},
            "absent": sorted(self.absent),
            "counters": self.counters,
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": None if p < 0 else p}
                for i, n, s, e, p in self.spans
            ],
        }


def _count_compels(traced, counters):
    def select(*args, **kwargs):
        action = traced(*args, **kwargs)
        if getattr(getattr(action, "kind", None), "value", None) == "compel":
            counters["compel"] += 1
        return action

    return select


def main(argv: list[str]) -> int:
    report_path, trace, sep, *cli_args = argv
    if sep != "--" or trace not in ("0", "1"):
        print("usage: child.py REPORT_JSON TRACE(0|1) -- CLI_ARGS...", file=sys.stderr)
        return 2
    import courtlearn
    import courtlearn.config
    import courtlearn.experiment

    expected = os.environ.get("COURTLEARN_BENCH_SRC")
    if expected and not os.path.abspath(courtlearn.__file__).startswith(expected + os.sep):
        print(f"courtlearn imported from {courtlearn.__file__}, not {expected}", file=sys.stderr)
        return 2

    report: dict = {"config_loaded_at": None, "wall_s": None}
    tracer = None
    if trace == "1":
        tracer = Tracer()
        tracer.install()

    load_config = courtlearn.config.load_config
    run_experiment = courtlearn.experiment.run_experiment

    def timed_load_config(*args, **kwargs):
        spec = load_config(*args, **kwargs)
        if report["config_loaded_at"] is None:
            report["config_loaded_at"] = time.monotonic()
        return spec

    def timed_run_experiment(*args, **kwargs):
        start = time.perf_counter()
        outputs = run_experiment(*args, **kwargs)
        report["wall_s"] = time.perf_counter() - start
        return outputs

    courtlearn.config.load_config = timed_load_config
    courtlearn.experiment.run_experiment = timed_run_experiment

    sys.argv = ["courtlearn", *cli_args]
    try:
        runpy.run_module("courtlearn.cli", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    if tracer is not None:
        report["trace"] = tracer.report()
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
