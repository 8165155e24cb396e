"""courtlearn benchmark harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --pin-reference

Run from the root of a source checkout.  Each workload runs the courtlearn
CLI (``python -m courtlearn.cli run ...``, through ``child.py``) on a config
from ``bench/configs`` as a fresh child process, one at a time: a closed loop
with one client, a researcher waiting on a sweep.  BLAS threads in the child
are pinned to 1.  The first child of every run is a warm-up at the pinned
seed; its outputs are compared with ``bench/reference`` and its timings are
left out of the statistics.  Measured children then run at ``--seed`` until
``--seconds`` have been spent (at least ``MIN_MEASURED`` of each kind).

The harness and its children share one CPU.  A fixed probe of interpreter
work (``machine_probe``) runs before every measured child and once after the
last; each child's times are divided by the machine's slowness (probe time
over its reference time) before the median is taken, which removes most of
the drift that other tenants of a shared host cause.  Raw medians and
quartiles are printed next to every scaled value.

``--trace 0`` prints the end-to-end metrics (median over measured children);
``--trace 1`` alternates untraced and traced children and prints only the
per-layer metrics, including the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` count
(policy, horizon) cells, and ``metrics`` maps each metric name to its value
and unit.  A full record of the run, with run metadata, every sample and the
spans of the last traced child, is written to ``bench/_work``.

``--pin-reference`` rewrites ``bench/reference/<workload>`` from one child at
the pinned seed.  Do that only in a change that alters simulated results on
purpose, and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from child import HOOK_NAMES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
SPEC = json.loads((BENCH / "workloads.json").read_text())

MIN_MEASURED = 3
# A fixed piece of interpreter work and its time at this 2-core host's fast speed.
PROBE_ITERATIONS = 3_000_000
PROBE_REFERENCE_S = 0.35
CHILD_TIMEOUT_S = 60.0
REGRET_HEADER = (
    "policy,T,mean_regret,std_error,mean_court_count,mean_total_subsidy,mean_offline_loss"
)
SLOPES_HEADER = "policy,slope"
LEDGER_KEYS = {
    "policy", "T", "replication", "seed", "config_digest", "total_loss",
    "court_count", "total_subsidy_paid", "steps",
}
LAYERS = ("sim", "policies", "learners", "core", "experiment", "config")


@dataclass
class Workload:
    name: str
    config: Path
    cli: list[str]
    compare: str | dict
    policies: list[str]
    horizons: list[int]
    replications: int

    @classmethod
    def load(cls, name: str) -> "Workload":
        entry = SPEC["workloads"][name]
        config = BENCH / entry["config"]
        data = json.loads(config.read_text())
        policies = [p if isinstance(p, str) else p["name"] for p in data["policies"]]
        return cls(name, config, entry["cli"], entry["compare"], policies,
                   list(data["sweep"]), int(data["replications"]))

    @property
    def cells(self) -> list[tuple[str, int]]:
        return [(p, t) for p in self.policies for t in self.horizons]

    @property
    def steps(self) -> int:
        """Simulated cases per sweep: sum over cells of replications x T."""
        return len(self.policies) * self.replications * sum(self.horizons)

    @property
    def ledgers(self) -> bool:
        return "--ledgers" in self.cli


@dataclass
class Child:
    seed: int
    traced: bool
    exit_code: int
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    wall_s: float | None
    trace: dict | None
    ledger_bytes: int
    slowness: float | None = None
    fingerprints: dict = field(default_factory=dict)
    failed: set = field(default_factory=set)


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(SPEC["blas_threads"])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(SRC)
    env["COURTLEARN_BENCH_SRC"] = str(SRC / "courtlearn")
    # Import from cached bytecode, as an installed package does, whatever the
    # calling shell sets.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(work: Workload, seed: int, traced: bool, out: Path) -> Child:
    """Run one CLI sweep in a fresh process; time it from outside and inside."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    report_path = out / "report.json"
    argv = [
        sys.executable, str(BENCH / "child.py"), str(report_path), "1" if traced else "0", "--",
        *work.cli, str(work.config), "--seed", str(seed), "--out", str(out / "results"),
    ]
    with open(out / "stdout.txt", "wb") as stdout, open(out / "stderr.txt", "wb") as stderr:
        started = time.monotonic()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=child_env(), cwd=ROOT)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() - started > CHILD_TIMEOUT_S:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    proc.returncode = exit_code = os.waitstatus_to_exitcode(status)
    report = {}
    if report_path.exists():
        report = json.loads(report_path.read_text())
    loaded_at = report.get("config_loaded_at")
    ledger_path = out / "results" / "ledgers.jsonl"
    child = Child(
        seed=seed,
        traced=traced,
        exit_code=exit_code,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        setup_s=None if loaded_at is None else loaded_at - started,
        wall_s=report.get("wall_s"),
        trace=report.get("trace"),
        ledger_bytes=ledger_path.stat().st_size if ledger_path.exists() else 0,
    )
    if exit_code != 0:
        sys.stderr.write((out / "stderr.txt").read_text()[-2000:])
    return child


# ---------------------------------------------------------------- correctness


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _read_lines(path: Path) -> list[str]:
    return path.read_text().splitlines() if path.exists() else []


def check_outputs(work: Workload, child: Child, out: Path, parse_ledgers: bool) -> None:
    """Structural checks at any seed; fills child.fingerprints and child.failed.

    A fingerprint per cell is (regret row, slope row, ledger digest); the
    caller compares fingerprints with the reference or between children.
    """
    cells = work.cells
    if child.exit_code != 0:
        child.failed.update(cells)
        return
    results = out / "results"
    regret = _read_lines(results / "regret.csv")
    rows: dict[tuple[str, int], str] = {}
    if not regret or regret[0] != REGRET_HEADER:
        child.failed.update(cells)
        return
    for line in regret[1:]:
        fields = line.split(",")
        key = (fields[0], int(fields[1])) if len(fields) == 7 and fields[1].isdigit() else None
        if key not in cells or key in rows:
            child.failed.update(cells)  # an unexpected or repeated row: the table is malformed
            return
        rows[key] = line
    slopes = _read_lines(results / "slopes.csv")
    slope_rows = dict(line.split(",", 1) for line in slopes[1:] if "," in line)
    if not slopes or slopes[0] != SLOPES_HEADER or len(slope_rows) != len(slopes) - 1:
        child.failed.update(cells)
        return
    digests = ledger_digests(work, child, results / "ledgers.jsonl", parse_ledgers)
    for cell in cells:
        policy, horizon = cell
        line = rows.get(cell)
        slope = slope_rows.get(policy)
        if line is None or slope is None or not _finite(slope):
            child.failed.add(cell)
            continue
        values = line.split(",")[2:]
        court = float(values[2]) if _finite(values[2]) else -1.0
        if (
            not all(_finite(v) for v in values)
            or not 0.0 <= court <= horizon
            or min(float(values[1]), float(values[3]), float(values[4])) < 0.0
        ):
            child.failed.add(cell)
            continue
        digest = digests.get(cell) if work.ledgers else None
        if work.ledgers and digest is None:
            child.failed.add(cell)
            continue
        child.fingerprints[cell] = (line, f"{policy},{slope}", digest)


def ledger_digests(work: Workload, child: Child, path: Path, parse: bool) -> dict:
    """sha256 of each cell's ledger lines; None for a cell whose lines are wrong.

    Lines come in sweep order (policy, horizon, replication).  With ``parse``
    every line is also decoded and checked: keys, cell and replication order,
    step arrays of length T, court_count = visits in the steps, 0 <= court_count
    <= T, finite totals.
    """
    if not work.ledgers:
        return {}
    expected = [(cell, rep) for cell in work.cells for rep in range(work.replications)]
    digests: dict = {}
    if not path.exists():
        return digests
    hashers: dict = {}
    bad: set = set()
    count = 0
    with open(path, "rb") as fh:
        for index, raw in enumerate(fh):
            count += 1
            if index >= len(expected):
                bad.update(work.cells)
                break
            cell, rep = expected[index]
            hashers.setdefault(cell, hashlib.sha256()).update(raw)
            if parse and not _ledger_line_ok(json.loads(raw), cell, rep, child.seed):
                bad.add(cell)
    if count != len(expected):
        bad.update(work.cells)
    for cell, hasher in hashers.items():
        digests[cell] = None if cell in bad else hasher.hexdigest()
    return digests


def _ledger_line_ok(entry: dict, cell: tuple[str, int], rep: int, seed: int) -> bool:
    policy, horizon = cell
    if set(entry) != LEDGER_KEYS:
        return False
    if (entry["policy"], entry["T"], entry["replication"], entry["seed"]) != (policy, horizon, rep, seed):
        return False
    steps = entry["steps"]
    if any(len(column) != horizon for column in steps.values()):
        return False
    court = entry["court_count"]
    return (
        court == sum(steps["went_to_court"])
        and 0 <= court <= horizon
        and math.isfinite(entry["total_loss"])
        and math.isfinite(entry["total_subsidy_paid"])
    )


def reference_dir(work: Workload) -> Path:
    return BENCH / "reference" / work.name


def load_reference(work: Workload) -> dict:
    ref = reference_dir(work)
    regret = {
        (line.split(",")[0], int(line.split(",")[1])): line
        for line in _read_lines(ref / "regret.csv")[1:]
    }
    slopes = {line.split(",")[0]: line for line in _read_lines(ref / "slopes.csv")[1:]}
    digests = {}
    if work.ledgers:
        raw = json.loads((ref / "ledgers.sha256.json").read_text())
        digests = {(k.split(",")[0], int(k.split(",")[1])): v for k, v in raw.items()}
    return {
        cell: (regret.get(cell), slopes.get(cell[0]), digests.get(cell) if work.ledgers else None)
        for cell in work.cells
    }


def _rows_match(got: str, want: str | None, compare) -> bool:
    if want is None:
        return False
    if compare == "exact":
        return got == want
    a, b = got.split(","), want.split(",")
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if _finite(y) and not y.isdigit():
            if abs(float(x) - float(y)) > compare["atol"] + compare["rtol"] * abs(float(y)):
                return False
        elif x != y:
            return False
    return True


def compare_fingerprints(child: Child, expected: dict, compare) -> None:
    """Fail every cell whose fingerprint differs from ``expected``."""
    for cell, want in expected.items():
        got = child.fingerprints.get(cell)
        if got is None:
            child.failed.add(cell)
        elif not (
            _rows_match(got[0], want[0], compare)
            and _rows_match(got[1], want[1], compare)
            and got[2] == want[2]
        ):
            child.failed.add(cell)


# ------------------------------------------------------------------- metrics


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def machine_probe() -> float:
    """How much slower than PROBE_REFERENCE_S this machine runs, right now.

    On a shared host the CPU runs the same work up to ~1.6x slower for
    stretches of seconds, so medians of raw times drift by 20% or more from
    run to run.  Probes interleaved with the children measure that drift.
    They touch no courtlearn code, so a change to the program cannot move them.
    """
    start = time.perf_counter()
    total = 0.0
    table = {}
    for i in range(PROBE_ITERATIONS):
        total += (i % 7) * 0.5
        table[i & 255] = total
    return (time.perf_counter() - start) / PROBE_REFERENCE_S


def end_to_end(work: Workload, measured: list[Child]) -> dict:
    """Reported value (median at reference machine speed) and raw quartiles per metric.

    Each child's times are divided by its slowness, the mean of the probes
    run just before and just after it, so a value reads as the time the
    child would take on this host at the probes' reference speed.
    peak_rss_mb is not scaled.
    """
    ok = [c for c in measured if c.wall_s is not None and c.setup_s is not None]
    scale = [1.0 / c.slowness for c in ok]
    samples = {
        "setup_s": ("s", [c.setup_s for c in ok], [c.setup_s * k for c, k in zip(ok, scale)]),
        "wall_s": ("s", [c.wall_s for c in ok], [c.wall_s * k for c, k in zip(ok, scale)]),
        "steps_per_s": (
            "1/s", [work.steps / c.wall_s for c in ok],
            [work.steps / (c.wall_s * k) for c, k in zip(ok, scale)],
        ),
        "cpu_s": ("s", [c.cpu_s for c in ok], [c.cpu_s * k for c, k in zip(ok, scale)]),
        "peak_rss_mb": ("MB", [c.peak_rss_mb for c in ok], [c.peak_rss_mb for c in ok]),
    }
    return {
        name: {"unit": unit, "value": statistics.median(adjusted), "raw": summary(raw)}
        for name, (unit, raw, adjusted) in samples.items()
    }


def _per_child_layers(trace: dict) -> dict:
    stats = trace["stats"]
    total = sum(s["self_s"] for s in stats.values())
    shares = {layer: 0.0 for layer in LAYERS}
    for name, s in stats.items():
        shares[name.split(".", 1)[0]] += s["self_s"]
    return {layer: (v / total if total > 0 else 0.0) for layer, v in shares.items()}


def per_layer(work: Workload, untraced: list[Child], traced: list[Child]) -> tuple[dict, dict]:
    """Per-layer metrics (name -> (value, unit)) and extra facts for the record."""
    metrics: dict[str, tuple[float, str]] = {}
    traces = [c.trace for c in traced]
    first = traces[0]
    for name in HOOK_NAMES:
        calls = first["stats"][name]["calls"]
        self_s = statistics.median(t["stats"][name]["self_s"] for t in traces)
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.us_per_call"] = (1e6 * self_s / calls if calls else 0.0, "us")
    metrics["sim.loop.self_s"] = (
        metrics["sim.estimate_regret.self_s"][0] + metrics["sim._simulate.self_s"][0], "s"
    )
    select_calls = first["stats"]["policies.select"]["calls"]
    counters = first["counters"]
    metrics["sim.steps"] = (work.steps, "count")
    metrics["sim.loop_step_ratio"] = (select_calls / work.steps, "ratio")
    metrics["policies.compel_count"] = (counters["compel"], "count")
    metrics["policies.compel_ratio"] = (
        counters["compel"] / select_calls if select_calls else 0.0, "ratio"
    )
    metrics["policies.subsidy_offers"] = (counters["subsidy_offers"], "count")
    metrics["policies.subsidy_taken"] = (counters["subsidy_taken"], "count")
    metrics["policies.subsidy_take_ratio"] = (
        counters["subsidy_taken"] / counters["subsidy_offers"] if counters["subsidy_offers"] else 0.0,
        "ratio",
    )
    metrics["experiment.ledger_bytes"] = (traced[0].ledger_bytes, "B")
    shares = [_per_child_layers(t) for t in traces]
    for layer in LAYERS:
        metrics[f"layer.{layer}.share"] = (statistics.median(s[layer] for s in shares), "ratio")
    traced_wall = statistics.median(c.wall_s for c in traced)
    untraced_wall = statistics.median(c.wall_s for c in untraced)
    metrics["trace.self_s_total"] = (
        statistics.median(sum(s["self_s"] for s in t["stats"].values()) for t in traces), "s"
    )
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    metrics["trace.hooks_absent"] = (len(first["absent"]), "count")
    metrics["trace.spans"] = (len(first["spans"]), "count")
    extra = {"absent_hooks": first["absent"], "spans_of_last_traced_child": traces[-1]["spans"]}
    return metrics, extra


# ------------------------------------------------------------------ metadata


def run_metadata(work: Workload, seed: int, trace: bool) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "courtlearn").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": work.name,
        "why": SPEC["workloads"][work.name]["why"],
        "seed": seed,
        "pinned_seed": SPEC["pinned_seed"],
        "trace": trace,
        "client": SPEC["client"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "cpu_pinned": sorted(os.sched_getaffinity(0)),
        "blas_threads": SPEC["blas_threads"],
        "git_commit": commit,
        "src_sha256": source.hexdigest(),
        "warmup_children": SPEC["warmup_children"],
        "known_defects": SPEC["known_defects"],
        "excluded": SPEC["excluded"],
    }


# ---------------------------------------------------------------------- main


def measure(work: Workload, seed: int, seconds: float, trace: bool) -> int:
    workdir = WORK / work.name
    reference = load_reference(work)
    children: list[Child] = []

    def one(run_seed: int, traced: bool, parse_ledgers: bool) -> Child:
        out = workdir / f"child{len(children)}"
        child = run_child(work, run_seed, traced, out)
        check_outputs(work, child, out, parse_ledgers)
        shutil.rmtree(out / "results", ignore_errors=True)
        children.append(child)
        return child

    pinned = SPEC["pinned_seed"]
    machine_probe()
    for _ in range(SPEC["warmup_children"]):
        compare_fingerprints(one(pinned, False, True), reference, work.compare)
    warmups = len(children)

    measured: list[Child] = []
    probes: list[float] = []
    started = time.monotonic()
    while True:
        traced = trace and len(measured) % 2 == 1
        probes.append(machine_probe())
        measured.append(one(seed, traced, not measured))
        untraced_n = sum(not c.traced for c in measured)
        traced_n = sum(c.traced for c in measured)
        enough = untraced_n >= MIN_MEASURED and (not trace or traced_n >= MIN_MEASURED)
        if enough and time.monotonic() - started >= seconds:
            break
    probes.append(machine_probe())
    for i, child in enumerate(measured):
        child.slowness = (probes[i] + probes[i + 1]) / 2
    # Every child at one seed must write the same bytes, traced or not.
    baseline = measured[0].fingerprints if seed != pinned else reference
    for child in measured:
        compare_fingerprints(child, baseline, work.compare if seed == pinned else "exact")

    failed = sum(len(c.failed) for c in children)
    attempted = len(work.cells) * len(children)
    good = [c for c in measured if c.exit_code == 0 and c.wall_s is not None]
    untraced = [c for c in good if not c.traced]
    traced = [c for c in good if c.traced]
    if not untraced or (trace and not traced):
        print(f"error: no measured {work.name} child completed", file=sys.stderr)
        return 1

    meta = run_metadata(work, seed, trace)
    samples = [
        vars(c) | {"trace": None, "fingerprints": None, "failed": sorted(c.failed)} for c in children
    ]
    record = {"meta": meta, "slowness": probes, "children": samples}
    brief = {k: v for k, v in meta.items() if k not in ("known_defects", "excluded", "why")}
    print("meta " + json.dumps(brief))
    print(f"workload {work.name}: seed {seed}, {len(measured)} measured children "
          f"(+{warmups} warm-up at seed {pinned}, left out), {work.steps} simulated cases per sweep")
    if trace:
        metrics, extra = per_layer(work, untraced, traced)
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        record.update(extra)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<36} {value:>14.6g} {unit}")
        if extra["absent_hooks"]:
            print("  absent hooks: " + ", ".join(extra["absent_hooks"]))
        out_metrics = metrics
    else:
        stats = end_to_end(work, untraced)
        record["end_to_end"] = stats
        probe = summary(probes)
        print(f"  machine slowness median {probe['median']:.4g} (q1 {probe['q1']:.4g}, "
              f"q3 {probe['q3']:.4g}, n={probe['n']}); 1 = reference speed")
        for name, s in stats.items():
            raw = s["raw"]
            print(f"  {name:<12} {s['value']:<12.6g} {s['unit']:<4} raw median {raw['median']:.6g} "
                  f"(q1 {raw['q1']:.6g}, q3 {raw['q3']:.6g}, n={raw['n']})")
        out_metrics = {name: (s["value"], s["unit"]) for name, s in stats.items()}
    print(f"  {'failed_cells':<12} {failed} count of {attempted} cells attempted")
    record["failed_cells"] = failed
    record["attempted_cells"] = attempted
    result_path = workdir / f"result-seed{seed}-trace{int(trace)}.json"
    result_path.write_text(json.dumps(record, indent=1, default=list))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out_metrics.items()},
    }))
    return 0


def pin_reference(work: Workload) -> int:
    out = WORK / work.name / "pin"
    seed = SPEC["pinned_seed"]
    child = run_child(work, seed, False, out)
    check_outputs(work, child, out, parse_ledgers=True)
    if child.failed:
        print(f"error: structural check failed for {sorted(child.failed)}", file=sys.stderr)
        return 1
    ref = reference_dir(work)
    ref.mkdir(parents=True, exist_ok=True)
    for name in ("regret.csv", "slopes.csv"):
        shutil.copyfile(out / "results" / name, ref / name)
    if work.ledgers:
        digests = {f"{p},{t}": child.fingerprints[(p, t)][2] for p, t in work.cells}
        (ref / "ledgers.sha256.json").write_text(json.dumps(digests, indent=1) + "\n")
    shutil.rmtree(out)
    print(f"pinned {ref.relative_to(ROOT)} at seed {seed}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=SPEC["pinned_seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "courtlearn" / "__init__.py").is_file():
        print(f"error: no courtlearn sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    work = Workload.load(args.workload)
    # One CPU for the harness, its probes and every child (children inherit
    # it): the probes then see the same core the children run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.pin_reference:
        return pin_reference(work)
    return measure(work, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
