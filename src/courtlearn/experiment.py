"""Experiment orchestration: horizon sweeps, policy comparisons, result files.

Outputs are plain CSV (plus optional JSON-lines ledgers) and are bit-exact
reproducible from (config, master seed): every policy/horizon/replication
cell derives its own RNG streams, environments depend only on the master
seed and the replication index.  CSV floats are written with 12 significant
digits; ledger floats in ``json``'s shortest round-trip form, byte-equal to
``json.dumps(..., sort_keys=True, separators=(",", ":"))`` of the whole line,
although each run of equal values in a step column is encoded once.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import TextIO

import numpy as np

from .config import ExperimentSpec
from .core import ConfigurationError, RunLedger
from .sim import RunConfig, estimate_regret, run

__all__ = [
    "REGRET_COLUMNS",
    "SLOPES_COLUMNS",
    "KWIK_COLUMNS",
    "fit_loglog_slope",
    "run_experiment",
    "kwik_report",
]

REGRET_COLUMNS = (
    "policy,T,mean_regret,std_error,mean_court_count,mean_total_subsidy,mean_offline_loss"
)
SLOPES_COLUMNS = "policy,slope"
KWIK_COLUMNS = (
    "T,n,epsilon,delta,predicted_count,compelled_count,"
    "fraction_predictions_within_eps,max_abs_prediction_error"
)


def _csv_row(values: tuple, file_name: str) -> str:
    """One CSV line: floats with 12 significant digits, anything else by ``str``.

    Refuses a non-finite float, so every emitted number is finite.
    """
    cells = []
    for value in values:
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ConfigurationError(f"non-finite value would be written to {file_name}")
            cells.append(f"{value:.12g}")
        else:
            cells.append(str(value))
    return ",".join(cells)


def fit_loglog_slope(horizons: np.ndarray, values: np.ndarray) -> float | None:
    """Equal-weight least-squares slope of log(value) against log(horizon).

    Points with non-positive values are dropped; returns None when fewer
    than two usable points remain.
    """
    mask = values > 0
    if mask.sum() < 2:
        return None
    x = np.log(horizons[mask].astype(float))
    y = np.log(values[mask])
    x_centered = x - x.mean()
    return float((x_centered @ y) / (x_centered @ x_centered))


def _write_text(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n")


def _column_json(column: np.ndarray) -> str:
    """A step column's JSON array body, byte-equal to ``json``'s encoding of
    ``column.tolist()`` (bool columns as 0/1).  The column is bool, int64 or
    float64, as in ``sim.STEP_COLUMNS``.

    Runs of equal values are found on the int64 bit view, which keeps -0.0
    apart from 0.0.  When at most half the steps start a run, the run values
    are encoded once, by ``json``, and each run's text is repeated by ``str``
    multiplication; any other column is encoded by ``json`` as a whole.
    """
    if column.dtype == bool:
        chars = np.full(2 * len(column), ord(","), dtype=np.uint8)
        chars[::2] = column
        chars[::2] += ord("0")
        return chars[:-1].tobytes().decode("ascii")
    bits = column.view(np.int64)
    ends = np.append(np.flatnonzero(bits[1:] != bits[:-1]) + 1, len(column))
    if 2 * len(ends) > len(column):
        return json.dumps(column.tolist(), separators=(",", ":"))[1:-1]
    texts = json.dumps(column[ends - 1].tolist(), separators=(",", ":"))[1:-1].split(",")
    counts = np.diff(ends, prepend=0)
    counts[-1] -= 1  # the last step's text goes in without its comma
    return "".join([*map(str.__mul__, [t + "," for t in texts], counts.tolist()), texts[-1]])


def _ledger_line(stream: TextIO, policy: str, horizon: int, rep: int, ledger: RunLedger) -> None:
    """Write one replication's JSONL line (without its newline) to ``stream``.

    The bytes equal ``json.dumps(line, sort_keys=True, separators=(",", ":"))``
    of the whole line, but each step column is encoded by :func:`_column_json`
    and written as its own piece, so the line is never held as one string.
    """
    header = json.dumps(
        {
            "policy": policy,
            "T": horizon,
            "replication": rep,
            "seed": ledger.seed,
            "config_digest": ledger.config_digest,
            "total_loss": ledger.total_loss,
            "court_count": ledger.court_count,
            "total_subsidy_paid": ledger.total_subsidy_paid,
            "steps": None,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    # Quotes inside JSON strings are escaped, so this text can only be the key.
    head, _, tail = header.partition('"steps":null')
    stream.write(head)
    stream.write('"steps":{')
    for i, name in enumerate(sorted(ledger.steps)):
        stream.write(f'{"," if i else ""}{json.dumps(name)}:[')
        stream.write(_column_json(ledger.steps[name]))
        stream.write("]")
    stream.write("}")
    stream.write(tail)


def _output_dir(spec: ExperimentSpec) -> Path:
    """Create the spec's output directory; failure is a configuration error."""
    out_dir = Path(spec.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {out_dir}: {exc}") from None
    return out_dir


def run_experiment(spec: ExperimentSpec, *, ledgers: bool = False) -> dict[str, Path]:
    """Run every (policy, horizon) cell and emit regret.csv + slopes.csv.

    With ``ledgers=True``, every replication's full ledger is written to
    ledgers.jsonl as one line when the replication ends.  The lines go to a
    temporary file that becomes ledgers.jsonl only once every cell has
    passed its finiteness check, so a failed sweep leaves no ledgers.jsonl.
    Every cell's run config is built before the output directory, so a
    refused cell leaves no directory behind.
    """
    configs = [spec.run_config(policy, horizon) for policy in spec.policies for horizon in spec.sweep]
    out_dir = _output_dir(spec)
    if not ledgers:
        return _run_cells(configs, spec.replications, out_dir, None)
    partial = out_dir / "ledgers.jsonl.tmp"
    try:
        with partial.open("w") as stream:
            outputs = _run_cells(configs, spec.replications, out_dir, stream)
        outputs["ledgers"] = out_dir / "ledgers.jsonl"
        os.replace(partial, outputs["ledgers"])
        return outputs
    finally:
        partial.unlink(missing_ok=True)


def _run_cells(
    configs: list[RunConfig], replications: int, out_dir: Path, stream: TextIO | None
) -> dict[str, Path]:
    """Every (policy, horizon) cell; writes regret.csv and slopes.csv, and
    streams each replication's ledger line to ``stream`` when one is given."""
    regret_lines = [REGRET_COLUMNS]
    per_policy: dict[str, list[tuple[int, float]]] = {}
    for config in configs:
        name, horizon = config.policy.name, config.horizon
        sink = None
        if stream is not None:

            def sink(rep, ledger, _p=name, _h=horizon):
                _ledger_line(stream, _p, _h, rep, ledger)
                stream.write("\n")

        report = estimate_regret(config, replications, ledger_sink=sink)
        row = (
            name, horizon, report.mean_regret, report.std_error,
            report.mean_court_count, report.mean_total_subsidy, report.mean_offline_loss,
        )
        regret_lines.append(_csv_row(row, "regret.csv"))
        per_policy.setdefault(name, []).append((horizon, report.mean_regret))

    slope_lines = [SLOPES_COLUMNS]
    for name, points in per_policy.items():
        horizons = np.array([p[0] for p in points])
        values = np.array([p[1] for p in points])
        slope = fit_loglog_slope(horizons, values)
        if slope is not None:
            slope_lines.append(_csv_row((name, slope), "slopes.csv"))

    outputs: dict[str, Path] = {}
    regret_path = out_dir / "regret.csv"
    _write_text(regret_path, regret_lines)
    outputs["regret"] = regret_path
    slopes_path = out_dir / "slopes.csv"
    _write_text(slopes_path, slope_lines)
    outputs["slopes"] = slopes_path
    return outputs


def kwik_report(spec: ExperimentSpec) -> dict[str, Path]:
    """Run the spec's kwik policy across the sweep and emit kwik.csv.

    One deterministic run per horizon (replication 0); prediction accuracy
    is measured against the true rule on every settled case.
    """
    kwik_policies = [p for p in spec.policies if p.name == "kwik"]
    if len(kwik_policies) != 1:
        raise ConfigurationError("kwik report needs exactly one kwik policy in the config")

    configs = [spec.run_config(kwik_policies[0], horizon) for horizon in spec.sweep]
    out_dir = _output_dir(spec)
    lines = [KWIK_COLUMNS]
    for config in configs:
        epsilon = config.policy.epsilon
        ledger = run(config, rep=0)
        steps = ledger.steps
        settled = ~steps["went_to_court"]
        errors = np.abs(steps["applied_decision"][settled] - steps["true_value"][settled])
        predicted = int(settled.sum())
        within = int((errors <= epsilon).sum())
        fraction = within / predicted if predicted else 1.0
        max_error = errors.max().item() if predicted else 0.0
        row = (config.horizon, config.cases.dim, epsilon, config.policy.delta, predicted,
               ledger.court_count, fraction, max_error)
        lines.append(_csv_row(row, "kwik.csv"))
    kwik_path = out_dir / "kwik.csv"
    _write_text(kwik_path, lines)
    return {"kwik": kwik_path}
