"""Experiment orchestration: horizon sweeps, policy comparisons, result files.

Outputs are plain CSV (plus optional JSON-lines ledgers) and are bit-exact
reproducible from (config, master seed): every policy/horizon/replication
cell derives its own RNG streams, environments depend only on the master
seed and the replication index, so the cells of a sweep share each
replication's draw.  CSV floats are written with 12 significant digits;
ledger floats in ``json``'s shortest round-trip form, byte-equal to
``json.dumps(..., sort_keys=True, separators=(",", ":"))`` of the whole line,
although each run of equal values in a step column is encoded once, and the
``t`` and ``cost`` columns once per replication.  The replications are run
by ``sim.estimate_regret``, which cuts a policy's shorter horizons from its
run at the longest one where the policy's law does not read the horizon;
this module sees only the reports it returns and the ledgers it hands to a
per-run hook, replication by replication, policy by policy, and by
ascending horizon within a policy.  A run writes every output to a
temporary name and renames them all at the end.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
from pathlib import Path
from typing import TextIO

import numpy as np

from .config import ExperimentSpec
from .core import ConfigurationError, RunLedger
from .sim import RunConfig, estimate_regret

__all__ = ["run_experiment", "kwik_report"]

REGRET_COLUMNS = (
    "policy,T,mean_regret,std_error,mean_court_count,mean_total_subsidy,mean_offline_loss"
)
SLOPES_COLUMNS = "policy,slope"
KWIK_COLUMNS = (
    "T,n,epsilon,delta,predicted_count,compelled_count,"
    "fraction_predictions_within_eps,max_abs_prediction_error"
)
_LEDGER_PART = re.compile(r"ledgers\.jsonl\.[0-9]+\.tmp")


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


def _ledger_line(
    stream: TextIO, policy: str, horizon: int, rep: int, ledger: RunLedger,
    shared: dict[str, str] | None = None,
) -> None:
    """Write one replication's JSONL line (without its newline) to ``stream``.

    The bytes equal ``json.dumps(line, sort_keys=True, separators=(",", ":"))``
    of the whole line, but each step column is encoded by :func:`_column_json`
    and written as its own piece, so the line is never held as one string.
    ``shared`` maps a column's name to its text when it is already encoded.
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
        text = shared.get(name) if shared else None
        stream.write(_column_json(ledger.steps[name]) if text is None else text)
        stream.write("]")
    stream.write("}")
    stream.write(tail)


def _ledger_writer(configs: list[RunConfig], parts: list[Path]):
    """A sweep's per-run hook (see ``sim.estimate_regret``): each ledger's line goes to its cell's part.

    The ``t`` and ``cost`` columns are the same for every cell of a
    replication, up to the cell's horizon, so the hook keeps each horizon's
    text for the replication.  It encodes them in segments between
    consecutive horizons: the first ledger of a replication at a new horizon
    adds the steps since the longest horizon below it that has a text, and
    a horizon's text is its segments joined by commas.  That is byte-equal
    to the prefix's own encoding, whichever path :func:`_column_json` takes
    for each, as all are the text of ``json.dumps``.  A part is opened for
    each line, never kept open, so a sweep of any number of cells holds one
    part open at a time; replication 0 truncates the part, so a part left
    behind by a killed run is not kept.
    """
    current, texts = -1, {}  # texts: horizon -> {name: text} of the current replication

    def write(rep: int, index: int, ledger: RunLedger) -> None:
        nonlocal current, texts
        config = configs[index]
        horizon = config.horizon
        if rep != current:
            current, texts = rep, {}
        if horizon not in texts:
            done = max((h for h in texts if h < horizon), default=0)
            texts[horizon] = {}
            for name in ("t", "cost"):
                piece = _column_json(ledger.steps[name][done:horizon])
                texts[horizon][name] = f"{texts[done][name]},{piece}" if done else piece
        with parts[index].open("w" if rep == 0 else "a") as stream:
            _ledger_line(stream, config.policy.name, horizon, rep, ledger, texts[horizon])
            stream.write("\n")

    return write


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

    The cells share one replication driver (``sim.estimate_regret``), which
    draws each replication's environment once and runs each policy whose law
    does not read the horizon once per replication, cutting the shorter
    horizons from that run.  With ``ledgers=True``, every replication's full
    ledger is also written to ledgers.jsonl, one line per (cell,
    replication), listed by cell, then by replication; each line goes to its
    cell's part file when its run ends, and the parts are joined at the end.
    Every output is written to a temporary name first,
    and the temporaries replace the outputs only once all are written; a run
    without ledgers then removes an old ledgers.jsonl.  Whether the run
    succeeds or fails, it then removes every ledger part in the directory,
    its own and any left by a killed run.  So a failed sweep leaves no
    output, and the outputs in the directory come from one run.
    Every cell's run config is built before the output directory, so a
    refused cell leaves no directory behind.
    """
    configs = [spec.run_config(policy, horizon) for policy in spec.policies for horizon in spec.sweep]
    out_dir = _output_dir(spec)
    outputs = {"regret": out_dir / "regret.csv", "slopes": out_dir / "slopes.csv"}
    if ledgers:
        outputs["ledgers"] = out_dir / "ledgers.jsonl"
    temporaries = {key: path.with_name(path.name + ".tmp") for key, path in outputs.items()}
    parts = [out_dir / f"ledgers.jsonl.{i}.tmp" for i in range(len(configs))] if ledgers else []
    try:
        _run_cells(configs, spec.replications, temporaries, parts)
        for key, path in outputs.items():
            os.replace(temporaries[key], path)
        if not ledgers:
            (out_dir / "ledgers.jsonl").unlink(missing_ok=True)
        return outputs
    finally:
        stale = [path for path in out_dir.iterdir() if _LEDGER_PART.fullmatch(path.name)]
        for path in [*temporaries.values(), *stale]:
            path.unlink(missing_ok=True)


def _run_cells(
    configs: list[RunConfig], replications: int, temporaries: dict[str, Path], parts: list[Path]
) -> None:
    """Every (policy, horizon) cell; writes each output to its temporary path,
    and the ledgers, through ``parts``, when there are parts."""
    reports = estimate_regret(configs, replications, _ledger_writer(configs, parts) if parts else None)

    regret_lines = [REGRET_COLUMNS]
    per_policy: dict[str, list[tuple[int, float]]] = {}
    for config, report in zip(configs, reports):
        name, horizon = config.policy.name, config.horizon
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

    _write_text(temporaries["regret"], regret_lines)
    _write_text(temporaries["slopes"], slope_lines)
    if parts:  # joined as bytes: a text-mode copy would decode and encode every line
        with temporaries["ledgers"].open("wb") as joined:
            for part in parts:
                with part.open("rb") as piece:
                    shutil.copyfileobj(piece, joined)
                part.unlink()


def kwik_report(spec: ExperimentSpec) -> dict[str, Path]:
    """Run the spec's kwik policy across the sweep and emit kwik.csv.

    Replication 0 only, so the sweep driver draws the environment once and
    runs the policy once, at the longest horizon, cutting every shorter
    horizon from that run; prediction accuracy is measured against the true
    rule on every settled case.  kwik.csv is written to a temporary name and
    renamed into place, so a failed write leaves an earlier kwik.csv whole.
    """
    kwik_policies = [p for p in spec.policies if p.name == "kwik"]
    if len(kwik_policies) != 1:
        raise ConfigurationError("kwik report needs exactly one kwik policy in the config")

    configs = [spec.run_config(kwik_policies[0], horizon) for horizon in spec.sweep]
    out_dir = _output_dir(spec)
    lines = [KWIK_COLUMNS]

    def add_row(rep: int, index: int, ledger: RunLedger) -> None:
        # The sweep ascends, so the driver hands over the rows in its order.
        config = configs[index]
        epsilon = config.policy.epsilon
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

    estimate_regret(configs, 1, add_row)
    kwik_path = out_dir / "kwik.csv"
    temporary = kwik_path.with_name("kwik.csv.tmp")
    try:
        _write_text(temporary, lines)
        os.replace(temporary, kwik_path)
    finally:
        temporary.unlink(missing_ok=True)
    return {"kwik": kwik_path}
