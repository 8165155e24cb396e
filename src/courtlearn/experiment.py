"""Experiment orchestration: horizon sweeps, policy comparisons, result files.

Outputs are plain CSV (plus optional JSON-lines ledgers) and are bit-exact
reproducible from (config, master seed): every policy/horizon/replication
cell derives its own RNG streams, environments depend only on the master
seed and the replication index, so the cells of a sweep share each
replication's draw.  CSV floats are written with 12 significant digits;
ledger floats in ``json``'s shortest round-trip form, byte-equal to
``json.dumps(..., sort_keys=True, separators=(",", ":"))`` of the whole line,
although each run of equal values in a step column is encoded once, the
``t`` column once per sweep and the ``cost`` column once per replication.
Ledger lines are written as ASCII bytes to binary part files, each column
streamed piece by piece, and end in ``\\n`` on every platform.  The
replications are run by ``sim.estimate_regret``, which cuts a policy's
shorter horizons from its run at the longest one where the policy's law
does not read the horizon; this module sees only the reports it returns and
the ledgers it hands to a per-run hook, replication by replication, policy
by policy, and by ascending horizon within a policy.  A ledger holds only
what its run computed; each line's identity (policy, T, replication, seed
and ``config_digest``) comes from its cell's config, and this module is the
only one that digests a config, once per cell per sweep.  A run writes every
output to a temporary name and renames them all at the end.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
from itertools import chain, repeat
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

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
# Bytes a ledger part buffers before it writes to its file.
_PART_BUFFER = 64 * 1024
# The most steps one piece of a column's text covers.
_PIECE = 4096
# ``json.dumps(..., separators=(",", ":"))`` without building an encoder per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


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


def _column_json(column: np.ndarray) -> Iterable[bytes | memoryview]:
    """A step column's JSON array body as a lazy sequence of ASCII pieces,
    whose concatenation is byte-equal to ``json``'s encoding of
    ``column.tolist()`` (bool columns as 0/1).  The column is bool, int64 or
    float64, as in ``sim.STEP_COLUMNS``.

    Runs of equal values are found on the int64 bit view, which keeps -0.0
    apart from 0.0.  When at most half the steps start a run, the run values
    are encoded once, by ``json``, and each run's text is repeated by bytes
    multiplication; any other column is encoded by ``json`` ``_PIECE`` values
    at a time.  A piece covers at most ``_PIECE`` steps, so no text the
    length of a long column is built; a bool column is one view of an array
    of its characters.
    """
    if column.dtype == bool:
        chars = np.full(2 * len(column), ord(","), dtype=np.uint8)
        chars[::2] = column
        chars[::2] += ord("0")
        return (chars.data[:-1],)
    bits = column.view(np.int64)
    ends = np.append(np.flatnonzero(bits[1:] != bits[:-1]) + 1, len(column))
    if 2 * len(ends) > len(column):
        return _dense_pieces(column)
    texts = _ENCODER.encode(column[ends - 1].tolist())[1:-1].encode("ascii").split(b",")
    counts = np.diff(ends, prepend=0)
    counts[-1] -= 1  # the last step's text goes in without its comma
    return chain(_run_pieces([t + b"," for t in texts], counts.tolist()), texts[-1:])


def _dense_pieces(column: np.ndarray) -> Iterator[bytes]:
    """``json``'s text of ``_PIECE`` values at a time; each piece after the first starts with its comma."""
    for lo in range(0, len(column), _PIECE):
        text = _ENCODER.encode(column[lo : lo + _PIECE].tolist())[1:-1]
        yield (f",{text}" if lo else text).encode("ascii")


def _run_pieces(texts: list[bytes], counts: list[int]) -> Iterator[bytes]:
    """Each run's text ``count`` times over; a run longer than ``_PIECE``
    steps goes in pieces of ``_PIECE`` steps, all one bytes object."""
    for text, count in zip(texts, counts):
        if count > _PIECE:
            yield from repeat(text * _PIECE, count // _PIECE)
            count %= _PIECE
        yield text * count


def _ledger_line(
    stream: BinaryIO, cell: dict, ledger: RunLedger, shared: dict[str, list[bytes]] | None = None
) -> None:
    """Write one replication's JSONL line (without its newline) to ``stream``.

    ``cell`` is the line's identity, from its cell's config (see
    :func:`_ledger_writer`); the ledger adds its totals and step columns.
    The bytes equal ``json.dumps(line, sort_keys=True, separators=(",", ":"))``
    of the whole line, in ASCII, but each step column is streamed as the
    pieces of :func:`_column_json` through ``stream.writelines``, so neither
    the line nor a whole column is held as one string.  ``shared`` maps a
    column's name to its pieces when they are already encoded.
    """
    header = json.dumps(
        {
            **cell,
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
    stream.write(f'{head}"steps":{{'.encode("ascii"))
    for i, name in enumerate(sorted(ledger.steps)):
        stream.write(f'{"," if i else ""}{json.dumps(name)}:['.encode("ascii"))
        pieces = shared.get(name) if shared else None
        stream.writelines(_column_json(ledger.steps[name]) if pieces is None else pieces)
        stream.write(b"]")
    stream.write(f"}}{tail}".encode("ascii"))


def _prefix_pieces(cache: dict[int, list[bytes]], column: np.ndarray, horizon: int) -> list[bytes]:
    """``column[:horizon]``'s pieces, kept in ``cache`` by horizon.

    A new horizon encodes only the steps since the longest cached horizon
    below it and adds them to that horizon's pieces after a comma.  That is
    byte-equal to the prefix's own encoding, whichever path
    :func:`_column_json` takes for each segment, as all are the text of
    ``json``.
    """
    if horizon not in cache:
        done = max((h for h in cache if h < horizon), default=0)
        pieces = list(_column_json(column[done:horizon]))
        cache[horizon] = [*cache[done], b",", *pieces] if done else pieces
    return cache[horizon]


def _ledger_writer(configs: list[RunConfig], parts: list[Path]):
    """A sweep's per-run hook (see ``sim.estimate_regret``): each ledger's line goes to its cell's part.

    A line's identity is its cell's policy, horizon ``T``, seed and
    ``config_digest``, each cell digested once per sweep, and the
    replication.  The ``t`` column is 1..T in every run, and the ``cost``
    column is the same for every cell of a replication, up to the cell's
    horizon.  So the hook encodes ``t`` once per sweep and ``cost`` once per
    replication, in segments between consecutive horizons
    (:func:`_prefix_pieces`).  A part is a binary file with a
    ``_PART_BUFFER`` write buffer, so every line ends in ``\\n`` on every
    platform.  A part is opened for each line, never kept open, so a sweep
    of any number of cells holds one part open at a time; replication 0
    truncates the part, so a part left behind by a killed run is not kept.
    """
    cells = [{"policy": c.policy.name, "T": c.horizon, "seed": c.seed, "config_digest": c.digest()}
             for c in configs]
    t_pieces: dict[int, list[bytes]] = {}  # for the whole sweep
    cost_pieces: dict[int, list[bytes]] = {}  # for the current replication
    current = -1

    def write(rep: int, index: int, ledger: RunLedger) -> None:
        nonlocal current
        horizon = configs[index].horizon
        if rep != current:
            current = rep
            cost_pieces.clear()
        shared = {
            "t": _prefix_pieces(t_pieces, ledger.steps["t"], horizon),
            "cost": _prefix_pieces(cost_pieces, ledger.steps["cost"], horizon),
        }
        with parts[index].open("wb" if rep == 0 else "ab", buffering=_PART_BUFFER) as stream:
            _ledger_line(stream, {**cells[index], "replication": rep}, ledger, shared)
            stream.write(b"\n")

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
    The spec refused any cell that cannot run when it was built, so a
    refused cell leaves no directory behind.
    """
    configs = list(spec.cells)
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
    rule on every settled case.  ``compelled_count`` counts the cases the gate
    compelled, so an agent who litigates on its own is in neither count.
    kwik.csv is written to a temporary name and renamed into place, so a
    failed write leaves an earlier kwik.csv whole.
    """
    # Policy names are unique in a spec, so these are one policy's cells.
    configs = [config for config in spec.cells if config.policy.name == "kwik"]
    if not configs:
        raise ConfigurationError("kwik report needs exactly one kwik policy in the config")
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
               int(steps["compelled"].sum()), fraction, max_error)
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
