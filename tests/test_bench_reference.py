"""The benchmark's reference check, in process: every workload of
``bench/workloads.json`` at its pinned seed writes the outputs pinned under
``bench/reference/<workload>/``.

``regret.csv`` and ``slopes.csv`` compare byte for byte for an ``exact``
workload, and otherwise row by row: a float column within
``atol + rtol * |reference|``, every other column exactly.  A ledger
workload's ``ledgers.jsonl`` compares by one sha256 per (policy, T) cell
over its lines, newlines included.
"""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import pytest

from courtlearn.config import load_config
from courtlearn.experiment import run_experiment

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPEC = json.loads((BENCH / "workloads.json").read_text())


def _is_float(field: str) -> bool:
    try:
        return math.isfinite(float(field)) and not field.isdigit()
    except ValueError:
        return False


def _assert_rows_close(got: str, want: str, tolerance: dict) -> None:
    got_rows, want_rows = got.splitlines(), want.splitlines()
    assert len(got_rows) == len(want_rows)
    for got_row, want_row in zip(got_rows, want_rows):
        a, b = got_row.split(","), want_row.split(",")
        assert len(a) == len(b), got_row
        for x, y in zip(a, b):
            if _is_float(y):
                bound = tolerance["atol"] + tolerance["rtol"] * abs(float(y))
                assert abs(float(x) - float(y)) <= bound, got_row
            else:
                assert x == y, got_row


def _ledger_digests(spec, path: Path) -> dict[str, str]:
    """sha256 of each cell's lines, keyed ``policy,T``; lines go by cell, then by replication."""
    lines = path.read_bytes().splitlines(keepends=True)
    assert len(lines) == len(spec.cells) * spec.replications
    digests = {}
    for index, cell in enumerate(spec.cells):
        chunk = lines[index * spec.replications : (index + 1) * spec.replications]
        digests[f"{cell.policy.name},{cell.horizon}"] = hashlib.sha256(b"".join(chunk)).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(SPEC["workloads"]))
def test_workload_matches_its_reference(tmp_path, name):
    work = SPEC["workloads"][name]
    spec = dataclasses.replace(
        load_config(BENCH / work["config"]), seed=SPEC["pinned_seed"], out_dir=str(tmp_path)
    )
    ledgers = "--ledgers" in work["cli"]
    outputs = run_experiment(spec, ledgers=ledgers)
    reference = BENCH / "reference" / name
    for key in ("regret", "slopes"):
        got, want = outputs[key].read_text(), (reference / f"{key}.csv").read_text()
        if work["compare"] == "exact":
            assert got == want, key
        else:
            _assert_rows_close(got, want, work["compare"])
    if ledgers:
        want = json.loads((reference / "ledgers.sha256.json").read_text())
        assert _ledger_digests(spec, outputs["ledgers"]) == want
