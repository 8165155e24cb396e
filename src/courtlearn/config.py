"""Experiment configuration: a flat JSON schema, validated eagerly.

Every validation error names the offending field path (``cost.c_min``,
``policies[1].epsilon``, ``sweep[2]``, ...) so a sweep that dies does so
before any run starts.  Each tagged section (truth, cases, cost, a policy)
is read alike: its tag, the named class's fields in order (a defaulted one
only when given), its unknown keys, and last the class's own checks, whose
errors read ``path (tag): ...`` unless they name their field.  A key given
twice in the file is refused.  Counts are checked by ``core._count`` in the
class that holds them.  Any :class:`ExperimentSpec`, loaded or not, builds
its (policy, horizon) cells, so a cell that cannot run refuses the spec, as
do more cells times replications than ``sim._BOOKS_LIMIT`` (2**24) and a
``cases.dim`` above ``sim._DIM_LIMIT`` (127).  See the README for the full
schema and defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any, get_args, get_type_hints

from .core import CaseSpec, ConfigurationError, CostModel, GroundTruth, _count
from .learners import LearnerFamily, LearnerKind
from .policies import PolicyConfig
from .sim import RunConfig, _replications

__all__ = ["ExperimentSpec", "load_config", "parse_config"]

DEFAULT_REPLICATIONS = 100


@dataclass(frozen=True)
class ExperimentSpec:
    """A validated experiment: base run pieces, policies, and a horizon sweep."""

    truth: GroundTruth
    cases: CaseSpec
    costs: CostModel
    learner: LearnerKind
    policies: tuple[PolicyConfig, ...]
    sweep: tuple[int, ...]
    replications: int
    seed: int
    out_dir: str
    # Every (policy, horizon) cell's run config, by policy, then by ascending horizon.
    cells: tuple[RunConfig, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # ``dataclasses.replace`` re-runs these, so CLI overrides and hand-built
        # specs meet the same rules as a loaded config.
        if not self.policies:
            raise ConfigurationError("policies: expected a non-empty list")
        # Rows and slopes are keyed by policy name, so a repeated name would be ambiguous.
        names = [policy.name for policy in self.policies]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ConfigurationError(f"policies[{i}]: duplicate policy {name!r}")
        if not isinstance(self.sweep, (list, tuple)) or not self.sweep:
            raise ConfigurationError("sweep: expected a non-empty list of horizons")
        sweep = tuple(_count(f"sweep[{i}]", horizon, 1) for i, horizon in enumerate(self.sweep))
        # The driver runs the horizons in ascending order, and kwik.csv lists them so.
        if any(b <= a for a, b in zip(sweep, sweep[1:])):
            raise ConfigurationError("sweep must be increasing")
        object.__setattr__(self, "sweep", sweep)
        replications = _replications(self.replications, len(self.policies) * len(sweep))
        object.__setattr__(self, "replications", replications)
        object.__setattr__(self, "seed", _count("seed", self.seed, 0))
        cells = []
        for i, policy in enumerate(self.policies):
            try:
                cells += [RunConfig(h, self.truth, self.cases, self.costs, self.learner, policy, self.seed)
                          for h in sweep]
            except ConfigurationError as exc:
                raise ConfigurationError(f"policies[{i}] ({policy.name}): {exc}") from None
        object.__setattr__(self, "cells", tuple(cells))


class _Reader:
    """Mapping access with field-pathed errors.

    Every key the section's parser asks for is remembered, so
    :meth:`reject_unknown` can refuse the keys it never read.
    """

    def __init__(self, data: dict, path: str = ""):
        if not isinstance(data, dict):
            raise ConfigurationError(f"{path or 'config'}: expected an object")
        self.data = data
        self.path = path
        self._read: set[str] = set()

    def _at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def reject_unknown(self) -> None:
        for key in self.data:
            if key not in self._read:
                raise ConfigurationError(f"{self._at(key)}: unknown field")

    def require(self, key: str, default: Any = None) -> Any:
        """The value at ``key``, a JSON null included; if absent, ``default``, or an error when that is None."""
        self._read.add(key)
        if key in self.data:
            return self.data[key]
        if default is None:
            raise ConfigurationError(f"missing required field {self._at(key)}")
        return default

    def number(self, key: str) -> float:
        return _finite(self.require(key), self._at(key))

    def numbers(self, key: str) -> list[float]:
        values = self.require(key)
        if not isinstance(values, list) or not values:
            raise ConfigurationError(f"{self._at(key)}: expected a non-empty list")
        return [_finite(value, f"{self._at(key)}[{i}]") for i, value in enumerate(values)]

    def string(self, key: str, default: str | None = None) -> str:
        value = self.require(key, default)
        if not isinstance(value, str):
            raise ConfigurationError(f"{self._at(key)}: expected a string, got {value!r}")
        return value

    def child(self, key: str, default: dict | None = None) -> "_Reader":
        return _Reader(self.require(key, default), self._at(key))


def _finite(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigurationError(f"{path}: expected a finite number, got {value!r}")
    return number


# The reader of a section field by its type (an integer's class checks it); any other
# type is a vector of numbers.
_FIELD_READERS = {float: _Reader.number, float | None: _Reader.number, int: _Reader.require}


def _tagged(reader: _Reader, tag: str, choices: dict, noun: str) -> Any:
    """The choice the section's ``tag`` names; an unknown name is refused with the valid ones."""
    name = reader.string(tag)
    if name not in choices:
        raise ConfigurationError(
            f"{reader._at(tag)}: unknown {noun} {name!r} (expected one of {', '.join(choices)})"
        )
    return choices[name]


def _parse_kind(reader: _Reader, tag: str, union: Any, noun: str) -> Any:
    """The member of ``union`` whose ``tag`` constant the section names, built from its fields.

    Each dataclass field is read by its type, in field order, a defaulted one
    only when given; the section's other keys are refused before the class's checks.
    """
    cls = _tagged(reader, tag, {getattr(member, tag): member for member in get_args(union)}, noun)
    hints = get_type_hints(cls)
    values = {
        f.name: _FIELD_READERS.get(hints[f.name], _Reader.numbers)(reader, f.name)
        for f in fields(cls)
        if f.default is MISSING or f.name in reader.data
    }
    reader.reject_unknown()
    try:
        return cls(**values)
    except ConfigurationError as exc:
        # A check that names its field (``cost.c must be > 0``) keeps its own path.
        if str(exc).startswith(f"{reader.path}."):
            raise
        raise ConfigurationError(f"{reader.path} ({getattr(cls, tag)}): {exc}") from None


def _parse_learner(reader: _Reader) -> LearnerKind:
    family = _tagged(reader, "kind", {f.value: f for f in LearnerFamily}, "learner")
    # Only the norm-constrained family reads a radius; elsewhere the key is refused as unknown.
    keys = ["err_constant"]
    if family is LearnerFamily.NORM_CONSTRAINED:
        keys.append("radius")
    learner = LearnerKind(family, **{key: reader.number(key) for key in keys if key in reader.data})
    reader.reject_unknown()
    return learner


def _parse_policy(entry: Any, path: str) -> PolicyConfig:
    if isinstance(entry, str):
        entry = {"name": entry}
    policy = _parse_kind(_Reader(entry, path), "name", PolicyConfig, "policy")
    # kwik's alpha1_constant only derives a missing alpha1, so beside alpha1 it would be ignored.
    if "alpha1" in entry and "alpha1_constant" in entry:
        raise ConfigurationError(f"{path}.alpha1_constant: ignored when {path}.alpha1 is set")
    return policy


def parse_config(data: dict) -> ExperimentSpec:
    """Validate a parsed config mapping into an :class:`ExperimentSpec`."""
    root = _Reader(data)
    truth = _parse_kind(root.child("truth"), "family", GroundTruth, "family")
    cases = _parse_kind(root.child("cases", {"kind": "singleton"}), "kind", CaseSpec, "case space")
    costs = _parse_kind(root.child("cost"), "kind", CostModel, "cost model")
    learner = _parse_learner(root.child("learner"))

    # ExperimentSpec itself refuses an empty list, a repeated policy, a bad sweep or count, and a bad cell.
    raw_policies = root.require("policies")
    if not isinstance(raw_policies, list):
        raise ConfigurationError("policies: expected a non-empty list")
    policies = tuple(
        _parse_policy(entry, f"policies[{i}]") for i, entry in enumerate(raw_policies)
    )

    sweep = root.require("sweep")
    replications = root.require("replications", DEFAULT_REPLICATIONS)
    if "emit" in data:
        raise ConfigurationError(
            "emit: not supported; pass --ledgers to `courtlearn run` to write ledgers.jsonl"
        )
    seed = root.require("seed", 0)
    out_dir = root.string("out_dir", "results")
    root.reject_unknown()

    return ExperimentSpec(
        truth=truth,
        cases=cases,
        costs=costs,
        learner=learner,
        policies=policies,
        sweep=sweep,
        replications=replications,
        seed=seed,
        out_dir=out_dir,
    )


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object's mapping; a key given twice is refused, since only its last value would count."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigurationError(f"key {key!r} given twice")
        data[key] = value
    return data


def load_config(path: str | Path) -> ExperimentSpec:
    """Read and validate an experiment config file (JSON)."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    except ConfigurationError as exc:
        raise ConfigurationError(f"config file {path}: {exc}") from None
    # ValueError covers JSONDecodeError, UnicodeDecodeError and integers past int's digit limit.
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from None
    return parse_config(data)
