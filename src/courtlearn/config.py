"""Experiment configuration: a flat JSON schema, validated eagerly.

Every validation error names the offending field path (``cost.c_min``,
``policies[1].epsilon``, ...) so a sweep that dies does so before any run
starts.  See the README for the full schema and defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Any, get_args, get_type_hints

from .core import CaseSpec, ConfigurationError, CostModel, GroundTruth, SingletonCases
from .learners import LearnerFamily, LearnerKind
from .policies import PolicyConfig
from .sim import RunConfig, _count

__all__ = ["ExperimentSpec", "load_config", "parse_config"]

DEFAULT_REPLICATIONS = 100

_POLICY_CONFIGS = {config_class.name: config_class for config_class in get_args(PolicyConfig)}

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
        if not self.sweep:
            raise ConfigurationError("sweep: expected a non-empty list of horizons")
        # The driver runs the horizons in ascending order, and kwik.csv lists them so.
        if any(b <= a for a, b in zip(self.sweep, self.sweep[1:])):
            raise ConfigurationError("sweep must be increasing")
        for name in ("replications", "seed"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        if self.replications < 1:
            raise ConfigurationError(f"replications: must be >= 1, got {self.replications}")
        if self.seed < 0:
            raise ConfigurationError(f"seed: must be >= 0, got {self.seed}")

    def run_config(self, policy: PolicyConfig, horizon: int) -> RunConfig:
        """The run configuration of one (policy, horizon) cell."""
        return RunConfig(
            horizon=horizon,
            truth=self.truth,
            cases=self.cases,
            costs=self.costs,
            learner=self.learner,
            policy=policy,
            seed=self.seed,
        )


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

    def number(self, key: str, default: float | None = None) -> float:
        return _finite(self.require(key, default), self._at(key))

    def numbers(self, key: str) -> list[float]:
        values = self.require(key)
        if not isinstance(values, list) or not values:
            raise ConfigurationError(f"{self._at(key)}: expected a non-empty list")
        return [_finite(value, f"{self._at(key)}[{i}]") for i, value in enumerate(values)]

    def integer(self, key: str, default: int | None = None) -> int:
        value = self.require(key, default)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(f"{self._at(key)}: expected an integer, got {value!r}")
        return value

    def string(self, key: str, default: str | None = None) -> str:
        value = self.require(key, default)
        if not isinstance(value, str):
            raise ConfigurationError(f"{self._at(key)}: expected a string, got {value!r}")
        return value

    def child(self, key: str) -> "_Reader":
        return _Reader(self.require(key), self._at(key))


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


# The reader of a section field by its type; any other type is a vector of numbers.
_FIELD_READERS = {float: _Reader.number, int: _Reader.integer}


def _parse_kind(reader: _Reader, tag: str, union: Any, noun: str) -> Any:
    """The member of ``union`` whose ``tag`` constant the section names, built from its fields.

    Each dataclass field is read by its type, in field order; the section's
    other keys are refused.
    """
    classes = {getattr(cls, tag): cls for cls in get_args(union)}
    name = reader.string(tag)
    if name not in classes:
        raise ConfigurationError(f"{reader._at(tag)}: unknown {noun} {name!r}")
    cls = classes[name]
    hints = get_type_hints(cls)
    values = {
        f.name: _FIELD_READERS.get(hints[f.name], _Reader.numbers)(reader, f.name)
        for f in fields(cls)
    }
    try:
        section = cls(**values)
    except ConfigurationError as exc:
        # Cost and case checks name their field (``cost.c``); a truth's rule checks get the prefix.
        if str(exc).startswith(reader.path):
            raise
        raise ConfigurationError(f"{reader.path}: {exc}") from None
    reader.reject_unknown()
    return section


def _parse_learner(reader: _Reader) -> LearnerKind:
    kind = reader.string("kind")
    families = {f.value: f for f in LearnerFamily}
    if kind not in families:
        raise ConfigurationError(f"{reader._at('kind')}: unknown learner {kind!r}")
    family = families[kind]
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
    reader = _Reader(entry, path)
    name = reader.string("name")
    if name not in _POLICY_CONFIGS:
        raise ConfigurationError(
            f"{path}.name: unknown policy {name!r} (expected one of {', '.join(_POLICY_CONFIGS)})"
        )
    config_class = _POLICY_CONFIGS[name]
    params = {
        f.name: reader.number(f.name)
        for f in fields(config_class)
        if f.default is MISSING or f.name in entry
    }
    reader.reject_unknown()
    if "alpha1" in params and "alpha1_constant" in params:
        raise ConfigurationError(f"{path}.alpha1_constant: ignored when {path}.alpha1 is set")
    try:
        return config_class(**params)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path} ({name}): {exc}") from None


def parse_config(data: dict) -> ExperimentSpec:
    """Validate a parsed config mapping into an :class:`ExperimentSpec`."""
    root = _Reader(data)
    truth = _parse_kind(root.child("truth"), "family", GroundTruth, "family")
    cases = (
        _parse_kind(root.child("cases"), "kind", CaseSpec, "case space")
        if "cases" in data
        else SingletonCases()
    )
    costs = _parse_kind(root.child("cost"), "kind", CostModel, "cost model")
    learner = _parse_learner(root.child("learner"))

    # ExperimentSpec itself refuses an empty list, a repeated policy and a sweep out of order.
    raw_policies = root.require("policies")
    if not isinstance(raw_policies, list):
        raise ConfigurationError("policies: expected a non-empty list")
    policies = tuple(
        _parse_policy(entry, f"policies[{i}]") for i, entry in enumerate(raw_policies)
    )

    raw_sweep = root.require("sweep")
    if not isinstance(raw_sweep, list):
        raise ConfigurationError("sweep: expected a non-empty list of horizons")
    for i, value in enumerate(raw_sweep):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ConfigurationError(f"sweep[{i}]: expected an integer horizon >= 1, got {value!r}")

    replications = root.integer("replications", DEFAULT_REPLICATIONS)
    if "emit" in data:
        raise ConfigurationError(
            "emit: not supported; pass --ledgers to `courtlearn run` to write ledgers.jsonl"
        )
    seed = root.integer("seed", 0)
    out_dir = root.string("out_dir", "results")
    root.reject_unknown()

    spec = ExperimentSpec(
        truth=truth,
        cases=cases,
        costs=costs,
        learner=learner,
        policies=policies,
        sweep=tuple(raw_sweep),
        replications=replications,
        seed=seed,
        out_dir=out_dir,
    )
    # Build every (policy, horizon) cell now so bad combinations fail at
    # load time, not mid-sweep.
    for i, policy in enumerate(spec.policies):
        for horizon in spec.sweep:
            try:
                spec.run_config(policy, horizon)
            except ConfigurationError as exc:
                raise ConfigurationError(f"policies[{i}] ({policy.name}): {exc}") from None
    return spec


def load_config(path: str | Path) -> ExperimentSpec:
    """Read and validate an experiment config file (JSON)."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    # ValueError covers JSONDecodeError, UnicodeDecodeError and integers past int's digit limit.
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from None
    return parse_config(data)
