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
from typing import Any, Callable, get_args

import numpy as np

from .core import (
    BallCases,
    CaseSpec,
    ConfigurationError,
    ConstantTruth,
    CostModel,
    FixedCosts,
    GroundTruth,
    LinearTruth,
    PointMassCosts,
    SingletonCases,
    UniformCosts,
)
from .learners import LearnerFamily, LearnerKind
from .policies import PolicyConfig
from .sim import RunConfig

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
        # ``dataclasses.replace`` re-runs these, so CLI overrides meet the same rules.
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


def _parse_truth(reader: _Reader) -> GroundTruth:
    family = reader.string("family")
    sigma = reader.number("sigma")
    alpha = reader.number("alpha")
    # Field errors already name their path; only the rule's own checks get the prefix.
    if family == "constant":
        rule, values = ConstantTruth, {"mu": reader.number("mu")}
    elif family == "linear":
        rule, values = LinearTruth, {
            "beta": np.asarray(reader.numbers("beta")),
            "beta0": reader.number("beta0"),
        }
    else:
        raise ConfigurationError(f"{reader._at('family')}: unknown family {family!r}")
    try:
        return rule(**values, sigma=sigma, alpha=alpha)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{reader.path}: {exc}") from None


def _parse_cases(reader: _Reader) -> CaseSpec:
    kind = reader.string("kind")
    if kind == "singleton":
        return SingletonCases()
    if kind == "ball":
        return BallCases(reader.integer("dim"))
    raise ConfigurationError(f"{reader._at('kind')}: unknown case space {kind!r}")


def _parse_costs(reader: _Reader) -> CostModel:
    kind = reader.string("kind")
    # core's own messages already carry cost.* field names
    if kind == "point":
        return PointMassCosts(reader.number("c"))
    if kind == "uniform":
        return UniformCosts(reader.number("c_min"), reader.number("c_max"))
    if kind == "sequence":
        return FixedCosts(tuple(reader.numbers("costs")))
    raise ConfigurationError(f"{reader._at('kind')}: unknown cost model {kind!r}")


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
    return LearnerKind(family, **{key: reader.number(key) for key in keys if key in reader.data})


def _parse_section(parse: Callable[[_Reader], Any], reader: _Reader) -> Any:
    """``parse(reader)``, refusing any key of the section that ``parse`` did not read."""
    value = parse(reader)
    reader.reject_unknown()
    return value


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
    truth = _parse_section(_parse_truth, root.child("truth"))
    cases = _parse_section(_parse_cases, root.child("cases")) if "cases" in data else SingletonCases()
    costs = _parse_section(_parse_costs, root.child("cost"))
    learner = _parse_section(_parse_learner, root.child("learner"))

    raw_policies = root.require("policies")
    if not isinstance(raw_policies, list) or not raw_policies:
        raise ConfigurationError("policies: expected a non-empty list")
    policies = tuple(
        _parse_policy(entry, f"policies[{i}]") for i, entry in enumerate(raw_policies)
    )
    # Rows and slopes are keyed by policy name, so a repeated name would be ambiguous.
    names = [policy.name for policy in policies]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigurationError(f"policies[{i}]: duplicate policy {name!r}")

    raw_sweep = root.require("sweep")
    if not isinstance(raw_sweep, list) or not raw_sweep:
        raise ConfigurationError("sweep: expected a non-empty list of horizons")
    sweep: list[int] = []
    for i, value in enumerate(raw_sweep):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ConfigurationError(f"sweep[{i}]: expected an integer horizon >= 1, got {value!r}")
        sweep.append(value)
    if any(b <= a for a, b in zip(sweep, sweep[1:])):
        raise ConfigurationError("sweep must be increasing")

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
        sweep=tuple(sweep),
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
