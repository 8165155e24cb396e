"""Domain types shared by the whole package.

Case spaces, hidden decision rules, cost models, and the per-run ledger
produced by the simulator.  All types are plain values.  Each truth, case
space and cost model carries its config-file tag (``family`` or ``kind``) as
a class constant.  The config loader reads a section into the class its tag
names, field by field, and ``sim.RunConfig.canonical`` describes it from the
same fields.

A :class:`Spectrum` is the eigendecomposition of a Gram matrix, or a stack
of them, one per prefix of a run's court rows; the linear fit, the
norm-constrained bisection and the kwik gate all read it.  A case is a raw
row of the array that :func:`sample_cases` draws, scaled into the unit
ball; the Gram matrix takes it as the augmented row [x, 1].
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Union

import numpy as np

__all__ = [
    "ConfigurationError",
    "ConstantTruth",
    "LinearTruth",
    "PointMassCosts",
    "UniformCosts",
    "FixedCosts",
    "SingletonCases",
    "BallCases",
    "sample_cases",
    "RunLedger",
]

# Slack for float round-off when validating norm constraints.
_NORM_TOL = 1e-9


class ConfigurationError(ValueError):
    """A run or experiment is configured inconsistently."""


@dataclass(frozen=True)
class ConstantTruth:
    """Hidden rule f(x) = mu for every case, with noise level sigma and cap alpha."""

    family: ClassVar[str] = "constant"
    mu: float
    sigma: float
    alpha: float

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ConfigurationError(f"decision cap must be positive, got {self.alpha}")
        if not 0.0 <= self.mu <= self.alpha:
            raise ConfigurationError(f"constant rule value {self.mu} outside [0, {self.alpha}]")
        if not 0.0 <= self.sigma <= self.alpha:
            raise ConfigurationError(f"noise level {self.sigma} outside [0, {self.alpha}]")


@dataclass(frozen=True, eq=False)
class LinearTruth:
    """Hidden rule f(x) = beta.x + beta0 on the unit ball.

    Constrained at construction (|beta| <= beta0 and beta0 + |beta| <= alpha)
    so that f maps the whole ball into [0, alpha] without any clipping.
    """

    family: ClassVar[str] = "linear"
    beta: np.ndarray
    beta0: float
    sigma: float
    alpha: float

    def __post_init__(self) -> None:
        beta = np.asarray(self.beta, dtype=float)
        if beta.ndim != 1 or beta.shape[0] < 1:
            raise ConfigurationError("beta must be a vector of dimension >= 1")
        object.__setattr__(self, "beta", beta)
        if not self.alpha > 0:
            raise ConfigurationError(f"decision cap must be positive, got {self.alpha}")
        norm = math.hypot(*beta)  # no overflow in the squares
        if norm > self.beta0 + _NORM_TOL:
            raise ConfigurationError(
                f"|beta| = {norm} exceeds beta0 = {self.beta0}; rule would go below 0 on the ball"
            )
        if self.beta0 + norm > self.alpha + _NORM_TOL:
            raise ConfigurationError(
                f"beta0 + |beta| = {self.beta0 + norm} exceeds alpha = {self.alpha}"
            )
        if not 0.0 <= self.sigma <= self.alpha:
            raise ConfigurationError(f"noise level {self.sigma} outside [0, {self.alpha}]")

    @property
    def dim(self) -> int | None:
        return int(self.beta.shape[0])


GroundTruth = Union[ConstantTruth, LinearTruth]


def augment(x: np.ndarray) -> np.ndarray:
    """The augmented feature row [x, 1] of a raw case vector, or of each row of a stack."""
    out = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
    out[..., :-1] = x
    out[..., -1] = 1.0
    return out


class Spectrum(NamedTuple):
    """``np.linalg.eigh`` of a Gram matrix: ``values`` ascend and keep eigh's round-off
    signs (the pseudo-inverse needs them; the bisection clips them at 0 itself)."""

    values: np.ndarray
    vectors: np.ndarray

    def pick(self, index) -> Spectrum:
        """The stacked decompositions at ``index`` (an int, a slice, or ``None`` to stack one)."""
        return Spectrum(*(part[index] for part in self))


def decompose(gram: np.ndarray) -> Spectrum:
    return Spectrum(*np.linalg.eigh(gram))


@dataclass(frozen=True)
class PointMassCosts:
    """Every case costs exactly ``c`` to bring to court."""

    kind: ClassVar[str] = "point"
    c: float

    def __post_init__(self) -> None:
        if not self.c > 0:
            raise ConfigurationError(f"cost.c must be > 0, got {self.c}")

    @property
    def c_min(self) -> float:
        return self.c

    @property
    def c_max(self) -> float:
        return self.c

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(count, self.c)


@dataclass(frozen=True)
class UniformCosts:
    """Costs drawn i.i.d. uniform on [c_min, c_max]."""

    kind: ClassVar[str] = "uniform"
    c_min: float
    c_max: float

    def __post_init__(self) -> None:
        if not self.c_min > 0:
            raise ConfigurationError(f"cost.c_min must be > 0, got {self.c_min}")
        if self.c_max < self.c_min:
            raise ConfigurationError(
                f"cost.c_max = {self.c_max} below cost.c_min = {self.c_min}"
            )

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        costs = rng.random(count)
        costs *= self.c_max - self.c_min  # in place: the draw's array becomes the costs
        costs += self.c_min
        return costs


@dataclass(frozen=True)
class FixedCosts:
    """Deterministic cost sequence, cycled if shorter than the horizon."""

    kind: ClassVar[str] = "sequence"
    costs: tuple[float, ...]

    def __post_init__(self) -> None:
        costs = tuple(float(c) for c in self.costs)
        if not costs:
            raise ConfigurationError("cost sequence must be non-empty")
        if min(costs) <= 0:
            raise ConfigurationError(f"cost.costs must all be > 0, got min {min(costs)}")
        object.__setattr__(self, "costs", costs)

    @property
    def c_min(self) -> float:
        return min(self.costs)

    @property
    def c_max(self) -> float:
        return max(self.costs)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        reps = -(-count // len(self.costs))
        return np.tile(np.asarray(self.costs), reps)[:count]


CostModel = Union[PointMassCosts, UniformCosts, FixedCosts]


@dataclass(frozen=True)
class SingletonCases:
    """Case space with a single element (no features)."""

    kind: ClassVar[str] = "singleton"

    @property
    def dim(self) -> int | None:
        return None


@dataclass(frozen=True)
class BallCases:
    """Cases drawn uniformly from the unit ball in ``dim`` dimensions."""

    kind: ClassVar[str] = "ball"
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ConfigurationError(f"cases.dim must be >= 1, got {self.dim}")


CaseSpec = Union[SingletonCases, BallCases]


def sample_cases(
    spec: CaseSpec,
    count: int,
    rng_direction: np.random.Generator,
    rng_radius: np.random.Generator,
) -> np.ndarray | None:
    """Draw ``count`` cases as a (count, dim) array; None for the singleton space.

    Directions and radii come from separate streams so that a shorter draw
    is a prefix of a longer one from the same seeds.
    """
    if isinstance(spec, SingletonCases):
        return None
    directions = rng_direction.standard_normal((count, spec.dim))
    norms = np.linalg.norm(directions, axis=1)
    norms[norms == 0.0] = 1.0
    radii = rng_radius.random(count) ** (1.0 / spec.dim)
    return directions * (radii / norms)[:, None]


@dataclass
class RunLedger:
    """Full accounting for one simulated run.

    ``steps`` maps each per-step column name (``sim.STEP_COLUMNS``) to an
    array over the run's steps; it is empty when the run kept no records.
    """

    steps: dict[str, np.ndarray]
    total_loss: float
    court_count: int
    total_subsidy_paid: float
    seed: int
    config_digest: str


def canonical_digest(mapping: dict) -> str:
    """Stable short hash of a JSON-serializable configuration mapping."""
    encoded = json.dumps(mapping, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(encoded).hexdigest()[:16]
