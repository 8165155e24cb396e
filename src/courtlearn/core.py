"""Domain types shared by the whole package.

Cases, hidden decision rules, court observations, datasets, cost models,
and the per-run ledger produced by the simulator.  All types are plain
values; only :class:`Dataset` mutates (append-only).

A vector run has one spectral state: its :class:`Dataset` owns the run's
only Gram matrix and caches one eigendecomposition of it (a
:class:`Spectrum`) until the next append.  The linear fit, the
norm-constrained bisection and the kwik gate all read that one
decomposition.  The simulator passes raw case rows; :class:`CaseFeatures`
is the checked single-case wrapper for callers outside the simulator.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Union

import numpy as np

__all__ = [
    "ConfigurationError",
    "CaseKind",
    "CaseFeatures",
    "SINGLETON_CASE",
    "ConstantTruth",
    "LinearTruth",
    "GroundTruth",
    "Observation",
    "Spectrum",
    "decompose",
    "augment",
    "Dataset",
    "PointMassCosts",
    "UniformCosts",
    "FixedCosts",
    "CostModel",
    "SingletonCases",
    "BallCases",
    "CaseSpec",
    "sample_case",
    "sample_cases",
    "check_unit_ball",
    "court_outcome",
    "RunLedger",
    "canonical_digest",
]

# Slack for float round-off when validating norm constraints.
_NORM_TOL = 1e-9


class ConfigurationError(ValueError):
    """A run or experiment is configured inconsistently."""


class CaseKind(Enum):
    SINGLETON = "singleton"
    VECTOR = "vector"


@dataclass(frozen=True, eq=False)
class CaseFeatures:
    """A case: the singleton space's only element, or a point in the unit ball.

    ``coords is None`` marks the singleton case.  Vector cases must have
    dimension >= 1 and Euclidean norm <= 1.  Treat instances (including the
    coords array) as immutable.
    """

    coords: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.coords is None:
            return
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 1 or coords.shape[0] < 1:
            raise ConfigurationError(
                f"case coordinates must be a vector of dimension >= 1, got shape {coords.shape}"
            )
        norm = float(np.linalg.norm(coords))
        if norm > 1.0 + _NORM_TOL:
            raise ConfigurationError(f"case lies outside the unit ball: |x| = {norm}")
        object.__setattr__(self, "coords", coords)

    @property
    def kind(self) -> CaseKind:
        return CaseKind.SINGLETON if self.coords is None else CaseKind.VECTOR

    @property
    def dim(self) -> int:
        return 0 if self.coords is None else int(self.coords.shape[0])

    def augmented(self) -> np.ndarray:
        """Feature vector with a trailing constant-1 coordinate."""
        if self.coords is None:
            raise ConfigurationError("singleton cases have no feature vector")
        return augment(self.coords)


#: Shared instance for runs over the singleton case space.
SINGLETON_CASE = CaseFeatures()


@dataclass(frozen=True)
class ConstantTruth:
    """Hidden rule f(x) = mu for every case, with noise level sigma and cap alpha."""

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

    @property
    def dim(self) -> int | None:
        return None

    def value(self, case: CaseFeatures) -> float:
        return self.mu


@dataclass(frozen=True, eq=False)
class LinearTruth:
    """Hidden rule f(x) = beta.x + beta0 on the unit ball.

    Constrained at construction (|beta| <= beta0 and beta0 + |beta| <= alpha)
    so that f maps the whole ball into [0, alpha] without any clipping.
    """

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
        norm = float(np.linalg.norm(beta))
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

    def value(self, case: CaseFeatures) -> float:
        if case.coords is None or case.dim != self.beta.shape[0]:
            raise ConfigurationError(
                f"case dimension {case.dim} does not match rule dimension {self.beta.shape[0]}"
            )
        return float(self.beta @ case.coords + self.beta0)


GroundTruth = Union[ConstantTruth, LinearTruth]


@dataclass(frozen=True, eq=False)
class Observation:
    """One court outcome: the case and its noisy revealed value y = f(x) + eta."""

    case: CaseFeatures
    outcome: float


def augment(x: np.ndarray) -> np.ndarray:
    """The augmented feature row [x, 1] of a raw case vector."""
    out = np.empty(x.shape[0] + 1)
    out[:-1] = x
    out[-1] = 1.0
    return out


class Spectrum(NamedTuple):
    """``np.linalg.eigh`` of a Gram matrix, plus its eigenvalues clipped at 0.

    ``values`` ascend and keep eigh's round-off signs (the pseudo-inverse
    needs them); ``floored`` is what the bisection and the kwik gate read.
    """

    values: np.ndarray
    vectors: np.ndarray
    floored: np.ndarray


def decompose(gram: np.ndarray) -> Spectrum:
    values, vectors = np.linalg.eigh(gram)
    return Spectrum(values, vectors, np.clip(values, 0.0, None))


class Dataset:
    """Append-only court data, kept as sufficient statistics only.

    The statistics (count, outcome sum; Gram matrix and feature/outcome cross
    products over augmented features for vector runs) are updated per
    observation, so fitting stays cheap as the dataset grows.  ``dim`` is the
    case dimension, or ``None`` for singleton-space runs.  Vector datasets
    also cache the Gram matrix's :class:`Spectrum` between appends.
    """

    __slots__ = ("dim", "_count", "_sum_y", "_gram", "_xty", "_spectrum")

    def __init__(self, dim: int | None = None):
        if dim is not None and dim < 1:
            raise ConfigurationError(f"case dimension must be >= 1, got {dim}")
        self.dim = dim
        self._count = 0
        self._sum_y = 0.0
        self._spectrum: Spectrum | None = None
        if dim is None:
            self._gram = None
            self._xty = None
        else:
            k = dim + 1
            self._gram = np.zeros((k, k))
            self._xty = np.zeros(k)

    def __len__(self) -> int:
        return self._count

    @property
    def sum_outcomes(self) -> float:
        return self._sum_y

    @property
    def gram(self) -> np.ndarray:
        """Gram matrix of augmented features [x, 1] (vector runs only). Read-only."""
        if self._gram is None:
            raise ConfigurationError("singleton datasets have no Gram matrix")
        return self._gram

    @property
    def xty(self) -> np.ndarray:
        if self._xty is None:
            raise ConfigurationError("singleton datasets have no feature products")
        return self._xty

    def spectrum(self) -> Spectrum:
        """The Gram matrix's eigendecomposition, computed at most once per append."""
        if self._spectrum is None:
            self._spectrum = decompose(self.gram)
        return self._spectrum

    def append(self, obs: Observation) -> None:
        if self.dim is None:
            if obs.case.coords is not None:
                raise ConfigurationError("vector case appended to a singleton dataset")
            self.append_row(None, obs.outcome)
        else:
            if obs.case.dim != self.dim:
                raise ConfigurationError(
                    f"case dimension {obs.case.dim} does not match dataset dimension {self.dim}"
                )
            self.append_row(obs.case.augmented(), obs.outcome)

    def append_row(self, row: np.ndarray | None, outcome: float) -> None:
        """Unchecked append: ``row`` is the augmented case [x, 1], or None for singleton data."""
        if row is not None:
            self._gram += np.outer(row, row)
            self._xty += outcome * row
            self._spectrum = None
        self._sum_y += outcome
        self._count += 1

    @classmethod
    def from_observations(cls, observations: Iterable[Observation], dim: int | None = None) -> "Dataset":
        data = cls(dim)
        for obs in observations:
            data.append(obs)
        return data


@dataclass(frozen=True)
class PointMassCosts:
    """Every case costs exactly ``c`` to bring to court."""

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

    @property
    def c_bar(self) -> float:
        return self.c

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(count, self.c)


@dataclass(frozen=True)
class UniformCosts:
    """Costs drawn i.i.d. uniform on [c_min, c_max]."""

    c_min: float
    c_max: float

    def __post_init__(self) -> None:
        if not self.c_min > 0:
            raise ConfigurationError(f"cost.c_min must be > 0, got {self.c_min}")
        if self.c_max < self.c_min:
            raise ConfigurationError(
                f"cost.c_max = {self.c_max} below cost.c_min = {self.c_min}"
            )

    @property
    def c_bar(self) -> float:
        return 0.5 * (self.c_min + self.c_max)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return self.c_min + (self.c_max - self.c_min) * rng.random(count)


@dataclass(frozen=True)
class FixedCosts:
    """Deterministic cost sequence, cycled if shorter than the horizon."""

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

    @property
    def c_bar(self) -> float:
        return sum(self.costs) / len(self.costs)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        reps = -(-count // len(self.costs))
        return np.tile(np.asarray(self.costs), reps)[:count]


CostModel = Union[PointMassCosts, UniformCosts, FixedCosts]


@dataclass(frozen=True)
class SingletonCases:
    """Case space with a single element (no features)."""

    @property
    def dim(self) -> int | None:
        return None


@dataclass(frozen=True)
class BallCases:
    """Cases drawn uniformly from the unit ball in ``dim`` dimensions."""

    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ConfigurationError(f"cases.dim must be >= 1, got {self.dim}")


CaseSpec = Union[SingletonCases, BallCases]


def sample_case(spec: CaseSpec, rng: np.random.Generator) -> CaseFeatures:
    """Draw one case from the configured case distribution."""
    if isinstance(spec, SingletonCases):
        return SINGLETON_CASE
    direction = rng.standard_normal(spec.dim)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:  # measure-zero guard
        direction[0] = 1.0
        norm = 1.0
    radius = rng.random() ** (1.0 / spec.dim)
    return CaseFeatures(direction * (radius / norm))


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


def check_unit_ball(xs: np.ndarray) -> None:
    """Raise unless every row of ``xs`` lies in the unit ball (the CaseFeatures check, vectorized)."""
    norms = np.linalg.norm(xs, axis=1)
    if (norms > 1.0 + _NORM_TOL).any():
        raise ConfigurationError(f"case lies outside the unit ball: |x| = {float(norms.max())}")


def court_outcome(truth: GroundTruth, case: CaseFeatures, rng: np.random.Generator) -> Observation:
    """Litigate ``case``: reveal y = f(x) + noise.  The noise is never truncated."""
    value = truth.value(case)
    noise = truth.sigma * rng.standard_normal() if truth.sigma > 0 else 0.0
    return Observation(case, value + noise)


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

    def recompute_total_loss(self) -> float:
        """Re-derive the cumulative loss from the step columns (same summation order)."""
        if not self.steps:
            return 0.0
        return np.cumsum(self.steps["squared_error"] + self.steps["court_cost_incurred"]).item(-1)


def canonical_digest(mapping: dict) -> str:
    """Stable short hash of a JSON-serializable configuration mapping."""
    encoded = json.dumps(mapping, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(encoded).hexdigest()[:16]
