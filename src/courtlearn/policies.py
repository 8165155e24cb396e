"""Selection policies: who gets compelled or subsidized into court, and when.

Five mechanisms are implemented, together with the agent's settle-vs-litigate
response.  An agent litigates exactly when the net cost of court, cost -
subsidy, does not exceed twice the learner's current error bound (the
largest settlement shift a court visit could produce); ties litigate.

* ``no_subsidy``          - leave every agent alone.
* ``etc``                 - compel the first ceil(alpha * sqrt(T / c_max)) cases.
* ``dynamic_compelling``  - compel each case independently with probability
                            min(1, alpha / sqrt(t * c_max)); needs no horizon.
* ``subsidy_sampling``    - draw a random subsidy whose tail probability
                            Pr[s >= c - 2*err] equals alpha / sqrt(t * c) for
                            every cost c in the known range.
* ``kwik``                - compel unless the courted history provably covers
                            the query direction (eigenvalue-gated prediction).

A policy is its frozen config.  The first four are state-free: each config
states its whole-horizon law (``horizon_actions``), which draws a run's
compel mask and subsidy bases up front, and the step from which it stays
idle (``inactive_from``).  The scalar laws (``etc_compel_count``,
``dynamic_compel_probability``, ``sample_subsidy``) state the same laws one
step at a time.  Only the kwik gate acts case by case, and ``KwikPolicy`` is
the one per-run policy object: ``compels`` gates the raw case row.  It keeps
no court history of its own: it gates on the spectrum that the run's
``Dataset`` caches for the learner, so a run holds one Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .core import ConfigurationError, Dataset, augment

__all__ = [
    "agent_decision",
    "etc_compel_count",
    "dynamic_compel_probability",
    "subsidy_tail_probability",
    "sample_subsidy",
    "subsidy_bases",
    "kwik_default_alpha1",
    "NoSubsidyConfig",
    "EtcConfig",
    "DynamicCompellingConfig",
    "SubsidySamplingConfig",
    "KwikConfig",
    "PolicyConfig",
    "KwikPolicy",
]

# Eigenvalues at or above this count as "covered" directions in the gate.
_GATE_EIGENVALUE_FLOOR = 1.0


def agent_decision(cost: float | np.ndarray, subsidy: float | np.ndarray, err_before: float):
    """True when the agent litigates: cost - subsidy <= 2 * err_before (ties litigate).

    ``cost`` and ``subsidy`` may be arrays over steps; the result is then elementwise.
    """
    return cost - subsidy <= 2.0 * err_before


def etc_compel_count(horizon: int, alpha: float, c_max: float) -> int:
    """Length of the compel phase: ceil(alpha * sqrt(T / c_max)), capped at T."""
    value = alpha * math.sqrt(horizon / c_max)
    # tiny slack guards ceil against float fuzz on exact integers
    return min(horizon, math.ceil(value - 1e-9))


def dynamic_compel_probability(t: int | np.ndarray, alpha: float, c_max: float):
    """Per-step compel probability min(1, alpha / sqrt(t * c_max)); ``t`` may be an array."""
    return np.minimum(1.0, alpha / np.sqrt(t * c_max))


def subsidy_tail_probability(t: int, c: float, alpha: float, phase1: bool = False) -> float:
    """Pr[subsidy >= c - 2*err] under the sampling distribution at step t.

    Equals alpha / sqrt(t * c), scaled by 1/alpha during the early phase in
    which the unscaled distribution would not be a probability measure.
    """
    p = alpha / math.sqrt(t * c)
    if phase1:
        p /= alpha
    if p > 1.0:
        raise ConfigurationError(
            f"subsidy tail probability {p} > 1 at t={t}, c={c}: distribution ill-defined"
        )
    return p


def sample_subsidy(
    t: int,
    two_err: float,
    alpha: float,
    c_min: float,
    c_max: float,
    phase1: bool,
    rng,
) -> float:
    """Draw a subsidy by inverse-transform sampling.

    The distribution places a point mass at c_max - two_err, a density
    proportional to (s + two_err)^(-3/2) on [c_min - two_err, c_max - two_err],
    and the remaining mass at 0, so that the tail identity
    Pr[s >= c - two_err] = alpha / sqrt(t * c) holds for every c in
    [c_min, c_max] (scaled uniformly by 1/alpha during phase 1).  Support
    points below zero are floored at 0; the affected agents litigate at
    s = 0 anyway, so their decisions are unchanged.
    """
    p_min = subsidy_tail_probability(t, c_min, alpha, phase1)
    p_max = subsidy_tail_probability(t, c_max, alpha, phase1)
    u = rng.random()
    if u <= p_max:
        return max(0.0, c_max - two_err)
    if u <= p_min:
        alpha_eff = 1.0 if phase1 else alpha
        c = (alpha_eff / (u * math.sqrt(t))) ** 2
        return max(0.0, c - two_err)
    return 0.0


def subsidy_bases(
    u: np.ndarray, alpha: float, c_min: float, c_max: float, transition_step: int
) -> np.ndarray:
    """Whole-horizon form of ``sample_subsidy``: each step's subsidy before the error shift.

    ``u`` holds one uniform draw per step 1..len(u).  For the same draw and
    the same ``two_err``, ``max(0.0, bases[t - 1] - two_err)`` is bit for bit
    what ``sample_subsidy`` returns.  Raises like ``subsidy_tail_probability``
    at the first step whose tail probability exceeds 1.
    """
    t = np.arange(1, u.shape[0] + 1, dtype=float)
    phase1 = t <= transition_step
    p_min = alpha / np.sqrt(t * c_min)
    p_max = alpha / np.sqrt(t * c_max)
    p_min[phase1] /= alpha
    p_max[phase1] /= alpha
    bad = np.flatnonzero((p_min > 1.0) | (p_max > 1.0))
    if bad.size:
        step = int(bad[0]) + 1
        for c in (c_min, c_max):
            subsidy_tail_probability(step, c, alpha, step <= transition_step)
    bases = np.where(u <= p_max, c_max, 0.0)
    # The middle branch is rare; scalar ``** 2`` is libm pow, as in sample_subsidy,
    # which rounds differently from x * x (and from numpy's power) on some draws.
    middle = np.flatnonzero((u > p_max) & (u <= p_min))
    for i, draw in zip(middle.tolist(), u[middle].tolist()):
        step = i + 1
        alpha_eff = 1.0 if step <= transition_step else alpha
        bases[i] = (alpha_eff / (draw * math.sqrt(step))) ** 2
    return bases


def _gate_from_eig(
    eigvals: np.ndarray,
    eigvecs: np.ndarray,
    query: np.ndarray,
    alpha1: float,
    alpha2: float,
) -> bool:
    """Gate on the courted-history spectrum: True (compel) unless the query is covered.

    Splits the query across the eigenvectors of the courted Gram matrix.
    Directions with eigenvalue >= 1 contribute projection^2 / eigenvalue to
    the covered mass; the rest contribute their raw squared projection.
    """
    projections = eigvecs.T @ query
    covered = eigvals >= _GATE_EIGENVALUE_FLOOR
    sq = projections * projections
    covered_mass = float((sq[covered] / eigvals[covered]).sum())
    novel_mass = float(sq[~covered].sum())
    return not (covered_mass <= alpha1 * alpha1 and novel_mass <= alpha2 * alpha2)


def kwik_default_alpha1(epsilon: float, delta: float, dim: int, constant: float = 1.0) -> float:
    """Concrete instantiation of the covered-mass threshold for the gate."""
    return constant * epsilon**2 / (dim * math.log(dim + 1) * math.sqrt(math.log(1.0 / (epsilon * delta))))


# Each config class carries its config-file ``name`` and a stable ``tag`` for
# seed derivation; adding a policy must not perturb the derived streams of
# existing ones.  ``state_free`` marks policies whose randomness and
# compel/subsidy law do not depend on the court history (a subsidy offer
# reads it only through the error bound), so a whole run's actions can be
# drawn up front.  Their ``horizon_actions(horizon, rng)`` returns steps
# 1..horizon at once as (compel mask, subsidy bases), drawing one uniform per
# step from ``rng`` (none for ``no_subsidy`` and ``etc``).  ``None`` stands
# for "never compels" or "never offers"; the offer at step t is
# ``max(0.0, bases[t - 1] - 2 * err_before)``.  ``inactive_from(t)`` is True
# if the policy neither compels nor offers a subsidy at any step >= t.


@dataclass(frozen=True)
class NoSubsidyConfig:
    """Status quo: no compulsion, no subsidies."""

    name: ClassVar[str] = "no_subsidy"
    tag: ClassVar[int] = 1
    state_free: ClassVar[bool] = True

    def inactive_from(self, t: int) -> bool:
        return True

    def horizon_actions(self, horizon: int, rng) -> tuple[None, None]:
        return None, None


@dataclass(frozen=True)
class EtcConfig:
    """Explore-then-commit: compel a horizon-sized prefix, then leave agents alone."""

    name: ClassVar[str] = "etc"
    tag: ClassVar[int] = 2
    state_free: ClassVar[bool] = True

    horizon: int
    alpha: float
    c_max: float

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ConfigurationError(f"policy horizon must be >= 1, got {self.horizon}")
        if not (self.alpha > 0 and self.c_max > 0):
            raise ConfigurationError("etc policy needs alpha > 0 and c_max > 0")

    @property
    def compel_count(self) -> int:
        return etc_compel_count(self.horizon, self.alpha, self.c_max)

    def inactive_from(self, t: int) -> bool:
        return t > self.compel_count

    def horizon_actions(self, horizon: int, rng) -> tuple[np.ndarray, None]:
        return np.arange(horizon) < self.compel_count, None


@dataclass(frozen=True)
class DynamicCompellingConfig:
    """Horizon-free compelling with decaying per-step probability."""

    name: ClassVar[str] = "dynamic_compelling"
    tag: ClassVar[int] = 3
    state_free: ClassVar[bool] = True

    alpha: float
    c_max: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and self.c_max > 0):
            raise ConfigurationError("dynamic_compelling policy needs alpha > 0 and c_max > 0")

    def inactive_from(self, t: int) -> bool:
        return False

    def horizon_actions(self, horizon: int, rng) -> tuple[np.ndarray, None]:
        t = np.arange(1, horizon + 1, dtype=float)
        return rng.random(horizon) < dynamic_compel_probability(t, self.alpha, self.c_max), None


@dataclass(frozen=True)
class SubsidySamplingConfig:
    """Random subsidies with the decaying tail law over a known cost range.

    A config may lie outside the region where the law is a distribution at
    t = 1; ``sim.RunConfig`` refuses such a policy for a run.
    """

    name: ClassVar[str] = "subsidy_sampling"
    tag: ClassVar[int] = 4
    state_free: ClassVar[bool] = True

    alpha: float
    c_min: float
    c_max: float

    def __post_init__(self) -> None:
        if not self.c_min > 0:
            raise ConfigurationError(f"subsidy policy c_min must be > 0, got {self.c_min}")
        if self.c_max < self.c_min:
            raise ConfigurationError("subsidy policy needs c_max >= c_min")
        if not self.alpha > 0:
            raise ConfigurationError("subsidy policy needs alpha > 0")

    @property
    def transition_step(self) -> int:
        """Last step of the scaled early phase; 0 when no scaling is needed."""
        if self.alpha / math.sqrt(self.c_min) > 1.0:
            return max(math.floor(self.alpha**2), math.floor(self.alpha**2 / self.c_min))
        return 0

    def inactive_from(self, t: int) -> bool:
        return False

    def horizon_actions(self, horizon: int, rng) -> tuple[None, np.ndarray]:
        bases = subsidy_bases(
            rng.random(horizon), self.alpha, self.c_min, self.c_max, self.transition_step
        )
        if np.isinf(bases).any():
            raise ConfigurationError("subsidy must be finite and >= 0, got inf")
        return None, bases


@dataclass(frozen=True)
class KwikConfig:
    """Eigenvalue-gated compelling with per-case accuracy targets.

    ``alpha1`` and ``alpha2`` may be given directly; otherwise they default
    to ``alpha1_constant * epsilon^2 / (n log(n+1) sqrt(log(1/(epsilon
    delta))))`` and ``epsilon / 4`` once the case dimension is known.
    """

    name: ClassVar[str] = "kwik"
    tag: ClassVar[int] = 5
    state_free: ClassVar[bool] = False

    epsilon: float
    delta: float
    alpha1: float | None = None
    alpha2: float | None = None
    alpha1_constant: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.epsilon and 0 < self.delta < 1):
            raise ConfigurationError("kwik policy needs epsilon > 0 and delta in (0, 1)")
        # The gate squares the thresholds, so a negative one would pass for its magnitude.
        for name in ("alpha1", "alpha2", "alpha1_constant"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ConfigurationError(f"kwik policy {name} must be > 0, got {value}")

    def resolve_alpha1(self, dim: int) -> float:
        if self.alpha1 is not None:
            return self.alpha1
        return kwik_default_alpha1(self.epsilon, self.delta, dim, self.alpha1_constant)

    def resolve_alpha2(self) -> float:
        return self.alpha2 if self.alpha2 is not None else self.epsilon / 4.0


PolicyConfig = Union[
    NoSubsidyConfig, EtcConfig, DynamicCompellingConfig, SubsidySamplingConfig, KwikConfig
]


class KwikPolicy:
    """Gates each case of one run on the spectrum of the run's (vector) court data."""

    def __init__(self, config: KwikConfig, data: Dataset):
        self.alpha1 = config.resolve_alpha1(data.dim)
        self.alpha2 = config.resolve_alpha2()
        self.data = data

    def compels(self, x: np.ndarray) -> bool:
        """True when the gate sends the raw case row ``x`` to court."""
        spectrum = self.data.spectrum()
        return _gate_from_eig(spectrum.floored, spectrum.vectors, augment(x), self.alpha1, self.alpha2)
