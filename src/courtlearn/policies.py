"""Selection policies: who gets compelled or subsidized into court, and when.

Five mechanisms are implemented, together with the agent's settle-vs-litigate
response.  An agent litigates exactly when the net cost of court, cost -
subsidy, does not exceed twice the learner's current error bound (the
largest settlement shift a court visit could produce); ties litigate.

* ``no_subsidy``          - leave every agent alone.
* ``etc``                 - compel the first ceil(alpha * sqrt(T / c_max)) cases
                            (at least one).
* ``dynamic_compelling``  - compel each case independently with probability
                            min(1, alpha / sqrt(t * c_max)); needs no horizon.
* ``subsidy_sampling``    - draw a random subsidy whose tail probability
                            Pr[s >= c - 2*err] equals alpha / sqrt(t * c) for
                            every cost c in the known range.
* ``kwik``                - compel unless the courted history provably covers
                            the query direction (eigenvalue-gated prediction).

A policy is its frozen config, which holds only the policy's own parameters:
its law reads the horizon, the truth's alpha and the cost model's range from
the run.  ``actions(run, rng, lo, hi)`` states a config's actions for the
``sim.RunConfig`` ``run`` on steps lo + 1 .. hi, as (compel mask, subsidy
bases), drawn from ``rng`` in step order; so consecutive step ranges give
the bits of one draw over their union.  The mask is a bool array of length
hi - lo, or ``None`` for a policy that never compels.  The bases are
``None`` for a policy that never offers, else the offer at step t is
``max(0.0, bases[t - 1 - lo] - 2 * err_before)``: all-zero bases, even a
zero-stride ``np.broadcast_to``, would make the visit search compute every
window's offers, about 10-20% more time per ``no_subsidy`` or
``dynamic_compelling`` run (mean learner, T = 1e5, on one Xeon core).
``active(run)`` is the number of leading steps on which the policy may act:
from step active + 1 on, it neither compels nor offers.  The first four
policies are state-free: their law does not read the court history (an offer
reads it only through the error bound), so the visit search draws their
actions window by window as it reaches them, one uniform per step from
``rng`` (none for ``no_subsidy`` and ``etc``).  Each law is stated once:
``etc_compel_count`` gives the compel phase's length, ``transition_step``
the subsidy law's early phase, and ``dynamic_compel_probability``,
``subsidy_tail_probability`` and ``subsidy_bases`` work elementwise on the
step numbers.  The kwik gate reads the court history, so ``kwik`` states no
actions, with active = T, and the visit search keeps its own mask, which it
sets where the gate fires.  ``_gate`` checks many case rows in one stacked
pass, at ``KwikConfig.thresholds``: a window of rows on the spectrum frozen
since the last court visit, or rows each on the prefix of the court rows its
guessed count implies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .core import ConfigurationError, Spectrum

__all__ = [
    "agent_decision",
    "etc_compel_count",
    "dynamic_compel_probability",
    "subsidy_tail_probability",
    "NoSubsidyConfig",
    "EtcConfig",
    "DynamicCompellingConfig",
    "SubsidySamplingConfig",
    "KwikConfig",
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
    if value >= horizon:  # also when T / c_max overflows (a subnormal c_max): ceil refuses inf
        return horizon
    # tiny slack guards ceil against float fuzz on exact integers; a positive
    # value, however small (or underflowed to 0), still compels one case
    return max(1, math.ceil(value - 1e-9))


def dynamic_compel_probability(t: int | np.ndarray, alpha: float, c_max: float):
    """Per-step compel probability min(1, alpha / sqrt(t * c_max)); ``t`` may be an array."""
    p = np.asarray(t * c_max, dtype=float)  # then in place: one array for the whole chain
    np.sqrt(p, out=p)
    np.divide(alpha, p, out=p)
    np.minimum(1.0, p, out=p)
    return p[()]


def subsidy_tail_probability(t: int | np.ndarray, c: float, alpha: float, phase1=False):
    """Pr[subsidy >= c - 2*err] under the sampling distribution at step t.

    Equals alpha / sqrt(t * c), scaled by 1/alpha during the early phase in
    which the unscaled distribution would not be a probability measure.
    ``t`` and ``phase1`` may be arrays over steps; the result is then
    elementwise.  Raises at the first step whose probability exceeds 1.
    """
    t = np.asarray(t)
    p = np.asarray(t * c, dtype=float)  # then in place: one array for the whole chain
    np.sqrt(p, out=p)
    np.divide(alpha, p, out=p)
    np.divide(p, alpha, out=p, where=phase1)
    bad = np.flatnonzero(p > 1.0)
    if bad.size:
        i = bad[0]
        raise ConfigurationError(
            f"subsidy tail probability {float(p.flat[i])} > 1 at t={int(t.flat[i])}, c={c}:"
            " distribution ill-defined"
        )
    return p[()]


def transition_step(alpha: float, c_min: float) -> int:
    """Last step of the subsidy law's scaled early phase; 0 when no scaling is needed."""
    if alpha / math.sqrt(c_min) > 1.0:
        return max(math.floor(alpha**2), math.floor(alpha**2 / c_min))
    return 0


def subsidy_bases(
    u: np.ndarray, t: np.ndarray, alpha: float, c_min: float, c_max: float, transition_step: int
) -> np.ndarray:
    """Each step's subsidy before the error shift, by inverse-transform sampling.

    ``u`` holds one uniform draw per step number in ``t``.  The offer
    ``max(0.0, base - two_err)`` has a point mass at c_max - two_err, a
    density proportional to (s + two_err)^(-3/2) on [c_min - two_err,
    c_max - two_err] and the remaining mass at 0 (support points below zero
    are floored at 0; those agents litigate at s = 0 anyway), so that
    Pr[s >= c - two_err] = alpha / sqrt(t * c) for every c in [c_min, c_max],
    scaled by 1/alpha while t <= transition_step.
    """
    phase1 = t <= transition_step
    p_min = subsidy_tail_probability(t, c_min, alpha, phase1)
    p_max = subsidy_tail_probability(t, c_max, alpha, phase1)
    bases = np.where(u <= p_max, c_max, 0.0)
    # The middle branch is rare; scalar ``** 2`` is libm pow, which rounds
    # differently from x * x (and from numpy's power) on some draws.
    middle = np.flatnonzero((u > p_max) & (u <= p_min))
    for i in middle.tolist():
        alpha_eff = 1.0 if phase1.item(i) else alpha
        bases[i] = (alpha_eff / (u.item(i) * math.sqrt(t.item(i)))) ** 2
    return bases


def _gate(spectrum: Spectrum, queries: np.ndarray, alpha1: float, alpha2: float) -> np.ndarray:
    """Gate each augmented query row on a courted-history spectrum: True (compel) unless covered.

    ``spectrum`` is one decomposition shared by every row, or a stack with one
    per row (the prefix its guessed visit count implies).  Each query is
    split across the eigenvectors of its courted Gram matrix.  Directions
    with eigenvalue >= 1 contribute projection^2 / eigenvalue to the covered
    mass; the rest contribute their raw squared projection.  Both masses are
    summed left to right over the directions (``np.cumsum``), the order of
    the one-row gate in ``tests/oracle.py``.
    """
    projections = np.matmul(np.swapaxes(spectrum.vectors, -1, -2), queries[:, :, None])[:, :, 0]
    eigvals = spectrum.values
    covered = eigvals >= _GATE_EIGENVALUE_FLOOR
    sq = projections * projections
    # Covered eigenvalues are at the floor or above; the maximum only keeps the
    # division defined where its term is dropped.
    covered_terms = np.where(covered, sq / np.maximum(eigvals, _GATE_EIGENVALUE_FLOOR), 0.0)
    covered_mass = np.cumsum(covered_terms, axis=-1)[:, -1]
    novel_mass = np.cumsum(np.where(covered, 0.0, sq), axis=-1)[:, -1]
    return ~((covered_mass <= alpha1 * alpha1) & (novel_mass <= alpha2 * alpha2))


def kwik_default_alpha1(epsilon: float, delta: float, dim: int, constant: float = 1.0) -> float:
    """Concrete instantiation of the covered-mass threshold for the gate."""
    return constant * epsilon**2 / (dim * math.log(dim + 1) * math.sqrt(math.log(1.0 / (epsilon * delta))))


# Each config class carries its config-file ``name`` and a stable ``tag`` for
# seed derivation; adding a policy must not perturb the derived streams of
# existing ones.  ``run_fields`` names the run values its law reads (the
# horizon, the truth's alpha, the cost model's c_min and c_max); the run's
# canonical description records them with the policy.


@dataclass(frozen=True)
class NoSubsidyConfig:
    """Status quo: no compulsion, no subsidies."""

    name: ClassVar[str] = "no_subsidy"
    tag: ClassVar[int] = 1
    run_fields: ClassVar[tuple[str, ...]] = ()

    def actions(self, run, rng, lo: int, hi: int) -> tuple[None, None]:
        return None, None

    def active(self, run) -> int:
        return 0


@dataclass(frozen=True)
class EtcConfig:
    """Explore-then-commit: compel a horizon-sized prefix, then leave agents alone."""

    name: ClassVar[str] = "etc"
    tag: ClassVar[int] = 2
    run_fields: ClassVar[tuple[str, ...]] = ("horizon", "alpha", "c_max")

    def actions(self, run, rng, lo: int, hi: int) -> tuple[np.ndarray, None]:
        return np.arange(lo, hi) < self.active(run), None

    def active(self, run) -> int:
        return etc_compel_count(run.horizon, run.truth.alpha, run.costs.c_max)


@dataclass(frozen=True)
class DynamicCompellingConfig:
    """Horizon-free compelling with decaying per-step probability."""

    name: ClassVar[str] = "dynamic_compelling"
    tag: ClassVar[int] = 3
    run_fields: ClassVar[tuple[str, ...]] = ("alpha", "c_max")

    def actions(self, run, rng, lo: int, hi: int) -> tuple[np.ndarray, None]:
        p = dynamic_compel_probability(np.arange(lo + 1, hi + 1), run.truth.alpha, run.costs.c_max)
        return rng.random(hi - lo) < p, None

    def active(self, run) -> int:
        return run.horizon


@dataclass(frozen=True)
class SubsidySamplingConfig:
    """Random subsidies with the decaying tail law over the run's cost range.

    A run may lie outside the region where the law is a distribution at
    t = 1; ``sim.RunConfig`` refuses such a run.
    """

    name: ClassVar[str] = "subsidy_sampling"
    tag: ClassVar[int] = 4
    run_fields: ClassVar[tuple[str, ...]] = ("alpha", "c_min", "c_max")

    def actions(self, run, rng, lo: int, hi: int) -> tuple[None, np.ndarray]:
        alpha, c_min = run.truth.alpha, run.costs.c_min
        bases = subsidy_bases(
            rng.random(hi - lo), np.arange(lo + 1, hi + 1), alpha, c_min, run.costs.c_max,
            transition_step(alpha, c_min),
        )
        return None, bases

    def active(self, run) -> int:
        return run.horizon


@dataclass(frozen=True)
class KwikConfig:
    """Eigenvalue-gated compelling with per-case accuracy targets.

    ``alpha1`` and ``alpha2`` may be given directly; otherwise they default
    to ``alpha1_constant * epsilon^2 / (n log(n+1) sqrt(log(1/(epsilon
    delta))))`` and ``epsilon / 4`` once the case dimension is known.
    """

    name: ClassVar[str] = "kwik"
    tag: ClassVar[int] = 5
    run_fields: ClassVar[tuple[str, ...]] = ()

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

    def thresholds(self, dim: int) -> tuple[float, float]:
        """(alpha1, alpha2) for case dimension ``dim``; a default alpha1 must be finite and > 0."""
        alpha2 = self.alpha2 if self.alpha2 is not None else self.epsilon / 4.0
        if self.alpha1 is not None:
            return self.alpha1, alpha2
        try:
            alpha1 = kwik_default_alpha1(self.epsilon, self.delta, dim, self.alpha1_constant)
        except (ZeroDivisionError, OverflowError, ValueError):
            alpha1 = math.nan
        if not 0.0 < alpha1 < math.inf:
            raise ConfigurationError(
                f"kwik policy alpha1: default {alpha1} for epsilon={self.epsilon},"
                f" delta={self.delta}, dim={dim} is not a finite number > 0; set alpha1"
            )
        return alpha1, alpha2

    def actions(self, run, rng, lo: int, hi: int) -> tuple[None, None]:
        return None, None

    def active(self, run) -> int:
        return run.horizon


PolicyConfig = Union[
    NoSubsidyConfig, EtcConfig, DynamicCompellingConfig, SubsidySamplingConfig, KwikConfig
]

