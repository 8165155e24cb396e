"""Decision learning algorithms with explicit, computable error bounds.

Three learners map court data to decision rules: the empirical mean for the
singleton/constant setting, ordinary least squares on augmented features
[x, 1], and least squares constrained to a coefficient-norm ball.  Each
carries an error bound of the form constant * sigma * sqrt(dim+1) / sqrt(m),
capped at the decision cap alpha, that both the agents and the selection
policies consult.

Both linear families solve from an eigendecomposition of the Gram matrix:
the minimum-norm solution replays ``np.linalg.pinv(gram, hermitian=True)``
on it, and the norm-constrained bisection reuses it, so no fit decomposes a
matrix itself.  The solve works on stacks of (spectrum, X^T y) pairs, one
fit per matrix and bit for bit the same as fitting each alone: the
simulator fits a batch of court visits at once, and the offline baseline is
a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import ConfigurationError, Spectrum

__all__ = [
    "LearnerFamily",
    "LearnerKind",
    "err_bound",
]

# Bisection for the ridge multiplier stops at this relative width.
_BISECT_RTOL = 1e-10

# np.linalg.pinv's default cutoff, relative to the largest singular value.
_PINV_RCOND = 1e-15


class LearnerFamily(Enum):
    EMPIRICAL_MEAN = "empirical_mean"
    OLS = "ols"
    NORM_CONSTRAINED = "norm_constrained"


@dataclass(frozen=True)
class LearnerKind:
    """A learner family plus the constant in its error bound.

    ``err_constant`` scales the error bound (and therefore the litigation
    threshold 2 * err); ``radius`` is the coefficient-norm cap, used by the
    norm-constrained family only.
    """

    family: LearnerFamily
    err_constant: float = 1.0
    radius: float = 1.0

    def __post_init__(self) -> None:
        if not self.err_constant > 0:
            raise ConfigurationError(f"learner.err_constant must be > 0, got {self.err_constant}")
        if not self.radius > 0:
            raise ConfigurationError(f"learner.radius must be > 0, got {self.radius}")

    @property
    def is_linear(self) -> bool:
        return self.family is not LearnerFamily.EMPIRICAL_MEAN


def _fit_linear(kind: LearnerKind, spectra: Spectrum, xty: np.ndarray) -> np.ndarray:
    """Coefficients, one row per matrix, from stacked Gram spectra and (n, k) X^T y (m >= 1 each).

    OLS is the minimum-norm least-squares solution.  The norm-constrained
    family keeps it where |coef| <= radius, else solves least squares on the
    sphere |coef| = radius exactly (the ridge multiplier by bisection).  The
    products and the norm are the one-matrix ``gemv`` and ``ddot`` calls,
    batched by ``np.matmul``; the bisection runs per matrix, only where the
    minimum-norm fit leaves the ball.
    """
    coef = np.matmul(_pinv(spectra), xty[:, :, None])[:, :, 0]
    if kind.family is LearnerFamily.NORM_CONSTRAINED:
        norms = np.sqrt(np.matmul(coef[:, None, :], coef[:, :, None])[:, 0, 0])
        inside = norms <= kind.radius * (1.0 + _BISECT_RTOL)
        for i in np.flatnonzero(~inside).tolist():
            coef[i] = _norm_capped(spectra.pick(i), xty[i], kind.radius)
    return coef


def _pinv(spectrum: Spectrum) -> np.ndarray:
    """``np.linalg.pinv(gram, hermitian=True)`` from ``gram``'s eigendecomposition, stacked or not.

    numpy's pinv (2.x) takes its hermitian SVD from this eigh, re-sorted by
    |w| descending with the signs moved into u, and cuts off at 1e-15 * s_max.
    Replaying that arithmetic, step for step, gives the same bits without a
    second ``eigh``; ``tests/test_spectrum.py`` checks it against
    ``np.linalg.pinv``.
    """
    sgn = np.copysign(1.0, spectrum.values)
    s = abs(spectrum.values)
    order = np.argsort(s)[..., ::-1]
    sgn = np.take_along_axis(sgn, order, axis=-1)
    s = np.take_along_axis(s, order, axis=-1)
    u = np.take_along_axis(spectrum.vectors, order[..., None, :], axis=-1)
    us = u * sgn[..., None, :]
    large = s > _PINV_RCOND * np.amax(s, axis=-1, keepdims=True)
    s = np.divide(1, s, where=large, out=s)
    s[~large] = 0
    return np.matmul(us, np.multiply(s[..., None], np.swapaxes(u, -1, -2)))


def _norm_capped(spectrum: Spectrum, xty: np.ndarray, radius: float) -> np.ndarray:
    """Least squares with |coef| = radius: the ridge solution, multiplier found by bisection."""
    eigvals = np.clip(spectrum.values, 0.0, None)
    eigvecs = spectrum.vectors
    rotated = eigvecs.T @ xty

    def norm_at(mu: float) -> float:
        return float(np.linalg.norm(rotated / (eigvals + mu)))

    hi = 1.0
    while norm_at(hi) > radius:
        hi *= 2.0
    lo = 0.0
    while hi - lo > _BISECT_RTOL * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if norm_at(mid) > radius:
            lo = mid
        else:
            hi = mid
    # hi is the feasible side, so the returned norm never exceeds the radius.
    return eigvecs @ (rotated / (eigvals + hi))


def err_bound(kind: LearnerKind, m, sigma: float, alpha: float, dim: int | None = None):
    """Upper bound on the rule's root-mean-square error after ``m`` court observations.

    The empty dataset is bounded by alpha (decisions live in [0, alpha]); the
    bound is independent of the queried case and non-increasing in m.  ``m``
    may be an array of counts; the result is then elementwise, by the same
    operations in the same order.
    """
    m = np.asarray(m)
    negative = np.flatnonzero(m < 0)
    if negative.size:
        raise ValueError(f"dataset size must be >= 0, got {m.flat[negative[0]]}")
    if kind.family is LearnerFamily.EMPIRICAL_MEAN:
        scale = 1.0
    else:
        if dim is None:
            raise ConfigurationError(f"{kind.family.value} error bound needs the case dimension")
        scale = math.sqrt(dim + 1)
    bound = np.minimum(alpha, kind.err_constant * sigma * scale / np.sqrt(np.maximum(m, 1)))
    return np.where(m == 0, alpha, bound)[()]
