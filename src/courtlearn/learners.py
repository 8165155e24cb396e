"""Decision learning algorithms with explicit, computable error bounds.

Three learners map datasets to decision rules: the empirical mean for the
singleton/constant setting, ordinary least squares on augmented features
[x, 1], and least squares constrained to a coefficient-norm ball.  Each
carries an error bound of the form constant * sigma * sqrt(dim+1) / sqrt(m),
capped at the decision cap alpha, that both the agents and the selection
policies consult.

Both linear families solve from the dataset's cached eigendecomposition
(``Dataset.spectrum``): the minimum-norm solution replays
``np.linalg.pinv(gram, hermitian=True)`` on it, and the norm-constrained
bisection reuses it, so a fit costs one ``eigh`` at most.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .core import CaseFeatures, ConfigurationError, Dataset, Spectrum

__all__ = [
    "LearnerFamily",
    "LearnerKind",
    "MeanRule",
    "LinearRule",
    "FittedRule",
    "fit",
    "predict",
    "predict_batch",
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


@dataclass(frozen=True)
class MeanRule:
    """Constant decision rule: the mean outcome of the fitted dataset."""

    mean: float
    fitted_on: int


@dataclass(frozen=True, eq=False)
class LinearRule:
    """Linear decision rule over augmented features; coef[-1] is the offset."""

    coef: np.ndarray
    fitted_on: int


FittedRule = Union[MeanRule, LinearRule]


def fit(kind: LearnerKind, data: Dataset) -> FittedRule:
    """Fit ``kind`` on ``data``.  The empty dataset yields the zero rule.

    OLS returns the minimum-norm least-squares solution when the Gram matrix
    is singular.  The norm-constrained family solves least squares subject to
    |coef| <= radius exactly: the unconstrained solution if it already
    satisfies the constraint, otherwise the ridge solution whose multiplier
    is found by monotone bisection.
    """
    m = len(data)
    if kind.family is LearnerFamily.EMPIRICAL_MEAN:
        mean = data.sum_outcomes / m if m > 0 else 0.0
        return MeanRule(mean, m)
    if data.dim is None:
        raise ConfigurationError(f"{kind.family.value} requires vector cases")
    if m == 0:
        return LinearRule(np.zeros(data.dim + 1), 0)
    return _fit_linear(kind, data.spectrum(), data.xty, m)


def _fit_linear(kind: LearnerKind, spectrum: Spectrum, xty: np.ndarray, m: int) -> LinearRule:
    """Fit a linear rule from the Gram matrix's spectrum and X^T y (m >= 1 observations)."""
    coef = _pinv(spectrum) @ xty
    if kind.family is LearnerFamily.OLS:
        return LinearRule(coef, m)
    if float(np.linalg.norm(coef)) <= kind.radius * (1.0 + _BISECT_RTOL):
        return LinearRule(coef, m)
    return LinearRule(_norm_capped(spectrum, xty, kind.radius), m)


def _pinv(spectrum: Spectrum) -> np.ndarray:
    """``np.linalg.pinv(gram, hermitian=True)`` from ``gram``'s eigendecomposition.

    numpy's pinv (2.x) takes its hermitian SVD from this eigh, re-sorted by
    |w| descending with the signs moved into u, and cuts off at 1e-15 * s_max.
    Replaying that arithmetic gives the same bits without a second ``eigh``;
    ``tests/test_spectrum.py`` checks it against ``np.linalg.pinv``.
    """
    s = abs(spectrum.values)
    order = np.argsort(s)[::-1]
    s = s[order]
    sgn = np.copysign(1.0, spectrum.values[order])
    # take keeps u C-ordered like numpy's take_along_axis (u[:, order] would not),
    # so the products below run the same BLAS kernels.
    u = spectrum.vectors.take(order, axis=1)
    us = u * sgn[None, :]
    large = s > _PINV_RCOND * np.amax(s, axis=-1, keepdims=True)
    s = np.divide(1, s, where=large, out=s)
    s[~large] = 0
    return np.matmul(us, np.multiply(s[:, None], u.T))


def _norm_capped(spectrum: Spectrum, xty: np.ndarray, radius: float) -> np.ndarray:
    """Least squares with |coef| = radius: the ridge solution, multiplier found by bisection."""
    eigvals = spectrum.floored
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


def _raw_prediction(rule: FittedRule, case: CaseFeatures) -> float:
    if isinstance(rule, MeanRule):
        return rule.mean
    if case.coords is None:
        raise ConfigurationError("linear rule applied to a singleton case")
    if case.dim + 1 != rule.coef.shape[0]:
        raise ConfigurationError(
            f"case dimension {case.dim} does not match rule dimension {rule.coef.shape[0] - 1}"
        )
    return float(rule.coef[:-1] @ case.coords + rule.coef[-1])


def predict(rule: FittedRule, case: CaseFeatures, alpha: float) -> float:
    """Predicted decision for ``case``, clipped into the valid range [0, alpha]."""
    raw = _raw_prediction(rule, case)
    if raw < 0.0:
        return 0.0
    if raw > alpha:
        return alpha
    return raw


def predict_batch(rule: FittedRule, xs: np.ndarray | None, count: int, alpha: float) -> np.ndarray:
    """Vectorized predictions for ``count`` cases given as rows of ``xs``."""
    if isinstance(rule, MeanRule):
        return np.full(count, min(max(rule.mean, 0.0), alpha))
    if xs is None:
        raise ConfigurationError("linear rule applied to singleton cases")
    raw = xs @ rule.coef[:-1] + rule.coef[-1]
    return np.clip(raw, 0.0, alpha)


def err_bound(kind: LearnerKind, m: int, sigma: float, alpha: float, dim: int | None = None) -> float:
    """Upper bound on the rule's root-mean-square error after ``m`` court observations.

    The empty dataset is bounded by alpha (decisions live in [0, alpha]); the
    bound is independent of the queried case and non-increasing in m.
    """
    if m < 0:
        raise ValueError(f"dataset size must be >= 0, got {m}")
    if m == 0:
        return alpha
    if kind.family is LearnerFamily.EMPIRICAL_MEAN:
        scale = 1.0
    else:
        if dim is None:
            raise ConfigurationError(f"{kind.family.value} error bound needs the case dimension")
        scale = math.sqrt(dim + 1)
    return min(alpha, kind.err_constant * sigma * scale / math.sqrt(m))
