"""One spectral state per run: the pseudo-inverse replica, the shared kwik
gate, the eigh budget, and the unit-ball check on raw case rows."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from courtlearn import sim
from courtlearn.core import (
    BallCases,
    ConfigurationError,
    ConstantTruth,
    Dataset,
    LinearTruth,
    PointMassCosts,
    augment,
    decompose,
    sample_cases,
)
from courtlearn.learners import LearnerFamily, LearnerKind, _pinv
from courtlearn.policies import DynamicCompellingConfig, KwikConfig, _gate_from_eig
from oracle import kwik_gate


@st.composite
def grams(draw):
    """Gram matrices X^T X: full rank, rank-deficient, or all zero, of size 2..9."""
    k = draw(st.integers(min_value=2, max_value=9))
    shape = draw(st.sampled_from(["random", "rank_deficient", "zero"]))
    if shape == "zero":
        return np.zeros((k, k))
    if shape == "rank_deficient":
        m = draw(st.integers(min_value=1, max_value=k - 1))
    else:
        m = draw(st.integers(min_value=k, max_value=3 * k))
    rows = draw(arrays(np.float64, (m, k), elements=st.floats(min_value=-1.0, max_value=1.0)))
    return rows.T @ rows


@settings(max_examples=300, deadline=None)
@given(gram=grams())
@example(gram=np.zeros((2, 2)))
@example(gram=np.array([[1.0, 1.0], [1.0, 1.0]]))
@example(gram=np.array([[2.0, 0.5], [0.5, 1.0]]))
@example(gram=np.diag([1.0, 5e-15, 5e-16]))  # one eigenvalue each side of the cutoff
def test_pinv_replica_is_numpy_pinv_bit_for_bit(gram):
    # Near-underflow draws overflow 1/s in both implementations alike.
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.linalg.pinv(gram, hermitian=True)
        got = _pinv(decompose(gram))
    assert got.tobytes() == expected.tobytes()


def _margins_clear(courted, query, alpha1, alpha2):
    """False when the reference gate sits within round-off of one of its thresholds."""
    eigvals, eigvecs = np.linalg.eigh(courted.T @ courted)
    eigvals = np.clip(eigvals, 0.0, None)
    if np.any(np.abs(eigvals - 1.0) < 1e-6):
        return False
    sq = (eigvecs.T @ query) ** 2
    covered = eigvals >= 1.0
    covered_mass = float((sq[covered] / eigvals[covered]).sum())
    novel_mass = float(sq[~covered].sum())
    return abs(covered_mass - alpha1**2) > 1e-9 and abs(novel_mass - alpha2**2) > 1e-9


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=5),
    count=st.integers(min_value=0, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    alpha1=st.floats(min_value=0.01, max_value=2.0),
    alpha2=st.floats(min_value=0.01, max_value=2.0),
)
def test_gate_on_the_shared_spectrum_matches_kwik_gate(dim, count, seed, alpha1, alpha2):
    rng = np.random.default_rng(seed)
    xs = sample_cases(BallCases(dim), count + 1, rng, rng)
    courted = np.array([augment(x) for x in xs[:count]]).reshape(count, dim + 1)
    query = xs[count]
    assume(_margins_clear(courted, augment(query), alpha1, alpha2))

    data = Dataset(dim)

    def compels():
        spectrum = data.spectrum()
        return _gate_from_eig(spectrum.floored, spectrum.vectors, augment(query), alpha1, alpha2)

    compels()  # a stale cached spectrum would show below
    for row in courted:
        data.append_row(row, 0.0)
    compelled = compels()

    assert compelled is kwik_gate(courted, augment(query), alpha1, alpha2)


_TRUTH = LinearTruth(np.array([0.15, 0.15, 0.15]), 0.5, 0.1, 1.0)
_KWIK = KwikConfig(0.25, 0.05, alpha1_constant=15.0)


def _run_config(truth, family, policy):
    return sim.RunConfig(
        400, truth, BallCases(3), PointMassCosts(1.0), LearnerKind(family), policy, seed=7
    )


@pytest.mark.parametrize(
    "config, extra",
    [
        # every fit decomposes once; the empty dataset needs no fit
        (_run_config(_TRUTH, LearnerFamily.OLS, DynamicCompellingConfig(1.0, 1.0)), 0),
        # the gate decomposes the empty dataset; after that it reuses the fit's
        (_run_config(_TRUTH, LearnerFamily.NORM_CONSTRAINED, _KWIK), 1),
    ],
    ids=["ols", "norm_constrained_kwik"],
)
def test_one_eigh_per_court_visit(monkeypatch, config, extra):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("a second decomposition path ran")

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "pinv", forbidden)
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    ledger = sim.run(config)
    assert 0 < ledger.court_count < config.horizon
    assert len(calls) == ledger.court_count + extra


def test_mean_learner_kwik_decomposes_at_most_once_per_visit(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    config = _run_config(ConstantTruth(0.5, 0.5, 1.0), LearnerFamily.EMPIRICAL_MEAN, _KWIK)
    ledger = sim.run(config)
    assert 0 < ledger.court_count < config.horizon
    assert 0 < len(calls) <= ledger.court_count + 1


def test_unit_ball_checked_when_the_environment_is_drawn(monkeypatch):
    def outside(spec, count, rng_direction, rng_radius):
        xs = np.zeros((count, spec.dim))
        xs[count // 2, 0] = 1.01
        return xs

    monkeypatch.setattr(sim, "sample_cases", outside)
    config = _run_config(_TRUTH, LearnerFamily.OLS, DynamicCompellingConfig(1.0, 1.0))
    with pytest.raises(ConfigurationError, match="outside the unit ball"):
        sim.run(config)
