"""Spectral state: the pseudo-inverse replica, the stacked fit and kwik gate
against their one-matrix and one-row forms, and the eigh budget."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from courtlearn import sim
from courtlearn.core import (
    BallCases,
    ConstantTruth,
    LinearTruth,
    PointMassCosts,
    UniformCosts,
    augment,
    decompose,
    sample_cases,
)
from courtlearn.learners import LearnerFamily, LearnerKind, _fit_linear, _pinv
from courtlearn.policies import DynamicCompellingConfig, KwikConfig, _gate
from oracle import gate_from_eig, kwik_gate


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

    gram = np.zeros((dim + 1, dim + 1))
    for row in courted:
        gram += np.outer(row, row)
    compelled = bool(_gate(decompose(gram), augment(query)[None], alpha1, alpha2)[0])

    assert compelled is kwik_gate(courted, augment(query), alpha1, alpha2)


@st.composite
def court_histories(draw):
    """Court rows (augmented, dim 1..9) with outcomes, often fewer than dim + 1 or repeated."""
    dim = draw(st.integers(min_value=1, max_value=9))
    count = draw(st.integers(min_value=1, max_value=3 * (dim + 1)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    xs = sample_cases(BallCases(dim), count, rng, rng)
    repeats = draw(st.integers(min_value=0, max_value=count - 1))
    xs[count - repeats :] = xs[0]  # repeated rows keep the Gram matrix singular
    return augment(xs), rng.standard_normal(count), rng


@settings(max_examples=300, deadline=None)
@given(
    history=court_histories(),
    family=st.sampled_from([LearnerFamily.OLS, LearnerFamily.NORM_CONSTRAINED]),
    radius=st.sampled_from([1e-3, 0.05, 1.0, 10.0]),  # the small ones force the bisection
    alpha1=st.floats(min_value=0.01, max_value=2.0),
    alpha2=st.floats(min_value=0.01, max_value=2.0),
)
def test_stacked_forms_match_the_one_matrix_and_one_row_forms(history, family, radius, alpha1, alpha2):
    rows, outcomes, rng = history
    kind = LearnerKind(family, radius=radius)
    count, k = rows.shape
    grams = np.cumsum(rows[:, :, None] * rows[:, None, :], axis=0)
    xty = np.cumsum(outcomes[:, None] * rows, axis=0)
    spectra = decompose(grams)
    pinvs = _pinv(spectra)
    coefs = _fit_linear(kind, spectra, xty)
    queries = augment(sample_cases(BallCases(k - 1), count, rng, rng))
    gated = _gate(spectra, queries, alpha1, alpha2)
    for i in range(count):
        one = decompose(grams[i])
        assert pinvs[i].tobytes() == _pinv(one).tobytes()
        assert coefs[i].tobytes() == _fit_linear(kind, one.pick(None), xty[i][None])[0].tobytes()
        # The one-row gate on the same spectrum, ties included; a Gram matrix
        # built afresh may differ in the last ulp, so only clear margins there.
        assert bool(gated[i]) is gate_from_eig(np.clip(one.values, 0.0, None), one.vectors, queries[i], alpha1, alpha2)
        if _margins_clear(rows[: i + 1], queries[i], alpha1, alpha2):
            assert bool(gated[i]) is kwik_gate(rows[: i + 1], queries[i], alpha1, alpha2)
        # A window shares one spectrum among its rows.
        assert _gate(one, queries[i:], alpha1, alpha2)[0] == _gate(one, queries[i : i + 1], alpha1, alpha2)[0]


_TRUTH = LinearTruth(np.array([0.15, 0.15, 0.15]), 0.5, 0.1, 1.0)
_KWIK = KwikConfig(0.25, 0.05, alpha1_constant=15.0)


def _run_config(truth, family, policy):
    return sim.RunConfig(
        400, truth, BallCases(3), PointMassCosts(1.0), LearnerKind(family), policy, seed=7
    )


def _count_eigh_matrices(monkeypatch):
    """Forbid other decompositions; return the list of matrix counts per ``eigh`` call."""
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape[0] if a.ndim == 3 else 1)
        return eigh(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("a second decomposition path ran")

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "pinv", forbidden)
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    return calls


@pytest.mark.parametrize(
    "config",
    [_run_config(_TRUTH, LearnerFamily.OLS, DynamicCompellingConfig())],
    ids=["ols"],
)
def test_one_eigh_per_court_visit(monkeypatch, config):
    # A state-free run decomposes each visit's Gram matrix once, in stacked
    # calls of up to 256 visits; the empty dataset needs no fit.
    calls = _count_eigh_matrices(monkeypatch)
    ledger = sim.run(config)
    assert 0 < ledger.court_count < config.horizon
    assert sum(calls) == ledger.court_count
    assert len(calls) == -(-ledger.court_count // sim._FLUSH)


@pytest.mark.parametrize(
    "truth, family",
    [(_TRUTH, LearnerFamily.NORM_CONSTRAINED), (ConstantTruth(0.5, 0.5, 1.0), LearnerFamily.EMPIRICAL_MEAN)],
    ids=["norm_constrained", "empirical_mean"],
)
def test_kwik_eigh_budget(monkeypatch, truth, family):
    # One matrix for the empty Gram matrix, one per court visit, and the
    # prefixes verified past a disagreement.  Only a round with a
    # disagreement drops verified prefixes, at most k - 1 of its k, as it
    # keeps at least its first visit.  Its k is at most the visits kept since
    # the previous disagreement, that round's included (after a disagreement
    # k is the visits that round kept, and it doubles only after a round that
    # kept all k), and these stretches of rounds do not overlap: at most one
    # more matrix per visit.
    calls = _count_eigh_matrices(monkeypatch)
    config = _run_config(truth, family, _KWIK)
    ledger = sim.run(config)
    assert 0 < ledger.court_count < config.horizon
    assert ledger.court_count + 1 <= sum(calls) <= 2 * ledger.court_count + 1
    assert len(calls) < ledger.court_count  # visits are decomposed in stacks
    assert 16 * len(calls) <= ledger.court_count


@st.composite
def kwik_runs(draw):
    """Kwik runs of dimension 1..9 at T <= 400, with explicit or default thresholds."""
    dim = draw(st.integers(1, 9))
    policy = draw(
        st.builds(KwikConfig, st.just(0.25), st.just(0.05), alpha1_constant=st.sampled_from([1.0, 15.0, 100.0]))
        | st.builds(KwikConfig, st.just(0.25), st.just(0.05), alpha1=st.floats(0.01, 3.0),
                    alpha2=st.floats(0.01, 1.0))
    )
    beta = np.full(dim, draw(st.floats(0.0, 0.45)) / np.sqrt(dim))  # |beta| <= beta0 = 0.5
    truth = LinearTruth(beta, 0.5, draw(st.sampled_from([0.0, 0.1, 0.5])), 1.0)
    kind = LearnerKind(
        draw(st.sampled_from([LearnerFamily.OLS, LearnerFamily.NORM_CONSTRAINED])),
        err_constant=draw(st.sampled_from([0.3, 1.0, 5.0])),
    )
    c_min = draw(st.sampled_from([0.1, 1.0]) | st.floats(0.05, 3.0))
    costs = draw(st.sampled_from([PointMassCosts(c_min), UniformCosts(c_min, 2.0 * c_min)]))
    horizon = draw(st.integers(1, 400))
    return sim.RunConfig(horizon, truth, BallCases(dim), costs, kind, policy, seed=draw(st.integers(0, 50)))


@settings(max_examples=40, deadline=None)
@given(config=kwik_runs())
def test_kwik_eigh_budget_holds_on_every_run(config):
    # test_kwik_eigh_budget's bound, as an invariant of the search.
    with pytest.MonkeyPatch.context() as patch:
        calls = _count_eigh_matrices(patch)
        ledger = sim.run(config, keep_records=False)
    assert sum(calls) <= 2 * ledger.court_count + 1
