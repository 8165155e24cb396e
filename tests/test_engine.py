"""The visit-to-visit driver against the step loop (``tests/oracle.py``), and
the whole-horizon policy laws against their scalar per-step forms, bit for bit."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from courtlearn import policies, sim
from courtlearn.core import (
    BallCases,
    ConfigurationError,
    ConstantTruth,
    FixedCosts,
    LinearTruth,
    PointMassCosts,
    SingletonCases,
    UniformCosts,
)
from courtlearn.learners import LearnerFamily, LearnerKind
from courtlearn.policies import (
    DynamicCompellingConfig,
    EtcConfig,
    KwikConfig,
    NoSubsidyConfig,
    SubsidySamplingConfig,
    dynamic_compel_probability,
    etc_compel_count,
    subsidy_bases,
    subsidy_tail_probability,
    transition_step,
)
from oracle import sample_subsidy, step_loop


class _Replay:
    """Stands in for a Generator: hands out fixed draws, one per ``random()`` call."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self):
        return next(self._draws)


def _bits(value):
    """Type plus exact value; floats by their hex form, so -0.0 != 0.0."""
    return type(value), value.hex() if isinstance(value, float) else value


def _mean_config(policy, horizon, *, alpha=1.0, mu=0.5, sigma=0.5, costs=None,
                 cases=SingletonCases(), err_constant=1.0, seed=0):
    return sim.RunConfig(
        horizon=horizon,
        truth=ConstantTruth(mu, sigma, alpha),
        cases=cases,
        costs=costs if costs is not None else UniformCosts(1.0, 2.0),
        learner=LearnerKind(LearnerFamily.EMPIRICAL_MEAN, err_constant=err_constant),
        policy=policy,
        seed=seed,
    )


def _outcome(simulate, config, env, rep, keep_records):
    try:
        return simulate(config, env, rep, keep_records)
    except ConfigurationError as exc:
        return exc


@st.composite
def mean_runs(draw):
    alpha = draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.1, 3.0))
    mu = draw(st.sampled_from([0.0, alpha]) | st.floats(0.0, alpha))
    sigma = draw(st.sampled_from([0.0, alpha]) | st.floats(0.0, alpha))
    c_min = draw(st.sampled_from([0.5, 1.0]) | st.floats(0.05, 3.0))
    width = draw(st.floats(0.0, 2.0))
    costs = draw(
        st.sampled_from(
            [
                PointMassCosts(c_min),
                UniformCosts(c_min, c_min + width),
                FixedCosts((c_min + width, c_min, c_min + width / 2)),
            ]
        )
    )
    horizon = draw(st.integers(1, 1500))
    policy = draw(
        st.sampled_from(
            [NoSubsidyConfig(), EtcConfig(), DynamicCompellingConfig(), SubsidySamplingConfig()]
        )
    )
    try:
        config = _mean_config(
            policy,
            horizon,
            alpha=alpha,
            mu=mu,
            sigma=sigma,
            costs=costs,
            cases=draw(st.sampled_from([SingletonCases(), BallCases(1), BallCases(3)])),
            err_constant=draw(st.sampled_from([0.3, 1.0, 5.0])),
            seed=draw(st.integers(0, 50)),
        )
    except ConfigurationError:  # subsidy_sampling outside its t = 1 region
        reject()
    return config, draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(run=mean_runs(), keep_records=st.booleans())
# The tail skip fires at t = 1: 2 * alpha < c_min and no_subsidy never acts.
@example(run=(_mean_config(NoSubsidyConfig(), 50, alpha=0.4, mu=0.2, sigma=0.1,
                           costs=PointMassCosts(1.0)), 0), keep_records=False)
# After one visit 2 * err == c_min == 1.0 exactly: the strict test keeps the skip off.
@example(run=(_mean_config(NoSubsidyConfig(), 1500), 1), keep_records=False)
@example(run=(_mean_config(EtcConfig(), 1500), 2), keep_records=False)
@example(run=(_mean_config(SubsidySamplingConfig(), 1, sigma=0.0), 0),
         keep_records=True)
@example(run=(_mean_config(DynamicCompellingConfig(), 400, sigma=0.0,
                           cases=BallCases(2)), 2), keep_records=True)
def test_event_engine_matches_step_loop(run, keep_records):
    _assert_matches_oracle(*run, keep_records)


def _assert_matches_oracle(config, rep, keep_records):
    """``sim._simulate`` and the step loop give the same ledger, bit for bit."""
    env = sim.draw_environment(config, rep)
    loop = _outcome(step_loop, config, env, rep, keep_records)
    driver = _outcome(sim._simulate, config, env, rep, keep_records)
    if isinstance(loop, Exception):
        assert type(driver) is type(loop) and str(driver) == str(loop)
        return
    for name in ("total_loss", "court_count", "total_subsidy_paid", "seed", "config_digest"):
        assert _bits(getattr(driver, name)) == _bits(getattr(loop, name)), name
    assert list(driver.steps) == list(loop.steps) == (list(sim.STEP_COLUMNS) if keep_records else [])
    for name, want in loop.steps.items():
        got = driver.steps[name]
        assert got.dtype == want.dtype == sim.STEP_COLUMNS[name], name
        assert got.shape == want.shape == (config.horizon,), name
        # bytes, not ==: -0.0 and 0.0 must not pass for each other
        assert got.tobytes() == want.tobytes(), name


def _linear_config(policy, horizon, *, learner=LearnerKind(LearnerFamily.OLS), dim=3,
                   beta_scale=0.5, beta0=0.4, alpha=1.0, sigma=0.1, costs=None, seed=0):
    """Linear truth on the unit ball; an empirical_mean learner gets the constant truth beta0."""
    if learner.is_linear:
        beta = np.linspace(1.0, -0.5, dim)
        beta *= beta_scale * min(beta0, alpha - beta0) / np.linalg.norm(beta)
        truth = LinearTruth(beta, beta0, sigma, alpha)
    else:
        truth = ConstantTruth(beta0, sigma, alpha)
    return sim.RunConfig(
        horizon=horizon,
        truth=truth,
        cases=BallCases(dim),
        costs=costs if costs is not None else PointMassCosts(1.0),
        learner=learner,
        policy=policy,
        seed=seed,
    )


@st.composite
def linear_runs(draw):
    alpha = draw(st.sampled_from([1.0, 2.0]) | st.floats(0.2, 3.0))
    sigma = draw(st.sampled_from([0.0, 0.05, alpha]) | st.floats(0.0, alpha))
    c_min = draw(st.sampled_from([0.1, 1.0]) | st.floats(0.05, 3.0))
    width = draw(st.floats(0.0, 2.0))
    costs = draw(
        st.sampled_from(
            [
                PointMassCosts(c_min),
                UniformCosts(c_min, c_min + width),
                FixedCosts((c_min + width, c_min, c_min + width / 2)),
            ]
        )
    )
    horizon = draw(st.integers(1, 250))
    kwik = draw(
        st.builds(KwikConfig, st.just(0.25), st.just(0.05),
                  alpha1_constant=st.sampled_from([1.0, 15.0, 100.0]))
        | st.builds(KwikConfig, st.just(0.25), st.just(0.05),
                    alpha1=st.floats(0.01, 3.0), alpha2=st.floats(0.01, 1.0))
    )
    family = draw(
        st.sampled_from([LearnerFamily.OLS, LearnerFamily.NORM_CONSTRAINED, LearnerFamily.EMPIRICAL_MEAN])
    )
    if family is LearnerFamily.EMPIRICAL_MEAN:
        policy = kwik  # mean learners under state-free policies: mean_runs
    else:
        policy = draw(
            st.sampled_from(
                [kwik, NoSubsidyConfig(), EtcConfig(), DynamicCompellingConfig(), SubsidySamplingConfig()]
            )
        )
    try:
        config = _linear_config(
            policy,
            horizon,
            learner=LearnerKind(
                family,
                err_constant=draw(st.sampled_from([0.3, 1.0, 5.0])),
                radius=draw(st.sampled_from([0.05, 0.3, 1.0, 10.0])),
            ),
            dim=draw(st.integers(1, 9)),
            beta_scale=draw(st.floats(0.0, 1.0)),
            beta0=draw(st.floats(0.05, 0.5)) * alpha,
            alpha=alpha,
            sigma=sigma,
            costs=costs,
            seed=draw(st.integers(0, 50)),
        )
    except ConfigurationError:  # subsidy_sampling outside its t = 1 region
        reject()
    return config, draw(st.integers(0, 3))


_KWIK = KwikConfig(epsilon=0.25, delta=0.05, alpha1_constant=15.0)
_RADIUS = LearnerKind(LearnerFamily.NORM_CONSTRAINED, radius=0.05)


@settings(max_examples=120, deadline=None)
@given(run=linear_runs(), keep_records=st.booleans())
@example(run=(_linear_config(_KWIK, 1), 0), keep_records=True)
@example(run=(_linear_config(DynamicCompellingConfig(), 1, dim=1), 0), keep_records=False)
# The unconstrained fit leaves the small ball, so fits bisect.
@example(run=(_linear_config(_KWIK, 250, learner=_RADIUS, dim=5), 1), keep_records=True)
@example(run=(_linear_config(SubsidySamplingConfig(), 250, learner=_RADIUS,
                             sigma=0.0, dim=9), 2), keep_records=False)
@example(run=(_linear_config(KwikConfig(0.25, 0.05, alpha1=0.5, alpha2=0.1), 200, dim=9,
                             costs=UniformCosts(0.1, 0.5)), 0), keep_records=True)
@example(run=(_linear_config(KwikConfig(0.25, 0.05), 200, learner=LearnerKind(LearnerFamily.EMPIRICAL_MEAN),
                             dim=2, sigma=0.0), 3), keep_records=True)
def test_linear_and_kwik_runs_match_step_loop(run, keep_records):
    _assert_matches_oracle(*run, keep_records)


# The gate compels every case: each round keeps every visit it guesses.
_COMPEL_ALL = KwikConfig(0.25, 0.05, alpha1=1e-3, alpha2=1e-3)
# The gate never compels; only the first case litigates (cost 1.5 <= 2 * alpha).
_GATE_NEVER = KwikConfig(0.25, 0.05, alpha1=10.0, alpha2=10.0)


def _one_cheap_case(horizon):
    return FixedCosts((1.5,) + (5.0,) * (horizon - 1))


_OLS_5 = LearnerKind(LearnerFamily.OLS, err_constant=5.0)
_NORM_5 = LearnerKind(LearnerFamily.NORM_CONSTRAINED, err_constant=5.0)
_OLS_LOW = LearnerKind(LearnerFamily.OLS, err_constant=0.3)
_NORM = LearnerKind(LearnerFamily.NORM_CONSTRAINED)


def _quiet_kwik(horizon):
    """linear_sweep's truth and learner at point cost 1, with a gate that never fires."""
    truth = LinearTruth(np.full(5, 0.1565), 0.6, 0.05, 1.0)
    return sim.RunConfig(horizon, truth, BallCases(5), PointMassCosts(1.0), _NORM,
                         KwikConfig(0.25, 0.05, alpha1=10.0, alpha2=2.0), seed=3)


@pytest.mark.parametrize(
    "config, court_count",
    [
        (_linear_config(_KWIK, 1, dim=5), 1),
        (_linear_config(DynamicCompellingConfig(), 1, learner=_RADIUS), 1),
        # the guessed visits decomposed per round double; the last window is cut off by the horizon
        (_linear_config(_COMPEL_ALL, 100, learner=_RADIUS, dim=4), 100),
        # flushes of sim._FLUSH visits land between rounds of kept visits
        (_linear_config(_COMPEL_ALL, 1000, learner=_RADIUS, dim=7), 1000),
        # the rows after the only visit are decided again and settle, then
        # windows run to the horizon without a visit
        (_linear_config(_GATE_NEVER, 3000, learner=_RADIUS, costs=_one_cheap_case(3000)), 1),
        (_linear_config(_GATE_NEVER, 3000, learner=LearnerKind(LearnerFamily.EMPIRICAL_MEAN),
                        costs=_one_cheap_case(3000)), 1),
        # state-free linear runs that visit at every step: fitted in three
        # flushes of sim._FLUSH visits, the last one partial
        (_linear_config(DynamicCompellingConfig(), 700, learner=_OLS_5, costs=PointMassCosts(1e-4)), 700),
        (_linear_config(DynamicCompellingConfig(), 700, learner=_NORM_5, costs=PointMassCosts(1e-4)), 700),
        (_linear_config(EtcConfig(), 700, learner=_OLS_5, costs=PointMassCosts(1e-5)), 700),
        (_linear_config(EtcConfig(), 700, learner=_NORM_5, costs=PointMassCosts(1e-5)), 700),
        # A kwik round keeps its rows up to the first whose re-decision differs
        # from the guess.  Found with a branch counter: a guessed visit that
        # settles there (both runs), and a guessed settle that visits, left to
        # the next round (the second; the gate is not monotone in the court data).
        (_linear_config(KwikConfig(0.25, 0.05, alpha1=0.3, alpha2=0.5), 100, learner=_OLS_LOW, dim=1,
                        sigma=0.0, seed=4), 30),
        (_linear_config(KwikConfig(0.25, 0.05, alpha1_constant=100.0), 100, learner=_OLS_LOW, dim=1,
                        sigma=0.05, seed=47), 9),
        # windows of sim._FIRST_WINDOW rows and their doubles cut by the horizon
        *[(_linear_config(_KWIK, horizon, learner=_NORM, dim=2, seed=7), count)
          for horizon, count in [(63, 59), (64, 59), (65, 60), (1023, 99), (1024, 99), (1025, 99)]],
        (_linear_config(_KWIK, 1025, learner=LearnerKind(LearnerFamily.EMPIRICAL_MEAN), seed=7), 437),
        # Only the first case litigates, then the window doubles from row 1 on
        # and is capped at sim._LAST_WINDOW rows from row 8129: that window is
        # cut by the horizon (T = 12000), kept whole up to it (12225), or kept
        # whole with the next one cut to a single row (12226).
        *[(_quiet_kwik(horizon), 1) for horizon in (12_000, 12_225, 12_226)],
        # The state-free search keeps a round's steps up to the first whose
        # re-decision differs from the guess.  Found with a branch counter:
        # each row below has rounds kept whole and rounds cut at a
        # disagreement, except the etc rows (one kind each) and T = 63, 64
        # and 65 (kept whole).
        # voluntary visits (err_constant 5) interleaved with compels
        (_mean_config(DynamicCompellingConfig(), 3000, err_constant=5.0, seed=7), 104),
        # costs near 2 * err for hundreds of visits
        (_mean_config(DynamicCompellingConfig(), 3000, costs=UniformCosts(0.05, 0.1), seed=7), 542),
        # sequence costs equal to the point-mass subsidy base: the offer's rounding
        # flips the re-decision both ways (a guessed visit settles, a guessed settle visits)
        (_mean_config(SubsidySamplingConfig(), 2000, costs=FixedCosts((2.0, 1.0, 1.5)), err_constant=0.3), 75),
        # the tail skip fires at the round after a disagreement, and after a
        # round kept whole (its window doubled)
        (_mean_config(EtcConfig(), 3000, err_constant=5.0), 39),
        (_mean_config(EtcConfig(), 3000, costs=UniformCosts(0.45, 0.55)), 74),
        # windows of sim._LAST_WINDOW steps, the last one cut by the horizon
        (_mean_config(DynamicCompellingConfig(), 20_000, seed=7), 216),
        # every step visits until 2 * err < 0.1: windows of sim._FIRST_WINDOW
        # steps and their doubles cut by the horizon
        *[(_mean_config(NoSubsidyConfig(), horizon, costs=UniformCosts(0.05, 0.1), seed=7), count)
          for horizon, count in [(63, 63), (64, 64), (65, 65), (127, 125), (128, 126), (129, 127),
                                 (4095, 400), (4096, 400), (4097, 400)]],
    ],
    ids=["kwik_T1", "state_free_T1", "block_cut_by_horizon", "flush_inside_block_sequence",
         "no_visit_after_the_first", "mean_learner_no_visit_after_the_first",
         "state_free_flushes_ols_dynamic", "state_free_flushes_norm_dynamic",
         "state_free_flushes_ols_etc", "state_free_flushes_norm_etc",
         "kwik_guessed_visit_settles", "kwik_guessed_settle_visits", "kwik_T63", "kwik_T64", "kwik_T65",
         "kwik_T1023", "kwik_T1024", "kwik_T1025", "kwik_mean_learner",
         "kwik_cap_cut", "kwik_cap_whole", "kwik_cap_whole_then_cut",
         "state_free_voluntary_and_compelled", "state_free_costs_near_two_err", "state_free_subsidy_ties_flip",
         "state_free_tail_after_disagreement", "state_free_tail_after_whole_round", "state_free_last_window_cut",
         "state_free_T63", "state_free_T64", "state_free_T65", "state_free_T127", "state_free_T128",
         "state_free_T129", "state_free_T4095", "state_free_T4096", "state_free_T4097"],
)
def test_run_edge_cases_match_step_loop(config, court_count):
    for keep_records in (True, False):
        _assert_matches_oracle(config, 0, keep_records)
    assert sim.run(config).court_count == court_count


def test_kwik_run_memory_per_step_is_bounded():
    # The spectra of visits not yet fitted are flushed every sim._FLUSH
    # visits; kept to the end, they would take about 880 B a step here.
    horizon = 10_000
    config = _linear_config(_KWIK, horizon, learner=LearnerKind(LearnerFamily.NORM_CONSTRAINED),
                            dim=5, beta_scale=0.7, beta0=0.6, sigma=0.05, seed=7)
    env = sim.draw_environment(config, 0)
    tracemalloc.start()
    try:
        ledger = sim._simulate(config, env, 0, keep_records=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ledger.court_count > 2000
    assert peak / horizon < 200


def test_kwik_search_stacks_its_eigh_calls(monkeypatch):
    # The memory test's run: one stacked eigh call per 8 or more court visits
    # (about 13 here), as a round decomposes the prefixes of all the visits it
    # keeps in one call.
    config = _linear_config(_KWIK, 10_000, learner=_NORM, dim=5, beta_scale=0.7, beta0=0.6,
                            sigma=0.05, seed=7)
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    ledger = sim.run(config, keep_records=False)
    assert 8 * len(calls) <= ledger.court_count


def test_state_free_search_decides_windows_of_steps(monkeypatch):
    # One agent_decision call per 4 or more court visits (62 calls for 446
    # visits here), as a round decides a window of up to sim._LAST_WINDOW
    # steps in two calls and keeps every step up to its first disagreement.
    config = _mean_config(DynamicCompellingConfig(), 100_000)
    calls = []
    decide = policies.agent_decision

    def counting_decide(*args):
        calls.append(len(args[0]))
        return decide(*args)

    monkeypatch.setattr(policies, "agent_decision", counting_decide)
    ledger = sim.run(config, keep_records=False)
    assert 4 * len(calls) <= ledger.court_count


def _scalar_step(config, t, err, rng):
    """(compelled, offer or None) at step t from the scalar laws, one draw per random step."""
    policy, alpha, costs = config.policy, config.truth.alpha, config.costs
    if isinstance(policy, EtcConfig):
        return t <= etc_compel_count(config.horizon, alpha, costs.c_max), None
    if isinstance(policy, DynamicCompellingConfig):
        return rng.random() < dynamic_compel_probability(t, alpha, costs.c_max), None
    if isinstance(policy, SubsidySamplingConfig):
        phase1 = t <= transition_step(alpha, costs.c_min)
        return False, sample_subsidy(t, 2.0 * err, alpha, costs.c_min, costs.c_max, phase1, rng)
    return False, None


@pytest.mark.parametrize(
    "config",
    [
        _mean_config(NoSubsidyConfig(), 300),
        _mean_config(EtcConfig(), 300, alpha=2.0, costs=PointMassCosts(1.0)),
        _mean_config(DynamicCompellingConfig(), 300, alpha=3.0, costs=PointMassCosts(1.0)),
        _mean_config(SubsidySamplingConfig(), 300, alpha=2.0, costs=UniformCosts(1.0, 4.0)),
    ],
    ids=lambda config: config.policy.name,
)
def test_horizon_actions_replay_select(config):
    horizon, err = config.horizon, 0.3
    rng_whole = np.random.default_rng(17)
    rng_steps = np.random.default_rng(17)
    compel, bases, _ = config.policy.horizon_actions(config, rng_whole)
    for t in range(1, horizon + 1):
        compelled, offer = _scalar_step(config, t, err, rng_steps)
        assert compelled == (compel is not None and bool(compel[t - 1]))
        if bases is None:
            assert offer is None
        else:
            assert _bits(max(0.0, bases.item(t - 1) - 2.0 * err)) == _bits(offer)
    # Both consumed the same number of draws.
    assert rng_whole.random() == rng_steps.random()


def test_dynamic_compel_mask_matches_per_step_draws():
    alpha, c_max, horizon = 3.0, 1.0, 2000
    config = _mean_config(DynamicCompellingConfig(), horizon, alpha=alpha, costs=PointMassCosts(c_max))
    mask, _, _ = config.policy.horizon_actions(config, np.random.default_rng(4))
    rng = np.random.default_rng(4)
    expected = [rng.random() < dynamic_compel_probability(t, alpha, c_max)
                for t in range(1, horizon + 1)]
    assert mask.tolist() == expected
    assert mask[:9].all()  # probability 1 while t * c_max <= alpha**2


@pytest.mark.parametrize(
    "alpha, c_min, c_max",
    [(2.0, 1.0, 4.0), (1.0, 1.0, 4.0), (0.5, 0.3, 0.9)],
)
def test_subsidy_bases_match_sample_subsidy_draw_for_draw(alpha, c_min, c_max):
    horizon = 400
    transition = transition_step(alpha, c_min)
    draws = np.random.default_rng(5).random(horizon)
    # Steps 1..400, then step 3 throughout (in phase 1 for the first case).
    for steps in (np.arange(1, horizon + 1), np.full(horizon, 3)):
        bases = subsidy_bases(draws, steps, alpha, c_min, c_max, transition)
        for two_err in (0.0, 0.25, 3.0):
            replay = _Replay(draws.tolist())
            for i, t in enumerate(steps.tolist()):
                expected = sample_subsidy(t, two_err, alpha, c_min, c_max, t <= transition, replay)
                assert _bits(max(0.0, bases.item(i) - two_err)) == _bits(expected), (t, two_err)
        branches = set()
        for t, u in zip(steps.tolist(), draws.tolist()):
            phase1 = t <= transition
            if u <= subsidy_tail_probability(t, c_max, alpha, phase1):
                branches.add("point mass")
            elif u <= subsidy_tail_probability(t, c_min, alpha, phase1):
                branches.add("density")
            else:
                branches.add("zero")
        assert branches == {"point mass", "density", "zero"}
    assert (transition >= 1) == (alpha == 2.0)  # the first case covers phase 1


# (step, draw) pairs, alpha = 1 and costs in [1, 4], at which Python's x ** 2
# (libm pow) and x * x round differently for x = alpha / (u * sqrt(t)); numpy's
# square and power round like x * x on them.
_POW_DRAWS = [
    (1, "0x1.2e6ceb9fe70a0p-1"),
    (1, "0x1.8a910483fdd9ep-1"),
    (2, "0x1.21b99950a374ap-1"),
    (2, "0x1.0ec8f8a8c4c9fp-1"),
    (3, "0x1.45468c58c4f60p-2"),
    (7, "0x1.271a932f17eb6p-2"),
    (10, "0x1.fc6e5d926ee01p-3"),
    (10, "0x1.8c2b6a05bb53bp-3"),
]


@pytest.mark.parametrize("t, draw_hex", _POW_DRAWS)
def test_subsidy_bases_square_like_sample_subsidy(t, draw_hex):
    u = float.fromhex(draw_hex)
    x = 1.0 / (u * math.sqrt(t))
    assert x ** 2 != x * x  # a draw on which the two roundings differ
    bases = subsidy_bases(np.array([u]), np.array([t]), 1.0, 1.0, 4.0, 0)
    expected = sample_subsidy(t, 0.0, 1.0, 1.0, 4.0, False, _Replay([u]))
    assert _bits(bases.item(0)) == _bits(expected)


def test_subsidy_bases_raise_like_the_tail_law():
    alpha, c_min, c_max = 1.0, 0.25, 1.0
    transition = transition_step(alpha, c_min)
    with pytest.raises(ConfigurationError) as scalar:
        subsidy_tail_probability(1, c_min, alpha, 1 <= transition)
    with pytest.raises(ConfigurationError) as whole:
        subsidy_bases(np.full(10, 0.5), np.arange(1, 11), alpha, c_min, c_max, transition)
    assert str(whole.value) == str(scalar.value)


def _scalar_tail(t, c, alpha, phase1):
    """The tail law in Python float arithmetic, one step at a time."""
    p = alpha / math.sqrt(t * c)
    return p / alpha if phase1 else p


@pytest.mark.parametrize(
    "c, alpha, transition",
    [(1.5, 1.0, 0), (2.5, 1.3, 1), (1.0, 2.0, 4), (4.0, 2.0, 4), (0.3, 0.5, 0), (1.0, 3.0, 9)],
)
def test_tail_law_over_steps_matches_scalar_calls(c, alpha, transition):
    steps = np.arange(1, 2001)
    phase1 = steps <= transition
    tails = subsidy_tail_probability(steps, c, alpha, phase1)
    for t, p in zip(steps.tolist(), tails.tolist()):
        expected = subsidy_tail_probability(t, c, alpha, t <= transition)
        assert _bits(p) == _bits(float(expected)) == _bits(_scalar_tail(t, c, alpha, t <= transition))


@pytest.mark.parametrize(
    "steps, c, alpha, transition, first_bad",
    [
        (np.arange(9, 0, -1), 0.25, 1.0, 0, 3),  # steps in reverse: the first bad one in order
        (np.arange(1, 10), 1.0, 2.0, 2, 3),  # phase 1 ends too early: step 3 is unscaled
    ],
)
def test_tail_law_raises_at_the_first_bad_step(steps, c, alpha, transition, first_bad):
    with pytest.raises(ConfigurationError) as scalar:
        subsidy_tail_probability(first_bad, c, alpha, first_bad <= transition)
    with pytest.raises(ConfigurationError) as whole:
        subsidy_tail_probability(steps, c, alpha, steps <= transition)
    assert str(whole.value) == str(scalar.value)
    assert f"> 1 at t={first_bad}, c={c}:" in str(whole.value)
