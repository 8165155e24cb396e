"""Simulation loop protocol, loss accounting, baseline pairing, and regret."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from courtlearn import sim
from courtlearn.config import ExperimentSpec, load_config
from courtlearn.core import (
    ConfigurationError,
    ConstantTruth,
    FixedCosts,
    LinearTruth,
    PointMassCosts,
    SingletonCases,
    BallCases,
    UniformCosts,
)
from courtlearn.experiment import run_experiment
from courtlearn.learners import LearnerFamily, LearnerKind, err_bound
from courtlearn.policies import (
    DynamicCompellingConfig,
    EtcConfig,
    KwikConfig,
    NoSubsidyConfig,
    SubsidySamplingConfig,
    etc_compel_count,
)
from courtlearn.sim import (
    Environment,
    RunConfig,
    check_deterrent,
    draw_environment,
    estimate_regret,
    offline_baseline,
    run,
)
from oracle import recompute_total_loss

MEAN = LearnerKind(LearnerFamily.EMPIRICAL_MEAN)


def constant_config(**overrides):
    base = dict(
        horizon=10,
        truth=ConstantTruth(mu=1.0, sigma=0.5, alpha=2.0),
        cases=SingletonCases(),
        costs=PointMassCosts(1.0),
        learner=MEAN,
        policy=NoSubsidyConfig(),
        seed=0,
    )
    base.update(overrides)
    return RunConfig(**base)


def linear_config(**overrides):
    base = dict(
        horizon=10,
        truth=LinearTruth(beta=np.array([0.1, -0.2, 0.15]), beta0=0.5, sigma=0.2, alpha=1.0),
        cases=BallCases(3),
        costs=PointMassCosts(1.0),
        learner=LearnerKind(LearnerFamily.OLS),
        policy=NoSubsidyConfig(),
        seed=0,
    )
    base.update(overrides)
    return RunConfig(**base)


ENV_FIELDS = ("xs", "f_values", "outcomes", "costs")
COST_KINDS = [PointMassCosts(1.0), UniformCosts(0.5, 1.5), FixedCosts((1.0, 2.0, 1.5))]


def compel_all(horizon, **overrides):
    """An etc run that compels every case: its point cost is at most alpha^2 / T."""
    config = constant_config(horizon=horizon, costs=PointMassCosts(1e-9), policy=EtcConfig(), **overrides)
    assert etc_compel_count(horizon, config.truth.alpha, config.costs.c_max) == horizon
    return config


class TestRunProtocol:
    def test_settle_only_hand_trace(self):
        # zero noise, cost too high for anyone: all five cases settle at the
        # empty-data prediction 0, each paying squared error 1
        config = constant_config(
            horizon=5,
            truth=ConstantTruth(mu=1.0, sigma=0.0, alpha=1.0),
            costs=PointMassCosts(3.0),
        )
        ledger = run(config)
        assert ledger.total_loss == 5.0
        assert ledger.court_count == 0
        assert not ledger.steps["went_to_court"].any()
        assert (ledger.steps["applied_decision"] == 0.0).all()

    def test_compel_all_hand_trace(self):
        # zero noise: the first court visit pins the rule exactly, so the
        # only loss is three court fees of 0.5
        config = constant_config(
            horizon=3,
            truth=ConstantTruth(mu=1.0, sigma=0.0, alpha=10.0),
            costs=PointMassCosts(0.5),
            policy=EtcConfig(),
        )
        ledger = run(config)
        assert ledger.total_loss == pytest.approx(1.5)
        assert ledger.court_count == 3
        assert ledger.steps["m_before"].tolist() == [0, 1, 2]

    def test_court_updates_before_deciding(self):
        # litigated steps are decided from the post-update dataset: with zero
        # noise the very first court decision is already exact
        config = constant_config(
            horizon=1,
            truth=ConstantTruth(mu=1.0, sigma=0.0, alpha=10.0),
            costs=PointMassCosts(0.5),
            policy=EtcConfig(),
        )
        steps = run(config).steps
        assert steps["went_to_court"][0]
        assert steps["applied_decision"][0] == 1.0
        assert steps["settlement_value"][0] == 0.0  # what settling would have paid

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(policy=DynamicCompellingConfig()),
            # positive offers, some of them taken
            dict(policy=SubsidySamplingConfig(), costs=UniformCosts(1.0, 4.0)),
            dict(policy=SubsidySamplingConfig(), costs=FixedCosts((1.0, 2.0, 1.5))),
        ],
        ids=["dynamic_compelling", "subsidy_uniform", "subsidy_sequence"],
    )
    def test_accounting_identity(self, overrides):
        config = constant_config(horizon=200, seed=3, **overrides)
        ledger = run(config)
        assert recompute_total_loss(ledger) == ledger.total_loss
        steps = ledger.steps
        diff = steps["applied_decision"] - steps["true_value"]
        np.testing.assert_array_equal(steps["squared_error"], diff * diff)
        np.testing.assert_array_equal(
            steps["court_cost_incurred"], np.where(steps["went_to_court"], steps["cost"], 0.0)
        )
        # the subsidy paid is the ledger's own subsidy column summed over visits, in step order
        paid = 0.0
        for offer in steps["subsidy"][steps["went_to_court"]].tolist():
            paid += offer
        assert paid.hex() == ledger.total_subsidy_paid.hex()
        assert (paid > 0.0) == isinstance(config.policy, SubsidySamplingConfig)
        np.testing.assert_array_equal(
            steps["pre_step_err_bound"],
            err_bound(config.learner, steps["m_before"], config.truth.sigma, config.truth.alpha),
        )
        assert run(config, keep_records=False).total_subsidy_paid.hex() == paid.hex()

    def test_dataset_growth_identity(self):
        config = constant_config(horizon=300, policy=DynamicCompellingConfig(), seed=5)
        ledger = run(config)
        courted = ledger.steps["went_to_court"]
        assert ledger.court_count == courted.sum()
        # m_before counts exactly the prior courted steps
        assert ledger.steps["m_before"][courted].tolist() == list(range(ledger.court_count))

    def test_determinism(self):
        config = constant_config(horizon=500, policy=DynamicCompellingConfig(), seed=9)
        a, b = run(config), run(config)
        assert a.total_loss == b.total_loss
        assert a.court_count == b.court_count
        assert a.total_subsidy_paid == b.total_subsidy_paid
        for name in ("applied_decision", "cost", "subsidy"):
            np.testing.assert_array_equal(a.steps[name], b.steps[name])

    def test_litigation_stops_for_good_once_bound_clears_cost(self):
        # once 2 * err < c_min with no selection pressure, the dataset is
        # frozen and no later case litigates
        config = constant_config(horizon=400, seed=11, costs=UniformCosts(0.8, 1.2))
        ledger = run(config)
        clears = 2.0 * ledger.steps["pre_step_err_bound"] < config.costs.c_min
        assert clears.any()
        cleared = int(clears.argmax())  # the first step that clears
        assert not ledger.steps["went_to_court"][cleared:].any()

    def test_voluntary_litigation_threshold(self):
        # alpha = 2 makes the first two cases litigate at cost 1 (the second
        # on the boundary 2 * 0.5 <= 1), then everyone settles
        config = constant_config(horizon=50, truth=ConstantTruth(mu=1.0, sigma=0.5, alpha=2.0))
        ledger = run(config)
        assert ledger.steps["went_to_court"][:3].tolist() == [True, True, False]
        assert ledger.court_count == 2


class TestEnvironment:
    def test_prefix_stability_across_horizons(self):
        short = draw_environment(constant_config(horizon=100, seed=21), rep=2)
        long = draw_environment(constant_config(horizon=1000, seed=21), rep=2)
        np.testing.assert_array_equal(short.costs, long.costs[:100])
        np.testing.assert_array_equal(short.outcomes, long.outcomes[:100])

    @pytest.mark.parametrize("costs", COST_KINDS, ids=["point", "uniform", "sequence"])
    def test_linear_prefix_stability_across_horizons(self, costs):
        # Rule values too, by construction: a matrix-vector product (BLAS gemv)
        # rounded some rows differently with the row count from dim 8 on.
        for dim in range(1, 17):
            beta = 0.3 * np.sin(np.arange(1, dim + 1)) / math.sqrt(dim)
            model = dict(truth=LinearTruth(beta=beta, beta0=0.5, sigma=0.2, alpha=1.0),
                         cases=BallCases(dim), costs=costs, seed=21)
            long = draw_environment(linear_config(horizon=5000, **model), rep=2)
            for horizon in [*range(1, 70), 100, 257, 1000, 4097]:
                short = draw_environment(linear_config(horizon=horizon, **model), rep=2)
                for name in ENV_FIELDS:
                    np.testing.assert_array_equal(getattr(short, name), getattr(long, name)[:horizon],
                                                  err_msg=f"{dim=} {horizon=} {name}")

    @pytest.mark.parametrize("family", list(LearnerFamily))
    def test_baseline_on_a_prefix_view_is_the_short_draws(self, family):
        learner = LearnerKind(family)
        make = constant_config if family is LearnerFamily.EMPIRICAL_MEAN else linear_config
        config = make(horizon=300, learner=learner, seed=8)
        long = draw_environment(make(horizon=1000, learner=learner, seed=8), rep=1)
        xs = None if long.xs is None else long.xs[:300]
        view = Environment(xs, long.f_values[:300], long.outcomes[:300], long.costs[:300])
        alpha = config.truth.alpha
        expected = offline_baseline(draw_environment(config, rep=1), learner, alpha)
        assert offline_baseline(view, learner, alpha).hex() == expected.hex()

    def test_constant_rule_values_are_one_broadcast_value(self):
        # mu broadcast to the horizon: no array of T copies is allocated.
        f_values = draw_environment(constant_config(horizon=1000, seed=3)).f_values
        assert f_values.shape == (1000,) and f_values.dtype == np.float64
        assert f_values.strides == (0,) and not f_values.flags.writeable
        assert (f_values == 1.0).all()

    def test_policy_does_not_perturb_environment(self):
        a = draw_environment(constant_config(seed=4, policy=NoSubsidyConfig()))
        b = draw_environment(constant_config(seed=4, policy=DynamicCompellingConfig()))
        np.testing.assert_array_equal(a.costs, b.costs)
        np.testing.assert_array_equal(a.outcomes, b.outcomes)

    def test_ledger_consumes_the_environment_stream(self):
        config = constant_config(horizon=50, seed=13)
        env = draw_environment(config, rep=0)
        ledger = run(config, rep=0)
        np.testing.assert_array_equal(ledger.steps["cost"], env.costs)
        np.testing.assert_array_equal(ledger.steps["true_value"], env.f_values)


class TestOfflineBaseline:
    def test_noiseless_floor_is_zero(self):
        config = constant_config(truth=ConstantTruth(mu=1.0, sigma=0.0, alpha=2.0))
        assert offline_baseline(draw_environment(config), MEAN, 2.0) == 0.0

    def test_constant_family_floor_scale(self):
        # offline error of the pooled mean is sigma^2 / T per case, so the
        # total stays near sigma^2 = 1 regardless of T
        config = constant_config(horizon=10_000, truth=ConstantTruth(mu=2.0, sigma=1.0, alpha=4.0))
        values = [
            offline_baseline(draw_environment(config, rep), MEAN, 4.0) for rep in range(100)
        ]
        assert 0.5 <= float(np.mean(values)) <= 2.0

    def test_independent_of_online_policy(self):
        cfg_a = constant_config(seed=6, policy=NoSubsidyConfig())
        cfg_b = constant_config(seed=6, policy=DynamicCompellingConfig())
        la = offline_baseline(draw_environment(cfg_a, 3), MEAN, 2.0)
        lb = offline_baseline(draw_environment(cfg_b, 3), MEAN, 2.0)
        assert la == lb

    def test_linear_baseline(self):
        truth = LinearTruth(beta=np.array([0.2, 0.1]), beta0=0.4, sigma=0.0, alpha=1.0)
        config = RunConfig(
            horizon=50,
            truth=truth,
            cases=BallCases(2),
            costs=PointMassCosts(1.0),
            learner=LearnerKind(LearnerFamily.OLS),
            policy=NoSubsidyConfig(),
            seed=0,
        )
        assert offline_baseline(draw_environment(config), config.learner, 1.0) < 1e-18


class TestEstimateRegret:
    def test_zero_loss_both_sides(self):
        # zero noise and (effectively) free court: compel-all learns exactly
        # and only pays a vanishing fee
        config = compel_all(100, truth=ConstantTruth(mu=1.0, sigma=0.0, alpha=10.0))
        report = estimate_regret([config], 20)[0]
        assert abs(report.mean_regret) <= 1e-6

    def test_report_identity(self):
        config = constant_config(horizon=200, policy=DynamicCompellingConfig())
        report = estimate_regret([config], 30)[0]
        derived = (report.mean_online_loss - report.mean_offline_loss) / config.horizon
        assert report.mean_regret == pytest.approx(derived, rel=1e-12)

    def test_replications_floor(self):
        with pytest.raises(ConfigurationError, match="^replications must be >= 1, got 0$"):
            estimate_regret([constant_config()], 0)

    def test_learning_stall_plateau(self):
        # with no selection pressure the dataset freezes at two observations
        # and the per-case regret plateaus near sigma^2 / 2 = 0.125
        configs = [constant_config(horizon=horizon, seed=2) for horizon in (1000, 10_000)]
        for report in estimate_regret(configs, 200):
            assert 0.09 <= report.mean_regret <= 0.17

    def test_compel_all_regret_vanishes(self):
        # per-case regret from always litigating decays like log(T)/T
        short, long = estimate_regret([compel_all(horizon, seed=7) for horizon in (1000, 10_000)], 60)
        assert long.mean_regret < short.mean_regret

    def test_etc_regret_ratio_tracks_square_root(self):
        configs = [
            constant_config(
                horizon=horizon,
                truth=ConstantTruth(mu=0.5, sigma=0.5, alpha=1.0),
                costs=UniformCosts(0.5, 1.0),
                policy=EtcConfig(),
                seed=3,
            )
            for horizon in (1000, 10_000)
        ]
        short, long = estimate_regret(configs, 80)
        ratio = long.mean_regret / short.mean_regret
        expected = math.sqrt(1000 / 10_000)
        assert abs(ratio - expected) <= 0.35 * expected


class TestSweep:
    def test_one_draw_per_replication_and_one_baseline_per_horizon(self, monkeypatch):
        draws, baselines = [], []
        draw, score = sim.draw_environment, sim.offline_baseline

        def counting_draw(config, rep=0):
            draws.append(draw(config, rep))
            return draws[-1]

        def counting_score(env, kind, alpha):
            baselines.append(len(env.costs))
            return score(env, kind, alpha)

        monkeypatch.setattr(sim, "draw_environment", counting_draw)
        monkeypatch.setattr(sim, "offline_baseline", counting_score)
        configs = [
            constant_config(horizon=horizon, policy=policy, costs=UniformCosts(0.5, 1.5), seed=4)
            for policy in (NoSubsidyConfig(), EtcConfig(), DynamicCompellingConfig())
            for horizon in (10, 100, 1000)
        ]
        reports = estimate_regret(configs, 3)
        assert len(draws) == 3
        assert sorted(baselines) == [10] * 3 + [100] * 3 + [1000] * 3
        for env in draws:
            for name in ("f_values", "outcomes", "costs"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(env, name)[0] = 0.0
        monkeypatch.undo()
        assert reports == [estimate_regret([config], 3)[0] for config in configs]

    def test_cells_must_share_their_environment(self):
        configs = [constant_config(seed=1), constant_config(seed=2)]
        with pytest.raises(ConfigurationError, match="differ only in policy and horizon"):
            estimate_regret(configs, 1)

    def test_cells_share_a_linear_truth_by_value(self):
        # A LinearTruth compares by identity, so each cell here builds its own.
        def cell(horizon, beta=0.1):
            return RunConfig(horizon=horizon, truth=LinearTruth(np.full(2, beta), 0.5, 0.1, 1.0),
                             cases=BallCases(2), costs=PointMassCosts(1.0),
                             learner=LearnerKind(LearnerFamily.OLS), policy=DynamicCompellingConfig(), seed=3)

        configs = [cell(100), cell(200)]
        assert estimate_regret(configs, 2) == [estimate_regret([config], 2)[0] for config in configs]
        with pytest.raises(ConfigurationError, match="differ only in policy and horizon"):
            estimate_regret([cell(100), cell(200, beta=0.2)], 1)

    def test_each_cell_is_digested_once_per_sweep(self, monkeypatch, tmp_path):
        # A ledger carries no digest, so estimate_regret computes none; the ledger
        # writer digests each cell once, whatever the replication count.
        digested = []
        digest = RunConfig.digest

        def counting(config):
            digested.append(config)
            return digest(config)

        monkeypatch.setattr(RunConfig, "digest", counting)
        policies = (NoSubsidyConfig(), EtcConfig())
        configs = [
            constant_config(horizon=horizon, policy=policy, costs=UniformCosts(0.5, 1.5), seed=4)
            for policy in policies
            for horizon in (10, 100)
        ]
        estimate_regret(configs, 3)
        estimate_regret(configs, 3, lambda rep, index, ledger: None)
        assert digested == []

        base = configs[0]
        spec = ExperimentSpec(base.truth, base.cases, base.costs, base.learner, policies, (10, 100),
                              replications=3, seed=4, out_dir=str(tmp_path))
        lines = run_experiment(spec, ledgers=True)["ledgers"].read_text().splitlines()
        assert sorted(map(spec.cells.index, digested)) == list(range(len(spec.cells)))
        assert len(lines) == 3 * len(spec.cells)
        for index, line in enumerate(lines):
            assert json.loads(line)["config_digest"] == digest(spec.cells[index // 3])


# Window edges of the visit search (sim._FIRST_WINDOW, sim._LAST_WINDOW) and one step past.
_CUT_HORIZONS = [1, 63, 64, 4096, 4097]
_CUT_POLICIES = {
    "dynamic_compelling": DynamicCompellingConfig(),
    "subsidy_sampling": SubsidySamplingConfig(),
    "kwik": KwikConfig(0.25, 0.05, alpha1_constant=15.0),
    "no_subsidy": NoSubsidyConfig(),
}


# (learner family, dim, seed, horizons) of each cut test's model.  In ols8,
# a matrix-vector product (BLAS gemv) rounded one rule value of replication
# 0's 23-row prefix differently from the whole draw's.
_CUT_MODELS = {
    "empirical_mean": (LearnerFamily.EMPIRICAL_MEAN, 3, 2, _CUT_HORIZONS),
    "ols": (LearnerFamily.OLS, 3, 2, _CUT_HORIZONS),
    "norm_constrained": (LearnerFamily.NORM_CONSTRAINED, 3, 2, _CUT_HORIZONS),
    "ols8": (LearnerFamily.OLS, 8, 0, [1, 23, 63, 64, 4096, 4097]),
}


def _cut_configs(family, policy, horizons, dim, seed):
    """One policy's cells over ``horizons``; a mean learner learns a constant truth from ball cases."""
    if family is LearnerFamily.EMPIRICAL_MEAN:
        truth = ConstantTruth(mu=0.5, sigma=0.5, alpha=1.0)
    else:
        truth = LinearTruth(beta=np.full(dim, 0.05), beta0=0.5, sigma=0.1, alpha=1.0)
    return [
        RunConfig(horizon=horizon, truth=truth, cases=BallCases(dim), costs=UniformCosts(1.0, 2.0),
                  learner=LearnerKind(family), policy=policy, seed=seed)
        for horizon in horizons
    ]


def _driver_runs(monkeypatch, configs, replications, keep_records):
    """``(rep, configs, ledgers)`` of every ``sim._simulate`` call that
    ``estimate_regret`` makes, with ``configs`` the cells at its cut horizons."""
    runs = []
    simulate = sim._simulate
    by_horizon = {config.horizon: config for config in configs}

    def recording(config, horizons, env, rep, keep):
        assert config is by_horizon[horizons[-1]] and horizons == sorted(horizons)
        ledgers = simulate(config, horizons, env, rep, keep)
        runs.append((rep, [by_horizon[horizon] for horizon in horizons], ledgers))
        return ledgers

    monkeypatch.setattr(sim, "_simulate", recording)
    estimate_regret(configs, replications, (lambda rep, index, ledger: None) if keep_records else None)
    monkeypatch.undo()
    return runs


def _assert_direct(rep, config, ledger, keep_records):
    """``ledger`` is bit for bit the ledger of a run of ``config`` alone, on its own draw."""
    direct = run(config, rep, keep_records)
    for name in ("total_loss", "total_subsidy_paid"):
        assert getattr(ledger, name).hex() == getattr(direct, name).hex(), (config.horizon, name)
    assert ledger.court_count == direct.court_count
    assert list(ledger.steps) == list(direct.steps)
    for name, want in direct.steps.items():
        got = ledger.steps[name]
        assert got.dtype == want.dtype and got.shape == want.shape == (config.horizon,), name
        assert got.tobytes() == want.tobytes(), (config.horizon, name)


class TestCutRuns:
    """A run is causal, so the driver runs each policy whose law does not read
    the horizon once per replication, at its longest horizon, and cuts the
    shorter horizons from it; every cut cell equals a run of that horizon alone."""

    @pytest.mark.parametrize("model", _CUT_MODELS)
    @pytest.mark.parametrize(
        "name,keep_records",
        [(name, keep) for name in _CUT_POLICIES for keep in (True, False)],
    )
    def test_cut_cells_equal_direct_runs(self, monkeypatch, model, name, keep_records):
        family, dim, seed, horizons = _CUT_MODELS[model]
        configs = _cut_configs(family, _CUT_POLICIES[name], horizons, dim, seed)
        runs = _driver_runs(monkeypatch, configs, 2, keep_records)
        # a mean-learner no_subsidy run without records prices its tail in
        # closed form, and a cut past the tail's start prices its own
        assert [[config.horizon for config in cuts] for _, cuts, _ in runs] == [horizons] * 2
        for rep, cuts, ledgers in runs:
            for config, ledger in zip(cuts, ledgers):
                _assert_direct(rep, config, ledger, keep_records)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 6: without step records a mean-learner run prices its all-settle tail in"
    " closed form, so the loss total rounds differently",
)
def test_regret_does_not_depend_on_keeping_records():
    spec = load_config(Path(__file__).resolve().parents[1] / "configs" / "demo.json")
    cells = [cell for cell in spec.cells if cell.policy.name == "etc" and cell.horizon == 1000]
    assert estimate_regret(cells, 2) == estimate_regret(cells, 2, lambda *args: None)


class TestCheckDeterrent:
    def test_no_subsidy_payoff_always_negative(self):
        config = constant_config(horizon=30, seed=1)
        report = check_deterrent(config, 50)
        assert all(value <= 0.0 for value in report.per_step_estimates)
        assert report.max_violation <= 0.0
        assert report.satisfied

    def test_needs_two_replications(self):
        with pytest.raises(ConfigurationError, match="^deterrent check needs at least 2 replications$"):
            check_deterrent(constant_config(), 1)

    def test_subsidy_sampling_reports_offers(self):
        config = constant_config(
            horizon=40,
            truth=ConstantTruth(mu=0.5, sigma=0.5, alpha=1.0),
            costs=UniformCosts(4.0, 12.0),
            policy=SubsidySamplingConfig(),
            seed=8,
        )
        report = check_deterrent(config, 200)
        assert report.per_step_mean_subsidy.shape == (40,)
        assert np.all(report.per_step_mean_subsidy >= 0.0)
        assert report.satisfied


class TestRunConfigValidation:
    def test_horizon_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            constant_config(horizon=0)

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: constant_config(seed=-1), "seed must be >= 0, got -1"),
            (lambda: run(constant_config(), rep=-1), "rep must be >= 0, got -1"),
            (lambda: estimate_regret([], 1), "configs must hold at least one cell, got none"),
            (lambda: constant_config(horizon=10.5), "horizon must be an integer, got 10.5"),
            (lambda: constant_config(horizon=True), "horizon must be an integer, got True"),
            (lambda: constant_config(seed=1.5), "seed must be an integer, got 1.5"),
            (lambda: constant_config(seed=True), "seed must be an integer, got True"),
            (lambda: constant_config(seed="7"), "seed must be an integer, got '7'"),
            (lambda: run(constant_config(), rep=1.5), "rep must be an integer, got 1.5"),
            (lambda: run(constant_config(), rep=False), "rep must be an integer, got False"),
            (lambda: estimate_regret([constant_config()], 2.5), "replications must be an integer, got 2.5"),
            (lambda: check_deterrent(constant_config(), 2.5), "replications must be an integer, got 2.5"),
            (lambda: check_deterrent(constant_config(), True), "replications must be an integer, got True"),
            # refused before the books of 10**11 replications are allocated
            (
                lambda: estimate_regret([constant_config()], 10**11),
                r"cells \* replications must be <= 16777216, got 1 \* 100000000000",
            ),
            (lambda: BallCases(2.5), "cases.dim must be an integer, got 2.5"),
            (lambda: BallCases(True), "cases.dim must be an integer, got True"),
        ],
        ids=[
            "negative_seed", "negative_rep", "no_cells", "float_horizon", "bool_horizon", "float_seed",
            "bool_seed", "str_seed", "float_rep", "bool_rep", "float_replications",
            "float_deterrent_replications", "bool_deterrent_replications", "too_many_replications",
            "float_dim", "bool_dim",
        ],
    )
    def test_public_calls_refuse_bad_input(self, call, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            call()

    def test_numpy_integers_are_stored_as_int(self):
        config = constant_config(horizon=np.int64(100), seed=np.uint32(3))
        assert type(config.horizon) is int and type(config.seed) is int
        assert config.digest() == constant_config(horizon=100, seed=3).digest()
        expected = run(constant_config(horizon=100, seed=3), rep=1, keep_records=False)
        assert run(config, rep=np.int64(1), keep_records=False).total_loss == expected.total_loss
        assert estimate_regret([config], np.int64(2)) == estimate_regret([config], 2)

    def test_mean_learner_needs_constant_truth(self):
        with pytest.raises(ConfigurationError):
            RunConfig(
                horizon=10,
                truth=LinearTruth(beta=np.array([0.1]), beta0=0.4, sigma=0.1, alpha=1.0),
                cases=BallCases(1),
                costs=PointMassCosts(1.0),
                learner=MEAN,
                policy=NoSubsidyConfig(),
            )

    def test_linear_learner_needs_vector_cases(self):
        with pytest.raises(ConfigurationError):
            constant_config(learner=LearnerKind(LearnerFamily.OLS))

    def test_ill_defined_subsidy_distribution_aborts_before_step_one(self):
        with pytest.raises(ConfigurationError):
            constant_config(
                costs=UniformCosts(0.25, 1.0),
                policy=SubsidySamplingConfig(),
            )
