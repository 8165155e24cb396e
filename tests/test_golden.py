"""Golden digests: pinned sha256 of every output file for two small configs.

A refactor that must keep outputs byte-identical proves it here.  A change
that moves results on purpose updates these digests and states the old and
new values, with the largest numeric difference, in CHANGES.md.  The
ledgers carry each cell's ``config_digest``, so the canonical run-config
serialization is pinned too.  ``check_deterrent`` writes no file, so its
reports are pinned by their scalars (as ``float.hex``) and a digest of the
per-step arrays.  The OLS, small-radius and mean-learner kwik configs pin
the linear solve, the norm-constrained bisection and the kwik gate's scan;
the state-free config pins a linear learner under pre-drawn actions and a
point cost.
"""

import hashlib
import json

import numpy as np
import pytest

from courtlearn import learners
from courtlearn.config import parse_config
from courtlearn.core import (
    BallCases,
    ConfigurationError,
    ConstantTruth,
    LinearTruth,
    PointMassCosts,
    SingletonCases,
    UniformCosts,
    augment,
)
from courtlearn.experiment import kwik_report, run_experiment
from courtlearn.learners import LearnerFamily, LearnerKind
from courtlearn.policies import DynamicCompellingConfig, NoSubsidyConfig, SubsidySamplingConfig
from courtlearn.sim import RunConfig, check_deterrent, draw_environment, offline_baseline

MEAN_CONFIG = {
    "truth": {"family": "constant", "mu": 0.5, "sigma": 0.5, "alpha": 1.0},
    "cases": {"kind": "singleton"},
    "cost": {"kind": "uniform", "c_min": 1.0, "c_max": 2.0},
    "learner": {"kind": "empirical_mean"},
    "policies": ["no_subsidy", "etc", "dynamic_compelling", "subsidy_sampling"],
    "sweep": [100, 500],
    "replications": 2,
    "seed": 7,
}

BALL_CONFIG = {
    "truth": {"family": "linear", "beta": [0.15, 0.15, 0.15], "beta0": 0.5, "sigma": 0.1, "alpha": 1.0},
    "cases": {"kind": "ball", "dim": 3},
    "cost": {"kind": "point", "c": 1.0},
    "learner": {"kind": "norm_constrained"},
    "policies": ["etc", {"name": "kwik", "epsilon": 0.25, "delta": 0.05, "alpha1_constant": 15.0}],
    "sweep": [100, 300],
    "replications": 2,
    "seed": 7,
}

_KWIK = {"name": "kwik", "epsilon": 0.25, "delta": 0.05, "alpha1_constant": 15.0}

OLS_CONFIG = {
    "truth": {"family": "linear", "beta": [0.2, 0.1], "beta0": 0.4, "sigma": 0.1, "alpha": 1.0},
    "cases": {"kind": "ball", "dim": 2},
    "cost": {"kind": "uniform", "c_min": 1.0, "c_max": 2.0},
    "learner": {"kind": "ols"},
    "policies": ["dynamic_compelling", "subsidy_sampling"],
    "sweep": [100, 300],
    "replications": 2,
    "seed": 7,
}

# The unconstrained fit's norm exceeds the radius once the data pins the
# offset near 0.5, so most fits (and the offline baseline) bisect.
RADIUS_CONFIG = {
    "truth": {"family": "linear", "beta": [0.15, 0.15, 0.15], "beta0": 0.5, "sigma": 0.1, "alpha": 1.0},
    "cases": {"kind": "ball", "dim": 3},
    "cost": {"kind": "point", "c": 1.0},
    "learner": {"kind": "norm_constrained", "radius": 0.3},
    "policies": ["etc", "dynamic_compelling"],
    "sweep": [100, 300],
    "replications": 2,
    "seed": 7,
}

MEAN_KWIK_CONFIG = {
    "truth": {"family": "constant", "mu": 0.5, "sigma": 0.5, "alpha": 1.0},
    "cases": {"kind": "ball", "dim": 2},
    "cost": {"kind": "point", "c": 1.0},
    "learner": {"kind": "empirical_mean"},
    "policies": [_KWIK],
    "sweep": [100, 300],
    "replications": 2,
    "seed": 7,
}

# A linear learner under pre-drawn actions that never compel, with and
# without subsidy offers.
STATE_FREE_CONFIG = {
    "truth": {"family": "linear", "beta": [0.15, 0.15, 0.15], "beta0": 0.5, "sigma": 0.1, "alpha": 1.0},
    "cases": {"kind": "ball", "dim": 3},
    "cost": {"kind": "point", "c": 1.0},
    "learner": {"kind": "norm_constrained"},
    "policies": ["no_subsidy", "subsidy_sampling"],
    "sweep": [100, 300],
    "replications": 2,
    "seed": 7,
}

MEAN_DIGESTS = {
    "regret": "5d03adaebd37ecde1ab0b388d4716bd7e10a4a8c7f882cb4b2b586b3e9de815c",
    "slopes": "125c2b971be33ac4b919b41334ef79c8750f923a6d9c97096c1d7dd8520446a3",
    "ledgers": "fbead0e0b01ac4461f0c1d84b94983e33d514ca0040a7369937258ea84aa95fa",
}

BALL_DIGESTS = {
    "regret": "d669a70d564b8d2c1487dea30998d66a0617745b97a231d5cbd30409eb95b577",
    "slopes": "65a57d9ad075e88203cf600dcb32b9db7277fbc4d9fb3ca9645e417231d14b2f",
    "ledgers": "83bcbd7b425ea9f09ec525547f5ae554204123599de8133f8a07e9d1e0f5ddd5",
    "kwik": "59e39ebc0765e8162760e7d9ecebfe6cb29431692599248eaa23a3598b5c5b49",
}

OLS_DIGESTS = {
    "regret": "fb4d765a1eda6defeb40a733131a492bac2e2b379bd92df5e28fe5781ca9c7b4",
    "slopes": "bba282f246b5f370b84f7bf5ea4564367a9c0d7a2a88c52cd0bc5118ff01b41f",
    "ledgers": "305a23727cbaf6b45b1dbd6f5eca1ddecb82322bfd448edc8ed9f0c6ea7bd82e",
}

RADIUS_DIGESTS = {
    "regret": "758080ad1f349663d4f08b4d40fff089e08b1c374a001c41cb29e2b26cef22e9",
    "slopes": "926cb1df44ed94bce7936a9f997cac3a2d342333f763908411c53890f84666ea",
    "ledgers": "c00c26c00aa3f04fff7fde8fe512b860694cf80b96c490cc0646cf9815dbc58f",
}

MEAN_KWIK_DIGESTS = {
    "regret": "b71582ca69fa082b029e97d199d38152a0185cb10ee8f517298567449ff659d9",
    "slopes": "1bfd9d176bfc28e9dda2e92ac95f501b30b0cc8e133882299d73bc16ac73dcca",
    "ledgers": "7be45c082fcf9abce83ed5bdcabf9ec71af26697f337e4d4c08e7629c8914078",
    "kwik": "073a79cafc2a6e64a0ede36e307d1a61d0c4a5d4253e1562696f24fdc6e898b8",
}

STATE_FREE_DIGESTS = {
    "regret": "5577cb7a695d12ae3331d9083bfec6a48d02484cd8485a76777efdc2eb658e4f",
    "slopes": "bd3433ef8923e290b1381d1084df4b9c43ece7c2fee9434774ed6b303121d081",
    "ledgers": "4410c90051c54e37ebecc63540efd161dd7aa20ba86101668dfe4348217a124f",
}


def _digests(outputs):
    return {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in outputs.items()}


@pytest.mark.parametrize(
    "config, expected, kwik",
    [
        (MEAN_CONFIG, MEAN_DIGESTS, False),
        (BALL_CONFIG, BALL_DIGESTS, True),
        (OLS_CONFIG, OLS_DIGESTS, False),
        (RADIUS_CONFIG, RADIUS_DIGESTS, False),
        (MEAN_KWIK_CONFIG, MEAN_KWIK_DIGESTS, True),
        (STATE_FREE_CONFIG, STATE_FREE_DIGESTS, False),
    ],
    ids=["mean", "ball", "ols", "radius", "mean_kwik", "state_free"],
)
def test_output_digests(tmp_path, config, expected, kwik):
    spec = parse_config({**config, "out_dir": str(tmp_path)})
    outputs = run_experiment(spec, ledgers=True)
    if kwik:
        outputs.update(kwik_report(spec))
    assert _digests(outputs) == expected


# The ledger_emit benchmark model at its own horizons: long ledgers whose
# columns change only at court visits, so the column encoder's run path
# carries most of the bytes.  Pinned before the encoder replaced the
# whole-line json.dumps.
LONG_LEDGER_CONFIG = {
    "truth": {"family": "constant", "mu": 0.5, "sigma": 0.5, "alpha": 1.0},
    "cases": {"kind": "singleton"},
    "cost": {"kind": "uniform", "c_min": 1.0, "c_max": 2.0},
    "learner": {"kind": "empirical_mean"},
    "policies": ["etc", "dynamic_compelling", "subsidy_sampling"],
    "sweep": [5000, 25000],
    "replications": 2,
    "seed": 7,
}

LONG_LEDGER_DIGESTS = {
    "regret": "67a3f6816ef794b3e38b40d8a38cd56b58aaf8bafdca5f7fa9bce56c621e0eb2",
    "slopes": "73ac9453066ac2578ec1ca5b137940a5ba2507a074e98c9206c5316b8c6f29db",
    "ledgers": "4f1d4f369b4e30526f2ed2affad6165e27ce0cfb92e6c03051c9f038edccab44",
}


def test_long_ledger_digests(tmp_path):
    spec = parse_config({**LONG_LEDGER_CONFIG, "out_dir": str(tmp_path)})
    assert _digests(run_experiment(spec, ledgers=True)) == LONG_LEDGER_DIGESTS


def test_radius_config_takes_the_bisection_branch(tmp_path, monkeypatch):
    calls = []
    norm_capped = learners._norm_capped
    monkeypatch.setattr(learners, "_norm_capped", lambda *args: calls.append(1) or norm_capped(*args))
    run_experiment(parse_config({**RADIUS_CONFIG, "out_dir": str(tmp_path)}))
    assert len(calls) > 100


_MEAN_LEARNER = LearnerKind(LearnerFamily.EMPIRICAL_MEAN)
_MEAN_PIECES = (ConstantTruth(0.5, 0.5, 1.0), SingletonCases(), UniformCosts(1.0, 2.0), _MEAN_LEARNER)

# (config, pinned report); 5 replications each.  The first two run a mean
# learner, the last an OLS one.
DETERRENT_CASES = {
    "subsidy_sampling": (
        RunConfig(200, *_MEAN_PIECES, SubsidySamplingConfig(), seed=3),
        {
            "max_violation": "-0x1.e9f15916ba01dp-1",
            "max_violation_std_error": "0x1.7c54746133459p-2",
            "satisfied": True,
            "per_step": "bf900c449a491ae077ded5b753e844c764a6f5dc6a7ecf72a8891820e7b40257",
        },
    ),
    "dynamic_compelling": (
        RunConfig(200, *_MEAN_PIECES, DynamicCompellingConfig(), seed=3),
        {
            "max_violation": "-0x1.53d1dc1a73ea2p+0",
            "max_violation_std_error": "0x1.29c1558e282ecp-3",
            "satisfied": True,
            "per_step": "ef10c296f0a8bb134ec0530878f4d2f0e711fd4a6642bba97c594734ca491e8b",
        },
    ),
    "dynamic_compelling_ols": (
        RunConfig(
            200,
            LinearTruth(np.array([0.2, 0.1]), 0.4, 0.1, 1.0),
            BallCases(2),
            UniformCosts(0.5, 1.0),
            LearnerKind(LearnerFamily.OLS),
            DynamicCompellingConfig(),
            seed=3,
        ),
        {
            "max_violation": "-0x1.53d1dc1a73ea2p-1",
            "max_violation_std_error": "0x1.29c1558e282ecp-4",
            "satisfied": True,
            "per_step": "bcf7b3cb26213be8a94187aaa08da4468e9550aa702f6b1e280704a76a54b3c6",
        },
    ),
}


def _deterrent_fingerprint(report):
    columns = {
        "per_step_estimates": report.per_step_estimates.tolist(),
        "per_step_std_errors": report.per_step_std_errors.tolist(),
        "per_step_mean_subsidy": report.per_step_mean_subsidy.tolist(),
        "per_step_subsidy_std_errors": report.per_step_subsidy_std_errors.tolist(),
    }
    encoded = json.dumps({k: [float(v).hex() for v in vs] for k, vs in columns.items()}, sort_keys=True)
    return {
        "max_violation": report.max_violation.hex(),
        "max_violation_std_error": report.max_violation_std_error.hex(),
        "satisfied": report.satisfied,
        "per_step": hashlib.sha256(encoded.encode()).hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(DETERRENT_CASES))
def test_check_deterrent_bits(name):
    config, expected = DETERRENT_CASES[name]
    report = check_deterrent(config, 5)
    assert report.per_step_estimates.dtype == np.float64
    assert report.per_step_estimates.shape == (config.horizon,)
    assert _deterrent_fingerprint(report) == expected


# (truth, cases, learner family, radius, horizon, seed) -> float.hex of the
# offline baseline.  ``regret.csv`` writes 12 significant digits, so only
# these pins catch a last-ulp move in the baseline's fit or prediction.
_RADIUS_TRUTH = LinearTruth(np.array([0.15, 0.15, 0.15]), 0.5, 0.1, 1.0)
_CLIP_TRUTH = LinearTruth(np.array([0.5]), 0.5, 1.0, 1.0)
BASELINE_CASES = {
    "mean": (ConstantTruth(0.5, 0.5, 1.0), SingletonCases(), LearnerFamily.EMPIRICAL_MEAN, 1.0, 500, 7),
    "ols": (LinearTruth(np.array([0.2, 0.1]), 0.4, 0.1, 1.0), BallCases(2), LearnerFamily.OLS, 1.0, 300, 7),
    "radius": (_RADIUS_TRUTH, BallCases(3), LearnerFamily.NORM_CONSTRAINED, 0.3, 300, 7),
    "clipped": (_CLIP_TRUTH, BallCases(1), LearnerFamily.OLS, 1.0, 12, 2),
}

BASELINE_BITS = {
    "mean": "0x1.2938e94476050p-3",
    "ols": "0x1.480e67caf67b3p-9",
    "radius": "0x1.a1753f3892d09p+3",
    "clipped": "0x1.3658e58db510fp-2",
}


def _baseline_env(name):
    truth, cases, family, radius, horizon, seed = BASELINE_CASES[name]
    kind = LearnerKind(family, radius=radius)
    config = RunConfig(horizon, truth, cases, PointMassCosts(1.0), kind, NoSubsidyConfig(), seed)
    return draw_environment(config), kind, truth.alpha


def test_offline_baseline_bits():
    bits = {}
    for name in BASELINE_CASES:
        env, kind, alpha = _baseline_env(name)
        bits[name] = offline_baseline(env, kind, alpha).hex()
    assert bits == BASELINE_BITS

    # The cases take the branches they are named for: the unconstrained fit
    # leaves the radius, and the clip acts at both 0 and alpha.
    env, kind, _ = _baseline_env("radius")
    assert np.linalg.norm(np.linalg.lstsq(augment(env.xs), env.outcomes, rcond=None)[0]) > kind.radius
    env, _, alpha = _baseline_env("clipped")
    raw = augment(env.xs) @ np.linalg.lstsq(augment(env.xs), env.outcomes, rcond=None)[0]
    assert raw.min() < 0.0 and raw.max() > alpha

    env, _, alpha = _baseline_env("mean")
    with pytest.raises(ConfigurationError, match="ols baseline requires vector cases"):
        offline_baseline(env, LearnerKind(LearnerFamily.OLS), alpha)


# Every policy under every cost kind at two horizons: the digest keys each
# ledger cell, so a policy's run values (horizon, alpha, cost range) must
# enter the canonical description however the policy config holds them.
_DIGEST_COSTS = {
    "point": {"kind": "point", "c": 2.0},
    "uniform": {"kind": "uniform", "c_min": 1.0, "c_max": 3.0},
    "sequence": {"kind": "sequence", "costs": [1.5, 2.5, 1.25]},
}

CONFIG_DIGESTS = {
    "no_subsidy/point/100": "289773620f5cbc21",
    "no_subsidy/point/300": "ee8a6c105933df88",
    "etc/point/100": "baf4376f54dc621d",
    "etc/point/300": "5a76e27642ca9474",
    "dynamic_compelling/point/100": "99d024aa02a11e57",
    "dynamic_compelling/point/300": "a3705c3458ab5d0e",
    "subsidy_sampling/point/100": "694a0b0c7a3bf9fb",
    "subsidy_sampling/point/300": "0d72d4d6c8381deb",
    "kwik/point/100": "8104a7afa172e30d",
    "kwik/point/300": "e33007cfb2d6536f",
    "no_subsidy/uniform/100": "dee1bb7ff5ac639c",
    "no_subsidy/uniform/300": "0cb6302f07e8d6ed",
    "etc/uniform/100": "4cc3ee594f002a27",
    "etc/uniform/300": "0b16f02668804d36",
    "dynamic_compelling/uniform/100": "845f6591adb990bb",
    "dynamic_compelling/uniform/300": "781f2d334b109558",
    "subsidy_sampling/uniform/100": "e358cf074226caab",
    "subsidy_sampling/uniform/300": "75a000ece8a7f234",
    "kwik/uniform/100": "99f1f922ee88c76b",
    "kwik/uniform/300": "bf7cf1dcabb01e9b",
    "no_subsidy/sequence/100": "666a96e6d4edee2b",
    "no_subsidy/sequence/300": "dbc0cb834211a765",
    "etc/sequence/100": "c0658d68ba9bfc92",
    "etc/sequence/300": "f04d98ef47ae9377",
    "dynamic_compelling/sequence/100": "33eef199f36320f6",
    "dynamic_compelling/sequence/300": "38e9eaf9418e8d35",
    "subsidy_sampling/sequence/100": "2f7ec8a694334d59",
    "subsidy_sampling/sequence/300": "863fed97c2350d7c",
    "kwik/sequence/100": "0892eeef2f6760b5",
    "kwik/sequence/300": "3c901c00c13cd2b0",
}


def test_config_digests():
    digests = {}
    for cost_name, cost in _DIGEST_COSTS.items():
        spec = parse_config({
            "truth": {"family": "linear", "beta": [0.2, 0.1], "beta0": 0.4, "sigma": 0.1, "alpha": 1.5},
            "cases": {"kind": "ball", "dim": 2},
            "cost": cost,
            "learner": {"kind": "ols"},
            "policies": ["no_subsidy", "etc", "dynamic_compelling", "subsidy_sampling", _KWIK],
            "sweep": [100, 300],
        })
        for policy in spec.policies:
            for horizon in spec.sweep:
                digests[f"{policy.name}/{cost_name}/{horizon}"] = spec.run_config(policy, horizon).digest()
    assert digests == CONFIG_DIGESTS
