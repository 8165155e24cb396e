"""Golden digests: pinned sha256 of every output file for two small configs.

A refactor that must keep outputs byte-identical proves it here.  A change
that moves results on purpose updates these digests and states the old and
new values, with the largest numeric difference, in CHANGES.md.  The
ledgers carry each cell's ``config_digest``, so the canonical run-config
serialization is pinned too.  ``check_deterrent`` writes no file, so its
reports are pinned by their scalars (as ``float.hex``) and a digest of the
per-step arrays.
"""

import hashlib
import json

import numpy as np
import pytest

from courtlearn.config import parse_config
from courtlearn.core import BallCases, ConstantTruth, LinearTruth, SingletonCases, UniformCosts
from courtlearn.experiment import kwik_report, run_experiment
from courtlearn.learners import LearnerFamily, LearnerKind
from courtlearn.policies import DynamicCompellingConfig, SubsidySamplingConfig
from courtlearn.sim import RunConfig, check_deterrent

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

MEAN_DIGESTS = {
    "regret": "5d03adaebd37ecde1ab0b388d4716bd7e10a4a8c7f882cb4b2b586b3e9de815c",
    "slopes": "125c2b971be33ac4b919b41334ef79c8750f923a6d9c97096c1d7dd8520446a3",
    "ledgers": "fbead0e0b01ac4461f0c1d84b94983e33d514ca0040a7369937258ea84aa95fa",
}

BALL_DIGESTS = {
    "regret": "d669a70d564b8d2c1487dea30998d66a0617745b97a231d5cbd30409eb95b577",
    "slopes": "65a57d9ad075e88203cf600dcb32b9db7277fbc4d9fb3ca9645e417231d14b2f",
    "ledgers": "ced582e7b43695ab5e4bcc1ad446c7196910c0fa2cef8f68e67a0bb66d14a01d",
    "kwik": "59e39ebc0765e8162760e7d9ecebfe6cb29431692599248eaa23a3598b5c5b49",
}


def _digests(outputs):
    return {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in outputs.items()}


@pytest.mark.parametrize(
    "config, expected, kwik",
    [(MEAN_CONFIG, MEAN_DIGESTS, False), (BALL_CONFIG, BALL_DIGESTS, True)],
    ids=["mean", "ball"],
)
def test_output_digests(tmp_path, config, expected, kwik):
    spec = parse_config({**config, "out_dir": str(tmp_path)})
    outputs = run_experiment(spec, ledgers=True)
    if kwik:
        outputs.update(kwik_report(spec))
    assert _digests(outputs) == expected


_MEAN_LEARNER = LearnerKind(LearnerFamily.EMPIRICAL_MEAN)
_MEAN_PIECES = (ConstantTruth(0.5, 0.5, 1.0), SingletonCases(), UniformCosts(1.0, 2.0), _MEAN_LEARNER)

# (config, pinned report); 5 replications each.  The first two run on the
# event engine, the OLS one on the step loop.
DETERRENT_CASES = {
    "subsidy_sampling": (
        RunConfig(200, *_MEAN_PIECES, SubsidySamplingConfig(1.0, 1.0, 2.0), seed=3),
        {
            "max_violation": "-0x1.e9f15916ba01dp-1",
            "max_violation_std_error": "0x1.7c54746133459p-2",
            "satisfied": True,
            "per_step": "bf900c449a491ae077ded5b753e844c764a6f5dc6a7ecf72a8891820e7b40257",
        },
    ),
    "dynamic_compelling": (
        RunConfig(200, *_MEAN_PIECES, DynamicCompellingConfig(1.0, 2.0), seed=3),
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
            DynamicCompellingConfig(1.0, 1.0),
            seed=3,
        ),
        {
            "max_violation": "-0x1.53d1dc1a73ea2p-1",
            "max_violation_std_error": "0x1.29c1558e282ecp-4",
            "satisfied": True,
            "per_step": "8ddac18b0327d53f2cc25ab27681e1d9d0a18f5b4ba07217c9d6ab8eed30e44a",
        },
    ),
}


def _deterrent_fingerprint(report):
    columns = {
        "per_step_estimates": [value for _, value in report.per_step_estimates],
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
    assert [t for t, _ in report.per_step_estimates] == list(range(1, config.horizon + 1))
    assert _deterrent_fingerprint(report) == expected
