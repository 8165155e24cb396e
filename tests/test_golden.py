"""Golden digests: pinned sha256 of every output file for two small configs.

A refactor that must keep outputs byte-identical proves it here.  A change
that moves results on purpose updates these digests and states the old and
new values, with the largest numeric difference, in CHANGES.md.  The
ledgers carry each cell's ``config_digest``, so the canonical run-config
serialization is pinned too.
"""

import hashlib

import pytest

from courtlearn.config import parse_config
from courtlearn.experiment import kwik_report, run_experiment

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
