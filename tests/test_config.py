"""Config parsing: defaults, field-pathed errors, and validation."""

import json
import re
from pathlib import Path

import pytest

from courtlearn.cli import main
from courtlearn.config import load_config, parse_config
from courtlearn.core import ConfigurationError, PointMassCosts, SingletonCases, UniformCosts


def minimal_config(**overrides):
    data = {
        "truth": {"family": "constant", "mu": 1.0, "sigma": 0.5, "alpha": 2.0},
        "cost": {"kind": "point", "c": 1.0},
        "learner": {"kind": "empirical_mean"},
        "policies": ["no_subsidy"],
        "sweep": [100],
    }
    data.update(overrides)
    return data


class TestDefaults:
    def test_documented_defaults(self):
        spec = parse_config(minimal_config())
        assert spec.learner.err_constant == 1.0
        assert spec.replications == 100
        assert spec.seed == 0
        assert spec.out_dir == "results"
        assert isinstance(spec.cases, SingletonCases)

    def test_full_round_trip(self):
        data = minimal_config(
            cases={"kind": "ball", "dim": 3},
            truth={"family": "linear", "beta": [0.1, 0.1, 0.1], "beta0": 0.4, "sigma": 0.2, "alpha": 1.0},
            cost={"kind": "uniform", "c_min": 0.5, "c_max": 1.0},
            learner={"kind": "ols", "err_constant": 2.0},
            policies=[{"name": "etc"}, {"name": "dynamic_compelling"}],
            sweep=[10, 100, 1000],
            replications=7,
            seed=42,
        )
        spec = parse_config(data)
        assert spec.costs == UniformCosts(0.5, 1.0)
        assert [p.name for p in spec.policies] == ["etc", "dynamic_compelling"]
        assert spec.sweep == (10, 100, 1000)
        assert spec.replications == 7


class TestFieldPathedErrors:
    def test_cost_c_min_zero(self):
        with pytest.raises(ConfigurationError, match="cost.c_min"):
            parse_config(minimal_config(cost={"kind": "uniform", "c_min": 0.0, "c_max": 1.0}))

    def test_sweep_not_increasing(self):
        with pytest.raises(ConfigurationError, match="sweep must be increasing"):
            parse_config(minimal_config(sweep=[1000, 100]))

    def test_unknown_policy_name(self):
        with pytest.raises(ConfigurationError, match=r"policies\[0\].name"):
            parse_config(minimal_config(policies=["settle_everything"]))

    def test_missing_required_field(self):
        data = minimal_config()
        del data["truth"]["alpha"]
        with pytest.raises(ConfigurationError, match="truth.alpha"):
            parse_config(data)

    def test_kwik_missing_epsilon(self):
        with pytest.raises(ConfigurationError, match=r"policies\[0\].epsilon"):
            parse_config(minimal_config(policies=[{"name": "kwik", "delta": 0.05}]))

    def test_incompatible_cell_is_reported_with_policy(self):
        # a kwik policy over the singleton case space cannot run
        data = minimal_config(
            policies=[{"name": "kwik", "epsilon": 0.25, "delta": 0.05}]
        )
        with pytest.raises(ConfigurationError, match=r"policies\[0\] \(kwik\)"):
            parse_config(data)

    def test_bad_emit(self):
        # ledgers are requested with --ledgers, not with a config key
        with pytest.raises(ConfigurationError, match="emit.*--ledgers"):
            parse_config(minimal_config(emit=["yaml"]))

    def test_subsidy_sampling_outside_valid_region(self, tmp_path, capsys):
        # README demo cost range with alpha = 1: c_min < min(1, alpha**2), so the
        # tail probability exceeds 1 at t = 1; no cell may run
        data = minimal_config(
            truth={"family": "constant", "mu": 0.5, "sigma": 0.5, "alpha": 1.0},
            cost={"kind": "uniform", "c_min": 0.5, "c_max": 1.0},
            policies=["no_subsidy", "subsidy_sampling"],
            out_dir=str(tmp_path / "out"),
        )
        with pytest.raises(ConfigurationError, match=r"policies\[1\] \(subsidy_sampling\)"):
            parse_config(data)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path)]) == 2
        assert "policies[1] (subsidy_sampling)" in capsys.readouterr().err
        assert not (tmp_path / "out" / "regret.csv").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {"cost": {"kind": "uniform", "c_min": 1.0, "c_max": float("inf")}},
                "cost.c_max: expected a finite number",
            ),
            (
                {"truth": {"family": "constant", "mu": float("nan"), "sigma": 0.5, "alpha": 2.0}},
                "truth.mu: expected a finite number",
            ),
            (
                {
                    "cases": {"kind": "ball", "dim": 2},
                    "truth": {"family": "linear", "beta": [0.1, float("nan")], "beta0": 0.4,
                              "sigma": 0.1, "alpha": 1.0},
                    "learner": {"kind": "ols"},
                },
                "truth.beta[1]: expected a finite number",
            ),
            ({"cost": {"kind": "point", "c": 10**400}}, "cost.c: expected a finite number"),
            ({"cost": {"kind": "sequence", "costs": [1.0, "x"]}}, "cost.costs[1]: expected a number"),
        ],
        ids=["c_max_infinity", "mu_nan", "beta_nan", "int_beyond_float", "sequence_string"],
    )
    def test_number_must_be_finite(self, tmp_path, capsys, overrides, message):
        data = minimal_config(**overrides)
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            parse_config(data)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))  # inf and nan as the JSON extensions Infinity / NaN
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "regret.csv").exists()

    def test_replications_floor(self):
        with pytest.raises(ConfigurationError, match="replications"):
            parse_config(minimal_config(replications=0))


class TestLoadConfig:
    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_config(seed=5)))
        spec = load_config(path)
        assert spec.seed == 5
        assert spec.costs == PointMassCosts(1.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_config(path)


def test_readme_schema_example_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    parse_config(json.loads(re.sub(r"//.*", "", block)))
