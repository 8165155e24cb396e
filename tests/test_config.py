"""Config parsing: defaults, field-pathed errors, and validation."""

import dataclasses
import json
import re
import warnings
from pathlib import Path

import pytest

from courtlearn import sim
from courtlearn.cli import main
from courtlearn.config import load_config, parse_config
from courtlearn.core import BallCases, ConfigurationError, PointMassCosts, SingletonCases, UniformCosts


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

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {
                "truth": {"family": "linear", "beta": [0.1, 0.2], "beta0": 0.4, "sigma": 0.2, "alpha": 1.0},
                "cases": {"kind": "ball", "dim": 2},
                "learner": {"kind": "ols"},
            },
            {"cases": {"kind": "singleton"}, "cost": {"kind": "uniform", "c_min": 0.5, "c_max": 1.0}},
            {"cost": {"kind": "sequence", "costs": [0.5, 1.0, 2.0]}},
        ],
        ids=["constant_point", "linear_ball", "singleton_uniform", "sequence"],
    )
    def test_config_digest_describes_every_field_read(self, overrides):
        data = minimal_config(**overrides)
        spec = parse_config(data)
        canonical = spec.cells[0].canonical()
        assert canonical["truth"] == data["truth"]
        assert canonical["cases"] == data.get("cases", {"kind": "singleton"})
        # the digest names a cost model by its class, as the pinned digests do
        assert canonical["costs"] == {**data["cost"], "kind": type(spec.costs).__name__}


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

    def test_subsidy_sampling_overflow_at_t1_refused_without_warning(self, tmp_path, capsys):
        # alpha / sqrt(c_min) overflows: a probability above 1, refused with no RuntimeWarning
        data = minimal_config(
            truth={"family": "constant", "mu": 0.0, "sigma": 0.0, "alpha": 1e300},
            cost={"kind": "uniform", "c_min": 1e-20, "c_max": 2e-20},
            policies=["subsidy_sampling"],
            out_dir=str(tmp_path / "out"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=r"^policies\[0\] \(subsidy_sampling\): subsidy tail"):
                parse_config(data)
            path = tmp_path / "config.json"
            path.write_text(json.dumps(data))
            assert main(["run", str(path)]) == 2
        assert "subsidy tail probability inf > 1 at t=1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_horizon_ceiling(self, tmp_path, capsys):
        # dynamic_compelling's float64 step numbers are exact up to 2**53; parsed only, never run
        policies = ["no_subsidy", "etc", "dynamic_compelling"]
        assert parse_config(minimal_config(policies=policies, sweep=[2**53])).sweep == (2**53,)
        for horizon in (2**53 + 1, 10**20):
            data = minimal_config(policies=policies, sweep=[horizon], out_dir=str(tmp_path / "out"))
            message = (
                f"policies[0] (no_subsidy): horizon must be <= 2**53, up to which float64 step"
                f" numbers are exact, got {horizon}"
            )
            with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
                parse_config(data)
            path = tmp_path / "config.json"
            path.write_text(json.dumps(data))
            assert main(["run", str(path)]) == 2
            assert message in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

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
            # An explicit null is present, not missing, even where the field is optional.
            (
                {"learner": {"kind": "empirical_mean", "err_constant": None}},
                "learner.err_constant: expected a number, got None",
            ),
            ({"replications": None}, "replications must be an integer, got None"),
            ({"seed": None}, "seed must be an integer, got None"),
            ({"out_dir": None}, "out_dir: expected a string, got None"),
            # refused by BallCases itself, which names the field
            ({"cases": {"kind": "ball", "dim": 0}}, "cases.dim must be >= 1, got 0"),
        ],
        ids=[
            "c_max_infinity",
            "mu_nan",
            "beta_nan",
            "int_beyond_float",
            "sequence_string",
            "err_constant_null",
            "replications_null",
            "seed_null",
            "out_dir_null",
            "ball_dim_zero",
        ],
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

    @pytest.mark.parametrize(
        "truth, path",
        [
            ({"family": "constant", "mu": float("nan"), "sigma": 0.5, "alpha": 2.0}, "truth.mu"),
            (
                {"family": "linear", "beta": [0.1, float("nan")], "beta0": 0.4, "sigma": 0.1, "alpha": 1.0},
                "truth.beta[1]",
            ),
            ({"family": "linear", "beta": [0.1, 0.1], "sigma": 0.1, "alpha": 1.0}, "truth.beta0"),
        ],
        ids=["mu", "beta", "beta0_missing"],
    )
    def test_truth_field_errors_name_the_path_once(self, truth, path):
        data = minimal_config(truth=truth, cases={"kind": "ball", "dim": 2})
        with pytest.raises(ConfigurationError) as excinfo:
            parse_config(data)
        message = str(excinfo.value)
        assert message.startswith(f"{path}:") or message == f"missing required field {path}"
        assert message.count("truth") == 1

    def test_truth_rule_errors_keep_the_section_prefix(self):
        data = minimal_config(truth={"family": "constant", "mu": 3.0, "sigma": 0.5, "alpha": 2.0})
        with pytest.raises(ConfigurationError, match=r"^truth \(constant\): constant rule value 3\.0 outside"):
            parse_config(data)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {"truth": {"family": "cubic", "sigma": 0.5, "alpha": 2.0}},
                "truth.family: unknown family 'cubic' (expected one of constant, linear)",
            ),
            (
                {"cases": {"kind": "cube"}},
                "cases.kind: unknown case space 'cube' (expected one of singleton, ball)",
            ),
            (
                {"cost": {"kind": "free"}},
                "cost.kind: unknown cost model 'free' (expected one of point, uniform, sequence)",
            ),
            (
                {"learner": {"kind": "svm"}},
                "learner.kind: unknown learner 'svm' (expected one of empirical_mean, ols, norm_constrained)",
            ),
            ({"cases": {"kind": "ball", "dim": 1.5}}, "cases.dim must be an integer, got 1.5"),
            ({"cost": {"kind": "uniform", "c_min": 1.0}}, "missing required field cost.c_max"),
            (
                {
                    "truth": {"family": "linear", "beta": [0.1], "beta0": 2.0, "sigma": 0.1, "alpha": 1.0},
                    "cases": {"kind": "ball", "dim": 1},
                    "learner": {"kind": "ols"},
                },
                "truth (linear): beta0 + |beta| = 2.1 exceeds alpha = 1.0",
            ),
            ({"truth": [1.0, 0.5, 2.0]}, "truth: expected an object"),
            ({"cost": {"kind": "sequence", "costs": []}}, "cost.costs: expected a non-empty list"),
            (
                {
                    "truth": {"family": "linear", "beta": 0.1, "beta0": 0.5, "sigma": 0.1, "alpha": 1.0},
                    "cases": {"kind": "ball", "dim": 1},
                    "learner": {"kind": "ols"},
                },
                "truth.beta: expected a non-empty list",
            ),
            ({"policies": "no_subsidy"}, "policies: expected a non-empty list"),
            ({"sweep": 100}, "sweep: expected a non-empty list of horizons"),
            ({"sweep": [100, 0]}, "sweep[1] must be >= 1, got 0"),
            ({"sweep": [True]}, "sweep[0] must be an integer, got True"),
            (
                {"learner": {"kind": "empirical_mean", "err_constant": 0.0}},
                "learner.err_constant must be > 0, got 0.0",
            ),
            ({"learner": {"kind": "norm_constrained", "radius": -1.0}}, "learner.radius must be > 0, got -1.0"),
            # the unknown key is refused before the class checks the rule value
            (
                {"truth": {"family": "constant", "mu": 3.0, "sigma": 0.5, "alpha": 2.0, "sigmaa": 0.1}},
                "truth.sigmaa: unknown field",
            ),
        ],
        ids=[
            "unknown_family", "unknown_case_space", "unknown_cost_model", "unknown_learner",
            "fractional_dim", "missing_c_max", "linear_rule", "section_not_object", "empty_costs",
            "beta_not_list", "policies_not_list", "sweep_not_list", "sweep_zero", "sweep_bool",
            "err_constant_zero", "radius_negative", "unknown_key_before_rule",
        ],
    )
    def test_single_error_message(self, overrides, message):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            parse_config(minimal_config(**overrides))

    @pytest.mark.parametrize(
        "truth, message",
        [
            ({"family": "constant", "alpha": 1.0}, "missing required field truth.mu"),
            ({"family": "cubic"}, "truth.family: unknown family 'cubic' (expected one of constant, linear)"),
        ],
        ids=["constant_without_fields", "unknown_family_alone"],
    )
    def test_section_reports_its_first_bad_field_in_field_order(self, truth, message):
        # the tag first, then the class's dataclass fields in their declared order
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            parse_config(minimal_config(truth=truth))

    def test_replications_floor(self):
        with pytest.raises(ConfigurationError, match="replications"):
            parse_config(minimal_config(replications=0))

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_zero_replications_rejected(self, tmp_path, capsys, source):
        data = minimal_config(replications=0) if source == "config" else minimal_config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        flag = ["--replications", "0"] if source == "flag" else []
        assert main(["run", str(path), "--out", str(out), *flag]) == 2
        assert "replications must be >= 1, got 0" in capsys.readouterr().err
        assert not (out / "regret.csv").exists()

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"alpha1": -0.1, "alpha2": -0.5}, "kwik policy alpha1 must be > 0, got -0.1"),
            ({"alpha2": -0.5}, "kwik policy alpha2 must be > 0, got -0.5"),
            ({"alpha1": 0.0}, "kwik policy alpha1 must be > 0, got 0.0"),
            ({"alpha1_constant": -15.0}, "kwik policy alpha1_constant must be > 0, got -15.0"),
            ({"epsilon": 0.0}, "kwik policy needs epsilon > 0 and delta in (0, 1)"),
            ({"delta": 1.0}, "kwik policy needs epsilon > 0 and delta in (0, 1)"),
        ],
        ids=["both_negative", "alpha2_negative", "alpha1_zero", "constant_negative", "epsilon_zero", "delta_one"],
    )
    def test_kwik_thresholds_must_be_positive(self, tmp_path, capsys, params, message):
        data = minimal_config(
            truth={"family": "constant", "mu": 0.5, "sigma": 0.5, "alpha": 1.0},
            cases={"kind": "ball", "dim": 2},
            policies=[{"name": "kwik", "epsilon": 0.25, "delta": 0.05, **params}],
        )
        with pytest.raises(ConfigurationError, match=re.escape(f"policies[0] (kwik): {message}")):
            parse_config(data)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["kwik", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "kwik.csv").exists()

    def test_kwik_constant_beside_alpha1_rejected(self, tmp_path, capsys):
        # alpha1_constant only derives a missing alpha1, so beside alpha1 it would be ignored
        data = minimal_config(
            truth={"family": "constant", "mu": 0.5, "sigma": 0.5, "alpha": 1.0},
            cases={"kind": "ball", "dim": 2},
            policies=[
                "no_subsidy",
                {"name": "kwik", "epsilon": 0.25, "delta": 0.05, "alpha1": 0.1, "alpha1_constant": 1000.0},
            ],
        )
        message = "policies[1].alpha1_constant: ignored when policies[1].alpha1 is set"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            parse_config(data)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["kwik", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "kwik.csv").exists()

    @pytest.mark.parametrize(
        "epsilon, delta", [(2.0, 0.5), (20.0, 0.5)], ids=["log_of_one", "log_below_one"]
    )
    @pytest.mark.parametrize("command", ["kwik", "run"])
    def test_kwik_demo_with_undefined_default_alpha1_rejected(self, tmp_path, capsys, epsilon, delta, command):
        # log(1 / (epsilon * delta)) is 0, or negative: the default alpha1 divides
        # by its square root, which used to fail mid-run.
        data = json.loads((_ROOT / "configs" / "kwik_demo.json").read_text())
        data["policies"][0].update(epsilon=epsilon, delta=delta)
        message = (
            f"policies[0] (kwik): kwik policy alpha1: default nan for epsilon={epsilon},"
            f" delta={delta}, dim=5 is not a finite number > 0; set alpha1"
        )
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            parse_config(data)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main([command, str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_totals_rejected_at_load(self, tmp_path, capsys):
        # At T = 10, etc's compelled fees of 1e308 would sum to inf mid-sweep.
        data = minimal_config(
            truth={"family": "constant", "mu": 0.0, "sigma": 0.0, "alpha": 1e160},
            cost={"kind": "point", "c": 1e308},
            policies=["no_subsidy", "etc"],
            sweep=[10, 100],
            replications=2,
        )
        message = "policies[0] (no_subsidy): worst-case total max(T * w, (2 * w)^2) = inf"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}"):
            parse_config(data)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "w = alpha^2 + alpha + 2 * c_max exceeds 1e+300" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "horizon, alpha, c, ok",
        [
            # (2 * w)^2 decides: w is about 1e200, or 2e150, or 4e149
            (1, 1e100, 1.0, False),
            (1, 1.0, 1e150, False),
            (1, 1.0, 2e149, True),
            # T * w decides: w is about 2e295, or 2e140
            (10**5, 1.0, 1e295, False),
            (10**5, 1.0, 1e140, True),
        ],
    )
    def test_worst_case_total_bound(self, horizon, alpha, c, ok):
        data = minimal_config(
            truth={"family": "constant", "mu": 0.0, "sigma": 0.0, "alpha": alpha},
            cost={"kind": "point", "c": c},
            sweep=[horizon],
        )
        if ok:
            parse_config(data)
        else:
            with pytest.raises(ConfigurationError, match="worst-case total"):
                parse_config(data)

    def test_subnormal_etc_cost_runs_to_completion(self, tmp_path):
        # T / c_max overflows to inf in etc's compel count: every case is compelled.
        data = minimal_config(cost={"kind": "point", "c": 1e-320}, policies=["etc"], sweep=[10, 1000])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        rows = (out / "regret.csv").read_text().splitlines()[1:]
        assert [(row.split(",")[1], float(row.split(",")[4])) for row in rows] == [("10", 10.0), ("1000", 1000.0)]

    def test_replications_beyond_the_books_bound_refused_at_load(self, tmp_path, capsys):
        # the sweep would book 3 * 10**11 entries (8.73 TiB) before its first replication
        data = json.loads((_ROOT / "configs" / "demo.json").read_text())
        data.update(sweep=[1], replications=10**11)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert "cells * replications must be <= 16777216, got 3 * 100000000000" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dim", [127, 128, 10**12])
    def test_case_dimension_beyond_the_stack_bound_refused_at_load(self, tmp_path, capsys, dim):
        # a kwik re-decision stacks a (dim + 1)^2 float64 spectrum for each of
        # up to _LAST_WINDOW - 1 rows; 127 is the largest dim within 512 MiB,
        # and 10**12 would otherwise load and die drawing a (T, dim) array
        stacked = (sim._LAST_WINDOW - 1) * 8 * (dim + 1) ** 2
        ok = dim == 127
        assert (stacked <= 2**29) == ok
        data = minimal_config(cases={"kind": "ball", "dim": dim}, learner={"kind": "ols"}, sweep=[10],
                              replications=2)
        base = parse_config(minimal_config(cases={"kind": "ball", "dim": 2}, learner={"kind": "ols"}))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        if ok:
            assert parse_config(data).cells[0].cases.dim == dim
            assert dataclasses.replace(base, cases=BallCases(dim)).cells[0].cases.dim == dim
            assert main(["run", str(path), "--out", str(out)]) == 0
            assert len((out / "regret.csv").read_text().splitlines()) == 2
            return
        message = (f"policies[0] (no_subsidy): cases.dim must be <= 127, so that a run's stacked"
                   f" (dim + 1)^2 arrays stay within 512 MiB, got {dim}")
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            parse_config(data)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(base, cases=BallCases(dim))
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_negative_seed_rejected(self, tmp_path, capsys, source):
        data = minimal_config(seed=-3) if source == "config" else minimal_config()
        if source == "config":
            with pytest.raises(ConfigurationError, match=r"^seed must be >= 0, got -3$"):
                parse_config(data)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        flag = ["--seed", "-3"] if source == "flag" else []
        assert main(["run", str(path), "--out", str(out), *flag]) == 2
        assert "seed must be >= 0, got -3" in capsys.readouterr().err
        assert not (out / "regret.csv").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"replicatons": 50}, "replicatons: unknown field"),
            (
                {"truth": {"family": "constant", "mu": 1.0, "sigma": 0.5, "alpha": 2.0, "sigmaa": 0.1}},
                "truth.sigmaa: unknown field",
            ),
            ({"cases": {"kind": "singleton", "dim": 3}}, "cases.dim: unknown field"),
            ({"cost": {"kind": "uniform", "c_min": 1.0, "c_max": 2.0, "cmax": 3.0}}, "cost.cmax: unknown field"),
            ({"learner": {"kind": "empirical_mean", "err_constnt": 2.0}}, "learner.err_constnt: unknown field"),
            ({"policies": [{"name": "etc", "compel_cout": 3}]}, "policies[0].compel_cout: unknown field"),
            # filled from the spec per sweep point, so not a policy entry's own field
            ({"policies": ["no_subsidy", {"name": "etc", "horizon": 5}]}, "policies[1].horizon: unknown field"),
            # read only by the norm-constrained family, so ignored by the others
            ({"learner": {"kind": "empirical_mean", "radius": 0.01}}, "learner.radius: unknown field"),
            (
                {
                    "truth": {"family": "constant", "mu": 0.5, "sigma": 0.5, "alpha": 1.0},
                    "cases": {"kind": "ball", "dim": 2},
                    "learner": {"kind": "ols", "radius": 0.01},
                },
                "learner.radius: unknown field",
            ),
        ],
        ids=[
            "top_level", "truth", "cases", "cost", "learner", "policy", "policy_spec_field",
            "mean_radius", "ols_radius",
        ],
    )
    def test_unknown_field_rejected(self, tmp_path, capsys, overrides, message):
        data = minimal_config(**overrides)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            parse_config(data)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "regret.csv").exists()

    def test_duplicate_policy_rejected(self, tmp_path, capsys):
        data = minimal_config(
            truth={"family": "constant", "mu": 0.5, "sigma": 0.5, "alpha": 1.0},
            cost={"kind": "uniform", "c_min": 1.0, "c_max": 2.0},
            policies=["no_subsidy", "dynamic_compelling", {"name": "dynamic_compelling"}],
        )
        message = "policies[2]: duplicate policy 'dynamic_compelling'"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            parse_config(data)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "regret.csv").exists()


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

    @pytest.mark.parametrize(
        "write, message",
        [
            (lambda path: path.mkdir(), "cannot read config file"),
            (lambda path: path.write_bytes(b"\xff\xfe{"), "is not valid JSON"),
            # past Python's limit on the digits of an int read from text
            (lambda path: path.write_text('{"seed": ' + "9" * 5000 + "}"), "is not valid JSON"),
            (lambda path: path.write_text("[" * 3000), "is not valid JSON"),
            # a repeated key would keep only its last value: here the run would write only no_subsidy rows
            (
                lambda path: path.write_text(
                    '{"policies": ["etc", "dynamic_compelling"], ' + json.dumps(minimal_config())[1:]
                ),
                "config file config.json: key 'policies' given twice",
            ),
            (
                lambda path: path.write_text(
                    json.dumps(minimal_config(policies=["?"]))
                    .replace('"?"', '{"name": "etc", "name": "no_subsidy"}')
                ),
                "config file config.json: key 'name' given twice",
            ),
        ],
        ids=[
            "directory", "not_utf8", "int_too_long", "nested_too_deep",
            "repeated_top_level_key", "repeated_policy_key",
        ],
    )
    def test_unreadable_file_is_a_configuration_error(self, tmp_path, monkeypatch, capsys, write, message):
        monkeypatch.chdir(tmp_path)  # the config's default out_dir is relative
        write(tmp_path / "config.json")
        assert main(["run", "config.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]


_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "path",
    sorted([*_ROOT.glob("configs/*.json"), *_ROOT.glob("bench/configs/*.json")]),
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_shipped_configs_load(path):
    load_config(path)


def test_readme_schema_example_loads():
    readme = (_ROOT / "README.md").read_text()
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    parse_config(json.loads(re.sub(r"//.*", "", block)))


def test_readme_library_example_runs():
    readme = (_ROOT / "README.md").read_text()
    block = readme.split("## Library use\n\n```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
