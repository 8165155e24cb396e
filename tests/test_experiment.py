"""Result emission: CSV contracts, reproducibility, ledgers, and the CLI."""

import collections
import dataclasses
import io
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from courtlearn import experiment, sim
from courtlearn.cli import main
from courtlearn.config import parse_config
from courtlearn.core import ConfigurationError, RunLedger
from courtlearn.experiment import (
    KWIK_COLUMNS,
    REGRET_COLUMNS,
    SLOPES_COLUMNS,
    _csv_row,
    _ledger_line,
    fit_loglog_slope,
    kwik_report,
    run_experiment,
)
from courtlearn.policies import EtcConfig
from courtlearn.sim import STEP_COLUMNS, RunConfig, check_deterrent, estimate_regret, run
from oracle import ledger_line


def small_spec(tmp_path, **overrides):
    data = {
        "truth": {"family": "constant", "mu": 0.5, "sigma": 0.5, "alpha": 1.0},
        "cost": {"kind": "uniform", "c_min": 0.5, "c_max": 1.0},
        "learner": {"kind": "empirical_mean"},
        "policies": ["no_subsidy", {"name": "etc"}],
        "sweep": [50, 100, 200],
        "replications": 8,
        "seed": 11,
        "out_dir": str(tmp_path / "out"),
    }
    data.update(overrides)
    return parse_config(data)


def kwik_spec(tmp_path, **overrides):
    data = {
        "truth": {
            "family": "linear",
            "beta": [0.15, 0.15],
            "beta0": 0.4,
            "sigma": 0.0,
            "alpha": 1.0,
        },
        "cases": {"kind": "ball", "dim": 2},
        "cost": {"kind": "point", "c": 1.0},
        "learner": {"kind": "norm_constrained"},
        "policies": [{"name": "kwik", "epsilon": 0.2, "delta": 0.1, "alpha1": 0.15}],
        "sweep": [400],
        "replications": 1,
        "seed": 3,
        "out_dir": str(tmp_path / "kwik_out"),
    }
    data.update(overrides)
    return parse_config(data)


class TestRunExperiment:
    def test_output_shape_and_headers(self, tmp_path):
        spec = small_spec(tmp_path)
        outputs = run_experiment(spec)
        regret_lines = outputs["regret"].read_text().splitlines()
        assert regret_lines[0] == REGRET_COLUMNS
        assert len(regret_lines) == 1 + 2 * 3  # two policies, three horizons
        slope_lines = outputs["slopes"].read_text().splitlines()
        assert slope_lines[0] == SLOPES_COLUMNS
        assert len(slope_lines) == 1 + 2
        assert {line.split(",")[0] for line in slope_lines[1:]} == {"no_subsidy", "etc"}

    def test_every_emitted_number_is_finite(self, tmp_path):
        outputs = run_experiment(small_spec(tmp_path))
        for line in outputs["regret"].read_text().splitlines()[1:]:
            for token in line.split(",")[1:]:
                assert math.isfinite(float(token))

    def test_bit_identical_rerun(self, tmp_path):
        first = run_experiment(small_spec(tmp_path, out_dir=str(tmp_path / "a")))
        second = run_experiment(small_spec(tmp_path, out_dir=str(tmp_path / "b")))
        assert first["regret"].read_bytes() == second["regret"].read_bytes()
        assert first["slopes"].read_bytes() == second["slopes"].read_bytes()

    def test_adding_a_policy_leaves_other_rows_unchanged(self, tmp_path):
        base = run_experiment(small_spec(tmp_path, out_dir=str(tmp_path / "base")))
        extended = run_experiment(
            small_spec(
                tmp_path,
                policies=["no_subsidy", {"name": "etc"}, {"name": "dynamic_compelling"}],
                out_dir=str(tmp_path / "ext"),
            )
        )
        base_rows = base["regret"].read_text().splitlines()[1:]
        extended_rows = extended["regret"].read_text().splitlines()[1:]
        assert set(base_rows).issubset(set(extended_rows))

    def test_ledgers_jsonl(self, tmp_path):
        spec = small_spec(tmp_path, sweep=[30], replications=2, policies=["no_subsidy"])
        outputs = run_experiment(spec, ledgers=True)
        lines = outputs["ledgers"].read_text().splitlines()
        assert len(lines) == 2
        entry = json.loads(lines[0])
        assert entry["policy"] == "no_subsidy"
        assert entry["T"] == 30
        assert len(entry["steps"]["t"]) == 30
        # the digest is recomputable from the run configuration
        config = RunConfig(
            horizon=30,
            truth=spec.truth,
            cases=spec.cases,
            costs=spec.costs,
            learner=spec.learner,
            policy=spec.policies[0],
            seed=spec.seed,
        )
        assert entry["config_digest"] == config.digest()
        total = 0.0
        for se, cc in zip(entry["steps"]["squared_error"], entry["steps"]["court_cost_incurred"]):
            total += se + cc
        assert total == entry["total_loss"]

    def test_refused_cell_creates_no_output_directory(self, tmp_path):
        # A spec builds every cell's run config, so a refused cell never reaches the run.
        spec = small_spec(tmp_path)
        with pytest.raises(ConfigurationError, match=r"^policies\[2\] \(kwik\): kwik policy requires vector cases$"):
            run_experiment(dataclasses.replace(spec, policies=spec.policies + kwik_spec(tmp_path).policies),
                           ledgers=True)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("sweep", (), "sweep: expected a non-empty list of horizons"),
            ("policies", (), "policies: expected a non-empty list"),
            # kwik.csv would list the horizons in the driver's ascending order, regret.csv in this one
            ("sweep", (200, 50), "sweep must be increasing"),
            # rows and slopes are keyed by policy name
            ("policies", (EtcConfig(), EtcConfig()), "policies[1]: duplicate policy 'etc'"),
            # refused before the output directory is made, as estimate_regret would refuse them
            ("replications", 2.5, "replications must be an integer, got 2.5"),
            ("replications", True, "replications must be an integer, got True"),
            ("seed", 1.5, "seed must be an integer, got 1.5"),
            # each horizon is checked with its field path, before the order
            ("sweep", (10, 20.5), "sweep[1] must be an integer, got 20.5"),
            ("sweep", (10, True), "sweep[1] must be an integer, got True"),
        ],
        ids=["empty_sweep", "no_policies", "decreasing_sweep", "duplicate_policy",
             "fractional_replications", "bool_replications", "fractional_seed",
             "fractional_horizon", "bool_horizon"],
    )
    def test_hand_built_spec_meets_the_loader_checks(self, tmp_path, field, value, message):
        spec = small_spec(tmp_path)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            run_experiment(dataclasses.replace(spec, **{field: value}))
        assert not (tmp_path / "out").exists()

    def test_ledger_memory_does_not_grow_with_replications(self, tmp_path):
        # each replication's line is written when it ends, so the peak is one
        # replication's ledger whatever the replication count
        def peak(replications):
            spec = small_spec(
                tmp_path,
                policies=["dynamic_compelling"],
                sweep=[20_000],
                replications=replications,
                out_dir=str(tmp_path / f"r{replications}"),
            )
            tracemalloc.start()
            try:
                run_experiment(spec, ledgers=True)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4) < 1.5 * peak(1)

    def test_ledger_memory_holds_one_long_ledger_at_a_time(self, tmp_path):
        # the driver hands over one policy's ledgers, cut from its one run,
        # before it runs the next policy, so the peak does not grow with the
        # policy count
        def peak(policies):
            spec = small_spec(
                tmp_path,
                policies=policies,
                cost={"kind": "uniform", "c_min": 1.0, "c_max": 2.0},
                sweep=[2_000, 20_000],
                replications=1,
                out_dir=str(tmp_path / f"p{len(policies)}"),
            )
            tracemalloc.start()
            try:
                run_experiment(spec, ledgers=True)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(["dynamic_compelling", "subsidy_sampling", "no_subsidy"]) < 1.3 * peak(
            ["dynamic_compelling"]
        )


_REFERENCE_COSTS = {
    "point": {"kind": "point", "c": 1.0},
    "uniform": {"kind": "uniform", "c_min": 0.5, "c_max": 1.5},
    # runs of two equal costs: the cost column takes the run-length path,
    # and the horizon ends on a run boundary at T = 8, inside a run at T = 5
    "sequence": {"kind": "sequence", "costs": [1.0, 1.0, 2.0, 2.0]},
}
_REFERENCE_MODELS = {
    "mean": {
        "truth": {"family": "constant", "mu": 0.5, "sigma": 0.5, "alpha": 1.0},
        "learner": {"kind": "empirical_mean"},
        "policies": ["etc", "dynamic_compelling"],
        "sweep": [5, 8, 60, 400],
    },
    "ball3": {
        "truth": {"family": "linear", "beta": [0.1, -0.2, 0.15], "beta0": 0.5, "sigma": 0.1,
                  "alpha": 1.0},
        "cases": {"kind": "ball", "dim": 3},
        "learner": {"kind": "norm_constrained"},
        "policies": ["dynamic_compelling",
                     {"name": "kwik", "epsilon": 0.2, "delta": 0.1, "alpha1": 0.15}],
        "sweep": [5, 8, 60, 400],
    },
    # at dim 8 a matrix-vector product (BLAS gemv) rounded some rule values
    # differently with the row count; the draw's row-by-row values must not
    "ball8": {
        "truth": {"family": "linear", "beta": [0.05] * 8, "beta0": 0.5, "sigma": 0.1, "alpha": 1.0},
        "cases": {"kind": "ball", "dim": 8},
        "learner": {"kind": "ols"},
        "policies": ["no_subsidy",
                     {"name": "kwik", "epsilon": 0.25, "delta": 0.05, "alpha1_constant": 15.0}],
        "sweep": [5, 6, 30, 1023, 3000],
    },
}


class TestSweepMatchesCells:
    """The sweep driver shares each replication's environment between its
    cells; every output equals the one made cell by cell."""

    @pytest.mark.parametrize(
        "model,cost",
        [(model, cost) for model in ("mean", "ball3") for cost in _REFERENCE_COSTS]
        + [("ball8", "uniform")],
    )
    def test_outputs_match_cell_by_cell(self, tmp_path, model, cost):
        spec = small_spec(tmp_path, **_REFERENCE_MODELS[model], cost=_REFERENCE_COSTS[cost],
                          replications=3, seed=5)
        # estimate_regret keeps no records, as a run without ledgers; a run
        # with ledgers never takes the closed-form tail skip, which may move
        # the last digits of etc's rows
        regret = run_experiment(spec)["regret"].read_text()
        spec = dataclasses.replace(spec, out_dir=str(tmp_path / "ledgers"))
        ledgers = run_experiment(spec, ledgers=True)["ledgers"].read_bytes()
        configs = list(spec.cells)

        reports = estimate_regret(configs, 3)
        assert reports == [estimate_regret([config], 3)[0] for config in configs]
        rows = []
        for config, report in zip(configs, reports):
            rows.append(_csv_row((
                config.policy.name, config.horizon, report.mean_regret, report.std_error,
                report.mean_court_count, report.mean_total_subsidy, report.mean_offline_loss,
            ), "regret.csv"))
        assert regret.splitlines()[1:] == rows

        stream = io.BytesIO()
        for config in configs:
            for rep in range(3):
                _ledger_line(stream, config.policy.name, config.horizon, rep, run(config, rep))
                stream.write(b"\n")
        assert ledgers == stream.getvalue()

        kwik = [cell for cell in spec.cells if cell.policy.name == "kwik"]
        if kwik:
            lines = kwik_report(spec)["kwik"].read_text().splitlines()[1:]
            assert lines == [_kwik_row(cell) for cell in kwik]

    def test_every_caller_draws_once_per_replication(self, tmp_path, monkeypatch):
        # kwik_report runs replication 0 of every horizon on one draw, at the
        # longest horizon; check_deterrent draws each replication once
        draws = []
        draw = sim.draw_environment

        def counting_draw(config, rep=0):
            draws.append((config.horizon, rep))
            return draw(config, rep)

        monkeypatch.setattr(sim, "draw_environment", counting_draw)
        spec = kwik_spec(tmp_path, sweep=[100, 200, 400])
        lines = kwik_report(spec)["kwik"].read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["100", "200", "400"]
        assert draws == [(400, 0)]
        draws.clear()
        check_deterrent(dataclasses.replace(spec.cells[0], horizon=50), 4)
        assert draws == [(50, rep) for rep in range(4)]

    @pytest.mark.parametrize("ledgers", [False, True])
    def test_one_run_per_policy_and_replication(self, tmp_path, monkeypatch, ledgers):
        # a policy whose law does not read the horizon runs once per
        # replication at its longest horizon, with or without records; etc
        # reads the horizon, so it runs once per cell
        runs = []
        simulate = sim._simulate

        def counting(configs, *args):
            runs.append((configs[0].policy.name, [config.horizon for config in configs]))
            return simulate(configs, *args)

        monkeypatch.setattr(sim, "_simulate", counting)
        spec = small_spec(
            tmp_path, policies=["no_subsidy", "etc", "dynamic_compelling", "subsidy_sampling"],
            cost={"kind": "uniform", "c_min": 1.0, "c_max": 2.0}, replications=2,
        )
        run_experiment(spec, ledgers=ledgers)
        one_run, per_cell = [[50, 100, 200]], [[50], [100], [200]]
        for name, expected in [
            ("no_subsidy", one_run),
            ("etc", per_cell),
            ("dynamic_compelling", one_run),
            ("subsidy_sampling", one_run),
        ]:
            assert [horizons for policy, horizons in runs if policy == name] == 2 * expected, name
        runs.clear()
        kwik_report(kwik_spec(tmp_path, sweep=[100, 200, 400]))
        assert runs == [("kwik", [100, 200, 400])]

    def test_t_is_encoded_once_per_sweep(self, tmp_path, monkeypatch):
        # t is 1..T in every run, so each of its segments between consecutive
        # horizons is encoded once for the sweep, whatever the replication and
        # policy counts; the whole columns a line encodes start at step 1,
        # where m_before, the other int64 column, is 0
        segments = collections.Counter()
        column_json = experiment._column_json

        def counting(column):
            if column.dtype == np.int64 and column.size and column[0] >= 1:
                if np.array_equal(column, np.arange(column[0], column[0] + column.size)):
                    segments[column[0].item(), column[-1].item()] += 1
            return column_json(column)

        monkeypatch.setattr(experiment, "_column_json", counting)
        spec = small_spec(tmp_path, replications=3)
        assert len(spec.policies) == 2 and spec.sweep == (50, 100, 200)
        ledgers = run_experiment(spec, ledgers=True)["ledgers"].read_text().splitlines()
        assert segments == {(1, 50): 1, (51, 100): 1, (101, 200): 1}
        assert [json.loads(line)["steps"]["t"] for line in ledgers] == [
            list(range(1, config.horizon + 1)) for config in spec.cells for _ in range(3)
        ]

    def test_ledgers_of_more_cells_than_the_open_file_limit(self, tmp_path):
        # each cell's ledger part is open only while one line is written, so
        # the cell count is not bounded by the process's open-file limit; a
        # part left behind by a killed run is overwritten, not appended to
        resource = pytest.importorskip("resource")
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc/self/fd to count the open files")
        spec = small_spec(
            tmp_path, policies=["no_subsidy", "etc", "dynamic_compelling", "subsidy_sampling"],
            cost={"kind": "uniform", "c_min": 1.0, "c_max": 2.0}, sweep=list(range(3, 15)),
            replications=2,
        )
        configs = list(spec.cells)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "ledgers.jsonl.0.tmp").write_text("stale\n")
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        open_fds = {int(fd) for fd in os.listdir("/proc/self/fd")}
        limit = max(open_fds) + 8
        assert limit - len(open_fds) < len(configs)
        resource.setrlimit(resource.RLIMIT_NOFILE, (limit, hard))
        try:
            ledgers = run_experiment(spec, ledgers=True)["ledgers"].read_bytes()
        finally:
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))

        stream = io.BytesIO()
        for config in configs:
            for rep in range(2):
                _ledger_line(stream, config.policy.name, config.horizon, rep, run(config, rep))
                stream.write(b"\n")
        assert ledgers == stream.getvalue()
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "ledgers.jsonl", "regret.csv", "slopes.csv",
        ]


def _kwik_row(config):
    """kwik.csv's row for one horizon, from a direct run."""
    ledger = run(config, 0)
    steps = ledger.steps
    settled = ~steps["went_to_court"]
    errors = np.abs(steps["applied_decision"][settled] - steps["true_value"][settled])
    predicted = int(settled.sum())
    epsilon = config.policy.epsilon
    fraction = int((errors <= epsilon).sum()) / predicted if predicted else 1.0
    max_error = errors.max().item() if predicted else 0.0
    return _csv_row((config.horizon, config.cases.dim, epsilon, config.policy.delta, predicted,
                     ledger.court_count, fraction, max_error), "kwik.csv")


# Values whose JSON text differs from a naive formatting, or that a
# float-valued run search would merge: signed zeros, the smallest
# subnormal, exponent forms and the non-finite extensions.
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 2.2e-308, 1e16, 1e-5, 2.5e-7, math.nan, math.inf, -math.inf]
INT64_EXTREMES = [-(2**63), 2**63 - 1, 0, -1]


def _ledger(steps, total_loss=1.5):
    return RunLedger(
        steps=steps, total_loss=total_loss, court_count=3, total_subsidy_paid=0.25,
        seed=7, config_digest="0123456789abcdef",
    )


def _streamed(policy, horizon, rep, ledger):
    stream = io.BytesIO()
    _ledger_line(stream, policy, horizon, rep, ledger)
    return stream.getvalue()


_ELEMENTS = {
    np.float64: st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
    np.int64: st.one_of(
        st.sampled_from(INT64_EXTREMES), st.integers(min_value=-(2**63), max_value=2**63 - 1)
    ),
    np.bool_: st.booleans(),
}


@st.composite
def step_columns(draw):
    """Every ``STEP_COLUMNS`` column at one length, from 0 to 64 steps: each is
    drawn from a pool of one to three values (few distinct, or constant),
    element by element (mostly distinct), or as runs of random length over a
    pool of up to four values (piecewise constant)."""
    horizon = draw(st.integers(min_value=0, max_value=64))
    steps = {}
    for name, dtype in STEP_COLUMNS.items():
        elements = _ELEMENTS[dtype]
        mode = draw(st.sampled_from(["pool", "distinct", "runs"]))
        if mode == "pool":
            pool = draw(st.lists(elements, min_size=1, max_size=3))
            values = [pool[i] for i in draw(st.lists(
                st.integers(min_value=0, max_value=len(pool) - 1), min_size=horizon, max_size=horizon
            ))]
        elif mode == "distinct":
            values = draw(st.lists(elements, min_size=horizon, max_size=horizon))
        else:
            pool = draw(st.lists(elements, min_size=1, max_size=4))
            values = []
            while len(values) < horizon:
                value = pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))]
                values += [value] * draw(st.integers(min_value=1, max_value=6))
            values = values[:horizon]
        steps[name] = np.array(values, dtype=dtype)
    return steps


class TestLedgerEncoding:
    """The streamed column encoder writes the bytes of one ``json.dumps``."""

    @settings(max_examples=120, deadline=None)
    @given(
        steps=step_columns(),
        policy=st.text(),
        total_loss=st.floats(),
        rep=st.integers(min_value=0, max_value=2**40),
    )
    def test_streamed_line_matches_json_dumps(self, steps, policy, total_loss, rep):
        ledger = _ledger(steps, total_loss)
        horizon = len(steps["t"])
        assert _streamed(policy, horizon, rep, ledger) == ledger_line(policy, horizon, rep, ledger).encode()

    @pytest.mark.parametrize("horizon", [0, 1, 3, 8])
    @pytest.mark.parametrize("distinct", ["constant", "few", "all", "runs", "runs+1"])
    def test_special_values(self, horizon, distinct):
        # "runs" cuts each column into horizon // 2 runs, the most that still
        # takes the run path, and "runs+1" into one run more
        runs = horizon // 2 + (distinct == "runs+1")

        def column(pool, dtype):
            if distinct == "constant":
                pool = pool[:1]
            elif distinct == "few":
                pool = pool[:2]
            indices = range(horizon)
            if distinct.startswith("runs"):
                indices = [i * runs // horizon for i in indices]
            return np.array([pool[i % len(pool)] for i in indices], dtype=dtype)

        finite = [v for v in SPECIAL_FLOATS if math.isfinite(v)]
        steps = {
            name: column(INT64_EXTREMES, dtype) if dtype is np.int64 else column([True, False], dtype)
            for name, dtype in STEP_COLUMNS.items()
        }
        steps["cost"] = column(finite, np.float64)
        steps["subsidy"] = column(SPECIAL_FLOATS, np.float64)
        steps["squared_error"] = column(SPECIAL_FLOATS[::-1], np.float64)
        steps["true_value"] = column([-0.0, 0.0], np.float64)
        steps["compelled"] = np.zeros(horizon, dtype=bool)
        steps["went_to_court"] = np.ones(horizon, dtype=bool)
        ledger = _ledger(steps)
        assert _streamed("etc", horizon, 0, ledger) == ledger_line("etc", horizon, 0, ledger).encode()

    def test_run_expansion_peak_memory_is_bounded(self):
        # a piecewise-constant column of 200 runs: the peak holds the run
        # pieces and the joined text (about 2x the text), and no further
        # full-length copy beside them, such as a slice of the joined text
        rng = np.random.default_rng(5)
        column = np.repeat(rng.random(200), 1000)
        tracemalloc.start()
        try:
            text = b"".join(experiment._column_json(column))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == json.dumps(column.tolist(), separators=(",", ":"))[1:-1].encode()
        assert peak < 2.5 * len(text)

    @pytest.mark.parametrize("offset", [-1, 0, 1, experiment._PIECE + 1])
    def test_long_columns_go_in_pieces_of_bounded_steps(self, offset):
        # a dense column goes in chunks of _PIECE values, a run longer than
        # _PIECE steps in pieces of _PIECE steps: no piece holds more commas
        steps = experiment._PIECE + offset
        rng = np.random.default_rng(steps)
        columns = [rng.random(steps), np.arange(1, steps + 1), np.full(steps, 0.5),
                   np.repeat([1.5, -0.0, 0.0], [1, steps - 2, 1])]
        for column in columns:
            pieces = list(experiment._column_json(column))
            assert b"".join(pieces) == json.dumps(column.tolist(), separators=(",", ":"))[1:-1].encode()
            assert max(piece.count(b",") for piece in pieces) <= experiment._PIECE

    def test_streamed_column_peak_memory_is_a_fraction_of_its_text(self):
        # the same column written by _ledger_line: it goes to the stream run
        # piece by run piece, so the peak is far below the column's text
        rng = np.random.default_rng(5)
        column = np.repeat(rng.random(200), 1000)
        text = json.dumps(column.tolist(), separators=(",", ":"))
        ledger = _ledger({"applied_decision": column})
        with open(os.devnull, "wb") as stream:
            tracemalloc.start()
            try:
                _ledger_line(stream, "etc", len(column), 0, ledger)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 0.25 * len(text)

    def test_ledger_without_steps(self):
        ledger = _ledger({})
        assert _streamed("etc", 5, 1, ledger) == ledger_line("etc", 5, 1, ledger).encode()


class TestSlopeFit:
    def test_recovers_power_law(self):
        horizons = np.array([1000, 10_000, 100_000])
        values = 3.0 * horizons.astype(float) ** -0.5
        assert fit_loglog_slope(horizons, values) == pytest.approx(-0.5)

    def test_drops_nonpositive_points(self):
        horizons = np.array([10, 100, 1000])
        values = np.array([1.0, 0.0, 0.1])
        assert fit_loglog_slope(horizons, values) == pytest.approx(-0.5)
        assert fit_loglog_slope(horizons, np.array([0.0, 0.0, 1.0])) is None


class TestKwikReport:
    def test_columns_and_noiseless_accuracy(self, tmp_path):
        spec = kwik_spec(tmp_path)
        outputs = kwik_report(spec)
        lines = outputs["kwik"].read_text().splitlines()
        assert lines[0] == KWIK_COLUMNS
        row = dict(zip(KWIK_COLUMNS.split(","), lines[1].split(",")))
        assert int(row["T"]) == 400
        assert int(row["n"]) == 2
        predicted = int(row["predicted_count"])
        compelled = int(row["compelled_count"])
        assert predicted + compelled == 400
        assert predicted > 0
        # zero noise: once the gate opens, the fitted rule is exact
        assert float(row["fraction_predictions_within_eps"]) == 1.0

    def test_an_interrupted_write_leaves_the_earlier_output(self, tmp_path, monkeypatch):
        spec = kwik_spec(tmp_path)
        kwik_path = kwik_report(spec)["kwik"]
        earlier = kwik_path.read_bytes()
        write_text = experiment._write_text

        def write_then_fail(path, lines):
            write_text(path, lines[:1])
            raise OSError("disk full")

        monkeypatch.setattr(experiment, "_write_text", write_then_fail)
        with pytest.raises(OSError, match="disk full"):
            kwik_report(dataclasses.replace(spec, seed=4))
        assert kwik_path.read_bytes() == earlier
        assert sorted(p.name for p in kwik_path.parent.iterdir()) == ["kwik.csv"]

    def test_requires_exactly_one_kwik_policy(self, tmp_path):
        spec = small_spec(tmp_path)
        with pytest.raises(Exception, match="kwik"):
            kwik_report(spec)

    def test_singleton_cases_refused_by_the_run_config(self, tmp_path):
        # A hand-built spec builds its cells as a loaded one does; RunConfig refuses this one.
        with pytest.raises(ConfigurationError, match=r"^policies\[0\] \(kwik\): kwik policy requires vector cases$"):
            kwik_report(dataclasses.replace(small_spec(tmp_path), policies=kwik_spec(tmp_path).policies))
        assert not (tmp_path / "out").exists()


class TestCli:
    def _write_config(self, tmp_path, out_dir):
        config = {
            "truth": {"family": "constant", "mu": 0.5, "sigma": 0.5, "alpha": 1.0},
            "cost": {"kind": "point", "c": 1.0},
            "learner": {"kind": "empirical_mean"},
            "policies": ["no_subsidy"],
            "sweep": [20, 40],
            "replications": 3,
            "seed": 1,
            "out_dir": str(out_dir),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_run_command(self, tmp_path, capsys):
        path = self._write_config(tmp_path, tmp_path / "out")
        assert main(["run", str(path)]) == 0
        assert (tmp_path / "out" / "regret.csv").exists()
        assert "regret" in capsys.readouterr().out

    def test_run_with_overrides_and_ledgers(self, tmp_path):
        path = self._write_config(tmp_path, tmp_path / "out")
        assert main(["run", str(path), "--out", str(tmp_path / "other"), "--seed", "7",
                     "--replications", "2", "--ledgers"]) == 0
        assert (tmp_path / "other" / "ledgers.jsonl").exists()
        assert not (tmp_path / "out").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"truth": {"family": "constant"}}))
        assert main(["run", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_failed_sweep_leaves_no_files(self, tmp_path, capsys, monkeypatch):
        # the no_subsidy cells pass, then etc's first cell reports a non-finite
        # regret, which the CSV writer refuses after every cell has run and
        # written its ledger part
        report_cell = sim._regret_report

        def report_or_overflow(config, books):
            report = report_cell(config, books)
            if config.policy.name == "etc":
                report = dataclasses.replace(report, mean_regret=math.inf)
            return report

        monkeypatch.setattr(sim, "_regret_report", report_or_overflow)
        config = {
            "truth": {"family": "constant", "mu": 0.5, "sigma": 0.5, "alpha": 1.0},
            "cost": {"kind": "point", "c": 1.0},
            "learner": {"kind": "empirical_mean"},
            "policies": ["no_subsidy", "etc"],
            "sweep": [10, 100],
            "replications": 2,
        }
        path = tmp_path / "failing.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--ledgers"]) == 2
        assert "non-finite value would be written to regret.csv" in capsys.readouterr().err
        assert not (out / "ledgers.jsonl").exists()
        assert not (out / "regret.csv").exists()
        assert list(out.iterdir()) == []

    def test_a_run_leaves_only_its_own_outputs(self, tmp_path):
        # a run without --ledgers removes the ledgers.jsonl of an earlier run;
        # every run removes the ledger parts of a killed run with more cells,
        # and no other file
        path = self._write_config(tmp_path, tmp_path / "out")
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "notes.txt").write_text("kept\n")
        (tmp_path / "out" / "ledgers.jsonl.99.tmp").write_text("stale\n")
        assert main(["run", str(path), "--seed", "7", "--ledgers"]) == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "ledgers.jsonl", "notes.txt", "regret.csv", "slopes.csv",
        ]
        (tmp_path / "out" / "ledgers.jsonl.99.tmp").write_text("stale\n")
        assert main(["run", str(path), "--seed", "9"]) == 0
        assert main(["run", str(path), "--seed", "9", "--out", str(tmp_path / "fresh")]) == 0
        assert (tmp_path / "out" / "notes.txt").read_text() == "kept\n"
        (tmp_path / "out" / "notes.txt").unlink()
        for out in ("out", "fresh"):
            assert sorted(p.name for p in (tmp_path / out).iterdir()) == ["regret.csv", "slopes.csv"]
        for name in ("regret.csv", "slopes.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    def test_run_and_kwik_leave_each_others_files(self, tmp_path):
        out = tmp_path / "out"
        path = tmp_path / "kwik.json"
        path.write_text(json.dumps({
            "truth": {"family": "linear", "beta": [0.2], "beta0": 0.4, "sigma": 0.1, "alpha": 1.0},
            "cases": {"kind": "ball", "dim": 1},
            "cost": {"kind": "point", "c": 1.0},
            "learner": {"kind": "norm_constrained"},
            "policies": [{"name": "kwik", "epsilon": 0.2, "delta": 0.1, "alpha1": 0.2}],
            "sweep": [50, 200],
            "replications": 2,
            "out_dir": str(out),
        }))
        assert main(["run", str(path), "--ledgers"]) == 0
        run_files = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(run_files) == ["ledgers.jsonl", "regret.csv", "slopes.csv"]
        assert main(["kwik", str(path)]) == 0
        kwik_csv = (out / "kwik.csv").read_bytes()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {**run_files, "kwik.csv": kwik_csv}
        assert main(["run", str(path), "--ledgers", "--seed", "4"]) == 0
        assert (out / "kwik.csv").read_bytes() == kwik_csv
        assert len(list(out.iterdir())) == 4

    def test_kwik_command(self, tmp_path):
        config = {
            "truth": {"family": "linear", "beta": [0.2], "beta0": 0.4, "sigma": 0.0, "alpha": 1.0},
            "cases": {"kind": "ball", "dim": 1},
            "cost": {"kind": "point", "c": 1.0},
            "learner": {"kind": "norm_constrained"},
            "policies": [{"name": "kwik", "epsilon": 0.2, "delta": 0.1, "alpha1": 0.2}],
            "sweep": [200],
            "seed": 2,
            "out_dir": str(tmp_path / "kw"),
        }
        path = tmp_path / "kwik.json"
        path.write_text(json.dumps(config))
        assert main(["kwik", str(path)]) == 0
        assert (tmp_path / "kw" / "kwik.csv").exists()

    def test_kwik_command_refuses_replications(self, tmp_path, capsys):
        # kwik.csv comes from replication 0 at each horizon, so the flag has nothing to set
        config = {
            "truth": {"family": "linear", "beta": [0.2], "beta0": 0.4, "sigma": 0.0, "alpha": 1.0},
            "cases": {"kind": "ball", "dim": 1},
            "cost": {"kind": "point", "c": 1.0},
            "learner": {"kind": "norm_constrained"},
            "policies": [{"name": "kwik", "epsilon": 0.2, "delta": 0.1, "alpha1": 0.2}],
            "sweep": [20],
            "out_dir": str(tmp_path / "kw"),
        }
        path = tmp_path / "kwik.json"
        path.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exit_info:
            main(["kwik", str(path), "--replications", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --replications 2" in capsys.readouterr().err
        assert not (tmp_path / "kw").exists()

    @pytest.mark.parametrize("command", ["run", "kwik"])
    def test_output_directory_under_a_file(self, tmp_path, capsys, command):
        config = {
            "truth": {"family": "linear", "beta": [0.2], "beta0": 0.4, "sigma": 0.0, "alpha": 1.0},
            "cases": {"kind": "ball", "dim": 1},
            "cost": {"kind": "point", "c": 1.0},
            "learner": {"kind": "norm_constrained"},
            "policies": [{"name": "kwik", "epsilon": 0.2, "delta": 0.1, "alpha1": 0.2}],
            "sweep": [20],
            "replications": 1,
        }
        path = tmp_path / "kwik.json"
        path.write_text(json.dumps(config))
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        out = blocker / "out"
        assert main([command, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot create output directory {out}" in err
