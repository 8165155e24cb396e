"""Experiment orchestration: horizon sweeps, policy comparisons, result files.

Outputs are plain CSV (plus optional JSON-lines ledgers) and are bit-exact
reproducible from (config, master seed): every policy/horizon/replication
cell derives its own RNG streams, environments depend only on the master
seed and the replication index, and floats are written with 12 significant
digits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentSpec
from .core import ConfigurationError, RunLedger
from .sim import RegretReport, estimate_regret, run

__all__ = [
    "REGRET_COLUMNS",
    "SLOPES_COLUMNS",
    "KWIK_COLUMNS",
    "RegretRow",
    "KwikRow",
    "fit_loglog_slope",
    "run_experiment",
    "kwik_report",
]

REGRET_COLUMNS = (
    "policy,T,mean_regret,std_error,mean_court_count,mean_total_subsidy,mean_offline_loss"
)
SLOPES_COLUMNS = "policy,slope"
KWIK_COLUMNS = (
    "T,n,epsilon,delta,predicted_count,compelled_count,"
    "fraction_predictions_within_eps,max_abs_prediction_error"
)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


@dataclass(frozen=True)
class RegretRow:
    policy: str
    horizon: int
    report: RegretReport

    def render(self) -> str:
        r = self.report
        return ",".join(
            [
                self.policy,
                str(self.horizon),
                _fmt(r.mean_regret),
                _fmt(r.std_error),
                _fmt(r.mean_court_count),
                _fmt(r.mean_total_subsidy),
                _fmt(r.mean_offline_loss),
            ]
        )


@dataclass(frozen=True)
class KwikRow:
    horizon: int
    dim: int
    epsilon: float
    delta: float
    predicted_count: int
    compelled_count: int
    fraction_within_eps: float
    max_abs_error: float

    def render(self) -> str:
        return ",".join(
            [
                str(self.horizon),
                str(self.dim),
                _fmt(self.epsilon),
                _fmt(self.delta),
                str(self.predicted_count),
                str(self.compelled_count),
                _fmt(self.fraction_within_eps),
                _fmt(self.max_abs_error),
            ]
        )


def fit_loglog_slope(horizons: np.ndarray, values: np.ndarray) -> float | None:
    """Equal-weight least-squares slope of log(value) against log(horizon).

    Points with non-positive values are dropped; returns None when fewer
    than two usable points remain.
    """
    mask = values > 0
    if mask.sum() < 2:
        return None
    x = np.log(horizons[mask].astype(float))
    y = np.log(values[mask])
    x_centered = x - x.mean()
    return float((x_centered @ y) / (x_centered @ x_centered))


def _write_text(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n")


def _check_finite(path: Path, values: list[float]) -> None:
    for value in values:
        if not math.isfinite(value):
            raise ConfigurationError(f"non-finite value would be written to {path.name}")


def _ledger_line(policy: str, horizon: int, rep: int, ledger: RunLedger) -> str:
    steps = {
        "t": [r.t for r in ledger.records],
        "cost": [r.cost for r in ledger.records],
        "subsidy": [r.subsidy for r in ledger.records],
        "compelled": [int(r.compelled) for r in ledger.records],
        "went_to_court": [int(r.went_to_court) for r in ledger.records],
        "applied_decision": [r.applied_decision for r in ledger.records],
        "true_value": [r.true_value for r in ledger.records],
        "squared_error": [r.squared_error for r in ledger.records],
        "court_cost_incurred": [r.court_cost_incurred for r in ledger.records],
        "pre_step_err_bound": [r.pre_step_err_bound for r in ledger.records],
        "m_before": [r.m_before for r in ledger.records],
        "settlement_value": [r.settlement_value for r in ledger.records],
    }
    payload = {
        "policy": policy,
        "T": horizon,
        "replication": rep,
        "seed": ledger.seed,
        "config_digest": ledger.config_digest,
        "total_loss": ledger.total_loss,
        "court_count": ledger.court_count,
        "total_subsidy_paid": ledger.total_subsidy_paid,
        "steps": steps,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _output_dir(spec: ExperimentSpec) -> Path:
    """Create the spec's output directory; failure is a configuration error."""
    out_dir = Path(spec.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {out_dir}: {exc}") from None
    return out_dir


def run_experiment(spec: ExperimentSpec, *, ledgers: bool = False) -> dict[str, Path]:
    """Run every (policy, horizon) cell and emit regret.csv + slopes.csv.

    With ``ledgers=True``, every replication's full ledger is appended to
    ledgers.jsonl.
    """
    out_dir = _output_dir(spec)
    regret_lines = [REGRET_COLUMNS]
    ledger_lines: list[str] = []
    per_policy: dict[str, list[tuple[int, float]]] = {}
    for request in spec.policies:
        for horizon in spec.sweep:
            config = spec.run_config(request, horizon)
            sink = None
            if ledgers:
                sink = lambda rep, ledger, _p=request.name, _h=horizon: ledger_lines.append(
                    _ledger_line(_p, _h, rep, ledger)
                )
            report = estimate_regret(config, spec.replications, ledger_sink=sink)
            row = RegretRow(request.name, horizon, report)
            _check_finite(
                out_dir / "regret.csv",
                [
                    report.mean_regret,
                    report.std_error,
                    report.mean_court_count,
                    report.mean_total_subsidy,
                    report.mean_offline_loss,
                ],
            )
            regret_lines.append(row.render())
            per_policy.setdefault(request.name, []).append((horizon, report.mean_regret))

    slope_lines = [SLOPES_COLUMNS]
    for name, points in per_policy.items():
        horizons = np.array([p[0] for p in points])
        values = np.array([p[1] for p in points])
        slope = fit_loglog_slope(horizons, values)
        if slope is not None:
            slope_lines.append(f"{name},{_fmt(slope)}")

    outputs: dict[str, Path] = {}
    regret_path = out_dir / "regret.csv"
    _write_text(regret_path, regret_lines)
    outputs["regret"] = regret_path
    slopes_path = out_dir / "slopes.csv"
    _write_text(slopes_path, slope_lines)
    outputs["slopes"] = slopes_path
    if ledgers:
        ledgers_path = out_dir / "ledgers.jsonl"
        _write_text(ledgers_path, ledger_lines) if ledger_lines else ledgers_path.write_text("")
        outputs["ledgers"] = ledgers_path
    return outputs


def kwik_report(spec: ExperimentSpec) -> dict[str, Path]:
    """Run the spec's kwik policy across the sweep and emit kwik.csv.

    One deterministic run per horizon (replication 0); prediction accuracy
    is measured against the true rule on every settled case.
    """
    kwik_requests = [p for p in spec.policies if p.name == "kwik"]
    if len(kwik_requests) != 1:
        raise ConfigurationError("kwik report needs exactly one kwik policy in the config")
    dim = spec.cases.dim
    if dim is None:
        raise ConfigurationError("kwik report requires vector cases")

    out_dir = _output_dir(spec)
    lines = [KWIK_COLUMNS]
    for horizon in spec.sweep:
        config = spec.run_config(kwik_requests[0], horizon)
        epsilon = config.policy.epsilon
        ledger = run(config, rep=0)
        settled = [r for r in ledger.records if not r.went_to_court]
        errors = [abs(r.applied_decision - r.true_value) for r in settled]
        predicted = len(settled)
        within = sum(1 for e in errors if e <= epsilon)
        fraction = within / predicted if predicted else 1.0
        max_error = max(errors) if errors else 0.0
        row = KwikRow(
            horizon=horizon,
            dim=dim,
            epsilon=epsilon,
            delta=config.policy.delta,
            predicted_count=predicted,
            compelled_count=ledger.court_count,
            fraction_within_eps=fraction,
            max_abs_error=max_error,
        )
        _check_finite(out_dir / "kwik.csv", [fraction, max_error])
        lines.append(row.render())
    kwik_path = out_dir / "kwik.csv"
    _write_text(kwik_path, lines)
    return {"kwik": kwik_path}
