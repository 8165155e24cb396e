"""courtlearn: online learning of decision rules through costly court queries.

A simulator and policy library for a setting where an unknown decision rule
can only be observed by sending cases to court, at a cost, and strategic
agents choose between settling and litigating.  Selection policies compel or
subsidize court appearances; analytics compare each policy's cumulative loss
to an offline baseline.
"""

from .core import (
    BallCases,
    ConfigurationError,
    ConstantTruth,
    Dataset,
    FixedCosts,
    LinearTruth,
    PointMassCosts,
    RunLedger,
    SingletonCases,
    UniformCosts,
    sample_cases,
)
from .learners import LearnerFamily, LearnerKind, LinearRule, MeanRule, err_bound, fit
from .policies import (
    DynamicCompellingConfig,
    EtcConfig,
    KwikConfig,
    NoSubsidyConfig,
    SubsidySamplingConfig,
    agent_decision,
    dynamic_compel_probability,
    etc_compel_count,
    sample_subsidy,
    subsidy_tail_probability,
)
from .sim import (
    DeterrentReport,
    Environment,
    RegretReport,
    RunConfig,
    check_deterrent,
    draw_environment,
    estimate_regret,
    offline_baseline,
    run,
)
from .config import ExperimentSpec, PolicyRequest, load_config, parse_config
from .experiment import kwik_report, run_experiment

__version__ = "0.1.0"

__all__ = [
    "BallCases",
    "ConfigurationError",
    "ConstantTruth",
    "Dataset",
    "FixedCosts",
    "LinearTruth",
    "PointMassCosts",
    "RunLedger",
    "SingletonCases",
    "UniformCosts",
    "sample_cases",
    "LearnerFamily",
    "LearnerKind",
    "LinearRule",
    "MeanRule",
    "err_bound",
    "fit",
    "DynamicCompellingConfig",
    "EtcConfig",
    "KwikConfig",
    "NoSubsidyConfig",
    "SubsidySamplingConfig",
    "agent_decision",
    "dynamic_compel_probability",
    "etc_compel_count",
    "sample_subsidy",
    "subsidy_tail_probability",
    "DeterrentReport",
    "Environment",
    "RegretReport",
    "RunConfig",
    "check_deterrent",
    "draw_environment",
    "estimate_regret",
    "offline_baseline",
    "run",
    "ExperimentSpec",
    "PolicyRequest",
    "load_config",
    "parse_config",
    "kwik_report",
    "run_experiment",
]
