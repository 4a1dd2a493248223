"""Inductive updating of credibility functions over finite hypothesis sets.

Two updating rules over pluggable evidential measures: ratio-form
(multiplicative) updating, which never zeroes a hypothesis, and additive
updating with conservative renormalization, which zeroes as few hypotheses
as possible.  Plus: CRPS-based forecast scoring, accuracy-dominance checks,
sampled checks that candidate combination and rescaling functions meet the
requirements behind the rules, a constructive witness that the additive rule
must zero hypotheses, and a seeded simulation harness for comparing the
rules on predictive tasks.
"""

from .axioms import (
    AxiomCheck,
    AxiomReport,
    check_combination_axioms,
    check_commutation,
    construct_regularity_violation,
    regularity_violation_report,
)
from .core import (
    DEFAULT_EPS,
    Credibility,
    ProbabilityVector,
    ideal_credibility,
    is_probabilistic,
    read_labeled_csv,
    uniform,
    write_labeled_csv,
)
from .dominance import DominanceReport, divergence, project_to_simplex, verify_dominance
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    ModelSpec,
    RuleAggregate,
    StepRecord,
    generate_data,
    run_experiment,
)
from .measures import (
    Empirical,
    Forecast,
    Gaussian,
    LossValue,
    Mode,
    ModeMismatchError,
    PointMass,
    ScoreVector,
    crps,
    crps_measure,
    crps_monte_carlo,
    exp_loss_score,
    forecast_from_json,
    forecast_to_json,
    likelihood_score,
    min_abs_error_score,
    sample_forecast,
)
from .updating import (
    NormalizationResult,
    RuleKind,
    UnderflowError,
    UpdateRule,
    combine_additive,
    conservative_normalize,
    general_bayes_update,
    inferential_update,
    predictive_update,
    sequential_update,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomCheck",
    "AxiomReport",
    "Credibility",
    "DEFAULT_EPS",
    "DominanceReport",
    "Empirical",
    "ExperimentConfig",
    "ExperimentResult",
    "Forecast",
    "Gaussian",
    "LossValue",
    "Mode",
    "ModeMismatchError",
    "ModelSpec",
    "NormalizationResult",
    "PointMass",
    "ProbabilityVector",
    "RuleAggregate",
    "RuleKind",
    "ScoreVector",
    "StepRecord",
    "UnderflowError",
    "UpdateRule",
    "check_combination_axioms",
    "check_commutation",
    "combine_additive",
    "conservative_normalize",
    "construct_regularity_violation",
    "crps",
    "crps_measure",
    "crps_monte_carlo",
    "divergence",
    "exp_loss_score",
    "forecast_from_json",
    "forecast_to_json",
    "general_bayes_update",
    "generate_data",
    "ideal_credibility",
    "inferential_update",
    "is_probabilistic",
    "likelihood_score",
    "min_abs_error_score",
    "predictive_update",
    "project_to_simplex",
    "read_labeled_csv",
    "regularity_violation_report",
    "run_experiment",
    "sample_forecast",
    "sequential_update",
    "uniform",
    "verify_dominance",
    "write_labeled_csv",
]
