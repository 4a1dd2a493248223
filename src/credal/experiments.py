"""Seeded simulations comparing the updating rules on forecast-comparison tasks.

Each candidate model is a fixed predictive distribution; data are drawn
i.i.d. from a truth distribution.  At every step the current posterior makes
a mixture prediction that is scored against the incoming observation
(predict-then-update), then the posterior is updated under each rule:

* ratio-form updating scores models by their Gaussian predictive density at
  the observation (floored to stay positive),
* loss-based updating exponentiates each model's CRPS,
* additive updating adds ``a * CRPS`` and conservatively renormalizes,
  zeroing persistently inaccurate models.

The mixture score is exact (see :class:`~credal.measures.MixtureCRPS`), so
every rule is scored without sampling noise.  Randomness drives only the
data: each replication's observations come from a counter-based Philox
stream keyed by (seed, replication), so every rule sees the same data,
replications are order-free and reruns are bit-reproducible.  Whether one
rule predicts better than another is an empirical matter; results report
means with standard errors and assert no ordering.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import ProbabilityVector, format_float, reject_unknown_keys, uniform
from .measures import (
    Forecast,
    Gaussian,
    LossValue,
    MixtureCRPS,
    Mode,
    ScoreVector,
    crps,
    forecast_from_json,
    forecast_to_json,
    likelihood_score,
    sample_forecast,
)
from .updating import RuleKind, UpdateRule, general_bayes_update, inferential_update, predictive_update

_DATA_STREAM = 0

CSV_HEADER = "rule,replication,t,model,posterior,crps,mixture_crps"


def _rng(seed: int, *key: int) -> np.random.Generator:
    words = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [int(k) for k in key]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(words)))


@dataclass(frozen=True)
class ModelSpec:
    """A candidate model: a label and its fixed per-step forecast."""

    label: str
    forecast: Forecast

    def __post_init__(self):
        if not self.label:
            raise ValueError("model label must be non-empty")


_RULE_KEYS = {"inferential": {"kind"}, "predictive": {"kind"}, "general_bayes": {"kind", "rate"}}


def _parse_rule(obj) -> UpdateRule:
    if isinstance(obj, str):
        kind = obj
        rate = None
    elif isinstance(obj, dict):
        kind = obj.get("kind")
        rate = obj.get("rate")
        if kind in _RULE_KEYS:
            reject_unknown_keys(obj, _RULE_KEYS[kind], f"{kind} rule literal")
    else:
        raise ValueError(f"cannot parse rule literal: {obj!r}")
    if kind == "inferential":
        return UpdateRule.inferential()
    if kind == "predictive":
        return UpdateRule.predictive()
    if kind == "general_bayes":
        if rate is None:
            raise ValueError("general_bayes rule literal needs a 'rate'")
        return UpdateRule.general_bayes(float(rate))
    raise ValueError(f"unknown rule kind: {kind!r}")


def _parse_model(obj) -> ModelSpec:
    if not isinstance(obj, dict):
        raise ValueError(f"cannot parse model literal: {obj!r}")
    reject_unknown_keys(obj, {"label", "forecast"}, f"model literal {obj.get('label')!r}")
    return ModelSpec(str(obj["label"]), forecast_from_json(obj["forecast"]))


def _rule_to_json(rule: UpdateRule):
    if rule.kind is RuleKind.GENERAL_BAYES:
        return {"kind": "general_bayes", "rate": rule.learning_rate}
    return rule.kind.value


def _json_int(obj: dict, key: str, default: int | None = None) -> int:
    value = obj[key] if default is None else obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"invalid experiment config: {key}: must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulation; identical configs give identical output."""

    seed: int
    truth: Forecast
    models: tuple[ModelSpec, ...]
    horizon: int
    rules: tuple[UpdateRule, ...]
    a: float = -1.0
    likelihood_floor: float = 1e-300
    replications: int = 1

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "rules", tuple(self.rules))
        problems = []
        if self.horizon < 1:
            problems.append("horizon: must be at least 1")
        if self.replications < 1:
            problems.append("replications: must be at least 1")
        if len(self.models) < 1:
            problems.append("models: need at least one model")
        labels = [m.label for m in self.models]
        if len(set(labels)) != len(labels):
            problems.append("models: labels must be unique")
        if len(self.rules) < 1:
            problems.append("rules: need at least one rule")
        kinds = [r.kind for r in self.rules]
        if len(set(kinds)) != len(kinds):
            problems.append("rules: at most one rule of each kind")
        if not (math.isfinite(self.a) and self.a < 0.0):
            problems.append("a: must be negative")
        if not (math.isfinite(self.likelihood_floor) and self.likelihood_floor > 0.0):
            problems.append("likelihood_floor: must be positive")
        if RuleKind.INFERENTIAL in kinds and not all(
            isinstance(m.forecast, Gaussian) for m in self.models
        ):
            problems.append("models: inferential scoring needs a Gaussian forecast per model")
        if problems:
            raise ValueError("invalid experiment config: " + "; ".join(problems))

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        """Parse a config object; non-integer counts and unknown keys, also in
        the rule, model and forecast literals, are rejected."""
        reject_unknown_keys(obj, {f.name for f in fields(cls)}, "invalid experiment config")
        return cls(
            seed=_json_int(obj, "seed"),
            truth=forecast_from_json(obj["truth"]),
            models=tuple(_parse_model(m) for m in obj["models"]),
            horizon=_json_int(obj, "horizon"),
            rules=tuple(_parse_rule(r) for r in obj["rules"]),
            a=float(obj.get("a", -1.0)),
            likelihood_floor=float(obj.get("likelihood_floor", 1e-300)),
            replications=_json_int(obj, "replications", 1),
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(Path(path)) as fh:
            return cls.from_json(json.load(fh))

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "truth": forecast_to_json(self.truth),
            "models": [
                {"label": m.label, "forecast": forecast_to_json(m.forecast)}
                for m in self.models
            ],
            "horizon": self.horizon,
            "rules": [_rule_to_json(r) for r in self.rules],
            "a": self.a,
            "likelihood_floor": self.likelihood_floor,
            "replications": self.replications,
        }


def generate_data(seed: int, truth: Forecast, horizon: int, replication: int = 0) -> np.ndarray:
    """Deterministic i.i.d. draws from the truth distribution.

    The stream depends on (seed, replication) only, so every rule sees the
    same data within a replication.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    return sample_forecast(truth, _rng(seed, _DATA_STREAM, replication), horizon)


def weighted_predictive_score(
    posterior: ProbabilityVector, models: Sequence[ModelSpec], x: float
) -> float:
    """Exact CRPS of the posterior-weighted mixture forecast at outcome ``x``.

    The one-call form of the score :func:`run_experiment` records; it builds
    the models' pairwise matrix on every call, where the harness builds it
    once per run.
    """
    if len(posterior) != len(models):
        raise ValueError("posterior and models must have the same length")
    forecasts = [m.forecast for m in models]
    return MixtureCRPS(forecasts).score(posterior.values, [crps(f, x) for f in forecasts])


@dataclass(frozen=True)
class StepRecord:
    """State after one update step of one rule in one replication."""

    rule: str
    replication: int
    t: int
    posterior: np.ndarray
    crps: np.ndarray
    mixture_crps: float


@dataclass(frozen=True)
class RuleAggregate:
    """Across-replication summary of a rule's mixture predictive accuracy."""

    rule: str
    mean_mixture_crps: float
    se_mixture_crps: float
    replication_means: tuple[float, ...]


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    records: tuple[StepRecord, ...]
    aggregates: tuple[RuleAggregate, ...]

    def to_csv_text(self) -> str:
        lines = [CSV_HEADER]
        for rec in self.records:
            for i, model in enumerate(self.config.models):
                lines.append(
                    ",".join(
                        [
                            rec.rule,
                            str(rec.replication),
                            str(rec.t),
                            model.label,
                            format_float(rec.posterior[i]),
                            format_float(rec.crps[i]),
                            format_float(rec.mixture_crps),
                        ]
                    )
                )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        Path(path).write_text(self.to_csv_text())


def _gaussian_density(f: Gaussian, x: float) -> float:
    z = (x - f.mu) / f.sigma
    return math.exp(-0.5 * z * z) / (f.sigma * math.sqrt(2.0 * math.pi))


def _step_posterior(
    rule: UpdateRule,
    p: ProbabilityVector,
    cfg: ExperimentConfig,
    x: float,
    per_model: np.ndarray,
) -> ProbabilityVector:
    """One update of ``p`` at observation ``x``; ``per_model`` holds each model's CRPS at x."""
    if rule.kind is RuleKind.INFERENTIAL:
        dens = [
            max(cfg.likelihood_floor, _gaussian_density(m.forecast, x)) for m in cfg.models
        ]
        return inferential_update(p, likelihood_score(dens))
    if rule.kind is RuleKind.GENERAL_BAYES:
        losses = [LossValue(float(c), rule.learning_rate) for c in per_model]
        return general_bayes_update(p, losses)
    if rule.kind is RuleKind.PREDICTIVE:
        return predictive_update(p, ScoreVector(cfg.a * per_model, Mode.ADDITIVE)).posterior
    raise ValueError(f"unsupported rule: {rule!r}")


def _model_crps(forecasts: Sequence[Forecast], xs: np.ndarray) -> np.ndarray:
    """Read-only ``[horizon, models]`` matrix of each model's CRPS at each observation."""
    table = np.array([[crps(f, x) for f in forecasts] for x in xs.tolist()])
    table.flags.writeable = False
    return table


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every configured rule over every replication; deterministic given cfg.

    At each step the pre-update posterior's mixture forecast is scored
    against the incoming observation, then the posterior is updated and
    recorded along with each model's own CRPS at that observation.
    Aggregates are the mean and standard error, across replications, of the
    per-replication mean mixture CRPS.  The data, the per-model CRPS and
    the mixture's pairwise matrix do not depend on the rule, so each is
    computed once and shared by all rules.
    """
    records: list[StepRecord] = []
    aggregates: list[RuleAggregate] = []
    forecasts = [m.forecast for m in cfg.models]
    mixture = MixtureCRPS(forecasts)
    observations = [
        generate_data(cfg.seed, cfg.truth, cfg.horizon, replication=rep)
        for rep in range(cfg.replications)
    ]
    model_crps = [_model_crps(forecasts, xs) for xs in observations]
    for rule in cfg.rules:
        rep_means: list[float] = []
        for rep, xs in enumerate(observations):
            p = uniform(len(cfg.models))
            step_scores: list[float] = []
            for t, x in enumerate(xs.tolist(), start=1):
                per_model = model_crps[rep][t - 1]
                score = mixture.score(p.values, per_model)
                p = _step_posterior(rule, p, cfg, x, per_model)
                records.append(StepRecord(rule.kind.value, rep, t, p.values, per_model, score))
                step_scores.append(score)
            rep_means.append(float(np.mean(step_scores)))
        mean = float(np.mean(rep_means))
        if len(rep_means) > 1:
            se = float(np.std(rep_means, ddof=1) / math.sqrt(len(rep_means)))
        else:
            se = 0.0
        aggregates.append(RuleAggregate(rule.kind.value, mean, se, tuple(rep_means)))
    return ExperimentResult(cfg, tuple(records), tuple(aggregates))
