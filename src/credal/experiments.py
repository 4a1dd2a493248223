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

The harness is array-native.  The per-model CRPS and density matrices are
built once over the whole (replication, t) grid; each rule then advances all
replications one step of t at a time through the update kernels of
:mod:`credal.updating`, which work on the last axis of ``[replications,
models]`` arrays.  Results are kept as columns (:class:`ExperimentResult`),
and the CSV encoder formats each distinct value once and streams the file
in (rule, replication) blocks; its bytes are those of the per-step loop it
replaced.

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
from typing import Iterator, Sequence

import numpy as np

from .core import ProbabilityVector, format_floats, json_number, reject_unknown_keys
from .measures import (
    Forecast,
    Gaussian,
    MixtureCRPS,
    crps,
    crps_matrix,
    forecast_from_json,
    forecast_to_json,
    gaussian_density_matrix,
    sample_forecast,
)
from .updating import RuleKind, UpdateRule, _ratio_update, _simplex_projection

_DATA_STREAM = 0

CSV_HEADER = "rule,replication,t,model,posterior,crps,mixture_crps"
_CSV_SPECIAL = ',"\r\n'


def _rng(seed: int, *key: int) -> np.random.Generator:
    words = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [int(k) for k in key]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(words)))


@dataclass(frozen=True)
class ModelSpec:
    """A candidate model: a label and its fixed per-step forecast."""

    label: str
    forecast: Forecast

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise ValueError(f"model label: must be a string, got {self.label!r}")
        if not self.label:
            raise ValueError("model label must be non-empty")
        # results.csv writes labels unquoted
        if any(c in self.label for c in _CSV_SPECIAL):
            raise ValueError(
                f"model label {self.label!r}: must not contain a comma, a double quote or a line break"
            )


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
        return UpdateRule.general_bayes(json_number(rate, "general_bayes rule literal: rate"))
    raise ValueError(f"unknown rule kind: {kind!r}")


def _parse_model(obj) -> ModelSpec:
    if not isinstance(obj, dict):
        raise ValueError(f"cannot parse model literal: {obj!r}")
    reject_unknown_keys(obj, {"label", "forecast"}, f"model literal {obj.get('label')!r}")
    return ModelSpec(obj["label"], forecast_from_json(obj["forecast"]))


def _rule_to_json(rule: UpdateRule):
    if rule.kind is RuleKind.GENERAL_BAYES:
        return {"kind": "general_bayes", "rate": rule.learning_rate}
    return rule.kind.value


def _json_int(obj: dict, key: str, default: int | None = None) -> int:
    value = obj[key] if default is None else obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"invalid experiment config: {key}: must be an integer, got {value!r}")
    return value


def _json_number(obj: dict, key: str, default: float) -> float:
    return json_number(obj.get(key, default), f"invalid experiment config: {key}")


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
        """Parse a config object; non-integer counts, numbers given as booleans
        or strings, non-string labels and unknown keys, also in the rule,
        model and forecast literals, are rejected."""
        reject_unknown_keys(obj, {f.name for f in fields(cls)}, "invalid experiment config")
        return cls(
            seed=_json_int(obj, "seed"),
            truth=forecast_from_json(obj["truth"]),
            models=tuple(_parse_model(m) for m in obj["models"]),
            horizon=_json_int(obj, "horizon"),
            rules=tuple(_parse_rule(r) for r in obj["rules"]),
            a=_json_number(obj, "a", -1.0),
            likelihood_floor=_json_number(obj, "likelihood_floor", 1e-300),
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
    """Results as read-only columns, indexed by position in ``config``.

    ``posterior[rule, replication, t, model]`` is the posterior after step
    ``t + 1``; ``crps[replication, t, model]`` is each model's own CRPS at
    that step's observation, the same for every rule;
    ``mixture_crps[rule, replication, t]`` is the CRPS of the pre-update
    mixture at that step.
    """

    config: ExperimentConfig
    posterior: np.ndarray
    crps: np.ndarray
    mixture_crps: np.ndarray
    aggregates: tuple[RuleAggregate, ...]

    @property
    def records(self) -> tuple[StepRecord, ...]:
        """One :class:`StepRecord` per (rule, replication, t), in CSV order,
        built on each access from views of the columns."""
        return tuple(
            StepRecord(rule.kind.value, rep, t + 1, post[t], self.crps[rep, t], mix[t])
            for k, rule in enumerate(self.config.rules)
            for rep, (post, mix) in enumerate(zip(self.posterior[k], self.mixture_crps[k].tolist()))
            for t in range(self.config.horizon)
        )

    def _csv_blocks(self) -> Iterator[str]:
        """The CSV text as the header line, then one block per (rule, replication).

        Each value is formatted once: ``crps`` per (replication, t, model)
        for every rule, ``mixture_crps`` and the row prefix per step.  A
        step's rows are joined by the text that ends one row and starts the
        next.
        """
        yield CSV_HEADER + "\n"
        labels = [m.label for m in self.config.models]
        crps_text = format_floats(self.crps)
        mixture_text = format_floats(self.mixture_crps)
        for k, rule in enumerate(r.kind.value for r in self.config.rules):
            for rep, crps_rows in enumerate(crps_text):
                parts = []
                steps = zip(format_floats(self.posterior[k, rep]), crps_rows, mixture_text[k][rep])
                for t, (post_row, crps_row, mix) in enumerate(steps, start=1):
                    head = f"{rule},{rep},{t},"
                    tail = f",{mix}\n"
                    cells = map(",".join, zip(labels, post_row, crps_row))
                    parts.append(head + (tail + head).join(cells) + tail)
                yield "".join(parts)

    def to_csv_text(self) -> str:
        return "".join(self._csv_blocks())

    def write_csv(self, path) -> None:
        """Write :meth:`to_csv_text`'s bytes, one (rule, replication) block at a time."""
        with open(Path(path), "w", newline="", encoding="utf-8") as fh:
            fh.writelines(self._csv_blocks())


def _score_grid(
    rule: UpdateRule, cfg: ExperimentConfig, xs: np.ndarray, model_crps: np.ndarray
) -> np.ndarray:
    """Every model's evidential score under ``rule`` at every (replication, t),
    shaped like ``model_crps``."""
    if rule.kind is RuleKind.INFERENTIAL:
        forecasts = [m.forecast for m in cfg.models]
        dens = gaussian_density_matrix(forecasts, xs.ravel()).reshape(model_crps.shape)
        return np.fmax(cfg.likelihood_floor, dens)
    if rule.kind is RuleKind.GENERAL_BAYES:
        return np.exp(-rule.learning_rate * model_crps)
    return cfg.a * model_crps


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every configured rule over every replication; deterministic given cfg.

    At each step the pre-update posterior's mixture forecast is scored
    against the incoming observation, then the posterior is updated and
    recorded along with each model's own CRPS at that observation.
    Aggregates are the mean and standard error, across replications, of the
    per-replication mean mixture CRPS.  The data, the per-model CRPS and
    the mixture's pairwise matrix do not depend on the rule, so each is
    computed once and shared by all rules.  A rule advances all
    replications together, one step of t at a time, on ``[replications,
    models]`` arrays; the mixture score is taken row by row, since a
    batched matrix product would sum in another order.
    """
    n, horizon, reps = len(cfg.models), cfg.horizon, cfg.replications
    forecasts = [m.forecast for m in cfg.models]
    score_mixture = MixtureCRPS(forecasts).score
    xs = np.array([generate_data(cfg.seed, cfg.truth, horizon, replication=rep) for rep in range(reps)])
    model_crps = _readonly(crps_matrix(forecasts, xs.ravel()).reshape(reps, horizon, n))
    posterior = np.empty((len(cfg.rules), reps, horizon, n))
    mixture_crps = np.empty((len(cfg.rules), reps, horizon))
    aggregates: list[RuleAggregate] = []
    for k, rule in enumerate(cfg.rules):
        scores = _score_grid(rule, cfg, xs, model_crps)
        p = np.full((reps, n), 1.0 / n)
        for t in range(horizon):
            mixture_crps[k, :, t] = [score_mixture(w, c) for w, c in zip(p, model_crps[:, t])]
            if rule.kind is RuleKind.PREDICTIVE:
                p = _simplex_projection(p + scores[:, t])[0]
            else:
                p = _ratio_update(p, scores[:, t])
            posterior[k, :, t] = p
        rep_means = [float(np.mean(row)) for row in mixture_crps[k]]
        mean = float(np.mean(rep_means))
        if len(rep_means) > 1:
            se = float(np.std(rep_means, ddof=1) / math.sqrt(len(rep_means)))
        else:
            se = 0.0
        aggregates.append(RuleAggregate(rule.kind.value, mean, se, tuple(rep_means)))
    return ExperimentResult(
        cfg, _readonly(posterior), model_crps, _readonly(mixture_crps), tuple(aggregates)
    )
