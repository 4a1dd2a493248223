"""Seeded simulations comparing the updating rules on forecast-comparison tasks.

Each candidate model is a fixed predictive distribution; data are drawn
i.i.d. from a truth distribution.  At every step the current posterior makes
a mixture prediction that is scored against the incoming observation
(predict-then-update), then the posterior is updated under each rule:

* ratio-form updating scores models by their Gaussian predictive
  log-density at the observation,
* loss-based (general-Bayes) updating scores them by ``-rate * CRPS``,
* additive updating adds ``a * CRPS`` and conservatively renormalizes,
  zeroing persistently inaccurate models.

The harness is array-native.  The per-model CRPS and log-score matrices
are built once over the whole (replication, t) grid; each rule's
trajectory, all replications at once, is one call of the trajectory kernel
of :mod:`credal.updating`, the one that
:func:`~credal.updating.sequential_update` runs.  The ratio-form rules fold
in log space, as one cumulative sum over t, so their log-weights
(:attr:`ExperimentResult.log_posterior`) never underflow; the
``posterior`` column is their ``exp`` and may still read 0.0 below the
smallest subnormal.  One last-axis call scores the pre-update mixtures of
every rule, replication and step, with one matrix product of the whole
weight stack by the mixture's pairwise matrix.  Results are kept as columns
(:class:`ExperimentResult`).  The CSV encoder formats each distinct value
once with the vectorized, exact ``%.17g`` of
:func:`~credal.core.format_floats`, lays the rows out as arrays of one
numpy record type, whose NUL-padded text fields the CSV header names,
copies each block's formatted posteriors into their field, and streams
the file in blocks of at most ``FLOAT_BLOCK`` (8192) posterior values
with the NULs dropped; no Python code runs per row or per value, and its
bytes are those of the per-step loop it replaced.  An existing file is overwritten
in place and shrunk at the end, not emptied first.

The mixture score is exact up to rounding, within the bound that
:func:`~credal.measures.mixture_crps` states, so every rule is scored
without sampling noise.  Randomness drives only the data: each
replication's observations come from a counter-based Philox stream keyed
by (seed, replication), so every rule sees the same data, replications are
order-free and reruns are bit-reproducible.  Whether one
rule predicts better than another is an empirical matter; results report
means with standard errors and assert no ordering.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator

import numpy as np

from . import core
from .core import format_floats, json_number, reject_unknown_keys, required_key
from .measures import (
    Forecast,
    Gaussian,
    crps_matrix,
    expected_abs_difference,
    forecast_from_json,
    forecast_to_json,
    mixture_crps,
    sample_forecast,
)
from .updating import RuleKind, UpdateRule, _trajectory

_DATA_STREAM = 0
_SQRT_2PI = math.sqrt(2.0 * math.pi)

CSV_HEADER = "rule,replication,t,model,posterior,crps,mixture_crps"
# a NUL would also end a label's fixed-width byte field in the encoder
_CSV_SPECIAL = re.compile('[,"\r\n\x00]')


def _rng(seed: int, *key: int) -> np.random.Generator:
    words = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [int(k) for k in key]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(words)))


@dataclass(frozen=True)
class ModelSpec:
    """A candidate model: a label and its fixed per-step forecast."""

    label: str
    forecast: Forecast

    def __post_init__(self):
        label = self.label
        if not isinstance(label, str):
            raise ValueError(f"model label: must be a string, got {label!r}")
        if not label:
            raise ValueError("model label must be non-empty")
        # results.csv writes labels unquoted
        if _CSV_SPECIAL.search(label):
            raise ValueError(f"model label {label!r}: must not contain a comma, a double quote, a line break or a NUL")


#: each kind of rule literal: its keys, and the name its messages give it
_RULE_KEYS = {
    "inferential": (frozenset({"kind"}), "inferential rule literal"),
    "predictive": (frozenset({"kind"}), "predictive rule literal"),
    "general_bayes": (frozenset({"kind", "rate"}), "general_bayes rule literal"),
}
_MODEL_KEYS = frozenset({"label", "forecast"})


def _parse_rule(obj) -> UpdateRule:
    if isinstance(obj, str):
        obj = {"kind": obj}
    elif not isinstance(obj, dict):
        raise ValueError(f"cannot parse rule literal: {obj!r}")
    kind = required_key(obj, "kind", "rule literal")
    literal = _RULE_KEYS.get(kind) if isinstance(kind, str) else None
    if literal is None:
        raise ValueError(f"unknown rule kind: {kind!r}")
    reject_unknown_keys(obj, *literal)
    if kind != "general_bayes":
        return UpdateRule(RuleKind(kind))
    if obj.get("rate") is None:
        raise ValueError("general_bayes rule literal needs a 'rate'")
    return UpdateRule.general_bayes(json_number(obj["rate"], "general_bayes rule literal: rate"))


def _parse_model(obj) -> ModelSpec:
    if not isinstance(obj, dict):
        raise ValueError(f"cannot parse model literal: {obj!r}")
    if obj.keys() != _MODEL_KEYS:
        # an unknown or a missing key, named with the literal's label
        what = f"model literal {obj.get('label')!r}"
        reject_unknown_keys(obj, _MODEL_KEYS, what)
        required_key(obj, "label", what)
        required_key(obj, "forecast", what)
    return ModelSpec(obj["label"], forecast_from_json(obj["forecast"]))


def _rule_to_json(rule: UpdateRule):
    if rule.kind is RuleKind.GENERAL_BAYES:
        return {"kind": "general_bayes", "rate": rule.learning_rate}
    return rule.kind.value


def _unique_keys(pairs: list) -> dict:
    """The object of a JSON file's key-value ``pairs``, none of its keys repeated."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"invalid experiment config: repeated key {key!r}")
            seen.add(key)
    return obj


def _json_list(obj: dict, key: str) -> list:
    value = required_key(obj, key, "invalid experiment config")
    if not isinstance(value, list):
        raise ValueError(f"invalid experiment config: {key}: must be a list, got {value!r}")
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
    replications: int = 1

    def __post_init__(self):
        what = "invalid experiment config"
        for key in ("seed", "horizon", "replications"):
            object.__setattr__(self, key, core.checked_int(getattr(self, key), f"{what}: {key}"))
        object.__setattr__(self, "a", json_number(self.a, f"{what}: a"))
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
        try:
            core.negative_number(self.a, "a")
        except ValueError as exc:
            problems.append(str(exc))
        if RuleKind.INFERENTIAL in kinds and not all(
            isinstance(m.forecast, Gaussian) for m in self.models
        ):
            problems.append("models: inferential scoring needs a Gaussian forecast per model")
        if problems:
            raise ValueError(f"{what}: " + "; ".join(problems))

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        """Parse a config object; ``models`` or ``rules`` that are not lists,
        missing and unknown keys and unknown kinds (a ``kind`` that is not a
        string included), also in the rule, model and forecast literals, and
        a top level that is not an object are rejected here, and the
        constructor rejects the rest (non-integer counts, numbers given as
        booleans or strings, non-string labels)."""
        what = "invalid experiment config"
        if not isinstance(obj, dict):
            raise ValueError(f"{what}: expected a JSON object, got {type(obj).__name__}")
        reject_unknown_keys(obj, _CONFIG_KEYS, what)
        return cls(
            seed=required_key(obj, "seed", what),
            truth=forecast_from_json(required_key(obj, "truth", what)),
            models=tuple(_parse_model(m) for m in _json_list(obj, "models")),
            horizon=required_key(obj, "horizon", what),
            rules=tuple(_parse_rule(r) for r in _json_list(obj, "rules")),
            a=obj.get("a", -1.0),
            replications=obj.get("replications", 1),
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """Read and parse a JSON config file; a key given twice in any one
        object raises ``ValueError`` naming it, where JSON would keep the last."""
        with open(Path(path), encoding="utf-8") as fh:
            return cls.from_json(json.load(fh, object_pairs_hook=_unique_keys))

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
            "replications": self.replications,
        }


_CONFIG_KEYS = frozenset(f.name for f in fields(ExperimentConfig))


def generate_data(seed: int, truth: Forecast, horizon: int, replication: int = 0) -> np.ndarray:
    """Deterministic i.i.d. draws from the truth distribution.

    The stream depends on (seed, replication) only, so every rule sees the
    same data within a replication.  ``seed``, ``horizon`` (at least 1)
    and ``replication`` (at least 0) must be integers.
    """
    rng = _rng(core.checked_int(seed, "seed"), _DATA_STREAM, core.checked_int(replication, "replication", 0))
    return sample_forecast(truth, rng, core.checked_int(horizon, "horizon", 1))


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
    """Across-replication summary of a rule's mixture accuracy (no SE from one replication)."""

    rule: str
    mean_mixture_crps: float
    se_mixture_crps: float | None
    replication_means: tuple[float, ...]


@dataclass(frozen=True)
class ExperimentResult:
    """Results as read-only columns, indexed by position in ``config``.

    ``posterior[rule, replication, t, model]`` is the posterior after step
    ``t + 1``; ``crps[replication, t, model]`` is each model's own CRPS at
    that step's observation, the same for every rule;
    ``mixture_crps[rule, replication, t]`` is the CRPS of the pre-update
    mixture at that step.

    ``log_posterior``, shaped like ``posterior``, holds the log-weights of
    the trajectory kernel.  For a ratio-form rule they are finite wherever
    the log-scores are, so they show that the rule zeroes no model where
    the float ``posterior`` underflows to 0.0; for the predictive rule they
    are ``log(posterior)``, -inf exactly where the rule zeroed a model.
    """

    config: ExperimentConfig
    posterior: np.ndarray
    crps: np.ndarray
    mixture_crps: np.ndarray
    aggregates: tuple[RuleAggregate, ...]
    log_posterior: np.ndarray

    def __eq__(self, other):
        """Equal configs and aggregates, and equal arrays, compared by value."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.config != other.config or self.aggregates != other.aggregates:
            return False
        columns = ("posterior", "crps", "mixture_crps", "log_posterior")
        return all(np.array_equal(getattr(self, name), getattr(other, name)) for name in columns)

    def __hash__(self) -> int:
        return hash(self.config)

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

    def _csv_blocks(self) -> Iterator[bytes | np.ndarray]:
        """The CSV bytes as the header line, then blocks of rows in CSV order.

        A block is an array of records, one per (rule, replication, t,
        model), of one numpy record type: the seven NUL-padded text fields
        that ``CSV_HEADER`` names, each followed by its separator byte, so
        numpy places every field.  It is yielded as the ``uint8`` array of
        its bytes with the NULs dropped, so no Python code runs per row or
        per value.  ``crps`` and ``mixture_crps`` are each formatted once per
        run, by :func:`~credal.core.format_floats`; posteriors are
        formatted by it a block of at most ``FLOAT_BLOCK`` values (or one
        step) at a time, and copied into their field.
        """
        yield (CSV_HEADER + "\n").encode()
        cfg = self.config
        n, horizon, reps = len(cfg.models), cfg.horizon, cfg.replications
        rule_text = np.array([r.kind.value.encode() for r in cfg.rules])
        rep_text = np.arange(reps).astype(f"S{len(str(reps - 1))}")
        t_text = np.arange(1, horizon + 1).astype(f"S{len(str(horizon))}")
        label_text = np.array([m.label.encode() for m in cfg.models])
        crps_text = format_floats(self.crps).reshape(reps * horizon, n)
        mixture_text = format_floats(self.mixture_crps).reshape(len(cfg.rules), reps * horizon, 1)
        # a row is its seven text fields, each followed by a separator byte
        types = [a.dtype for a in (rule_text, rep_text, t_text, label_text)] + [crps_text.dtype] * 3
        names = CSV_HEADER.split(",")
        row = np.dtype([f for name, type_ in zip(names, types) for f in ((name, type_), (f"{name} end", "S1"))])
        rows = np.zeros((max(1, core.FLOAT_BLOCK // n), n), row)
        rows[...] = (b"", b",") * 6 + (b"", b"\n")
        rows["model"] = label_text
        for k, rule in enumerate(rule_text):
            rows["rule"] = rule
            for start in range(0, reps * horizon, len(rows)):
                block = rows[: reps * horizon - start]
                rep, t = divmod(np.arange(start, start + len(block)), horizon)
                block["replication"] = rep_text[rep, None]
                block["t"] = t_text[t, None]
                block["posterior"] = format_floats(self.posterior[k, rep, t])
                block["crps"] = crps_text[start : start + len(block)]
                block["mixture_crps"] = mixture_text[k, start : start + len(block)]
                text = block.view(np.uint8)
                yield text[text != 0]

    def to_csv_text(self) -> str:
        return b"".join(self._csv_blocks()).decode("utf-8")

    def write_csv(self, path) -> None:
        """Write :meth:`to_csv_text`'s bytes, one block of rows at a time.

        An existing file is overwritten in place and shrunk at the end, which
        is cheaper than emptying it first, so a process killed mid-write can
        leave the old file's tail after the new rows.
        """
        with core._rewrite(path, "wb") as fh:
            fh.writelines(self._csv_blocks())


def _score_grid(
    rule: UpdateRule, cfg: ExperimentConfig, xs: np.ndarray, model_crps: np.ndarray
) -> np.ndarray:
    """Every model's evidential score under ``rule`` at every (replication, t),
    shaped like ``model_crps``: the log-scores of the ratio-form rules (the
    Gaussian log-density ``-z^2/2 - log(sigma sqrt(2 pi))`` at the outcome,
    and ``-rate * crps``) and the predictive rule's ``a * crps``.

    A log-score is -inf only where it overflows: where ``|x - mu| / sigma``
    exceeds about 1.3e154, or ``rate * crps`` the largest float.
    """
    if rule.kind is RuleKind.PREDICTIVE:
        return cfg.a * model_crps
    with np.errstate(over="ignore"):
        if rule.kind is RuleKind.GENERAL_BAYES:
            return model_crps * -rule.learning_rate
        mu = np.array([m.forecast.mu for m in cfg.models])
        sigma = np.array([m.forecast.sigma for m in cfg.models])
        z = (xs[..., None] - mu) / sigma
        z *= z
    z *= -0.5
    z -= np.log(sigma * _SQRT_2PI)
    return z


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
    computed once and shared by all rules.  Each rule's whole trajectory,
    all replications at once, comes from one call of the trajectory kernel
    of :mod:`credal.updating`: the ratio-form rules fold their log-scores
    in log space, within the bound that the kernel states, and a step at
    which every model's log-score is -inf raises
    :class:`~credal.updating.UnderflowError` naming the replication and t.
    Then the pre-update weights of every rule
    (the uniform prior, then the posteriors of steps 1 .. horizon - 1) are
    scored in one last-axis :func:`~credal.measures.mixture_crps` call on
    the forecasts' pairwise matrix, each within the bound it states of the
    exact score.  With one replication the standard error is ``None``.
    """
    n, horizon, reps = len(cfg.models), cfg.horizon, cfg.replications
    forecasts = [m.forecast for m in cfg.models]
    xs = np.array([generate_data(cfg.seed, cfg.truth, horizon, replication=rep) for rep in range(reps)])
    model_crps = _readonly(crps_matrix(forecasts, xs.ravel()).reshape(reps, horizon, n))
    prior = np.full((reps, n), 1.0 / n)
    # weights[..., t, :] is the prior of step t + 1, so the posterior column
    # and the pre-update grid are both views of it; logs holds their logs
    weights = np.empty((len(cfg.rules), reps, horizon + 1, n))
    logs = np.empty(weights.shape)
    for k, rule in enumerate(cfg.rules):
        _trajectory(rule.kind, prior, _score_grid(rule, cfg, xs, model_crps), weights[k], logs[k])
    scores = mixture_crps(expected_abs_difference(forecasts), weights[:, :, :-1], model_crps)
    scale = core.unit_scale(scores)
    rep_means = (scores * scale).mean(-1) / scale
    scale = core.unit_scale(rep_means)
    scaled = rep_means * scale
    se = (scaled.std(-1, ddof=1) / scale / math.sqrt(reps)).tolist() if reps > 1 else [None] * len(cfg.rules)
    aggregates = tuple(
        RuleAggregate(rule.kind.value, mean, err, tuple(row))
        for rule, mean, err, row in zip(cfg.rules, (scaled.mean(-1) / scale).tolist(), se, rep_means.tolist())
    )
    return ExperimentResult(
        cfg, _readonly(weights[:, :, 1:]), model_crps, _readonly(scores), aggregates, _readonly(logs[:, :, 1:])
    )
