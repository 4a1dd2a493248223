"""Evidential measures: scores for how strongly evidence favors a hypothesis.

A score vector carries one evidential score per hypothesis together with the
combination mode it is meant for: multiplicative scores feed the ratio-form
update, additive scores feed the add-and-renormalize update.  Concrete
measures provided here: raw likelihood wrappers, exponential-loss scores,
the continuous ranked probability score (CRPS) of a probabilistic forecast,
and a minimum-absolute-error measure for curve-fitting hypotheses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

import numpy as np

from .core import json_number, reject_unknown_keys

_SQRT_2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


class Mode(Enum):
    """How a score vector combines with a prior."""

    MULTIPLICATIVE = "multiplicative"
    ADDITIVE = "additive"


class ModeMismatchError(ValueError):
    """A score vector's mode does not match the requested operation."""


class ScoreVector:
    """One evidential score per hypothesis, tagged with its combination mode.

    Multiplicative scores must be strictly positive; additive scores may take
    any finite value.  Immutable after construction.
    """

    __slots__ = ("_scores", "_mode")

    def __init__(self, scores, mode: Mode):
        s = np.array(scores, dtype=float)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("score vector needs a non-empty 1-d vector")
        if not np.all(np.isfinite(s)):
            raise ValueError("scores must be finite")
        if not isinstance(mode, Mode):
            raise TypeError(f"mode must be a Mode, got {mode!r}")
        if mode is Mode.MULTIPLICATIVE and np.any(s <= 0.0):
            raise ValueError("multiplicative scores must be strictly positive")
        s.flags.writeable = False
        self._scores = s
        self._mode = mode

    @property
    def scores(self) -> np.ndarray:
        return self._scores

    @property
    def mode(self) -> Mode:
        return self._mode

    def __len__(self) -> int:
        return self._scores.size

    def __repr__(self) -> str:
        return f"ScoreVector({self._scores.tolist()}, {self._mode})"


@dataclass(frozen=True)
class PointMass:
    """Deterministic forecast concentrated at a single value."""

    location: float

    def __post_init__(self):
        if not math.isfinite(self.location):
            raise ValueError("point-mass location must be finite")


@dataclass(frozen=True)
class Gaussian:
    """Normal forecast with mean ``mu`` and standard deviation ``sigma``."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError("gaussian parameters must be finite")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")


class Empirical:
    """Forecast given by a non-empty sample of equally weighted draws."""

    __slots__ = ("_samples",)

    def __init__(self, samples):
        s = np.array(samples, dtype=float)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("empirical forecast needs at least one sample")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples must be finite")
        s.flags.writeable = False
        self._samples = s

    @property
    def samples(self) -> np.ndarray:
        return self._samples

    def __repr__(self) -> str:
        return f"Empirical(n={self._samples.size})"


Forecast = Union[PointMass, Gaussian, Empirical]


_FORECAST_KEYS = {
    "gaussian": {"kind", "mu", "sigma"},
    "pointmass": {"kind", "loc"},
    "empirical": {"kind", "samples"},
}


def forecast_from_json(obj: dict) -> Forecast:
    """Parse a forecast literal like ``{"kind": "gaussian", "mu": 0, "sigma": 1}``.

    Unknown keys are rejected by name, and so are parameters and samples
    that are not JSON numbers (booleans and strings included).
    """
    if not isinstance(obj, dict):
        raise ValueError(f"cannot parse forecast literal: {obj!r}")
    kind = obj.get("kind")
    what = f"{kind} forecast literal"
    if kind in _FORECAST_KEYS:
        reject_unknown_keys(obj, _FORECAST_KEYS[kind], what)
    if kind == "gaussian":
        return Gaussian(json_number(obj["mu"], f"{what}: mu"), json_number(obj["sigma"], f"{what}: sigma"))
    if kind == "pointmass":
        return PointMass(json_number(obj["loc"], f"{what}: loc"))
    if kind == "empirical":
        samples = obj["samples"]
        if not isinstance(samples, list):
            raise ValueError(f"{what}: samples: must be a list of numbers, got {samples!r}")
        return Empirical([json_number(v, f"{what}: samples") for v in samples])
    raise ValueError(f"unknown forecast kind: {kind!r}")


def forecast_to_json(f: Forecast) -> dict:
    if isinstance(f, Gaussian):
        return {"kind": "gaussian", "mu": f.mu, "sigma": f.sigma}
    if isinstance(f, PointMass):
        return {"kind": "pointmass", "loc": f.location}
    if isinstance(f, Empirical):
        return {"kind": "empirical", "samples": f.samples.tolist()}
    raise TypeError(f"not a forecast: {f!r}")


def sample_forecast(f: Forecast, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` i.i.d. values from a forecast distribution."""
    if isinstance(f, PointMass):
        return np.full(size, f.location)
    if isinstance(f, Gaussian):
        return rng.normal(f.mu, f.sigma, size)
    if isinstance(f, Empirical):
        return rng.choice(f.samples, size=size, replace=True)
    raise TypeError(f"cannot sample from {f!r}")


def _gaussian_crps(mu, sigma, x, erf, exp):
    """sigma * (z*(2*Phi(z) - 1) + 2*phi(z) - 1/sqrt(pi)) with z = (x - mu)/sigma.

    Written once for scalars (``math.erf``/``math.exp``) and for arrays
    (their elementwise forms): the same operations in the same order, so
    both give the same bits.
    """
    z = (x - mu) / sigma
    cdf = 0.5 * (1.0 + erf(z / _SQRT_2))
    pdf = exp(-0.5 * z * z) / _SQRT_2PI
    return sigma * (z * (2.0 * cdf - 1.0) + 2.0 * pdf - 1.0 / _SQRT_PI)


def crps(f: Forecast, x: float) -> float:
    """Continuous ranked probability score of forecast ``f`` at outcome ``x``.

    CRPS(F, x) = E|X - x| - (1/2) E|X1 - X2| with X, X1, X2 i.i.d. from F.
    It generalizes absolute error: for a point mass it reduces to |loc - x|,
    and it is reported in the units of the observations.

    Point-mass and Gaussian forecasts use exact closed forms.  The Gaussian
    form is sigma * (z*(2*Phi(z) - 1) + 2*phi(z) - 1/sqrt(pi)) with
    z = (x - mu)/sigma; it is validated against a Monte-Carlo estimate of
    the defining expectations (see :func:`crps_monte_carlo`).  Empirical
    forecasts evaluate the pairwise term over sorted samples in O(m log m):
    sum_{i,j} |s_i - s_j| = 2 * sum_k (2k - m + 1) * s_(k).
    """
    if not math.isfinite(x):
        raise ValueError("observed outcome must be finite")
    if isinstance(f, PointMass):
        return abs(f.location - x)
    if isinstance(f, Gaussian):
        return _gaussian_crps(f.mu, f.sigma, x, math.erf, math.exp)
    if isinstance(f, Empirical):
        s = np.sort(f.samples)
        m = s.size
        first = float(np.mean(np.abs(s - x)))
        k = np.arange(m)
        pair = float(np.sum((2.0 * k - m + 1.0) * s))  # = sum_{i,j}|s_i - s_j| / 2
        return first - pair / (m * m)
    raise TypeError(f"not a forecast: {f!r}")


def crps_monte_carlo(
    f: Forecast, x: float, n_draws: int = 10**6, seed: int = 0
) -> tuple[float, float]:
    """Monte-Carlo estimate of the CRPS from its defining expectations.

    Samples i.i.d. triples (X, X1, X2) and averages |X - x| - 0.5|X1 - X2|.
    Returns ``(estimate, standard_error)``.  Independent of the closed forms
    in :func:`crps`, so it serves as their cross-check.
    """
    if not math.isfinite(x):
        raise ValueError("observed outcome must be finite")
    if n_draws < 2:
        raise ValueError("n_draws must be at least 2")
    rng = np.random.default_rng(seed)
    draws = sample_forecast(f, rng, 3 * n_draws).reshape(3, n_draws)
    stat = np.abs(draws[0] - x) - 0.5 * np.abs(draws[1] - draws[2])
    return float(stat.mean()), float(stat.std(ddof=1) / math.sqrt(n_draws))


def _elementwise(fn):
    """``fn`` applied to each entry of a float array; numpy's own ``exp``
    differs from ``math.exp`` in the last bit on some inputs."""
    # a memoryview hands out one Python float at a time; a list would hold
    # them all at once
    return lambda a: np.fromiter(map(fn, memoryview(a.ravel())), float, a.size).reshape(a.shape)


_erf = _elementwise(math.erf)
_exp = _elementwise(math.exp)


def crps_matrix(forecasts: Sequence[Forecast], xs) -> np.ndarray:
    """``[len(xs), len(forecasts)]`` matrix of :func:`crps` at every outcome.

    Entry for entry equal to ``crps(forecasts[j], xs[i])``: Gaussian and
    point-mass columns are computed over the whole grid at once with the
    same operations, empirical columns by :func:`crps` itself.
    """
    xs = np.asarray(xs, dtype=float)
    if not np.isfinite(xs).all():
        raise ValueError("observed outcome must be finite")
    out = np.empty((xs.size, len(forecasts)))
    x = xs[:, None]
    gauss = [j for j, f in enumerate(forecasts) if isinstance(f, Gaussian)]
    if gauss:
        mu = np.array([forecasts[j].mu for j in gauss])
        sigma = np.array([forecasts[j].sigma for j in gauss])
        out[:, gauss] = _gaussian_crps(mu, sigma, x, _erf, _exp)
    point = [j for j, f in enumerate(forecasts) if isinstance(f, PointMass)]
    if point:
        out[:, point] = np.abs(np.array([forecasts[j].location for j in point]) - x)
    for j, f in enumerate(forecasts):
        if not isinstance(f, (Gaussian, PointMass)):
            out[:, j] = [crps(f, v) for v in xs.tolist()]
    return out


def gaussian_density_matrix(forecasts: Sequence[Gaussian], xs) -> np.ndarray:
    """``[len(xs), len(forecasts)]`` matrix of each Gaussian's density at every outcome."""
    if not all(isinstance(f, Gaussian) for f in forecasts):
        raise TypeError("densities need Gaussian forecasts")
    mu = np.array([f.mu for f in forecasts])
    sigma = np.array([f.sigma for f in forecasts])
    z = (np.asarray(xs, dtype=float)[:, None] - mu) / sigma
    return _exp(-0.5 * z * z) / (sigma * _SQRT_2PI)


def _abs_normal_mean(m, s) -> np.ndarray:
    """E|N(m, s^2)| = 2 s phi(m/s) + m (2 Phi(m/s) - 1) elementwise; |m| where s == 0.

    The value is even in m and is evaluated at |m|, so a matrix of
    differences m_i - m_j gives an exactly symmetric result.
    """
    m = np.abs(m)
    s = np.broadcast_to(np.asarray(s, dtype=float), m.shape)
    spread = s > 0.0
    m_s, s_s = m[spread], s[spread]
    z = m_s / s_s
    out = m.copy()
    out[spread] = 2.0 * s_s * np.exp(-0.5 * z * z) / _SQRT_2PI + m_s * _erf(z / _SQRT_2)
    return out


def _mean_abs_difference(a: np.ndarray, b: np.ndarray) -> float:
    """mean_{i,j} |a_i - b_j| from the sorted ``b`` and its prefix sums."""
    b = np.sort(b)
    below = np.searchsorted(b, a)  # how many b_j lie below each a_i
    prefix = np.concatenate(([0.0], np.cumsum(b)))
    lower = a * below - prefix[below]
    upper = (prefix[-1] - prefix[below]) - a * (b.size - below)
    return float(np.sum(lower + upper)) / (a.size * b.size)


def _atoms(f: Forecast) -> tuple[np.ndarray, float]:
    """Locations and common standard deviation of the equally weighted normal
    atoms ``f`` is made of; point masses and empirical samples have s = 0."""
    if isinstance(f, Gaussian):
        return np.array([f.mu]), f.sigma
    if isinstance(f, PointMass):
        return np.array([f.location]), 0.0
    if isinstance(f, Empirical):
        return f.samples, 0.0
    raise TypeError(f"not a forecast: {f!r}")


def expected_abs_difference(forecasts: Sequence[Forecast]) -> np.ndarray:
    """Matrix ``P[i, j] = E|X_i - X_j|`` for independent ``X_i ~ forecasts[i]``.

    A difference of two normal atoms is N(m_i - m_j, s_i^2 + s_j^2), so
    every entry between Gaussian and point-mass forecasts is one
    E|N(m, s^2)|, evaluated at once over the upper triangle of the grid and
    mirrored (the matrix is symmetric).  An entry with an empirical forecast
    averages over its samples; between two forecasts without spread
    (empirical or point mass) it is the sorted-sample mean of |a_i - b_j|.
    """
    atoms = [_atoms(f) for f in forecasts]
    if not atoms:
        raise ValueError("need at least one forecast")
    loc = np.array([xs[0] for xs, _ in atoms])
    sd = np.array([s for _, s in atoms])
    rows, cols = np.triu_indices(loc.size)
    pair = np.empty((loc.size, loc.size))
    upper = _abs_normal_mean(loc[rows] - loc[cols], np.hypot(sd[rows], sd[cols]))
    pair[rows, cols] = pair[cols, rows] = upper
    for i, (xs, s) in enumerate(atoms):
        if xs.size == 1:
            continue
        for j, (ys, t) in enumerate(atoms):
            if s == 0.0 and t == 0.0:
                value = _mean_abs_difference(xs, ys)
            else:
                value = float(np.mean(_abs_normal_mean(xs[:, None] - ys[None, :], math.hypot(s, t))))
            pair[i, j] = pair[j, i] = value
    return pair


class MixtureCRPS:
    """Exact CRPS of weighted mixtures of a fixed list of forecasts.

    CRPS(sum_i w_i F_i, x) = sum_i w_i E|X_i - x| - 1/2 sum_ij w_i w_j P[i, j]
    with P from :func:`expected_abs_difference` (Grimit, Gneiting, Berrocal
    & Johnson 2006).  Since crps(F_i, x) = E|X_i - x| - P[i, i]/2, the
    mixture's score at x is w.c + w.h - w'Pw/2 from the components' own
    scores c at x and h = diag(P)/2.  P depends on the forecasts alone and
    is built once.  :meth:`score` works on the last axis: weights and
    component scores of shape ``[..., n]`` give one score per row.
    """

    __slots__ = ("pair", "half_self")

    def __init__(self, forecasts: Sequence[Forecast]):
        self.pair = expected_abs_difference(forecasts)
        self.half_self = 0.5 * np.diag(self.pair)

    def score(self, weights, component_crps):
        """Mixture CRPS of each row of ``weights`` at an outcome where the
        components score the matching row of ``component_crps``.

        Both are ``[..., n]``; the result is ``[...]``, a ``float`` for 1-d
        input.  Each row is a stack of ``[1, n] @ [n, 1]`` and ``[n, n] @
        [n, 1]`` products, which numpy evaluates with the same dot and
        mat-vec routines as the 1-d products, so a row scores bit for bit
        as it would on its own.
        """
        w = np.asarray(weights, dtype=float)
        row = w[..., None, :]
        wc = (row @ np.asarray(component_crps, dtype=float)[..., :, None])[..., 0, 0]
        wh = (row @ self.half_self[:, None])[..., 0, 0]
        wpw = (row @ (self.pair @ w[..., :, None]))[..., 0, 0]
        # grouped so that one-hot weights return that component's score exactly
        out = wc + (wh - 0.5 * wpw)
        return float(out) if out.ndim == 0 else out


def crps_measure(forecasts: Sequence[Forecast], x: float, a: float) -> ScoreVector:
    """Additive evidential scores ``a * CRPS(f_i, x)`` for each forecast.

    ``a`` must be negative: lower CRPS means a better forecast, and additive
    updating adds scores to the prior, so better forecasts must receive the
    larger (less negative) score.  |a| controls how aggressively badly
    scoring hypotheses get pushed to zero.
    """
    if not math.isfinite(a) or a >= 0.0:
        raise ValueError(f"scaling constant a must be negative, got {a!r}")
    if len(forecasts) == 0:
        raise ValueError("need at least one forecast")
    return ScoreVector([a * crps(f, x) for f in forecasts], Mode.ADDITIVE)


@dataclass(frozen=True)
class LossValue:
    """A non-negative loss together with the positive learning rate scaling it."""

    value: float
    learning_rate: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.learning_rate)):
            raise ValueError("loss and learning rate must be finite")
        if self.value < 0.0:
            raise ValueError("loss must be non-negative")
        if self.learning_rate <= 0.0:
            raise ValueError("learning rate must be positive")


def _shared_rate_losses(losses: Sequence[LossValue]) -> tuple[float, np.ndarray]:
    """``(rate, values)`` of a non-empty loss list whose entries share one learning rate."""
    losses = list(losses)
    if not losses:
        raise ValueError("need at least one loss")
    rate = losses[0].learning_rate
    if any(lv.learning_rate != rate for lv in losses):
        raise ValueError("all losses must share the same learning rate")
    return rate, np.array([lv.value for lv in losses], dtype=float)


def exp_loss_score(losses: Sequence[LossValue]) -> ScoreVector:
    """Multiplicative scores ``exp(-rate * loss)`` from a shared-rate loss list.

    The exponential map is the unique strictly decreasing solution of
    f(x) * f(y) = f(x + y), which is what makes losses additive across
    independent evidence while scores stay multiplicative.
    """
    rate, values = _shared_rate_losses(losses)
    return ScoreVector(np.exp(-rate * values), Mode.MULTIPLICATIVE)


def min_abs_error_score(
    data: Sequence[tuple[float, float]],
    predictions: Sequence[Sequence[float]],
    a: float,
) -> ScoreVector:
    """Additive scores ``a * min_j |y_j - yhat_ij|`` over the data pairs.

    ``predictions[i][j]`` is hypothesis i's predicted y at the j-th data
    point.  The minimum runs over all data pairs.  This measure cannot be
    written as a function of an additive loss (the minimum is not additive),
    so it has no multiplicative counterpart.
    """
    if not math.isfinite(a) or a >= 0.0:
        raise ValueError(f"scaling constant a must be negative, got {a!r}")
    data = list(data)
    if not data:
        raise ValueError("data must be non-empty")
    y = np.array([pt[1] for pt in data], dtype=float)
    scores = []
    for i, preds in enumerate(predictions):
        p = np.asarray(preds, dtype=float)
        if p.shape != y.shape:
            raise ValueError(f"predictions for hypothesis {i} do not align with data")
        scores.append(a * float(np.min(np.abs(y - p))))
    if not scores:
        raise ValueError("need at least one hypothesis")
    return ScoreVector(scores, Mode.ADDITIVE)


def likelihood_score(likelihoods) -> ScoreVector:
    """Wrap strictly positive likelihood values as multiplicative scores.

    Zero likelihoods are rejected: a hypothesis logically refuted by the
    evidence is outside this measure's domain and must be handled by the
    caller.
    """
    v = np.asarray(likelihoods, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("need at least one likelihood")
    if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
        raise ValueError("likelihoods must be finite and strictly positive")
    return ScoreVector(v, Mode.MULTIPLICATIVE)
