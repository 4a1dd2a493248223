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

from .core import as_values, checked_int, json_number, negative_number, reject_unknown_keys, required_key, unit_scale

_SQRT_2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


class Mode(Enum):
    """How a score vector combines with a prior."""

    MULTIPLICATIVE = "multiplicative"
    ADDITIVE = "additive"


class ModeMismatchError(ValueError):
    """A score vector's mode does not match the requested operation."""


class ScoreVector:
    """One evidential score per hypothesis, tagged with its combination mode.

    Multiplicative scores must be strictly positive; additive scores may take
    any finite value.  Immutable after construction.  Refuses what
    :func:`~credal.core.as_values` refuses when ``frozen``.
    """

    __slots__ = ("_scores", "_mode")

    def __init__(self, scores, mode: Mode):
        s = as_values(scores, "scores", frozen=True)
        if not isinstance(mode, Mode):
            raise TypeError(f"mode must be a Mode, got {mode!r}")
        if mode is Mode.MULTIPLICATIVE and np.any(s <= 0.0):
            raise ValueError("multiplicative scores must be strictly positive")
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
        object.__setattr__(self, "location", json_number(self.location, "point-mass location"))
        if not math.isfinite(self.location):
            raise ValueError("point-mass location must be finite")


@dataclass(frozen=True)
class Gaussian:
    """Normal forecast with mean ``mu`` and standard deviation ``sigma``."""

    mu: float
    sigma: float

    def __post_init__(self):
        mu, sigma = self.mu, self.sigma
        if type(mu) is not float or type(sigma) is not float:
            mu, sigma = json_number(mu, "gaussian mu"), json_number(sigma, "gaussian sigma")
            object.__setattr__(self, "mu", mu)
            object.__setattr__(self, "sigma", sigma)
        if not (math.isfinite(mu) and math.isfinite(sigma)):
            raise ValueError("gaussian parameters must be finite")
        if sigma <= 0.0:
            raise ValueError("sigma must be positive")


class Empirical:
    """Forecast given by a non-empty sample of equally weighted draws, checked by ``as_values``."""

    __slots__ = ("_samples",)

    def __init__(self, samples):
        self._samples = as_values(samples, "samples", frozen=True)

    @property
    def samples(self) -> np.ndarray:
        return self._samples

    def __repr__(self) -> str:
        return f"Empirical(n={self._samples.size})"


Forecast = Union[PointMass, Gaussian, Empirical]


#: each kind of forecast literal: its keys, and the name its messages give it
_FORECAST_KEYS = {
    "gaussian": (frozenset({"kind", "mu", "sigma"}), "gaussian forecast literal"),
    "pointmass": (frozenset({"kind", "loc"}), "pointmass forecast literal"),
    "empirical": (frozenset({"kind", "samples"}), "empirical forecast literal"),
}


def _param(obj: dict, key: str, what: str) -> float:
    """``obj[key]`` of the literal ``what`` as a float, by :func:`~credal.core.json_number`."""
    value = required_key(obj, key, what)
    return value if type(value) is float else json_number(value, f"{what}: {key}")


def forecast_from_json(obj: dict) -> Forecast:
    """Parse a forecast literal like ``{"kind": "gaussian", "mu": 0, "sigma": 1}``.

    Missing and unknown keys are rejected by name, and so are a ``kind`` that
    is not one of the three strings, and parameters and samples that are not
    JSON numbers (booleans and strings included).
    """
    if not isinstance(obj, dict):
        raise ValueError(f"cannot parse forecast literal: {obj!r}")
    kind = required_key(obj, "kind", "forecast literal")
    literal = _FORECAST_KEYS.get(kind) if isinstance(kind, str) else None
    if literal is None:
        raise ValueError(f"unknown forecast kind: {kind!r}")
    keys, what = literal
    reject_unknown_keys(obj, keys, what)
    if kind == "gaussian":
        return Gaussian(_param(obj, "mu", what), _param(obj, "sigma", what))
    if kind == "pointmass":
        return PointMass(_param(obj, "loc", what))
    samples = required_key(obj, "samples", what)
    if not isinstance(samples, list):
        raise ValueError(f"{what}: samples: must be a list of numbers, got {samples!r}")
    return Empirical([v if type(v) is float else json_number(v, f"{what}: samples") for v in samples])


def forecast_to_json(f: Forecast) -> dict:
    if isinstance(f, Gaussian):
        return {"kind": "gaussian", "mu": f.mu, "sigma": f.sigma}
    if isinstance(f, PointMass):
        return {"kind": "pointmass", "loc": f.location}
    if isinstance(f, Empirical):
        return {"kind": "empirical", "samples": f.samples.tolist()}
    raise TypeError(f"not a forecast: {f!r}")


def sample_forecast(f: Forecast, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` (an integer, at least 0) i.i.d. values from a forecast distribution."""
    size = checked_int(size, "size", 0)
    if isinstance(f, PointMass):
        return np.full(size, f.location)
    if isinstance(f, Gaussian):
        return rng.normal(f.mu, f.sigma, size)
    if isinstance(f, Empirical):
        return rng.choice(f.samples, size=size, replace=True)
    raise TypeError(f"cannot sample from {f!r}")


def crps(f: Forecast, x: float) -> float:
    """Continuous ranked probability score of forecast ``f`` at outcome ``x``.

    CRPS(F, x) = E|X - x| - (1/2) E|X1 - X2| with X, X1, X2 i.i.d. from F.
    It generalizes absolute error: for a point mass it reduces to |loc - x|,
    and it is reported in the units of the observations.  The one-entry
    case of :func:`crps_matrix`, which holds the closed forms.  ``x`` must be a number.
    """
    return float(crps_matrix([f], [json_number(x, "observed outcome")])[0, 0])


def crps_monte_carlo(
    f: Forecast, x: float, n_draws: int = 10**6, seed: int = 0
) -> tuple[float, float]:
    """Monte-Carlo estimate of the CRPS from its defining expectations.

    Samples i.i.d. triples (X, X1, X2) and averages |X - x| - 0.5|X1 - X2|.
    Returns ``(estimate, standard_error)``.  Independent of the closed forms
    in :func:`crps_matrix`, so it serves as their cross-check.  ``x`` must
    be a finite number, and ``n_draws`` (at least 2) and ``seed`` integers.
    """
    x = json_number(x, "observed outcome")
    if not math.isfinite(x):
        raise ValueError("observed outcome must be finite")
    n_draws = checked_int(n_draws, "n_draws", 2)
    rng = np.random.default_rng(checked_int(seed, "seed"))
    draws = sample_forecast(f, rng, 3 * n_draws).reshape(3, n_draws)
    stat = np.abs(draws[0] - x) - 0.5 * np.abs(draws[1] - draws[2])
    return float(stat.mean()), float(stat.std(ddof=1) / math.sqrt(n_draws))


# fdlibm's erf (s_erf.c), whose coefficients follow:
#
# ====================================================
# Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
#
# Developed at SunPro, a Sun Microsystems, Inc. business.
# Permission to use, copy, modify, and distribute this
# software is freely granted, provided that this notice
# is preserved.
# ====================================================
_ERX = 8.45062911510467529297e-01
_EFX8 = 1.02703333676410069053e00
# erf(x) = x + x * PP(x^2) / QQ(x^2) on |x| < 0.84375
_PP = (
    1.28379167095512558561e-01, -3.25042107247001499370e-01, -2.84817495755985104766e-02,
    -5.77027029648944159157e-03, -2.37630166566501626084e-05,
)
_QQ = (
    1.0, 3.97917223959155352819e-01, 6.50222499887672944485e-02, 5.08130628187576562776e-03,
    1.32494738004321644526e-04, -3.96022827877536812320e-06,
)
# erf(x) = erx + PA(|x| - 1) / QA(|x| - 1) on [0.84375, 1.25)
_PA = (
    -2.36211856075265944077e-03, 4.14856118683748331666e-01, -3.72207876035701323847e-01,
    3.18346619901161753674e-01, -1.10894694282396677476e-01, 3.54783043256182359371e-02,
    -2.16637559486879084300e-03,
)
_QA = (
    1.0, 1.06420880400844228286e-01, 5.40397917702171048937e-01, 7.18286544141962662868e-02,
    1.26171219808761642112e-01, 1.36370839120290507362e-02, 1.19844998467991074170e-02,
)
# erfc(x) = exp(-x^2 - 0.5625 + R(1/x^2) / S(1/x^2)) / x on [1.25, 1/0.35) ...
_RA = (
    -9.86494403484714822705e-03, -6.93858572707181764372e-01, -1.05586262253232909814e01,
    -6.23753324503260060396e01, -1.62396669462573470355e02, -1.84605092906711035994e02,
    -8.12874355063065934246e01, -9.81432934416914548592e00,
)
_SA = (
    1.0, 1.96512716674392571292e01, 1.37657754143519042600e02, 4.34565877475229228821e02,
    6.45387271733267880336e02, 4.29008140027567833386e02, 1.08635005541779435134e02,
    6.57024977031928170135e00, -6.04244152148580987438e-02,
)
# ... and on [1/0.35, 6), beyond which erf rounds to 1
_RB = (
    -9.86494292470009928597e-03, -7.99283237680523006574e-01, -1.77579549177547519889e01,
    -1.60636384855821916062e02, -6.37566443368389627722e02, -1.02509513161107724954e03,
    -4.83519191608651397019e02,
)
_SB = (
    1.0, 3.03380607434824582924e01, 3.25792512996573918826e02, 1.53672958608443695994e03,
    3.19985821950859553908e03, 2.55305040643316442583e03, 4.74528541206955367215e02,
    -2.24409524465858183362e01,
)
# region edges: 2**-28, 0.84375, 1.25 and 1/0.35 as the double 0x4006DB6E00000000
_ERF_EDGES = (2.0**-28, 0.84375, 1.25, 2.8571434020996094)


def _even_powers(t, count):
    """``[t^2, t^4, ...]``, ``count`` of them, with t^6 = t^4 t^2 and t^8 = t^4 t^4."""
    t2 = t * t
    even = [t2, t2 * t2]
    while len(even) < count:
        even.append(even[1] * even[-2])
    return even


def _poly(c, t, even):
    """``sum_k c[k] t^k`` summed as (c0 + c1 t) + t^2 (c2 + c3 t) + t^4 (c4 + c5 t) + ...,
    with ``even`` from :func:`_even_powers`."""
    acc = t * c[1]
    acc += c[0]
    for k in range(2, len(c), 2):
        if k + 1 < len(c):
            term = t * c[k + 1]
            term += c[k]
            term *= even[k // 2 - 1]
        else:
            term = even[k // 2 - 1] * c[k]
        acc += term
    return acc


def _one_minus_erfc(t, r, s):
    """erf(t) = 1 - erfc(t) for t >= 1.25, with erfc(t) = exp(-t^2 -
    0.5625 + r/s) / t; ``r`` is overwritten.

    fdlibm splits exp(-t^2) in two so that erfc keeps its full relative
    precision.  1 - erfc needs only erfc's absolute error, and one ``np.exp``
    of the rounded t^2 moves erf by less than 0.25 ulp."""
    r /= s
    r -= t * t
    r -= 0.5625
    np.exp(r, out=r)
    r /= t
    return np.subtract(1.0, r, out=r)


def _erf_tiny(t):
    # scaled by 8, so that a subnormal keeps its bits; a signalling NaN lands here too
    with np.errstate(invalid="ignore"):
        return 0.125 * (8.0 * t + _EFX8 * t)


def _erf_small(t):
    z = t * t
    even = _even_powers(z, 2)
    r = _poly(_PP, z, even)
    r /= _poly(_QQ, z, even)
    r *= t
    r += t
    return r


def _erf_near_one(t):
    s = t - 1.0
    even = _even_powers(s, 3)
    r = _poly(_PA, s, even)
    r /= _poly(_QA, s, even)
    r += _ERX
    return r


def _erf_mid(t):
    s = 1.0 / (t * t)
    even = _even_powers(s, 4)
    return _one_minus_erfc(t, _poly(_RA, s, even), _poly(_SA, s, even))


def _erf_tail(t):
    t = np.minimum(t, 6.0)  # erfc(6) < 2**-55, so 1 - erfc(6) rounds to 1, as does ±inf
    s = 1.0 / (t * t)
    even = _even_powers(s, 3)
    return _one_minus_erfc(t, _poly(_RB, s, even), _poly(_SB, s, even))


#: erf of |x| on each region, in the order of ``_ERF_EDGES``
_ERF_REGIONS = (_erf_tiny, _erf_small, _erf_near_one, _erf_mid, _erf_tail)


def _erf(x) -> np.ndarray:
    """erf of each entry of ``x``, in float64 with numpy alone.

    fdlibm's scheme: erf is odd and is evaluated at |x| on five regions,
    |x| < 2**-28 (``x + efx x``), < 0.84375 and < 1.25 (rational
    approximations), < 1/0.35 and the rest (1 - erfc, with erfc from one
    ``np.exp`` and a rational correction in 1/x^2); from |x| = 6 on, the
    value rounds to 1.  Each region's entries are picked with an index list
    and evaluated alone, with the polynomials summed in glibc's split order.

    Bound: within 1 ulp of ``math.erf``.  On |x| < 1.25 glibc's erf (the
    same scheme) gives the same bits; on 10^6 seeded points 0.25% of the
    values differ from it, each by 1 ulp, and every value sampled lies
    within 0.93 ulp of the exact erf (mpmath), so no erf correct to within
    1 ulp is more than 1 ulp away.  ``tests/compare_erf.py`` and the tier-1
    tests check the bound.  ±0 keeps its sign, ±inf gives ±1 and NaN gives
    NaN.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x).ravel()
    region = (a >= _ERF_EDGES[0]).view(np.uint8)
    for edge in _ERF_EDGES[1:]:
        region += a >= edge
    out = np.empty_like(a)
    # NaN compares false to every edge and stays NaN in the first region
    for k, evaluate in enumerate(_ERF_REGIONS):
        at = np.flatnonzero(region == k)
        if at.size:
            out[at] = evaluate(a[at])
    return np.copysign(out, x.ravel(), out=out).reshape(x.shape)


#: entries of a grid of E|N(m, s^2)| evaluated at a time: enough to spread
#: numpy's cost per call, few enough that the erf's temporaries stay under
#: the 128 KiB from which glibc's malloc maps fresh pages for each array
_BLOCK_ENTRIES = 1 << 15


def _row_blocks(rows: int, cols: int) -> list[slice]:
    """Slices of ``range(rows)``, each with about ``_BLOCK_ENTRIES`` entries of ``cols`` columns."""
    step = max(1, _BLOCK_ENTRIES // max(1, cols))
    return [slice(start, start + step) for start in range(0, rows, step)]


def crps_matrix(forecasts: Sequence[Forecast], xs) -> np.ndarray:
    """``[len(xs), len(forecasts)]`` matrix of :func:`crps` at every outcome.

    A Gaussian is one normal atom, so its score E|X - x| - E|X - X'|/2 is
    E|N(x - mu, sigma^2)| - sigma/sqrt(pi) from :func:`_abs_normal_mean`;
    the closed form is validated against a Monte-Carlo estimate of the
    defining expectations (see :func:`crps_monte_carlo`).  A point mass (or
    a one-sample empirical forecast) is an atom with s = 0 and scores
    |x - loc|, taken directly: bit for bit what :func:`_abs_normal_mean`
    gives at s = 0, where erf(+inf) is 1 and exp(-inf) is 0, without its
    erf.  An empirical forecast with m samples takes both terms from its
    sorted samples and their prefix sums (:func:`_mean_abs_difference`),
    one binary search per outcome, in O((len(xs) + m) log m).  An entry
    does not depend on the other forecasts or outcomes.
    """
    xs = np.asarray(xs, dtype=float)
    if not np.isfinite(xs).all():
        raise ValueError("observed outcome must be finite")
    atoms = [_atoms(f) for f in forecasts]
    out = np.empty((xs.size, len(forecasts)))
    spread = [j for j, (locs, s) in enumerate(atoms) if len(locs) == 1 and s > 0.0]
    if spread:
        loc = np.array([atoms[j][0][0] for j in spread])
        sd = np.array([atoms[j][1] for j in spread])
        for rows in _row_blocks(xs.size, loc.size):
            out[rows, spread] = _abs_normal_mean(xs[rows, None] - loc, sd) - sd / _SQRT_PI
    point = [j for j, (locs, s) in enumerate(atoms) if len(locs) == 1 and s == 0.0]
    if point:
        loc = np.array([atoms[j][0][0] for j in point])
        for rows in _row_blocks(xs.size, loc.size):
            out[rows, point] = np.abs(xs[rows, None] - loc)
    for j, (locs, _) in enumerate(atoms):
        if len(locs) > 1:
            half_self = 0.5 * _mean(_mean_abs_difference(locs, locs))
            out[:, j] = _mean_abs_difference(xs, locs) - half_self
    return out


def _abs_normal_mean(m, s) -> np.ndarray:
    """E|N(m, s^2)| = s sqrt(2/pi) exp(-w^2) + |m| erf(w) with
    w = |m| / (s sqrt(2)), elementwise.

    Where s == 0, w is taken as +inf: erf gives 1 and the value is |m|
    exactly, the point mass's.  The value is even in m and is evaluated at
    |m|, so a matrix of differences m_i - m_j gives an exactly symmetric
    result.
    """
    m = np.abs(m)
    s = np.asarray(s, dtype=float)
    # a positive s too small for |m| overflows w to inf, the same limit
    with np.errstate(over="ignore"):
        w = np.divide(m, s * _SQRT_2, out=np.full(np.broadcast(m, s).shape, np.inf), where=s > 0.0)
        out = _erf(w)
        out *= m
        w *= w
        np.negative(w, out=w)
        np.exp(w, out=w)
        w *= s * _SQRT_2_OVER_PI
        out += w
    return out


def _mean_abs_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``mean_j |a_i - b_j|`` for each ``a_i``, from the sorted ``b`` and
    its prefix sums: one binary search per ``a_i``, in
    O((len(a) + len(b)) log len(b)).

    Both are taken relative to the median of ``b``, so that samples
    clustered far from 0 keep their digits, and each count is divided by
    len(b) before it scales an ``a_i``, so that an outcome far from the
    samples does not overflow.  The prefix sums are taken of ``b`` scaled
    by :func:`~credal.core.unit_scale`, and scaled back once divided by
    len(b), so that samples near the largest float do not overflow them."""
    b = np.sort(b)
    center = b[b.size // 2]
    a, b = a - center, b - center
    below = np.searchsorted(b, a)  # how many b_j lie below each a_i
    scale = unit_scale(b)
    prefix = np.concatenate(([0.0], np.cumsum(b * scale)))
    m = b.size
    lower = a * (below / m) - prefix[below] / m / scale
    upper = (prefix[-1] - prefix[below]) / m / scale - a * ((m - below) / m)
    return lower + upper


def _mean(x: np.ndarray) -> float:
    """The mean of ``x``, taken of ``x`` scaled by :func:`~credal.core.unit_scale`
    so that its sum does not overflow; a normal mean keeps every bit."""
    scale = unit_scale(x)
    return float(np.mean(x * scale)) / scale


def _atoms(f: Forecast) -> tuple[Sequence[float], float]:
    """Locations and common standard deviation of the equally weighted normal
    atoms ``f`` is made of; point masses and empirical samples have s = 0."""
    if isinstance(f, Gaussian):
        return (f.mu,), f.sigma
    if isinstance(f, PointMass):
        return (f.location,), 0.0
    if isinstance(f, Empirical):
        return f.samples, 0.0
    raise TypeError(f"not a forecast: {f!r}")


def expected_abs_difference(forecasts: Sequence[Forecast]) -> np.ndarray:
    """Matrix ``P[i, j] = E|X_i - X_j|`` for independent ``X_i ~ forecasts[i]``.

    A difference of two normal atoms is N(m_i - m_j, s_i^2 + s_j^2), so
    every entry between Gaussian and point-mass forecasts is one
    E|N(m, s^2)| (:func:`_abs_normal_mean`), evaluated in blocks of rows
    on and right of the diagonal and mirrored below it.  The value is taken
    at |m_i - m_j|, so the diagonal blocks, evaluated in full, are exactly
    symmetric too.  An entry with an empirical forecast averages over
    its samples; between two forecasts without spread (empirical or point
    mass) it is the sorted-sample mean of |a_i - b_j|.
    """
    atoms = [_atoms(f) for f in forecasts]
    if not atoms:
        raise ValueError("need at least one forecast")
    loc = np.array([xs[0] for xs, _ in atoms])
    sd = np.array([s for _, s in atoms])
    pair = np.empty((loc.size, loc.size))
    for rows in _row_blocks(loc.size, loc.size):
        start, stop = rows.start, rows.stop
        pair[rows, start:] = _abs_normal_mean(loc[rows, None] - loc[start:], np.hypot(sd[rows, None], sd[start:]))
        pair[stop:, rows] = pair[rows, stop:].T
    for i, (xs, s) in enumerate(atoms):
        if len(xs) == 1:
            continue
        for j, (ys, t) in enumerate(atoms):
            if s == 0.0 and t == 0.0:
                value = _mean(_mean_abs_difference(xs, np.asarray(ys)))
            else:
                value = _mean(_abs_normal_mean(xs[:, None] - np.asarray(ys), math.hypot(s, t)))
            pair[i, j] = pair[j, i] = value
    return pair


def mixture_crps(pair, weights, component_crps):
    """Exact CRPS of each weight row's mixture of the forecasts whose
    ``pair`` matrix is P, at an outcome where they score ``component_crps``.

    CRPS(sum_i w_i F_i, x) = sum_i w_i E|X_i - x| - 1/2 sum_ij w_i w_j P[i, j]
    with P from :func:`expected_abs_difference` (Grimit, Gneiting, Berrocal
    & Johnson 2006).  Since crps(F_i, x) = E|X_i - x| - P[i, i]/2, the
    mixture's score at x is w.c + w.h - w'Pw/2 from the components' own
    scores c at x and h = diag(P)/2, taken from P on each call.  Weights and
    scores are ``[..., n]`` and broadcast against each other; the result is
    ``[...]``, a ``float`` for 1-d input.  The w'Pw term of every row is one
    matrix product of the whole weight stack by P, since P is exactly
    symmetric, followed by a row-wise dot with w, so P is read once per
    matrix of rows instead of once per row.  The result is deterministic for
    a given input, but a row's last bits depend on the BLAS and on the rows
    it is scored with.

    Bound: with S = |w|.|c| + |w|.h + |w|'P|w|/2, each score lies within
    (n + 2) eps S + n (3 + ||w||_1) 2**-1074 of the exact value of
    w.c + w.h - w'Pw/2 on the given floats.  The sums of n products
    carry at most n eps S of error between them (w'Pw is two such sums,
    each within n eps/2 relative), the last two roundings add eps S,
    and every product that underflows adds at most 2**-1075.  One-hot
    weights return that component's score exactly.
    ``tests/compare_mixture.py`` and the tier-1 tests check both against
    an exact rational oracle.
    """
    half_self = 0.5 * np.diag(pair)
    w = np.asarray(weights, dtype=float)
    c = np.asarray(component_crps, dtype=float)
    n = half_self.size
    for name, a in (("weights", w), ("component scores", c)):
        if a.shape[-1:] != (n,):
            length = f"a last axis of length {a.shape[-1]}" if a.ndim else "no axis"
            raise ValueError(f"{name} have {length}, the mixture has {n} components")
    wc = np.einsum("...i,...i->...", w, c)
    # one GEMM of every row (a non-contiguous stack is copied first): a
    # stacked w @ P makes one per trailing matrix and packs P for each
    wpw = np.einsum("...i,...i->...", (w.reshape(-1, n) @ pair).reshape(w.shape), w)
    # grouped so that one-hot weights return that component's score exactly
    out = wc + (w @ half_self - 0.5 * wpw)
    return float(out) if out.ndim == 0 else out


def crps_measure(forecasts: Sequence[Forecast], x: float, a: float) -> ScoreVector:
    """Additive evidential scores ``a * CRPS(f_i, x)`` for each forecast.

    ``a`` must be negative: lower CRPS means a better forecast, and additive
    updating adds scores to the prior, so better forecasts must receive the
    larger (less negative) score.  |a| controls how aggressively badly
    scoring hypotheses get pushed to zero.  ``x`` must be a number.
    """
    a = negative_number(a, "scaling constant a")
    return ScoreVector(a * crps_matrix(forecasts, [json_number(x, "observed outcome")])[0], Mode.ADDITIVE)


@dataclass(frozen=True)
class LossValue:
    """A non-negative loss together with the positive learning rate scaling it."""

    value: float
    learning_rate: float

    def __post_init__(self):
        object.__setattr__(self, "value", json_number(self.value, "loss value"))
        object.__setattr__(self, "learning_rate", json_number(self.learning_rate, "loss learning_rate"))
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
    with np.errstate(over="ignore"):  # an infinite product scores exp(-inf) = 0
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
    so it has no multiplicative counterpart.  ``a`` must be negative.  Each
    data value must be a number (:func:`~credal.core.json_number`) and each
    prediction row a vector of numbers (:func:`~credal.core.as_values`):
    booleans and numeric strings raise ``ValueError``.
    """
    a = negative_number(a, "scaling constant a")
    data = list(data)
    if not data:
        raise ValueError("data must be non-empty")
    pairs = [[json_number(v, f"data point {j}") for v in pt] for j, pt in enumerate(data)]
    y = np.array([pt[1] for pt in pairs])
    scores = []
    for i, preds in enumerate(predictions):
        p = as_values(preds, f"predictions for hypothesis {i}")
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
    return ScoreVector(likelihoods, Mode.MULTIPLICATIVE)
