"""Independent reference implementations the library is checked against.

None is used by the library itself: the enumeration oracle tries every
zero count directly, the Michelot projection reaches the same map by
an active-set iteration instead of a sort-and-threshold scan, the
sort-scan projection sorts and scans every entry of every row where the
library's kernel first tries a candidate set, the dominance oracle computes
the closed-form gaps with fresh temporaries instead of in place, the
normal absolute mean evaluates ``math.erf`` through ``np.frompyfunc``
instead of the library's numpy erf, the mpmath forms evaluate it and the
Gaussian CRPS in 120-bit arithmetic, the CRPS reference scores one
forecast at one outcome in scalar Python arithmetic (a Gaussian with
``math.erf`` and ``math.exp`` in the Phi/phi form, an empirical forecast
from ``|s_i - x|`` directly) instead of from E|N(m, s^2)| and prefix sums
over a grid, the mixture CRPS is estimated by
sampling instead of the pairwise closed form, or taken from that closed
form in exact rational arithmetic on the integer significands of the
floats, one 1-d weight vector at a time, instead of in floating point,
the reference harness runs a simulation one (rule,
replication, step) at a time through the public 1-d updates instead of on
arrays, and the dominator search tries random candidates instead of using
the closed-form dominance certificates.
"""

import math
from fractions import Fraction

import numpy as np

from credal import (
    Empirical,
    Gaussian,
    LossValue,
    Mode,
    NormalizationResult,
    PointMass,
    ProbabilityVector,
    RuleAggregate,
    ScoreVector,
    StepRecord,
    crps,
    general_bayes_update,
    generate_data,
    inferential_update,
    likelihood_score,
    predictive_update,
    uniform,
)
from credal.core import as_values
from credal.experiments import _LIKELIHOOD_FLOOR, CSV_HEADER
from credal.measures import MixtureCRPS, sample_forecast
from credal.updating import RuleKind


def brute_force_normalize_oracle(q) -> NormalizationResult:
    """Reference normalization by direct enumeration of zero counts.

    For m = 0, 1, ... zero the m smallest entries (ties resolved so the
    lower index survives first), set d = (1 - survivor sum)/(n - m), and
    return the first m for which every survivor stays strictly positive.
    Guarded to small n; must agree with ``conservative_normalize``.
    """
    qv = as_values(q)
    if not np.all(np.isfinite(qv)):
        raise ValueError("entries must be finite")
    n = qv.size
    if n > 12:
        raise ValueError("oracle is limited to n <= 12")
    order = np.argsort(-qv, kind="stable")
    for m in range(n):
        survivors = order[: n - m]
        d = (1.0 - float(np.sum(qv[survivors]))) / (n - m)
        if np.all(qv[survivors] + d > 0.0):
            posterior = np.zeros(n)
            posterior[survivors] = qv[survivors] + d
            keep = np.zeros(n, dtype=bool)
            keep[survivors] = True
            return NormalizationResult(ProbabilityVector(posterior), d, keep)
    raise AssertionError("unreachable: m = n - 1 always leaves one positive survivor")


def michelot_projection(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex (Michelot 1986).

    Start from the full support, repeatedly shift the active entries by the
    constant that makes them sum to one and drop those that fall to zero or
    below, until the active set is stable.
    """
    vv = as_values(v)
    if not np.all(np.isfinite(vv)):
        raise ValueError("entries must be finite")
    active = np.ones(vv.size, dtype=bool)
    while True:
        k = int(active.sum())
        tau = (float(np.sum(vv[active])) - 1.0) / k
        nxt = active & (vv > tau)
        if np.array_equal(nxt, active):
            break
        if not nxt.any():  # only reachable when 1/k underflows against the entries
            raise ValueError("projection did not converge; entries exceed representable range")
        active = nxt
    out = np.zeros(vv.size)
    out[active] = vv[active] - tau
    return out


def sort_scan_projection(q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Euclidean projection of each row of ``q`` onto the simplex by a full
    sort-and-threshold scan: ``(posterior, d, keep)`` as from
    ``updating._simplex_projection``, which must match it bit for bit.

    Sorts every row ascending, scans it descending with prefix sums, keeps
    the longest prefix whose last entry stays positive after adding
    d = (1 - prefix sum)/prefix length, splits a tie at the cut in index
    order and writes the posterior with ``np.where``.
    """
    q = np.asarray(q, dtype=float)
    if not np.isfinite(q).all():
        raise ValueError("entries must be finite")
    shape = q.shape
    n = shape[-1]
    q = q.reshape(-1, n)
    s = np.sort(q)
    u = s[:, ::-1]
    shift = (1.0 - u.cumsum(-1)) / np.arange(1.0, n + 1.0)
    cond = u + shift > 0.0
    cond[:, 0] = True
    last = (n - 1) - cond[:, ::-1].argmax(-1)
    row_start = np.arange(0, q.size, n)
    d = shift.take(row_start + last)
    cut = s.take(row_start + ((n - 1) - last))
    keep = q >= cut[:, None]
    if np.count_nonzero(keep) != last.sum() + len(last):
        extra = keep.sum(-1) - (last + 1)
        for r in np.flatnonzero(extra).tolist():
            keep[r, np.flatnonzero(q[r] == cut[r])[-extra[r]:]] = False
    posterior = np.where(keep, q + d[:, None], 0.0)
    return posterior.reshape(shape), d.reshape(shape[:-1]), keep.reshape(shape)


def dominance_gaps(c, d, keep) -> np.ndarray:
    """Per-vertex gaps of ``c`` against its projection with shift ``d`` and
    survivor mask ``keep``: ``k d^2 + sum_{i not kept} c_i^2 + 2 max(0, -(c_j + d))``,
    each term built in a fresh array."""
    dropped = c[~keep]
    return np.count_nonzero(keep) * d * d + np.dot(dropped, dropped) + 2.0 * np.maximum(0.0, -(c + d))


def abs_normal_mean_reference(m, s) -> np.ndarray:
    """E|N(m, s^2)| = 2 s phi(m/s) + m (2 Phi(m/s) - 1) elementwise, |m| where
    s == 0, with ``math.erf`` through ``np.frompyfunc`` on every entry."""
    m = np.abs(m)
    s = np.asarray(s, dtype=float)
    z = m / np.where(s > 0.0, s, 1.0)
    erf = np.frompyfunc(math.erf, 1, 1)(z / math.sqrt(2.0)).astype(float)
    return np.where(s > 0.0, 2.0 * s * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) + m * erf, m)


def _abs_normal_mean_mp(m, s):
    """E|N(m, s^2)| = 2 s phi(m/s) + |m| erf(|m|/(s sqrt(2))) of mpmath numbers; |m| at s == 0."""
    import mpmath

    m = abs(m)
    if s == 0:
        return m
    z = m / s
    return 2 * s * mpmath.npdf(z) + m * mpmath.erf(z / mpmath.sqrt(2))


def abs_normal_mean_mpmath(m: float, s: float) -> float:
    """E|N(m, s^2)| in 120-bit mpmath arithmetic, rounded once to a float."""
    import mpmath

    with mpmath.workprec(120):
        return float(_abs_normal_mean_mp(mpmath.mpf(m), mpmath.mpf(s)))


def gaussian_crps_mpmath(mu: float, sigma: float, x: float) -> float:
    """CRPS of N(mu, sigma^2) at ``x``, E|N(x - mu, sigma^2)| - sigma/sqrt(pi),
    in 120-bit mpmath arithmetic, rounded once to a float."""
    import mpmath

    with mpmath.workprec(120):
        sigma = mpmath.mpf(sigma)
        return float(_abs_normal_mean_mp(mpmath.mpf(x) - mpmath.mpf(mu), sigma) - sigma / mpmath.sqrt(mpmath.pi))


def random_dominator_search(c, n_perturbations, seed) -> tuple[np.ndarray | None, np.ndarray]:
    """Seeded randomized search for a vector strictly closer than ``c`` to every vertex.

    Half the candidates are ``c`` plus Gaussian noise at a scale drawn from
    1e-3 ... 0.5, clipped to [0, 1]; the rest are uniform on [0, 1]^n.
    Returns ``(dominator, gaps)``: the candidate whose worst per-vertex gap
    ``divergence(c, e_j) - divergence(candidate, e_j)`` is largest, or
    None when even that gap is not positive, and that candidate's gaps.
    """
    cv = as_values(c)
    rng = np.random.default_rng(seed)
    n = cv.size
    half = n_perturbations // 2
    scales = np.array([1e-3, 1e-2, 1e-1, 0.5])
    noise = rng.standard_normal((half, n)) * scales[rng.integers(0, scales.size, (half, 1))]
    candidates = np.vstack(
        [np.clip(cv + noise, 0.0, 1.0), rng.uniform(0.0, 1.0, (n_perturbations - half, n))]
    )
    # divergence to vertex j expands to sum(v^2) - 2*v[j] + 1; the +1 cancels
    base = float(np.dot(cv, cv)) - 2.0 * cv
    gaps = base[None, :] - (np.sum(candidates * candidates, axis=1)[:, None] - 2.0 * candidates)
    best = int(np.argmax(gaps.min(axis=1)))
    return (candidates[best] if gaps[best].min() > 0.0 else None), gaps[best]


def sample_mixture(posterior, models, rng, size) -> np.ndarray:
    """Draws from the posterior-weighted mixture of the models' forecasts.

    A model index is drawn per sample with the posterior weights (zero-weight
    models are never chosen), then a value from the chosen model.
    """
    weights = as_values(posterior)
    component = rng.choice(len(models), size=size, p=weights / weights.sum())
    draws = np.empty(size)
    for i, model in enumerate(models):
        mask = component == i
        k = int(mask.sum())
        if k:
            draws[mask] = sample_forecast(model.forecast, rng, k)
    return draws


def monte_carlo_mixture_crps(posterior, models, x, n_draws, seed) -> tuple[float, float]:
    """Monte-Carlo mixture CRPS, ``(estimate, standard_error)``.

    Averages |X - x| - |X1 - X2|/2 over i.i.d. mixture triples, the
    defining expectations of the CRPS.
    """
    rng = np.random.default_rng(seed)
    draws = sample_mixture(posterior, models, rng, 3 * n_draws).reshape(3, n_draws)
    stat = np.abs(draws[0] - x) - 0.5 * np.abs(draws[1] - draws[2])
    return float(stat.mean()), float(stat.std(ddof=1) / math.sqrt(n_draws))


def _dyadic(values) -> tuple[np.ndarray, int]:
    """Python integers ``m`` (an object array) and one exponent ``e`` with
    ``values == m * 2**e`` exactly, entry by entry, for finite floats."""
    values = np.asarray(values, dtype=float)
    mantissa, exponent = np.frexp(values)
    digits = np.ldexp(mantissa, 53).astype(np.int64)  # exact: |mantissa| < 1
    exponent = exponent - 53
    e = int(exponent[values != 0.0].min()) if values.any() else 0
    shift = np.maximum(exponent - e, 0)  # a zero has no digits to shift
    m = [d << k for d, k in zip(digits.ravel().tolist(), shift.ravel().tolist())]
    return np.array(m, dtype=object).reshape(values.shape), e


def _scaled(m: int, e: int) -> Fraction:
    """``m * 2**e`` as a fraction."""
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


class ExactMixture:
    """Mixture CRPS ``w.c + w.h - w'Pw/2`` in exact rational arithmetic.

    ``pair`` is the forecasts' matrix ``P[i, j] = E|X_i - X_j|`` and
    ``half_self`` its halved diagonal, both taken as the exact values of
    their floats.  Every float is an integer times a power of 2, so each
    term is a sum of integer products over the nonzero weights, scaled once.
    """

    def __init__(self, pair, half_self):
        if np.any(np.asarray(pair) < 0.0):
            raise ValueError("pair matrix must be non-negative")
        self.pair, self.pair_exp = _dyadic(pair)
        self.half, self.half_exp = _dyadic(half_self)

    def score(self, w, c) -> tuple[Fraction, float]:
        """``(exact score, bound)`` of one 1-d vector ``w`` of non-negative
        weights with component scores ``c``.

        ``bound`` is the distance from the exact score that
        :meth:`credal.measures.MixtureCRPS.score` states:
        (n + 2) eps S + n (3 + ||w||_1) 2**-1074, with S = w.|c| + w.h +
        w'Pw/2.
        """
        w, c = np.asarray(w, dtype=float), np.asarray(c, dtype=float)
        if np.any(w < 0.0):
            raise ValueError("mixture weights must be non-negative")
        nz = np.flatnonzero(w)
        wm, we = _dyadic(w[nz])
        cm, ce = _dyadic(c[nz])
        wc = _scaled(int(wm.dot(cm)), we + ce)
        wh = _scaled(int(wm.dot(self.half[nz])), we + self.half_exp)
        wpw = _scaled(int(wm.dot(self.pair[np.ix_(nz, nz)].dot(wm))), 2 * we + self.pair_exp)
        magnitude = _scaled(int(wm.dot(np.abs(cm))), we + ce) + wh + wpw / 2
        n, eps = w.size, float(np.finfo(float).eps)
        bound = (n + 2) * eps * float(magnitude) + n * (3.0 + float(w.sum())) * 2.0**-1074
        return wc + wh - wpw / 2, bound


def crps_reference(f, x: float) -> float:
    """CRPS of one forecast at one outcome, in scalar Python arithmetic.

    A point mass scores |loc - x|; a Gaussian sigma * (z*(2*Phi(z) - 1) +
    2*phi(z) - 1/sqrt(pi)) with z = (x - mu)/sigma, from ``math.erf`` and
    ``math.exp``; an empirical forecast the mean of |s_i - x| minus the
    pairwise term over its sorted samples.  ``measures.crps_matrix`` must
    agree with it to within the bound ``crps_tolerance`` states.
    """
    if not math.isfinite(x):
        raise ValueError("observed outcome must be finite")
    if isinstance(f, PointMass):
        return abs(f.location - x)
    if isinstance(f, Gaussian):
        z = (x - f.mu) / f.sigma
        cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return f.sigma * (z * (2.0 * cdf - 1.0) + 2.0 * pdf - 1.0 / math.sqrt(math.pi))
    if isinstance(f, Empirical):
        s = np.sort(f.samples)
        m = s.size
        first = float(np.mean(np.abs(s - x)))
        pair = float(np.sum((2.0 * np.arange(m) - m + 1.0) * s))
        return first - pair / (m * m)
    raise TypeError(f"not a forecast: {f!r}")


def crps_tolerance(f, x: float) -> float:
    """How far ``measures.crps_matrix`` may lie from ``crps_reference(f, x)``.

    The two Gaussian forms differ by at most 16 eps relative: near z = 0
    subtracting sigma/sqrt(pi) from E|X - x| loses two bits, and the two
    erfs differ by at most 1 ulp (8.4 eps was the largest measured).  A
    point mass is exact.  An empirical forecast of m samples sums m terms
    from prefix sums, so its bound is (m + 2) eps times the largest
    magnitude involved.
    """
    eps = np.finfo(float).eps
    if isinstance(f, Gaussian):
        return 16.0 * eps * abs(crps_reference(f, x))
    if isinstance(f, Empirical):
        return (f.samples.size + 2) * eps * (abs(x) + float(np.max(np.abs(f.samples))))
    return 0.0


def _gaussian_density(f, x: float) -> float:
    """The density the library uses: ``np.exp`` gives the same bits on a
    scalar as on an array, which ``math.exp`` does not."""
    z = (x - f.mu) / f.sigma
    return float(np.exp(-0.5 * z * z)) / (f.sigma * math.sqrt(2.0 * math.pi))


def _step_posterior(rule, p, cfg, x, per_model):
    """One update of ``p`` at observation ``x``; ``per_model`` holds each model's CRPS at x."""
    if rule.kind is RuleKind.INFERENTIAL:
        dens = [max(_LIKELIHOOD_FLOOR, _gaussian_density(m.forecast, x)) for m in cfg.models]
        return inferential_update(p, likelihood_score(dens))
    if rule.kind is RuleKind.GENERAL_BAYES:
        losses = [LossValue(float(c), rule.learning_rate) for c in per_model]
        return general_bayes_update(p, losses)
    if rule.kind is RuleKind.PREDICTIVE:
        return predictive_update(p, ScoreVector(cfg.a * per_model, Mode.ADDITIVE)).posterior
    raise ValueError(f"unsupported rule: {rule!r}")


def reference_harness(cfg) -> tuple[str, tuple, list]:
    """``(results.csv text, aggregates, mixture scores)`` of a simulation
    run step by step.

    Each (rule, replication, step) scores the mixture exactly with
    :class:`ExactMixture`, updates a ``ProbabilityVector`` through the public
    1-d update functions and keeps one ``StepRecord``; every field of every
    row is formatted on its own.  Each model's CRPS comes from the public
    scalar ``crps``.  The records' and the text's mixture scores and the
    aggregates are taken from the exact scores rounded to floats; the
    third item holds, in CSV order, each (rule, replication, step)'s
    ``(exact score, bound)``.
    """
    forecasts = [m.forecast for m in cfg.models]
    mixture = MixtureCRPS(forecasts)
    exact = ExactMixture(mixture.pair, mixture.half_self)
    observations = [
        generate_data(cfg.seed, cfg.truth, cfg.horizon, replication=rep)
        for rep in range(cfg.replications)
    ]
    model_crps = [np.array([[crps(f, x) for f in forecasts] for x in xs.tolist()]) for xs in observations]
    records, aggregates, mixtures = [], [], []
    for rule in cfg.rules:
        rep_means = []
        for rep, xs in enumerate(observations):
            p = uniform(len(cfg.models))
            step_scores = []
            for t, x in enumerate(xs.tolist(), start=1):
                per_model = model_crps[rep][t - 1]
                mixtures.append(exact.score(p.values, per_model))
                score = float(mixtures[-1][0])
                p = _step_posterior(rule, p, cfg, x, per_model)
                records.append(StepRecord(rule.kind.value, rep, t, p.values, per_model, score))
                step_scores.append(score)
            rep_means.append(float(np.mean(step_scores)))
        mean = float(np.mean(rep_means))
        se = float(np.std(rep_means, ddof=1) / math.sqrt(len(rep_means))) if len(rep_means) > 1 else 0.0
        aggregates.append(RuleAggregate(rule.kind.value, mean, se, tuple(rep_means)))
    lines = [CSV_HEADER]
    for rec in records:
        for i, model in enumerate(cfg.models):
            fields = [rec.rule, str(rec.replication), str(rec.t), model.label]
            fields += [f"{v:.17g}" for v in (rec.posterior[i], rec.crps[i], rec.mixture_crps)]
            lines.append(",".join(fields))
    return "\n".join(lines) + "\n", tuple(aggregates), mixtures
