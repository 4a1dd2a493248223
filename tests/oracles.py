"""Independent reference implementations the library is checked against.

None is used by the library itself: the enumeration oracle tries every
zero count directly, the Michelot projection reaches the same map by
an active-set iteration instead of a sort-and-threshold scan, the
sort-scan projection sorts and scans every entry of every row where the
library's kernel first tries a candidate set (and its fold projects a
predictive trajectory one step at a time, on fresh arrays, where the
library's fold reuses its buffers), the dominance oracle computes
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
replication, step) at a time, through the public 1-d update for the
predictive rule and as an exact 50-digit mpmath fold of the log-scores,
summed one step at a time, for the ratio-form rules, instead of on arrays
in float64, the dominator search tries random candidates instead of using
the closed-form dominance certificates, the point-mass CRPS goes through
the normal atom's E|N(m, s^2)| at s = 0 instead of taking |x - loc|, and
the reference config parser finds unknown keys by set difference and
builds every message up front instead of testing key views against
frozensets and building a message only to raise it.
"""

import math
import numbers
from fractions import Fraction

import numpy as np

from credal import (
    Empirical,
    ExperimentConfig,
    Gaussian,
    ModelSpec,
    Mode,
    NormalizationResult,
    PointMass,
    ProbabilityVector,
    ScoreVector,
    UpdateRule,
    crps,
    generate_data,
    predictive_update,
    uniform,
)
from credal.core import as_values
from credal.experiments import CSV_HEADER
from credal.measures import _abs_normal_mean, sample_forecast
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
    ``updating._project_rows`` on the rows of ``q``, which must match it
    bit for bit.

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


def sort_scan_fold(p0, scores) -> np.ndarray:
    """The predictive trajectory ``[..., T + 1, n]`` of additive scores
    ``[..., T, n]`` from the prior ``p0``: slot 0 is the prior, and each
    later slot one :func:`sort_scan_projection` of the previous slot plus
    that step's scores.  ``updating._trajectory`` must match it bit for
    bit."""
    scores = np.asarray(scores, dtype=float)
    weights = [np.broadcast_to(np.asarray(p0, dtype=float), scores.shape[:-2] + scores.shape[-1:])]
    for t in range(scores.shape[-2]):
        weights.append(sort_scan_projection(weights[-1] + scores[..., t, :])[0])
    return np.stack(weights, axis=-2)


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
        :func:`credal.measures.mixture_crps` states:
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


#: digits of the exact ratio-form fold
FOLD_DPS = 50


def trajectory_bound(t: int, n: int, a, a_bar, log_weight) -> float:
    """``delta_t,i`` of ``credal.updating._trajectory``'s docstring: how far a
    computed ratio-form log-weight may lie from the exact one after step
    ``t`` of ``n`` models, with ``a`` the entry's centred magnitude
    ``A_t,i``, ``a_bar`` its posterior mean and ``log_weight`` the exact
    log-weight."""
    eps = float(np.finfo(float).eps)
    return eps * ((t + 6) * (float(a) + 2.0 * float(a_bar)) + 2.0 * abs(float(log_weight)) + 4.0 * math.log(n) + n + 8)


def exact_log_fold(p0, log_scores) -> tuple[list, list]:
    """``(L, A)`` of the ratio-form fold of float log-scores ``[T, n]`` from
    the float prior ``p0``, in ``FOLD_DPS``-digit mpmath: ``L[t][i]`` is the
    exact log-weight after step t (t = 0 the prior's), ``A[t][i]`` the
    magnitude ``-log p0_i + sum_{tau <= t} (max_j l_tau,j - l_tau,i)`` of
    the centred sum.  Every sum is taken one step at a time; -inf marks a
    zero prior or a -inf log-score."""
    import mpmath

    with mpmath.workdps(FOLD_DPS):
        s = [mpmath.log(p) if p > 0.0 else mpmath.ninf for p in np.asarray(p0, dtype=float).tolist()]
        a = [-x for x in s]
        logs, magnitudes = [_log_normalized(s)], [a]
        for row in np.asarray(log_scores, dtype=float).tolist():
            top = mpmath.mpf(max(row))
            s = [x + mpmath.mpf(v) for x, v in zip(s, row)]
            a = [x + (top - mpmath.mpf(v)) for x, v in zip(a, row)]
            logs.append(_log_normalized(s))
            magnitudes.append(a)
    return logs, magnitudes


def _log_normalized(s: list) -> list:
    """``s_i - log sum_j exp(s_j)`` of mpmath numbers, -inf where ``s_i`` is."""
    import mpmath

    top = max(s)
    total = mpmath.log(mpmath.fsum(mpmath.exp(x - top) for x in s if x != mpmath.ninf))
    return [x - top - total if x != mpmath.ninf else x for x in s]


def fold_errors(p0, log_scores, weights, log_weights=None, slack=None) -> tuple[float, int]:
    """``(largest error as a share of its bound, entries beyond it)`` of a
    computed ratio-form trajectory against :func:`exact_log_fold`.

    ``weights`` (and ``log_weights``, when given) are ``[T, n]``: the
    posteriors after steps 1 .. T.  A weight must lie within
    ``w expm1(delta) + 2^-1073`` of the exact weight ``w``, a log-weight
    within ``delta`` (:func:`trajectory_bound`) of the exact one; where the
    exact weight is 0, both must be exactly 0 and -inf.  ``slack[t - 1]``,
    when given, widens ``delta`` after step t.
    """
    import mpmath

    weights = np.asarray(weights, dtype=float)
    n = weights.shape[-1]
    logs, magnitudes = exact_log_fold(p0, log_scores)
    worst, misses = 0.0, 0
    with mpmath.workdps(FOLD_DPS):
        for t in range(1, len(logs)):
            exact_w = [mpmath.exp(x) for x in logs[t]]
            a_bar = mpmath.fsum(w * a for w, a in zip(exact_w, magnitudes[t]) if w > 0)
            for i in range(n):
                got = weights[t - 1, i]
                got_log = None if log_weights is None else log_weights[t - 1, i]
                if logs[t][i] == mpmath.ninf:
                    misses += got != 0.0 or (got_log is not None and got_log != -np.inf)
                    continue
                delta = trajectory_bound(t, n, magnitudes[t][i], a_bar, logs[t][i])
                if slack is not None:
                    delta += float(slack[t - 1])
                errors = [(abs(mpmath.mpf(got) - exact_w[i]), exact_w[i] * mpmath.expm1(delta) + 2.0**-1073)]
                if got_log is not None:
                    errors.append((abs(mpmath.mpf(got_log) - logs[t][i]), mpmath.mpf(delta)))
                for error, bound in errors:
                    worst = max(worst, float(error / bound))
                    misses += error > bound
    return worst, misses


def log_sigma_sqrt_2pi(sigma) -> np.ndarray:
    """``log(sigma sqrt(2 pi))`` as the library computes it: numpy's log gives
    the same bits on a scalar as on an array, which ``math.log`` does not."""
    return np.log(np.asarray(sigma, dtype=float) * math.sqrt(2.0 * math.pi))


def ratio_log_scores(rule, cfg, xs, model_crps) -> np.ndarray:
    """The log-scores ``[T, n]`` of a ratio-form rule at the observations
    ``xs`` of one replication, with the library's float arithmetic in
    scalar Python: the Gaussian log-density ``-z^2/2 - log(sigma sqrt(2
    pi))``, or ``-rate * crps``."""
    if rule.kind is RuleKind.GENERAL_BAYES:
        return np.array([[c * -rule.learning_rate for c in row] for row in np.asarray(model_crps).tolist()])
    if rule.kind is not RuleKind.INFERENTIAL:
        raise ValueError(f"not a ratio-form rule: {rule!r}")
    forecasts = [m.forecast for m in cfg.models]
    norm = log_sigma_sqrt_2pi([f.sigma for f in forecasts]).tolist()
    rows = []
    for x in np.asarray(xs, dtype=float).tolist():
        zs = [(x - f.mu) / f.sigma for f in forecasts]
        rows.append([z * z * -0.5 - c for z, c in zip(zs, norm)])
    return np.array(rows)


def reference_harness(cfg) -> tuple[str, dict]:
    """``(text, folds)`` of a simulation run step by step.

    ``text`` is ``results.csv`` without its ``mixture_crps`` field: each
    model's CRPS comes from the public scalar ``crps``, every field of every
    row is formatted on its own.  The predictive rule updates a
    ``ProbabilityVector`` one step at a time through the public
    ``predictive_update``.  Each ratio-form rule's log-scores
    (:func:`ratio_log_scores`) are folded exactly by
    :func:`exact_log_fold`, and the text holds its weights rounded to
    floats; ``folds[(rule index, replication)]`` holds the log-scores, for
    :func:`fold_errors`.
    """
    import mpmath

    forecasts = [m.forecast for m in cfg.models]
    observations = [
        generate_data(cfg.seed, cfg.truth, cfg.horizon, replication=rep)
        for rep in range(cfg.replications)
    ]
    model_crps = [np.array([[crps(f, x) for f in forecasts] for x in xs.tolist()]) for xs in observations]
    lines, folds = [CSV_HEADER.rsplit(",", 1)[0]], {}
    for k, rule in enumerate(cfg.rules):
        for rep, xs in enumerate(observations):
            if rule.kind is RuleKind.PREDICTIVE:
                p, posteriors = uniform(len(forecasts)), []
                for per_model in model_crps[rep]:
                    p = predictive_update(p, ScoreVector(cfg.a * per_model, Mode.ADDITIVE)).posterior
                    posteriors.append(p.values)
            else:
                folds[k, rep] = ratio_log_scores(rule, cfg, xs, model_crps[rep])
                logs, _ = exact_log_fold(uniform(len(forecasts)).values, folds[k, rep])
                with mpmath.workdps(FOLD_DPS):
                    posteriors = [[float(mpmath.exp(x)) for x in row] for row in logs[1:]]
            for t, (post, per_model) in enumerate(zip(posteriors, model_crps[rep]), start=1):
                for i, model in enumerate(cfg.models):
                    fields = [rule.kind.value, str(rep), str(t), model.label]
                    fields += [f"{v:.17g}" for v in (post[i], per_model[i])]
                    lines.append(",".join(fields))
    return "\n".join(lines) + "\n", folds


def point_mass_crps_as_normal_atom(xs, locs) -> np.ndarray:
    """``[len(xs), len(locs)]`` CRPS of point masses at ``locs``, each taken
    as a normal atom with s = 0 through the library's E|N(m, s^2)|, as
    ``crps_matrix`` once scored them: erf(+inf) |m| + 0 exp(-inf) - 0."""
    sd = np.zeros(len(locs))
    m = np.asarray(xs, dtype=float)[:, None] - np.asarray(locs, dtype=float)
    return _abs_normal_mean(m, sd) - sd / math.sqrt(math.pi)


# The reference config parser: each literal's keys checked by set
# difference, every message built before it is known to be needed, the
# label's characters tested one at a time and the forecasts' own checks
# repeated here, where the library tests subsets of key views against
# frozensets and builds a message only to raise it.  A ``kind`` that cannot
# be hashed raises ``TypeError`` here, and ``ValueError`` in the library.
_REFERENCE_FORECAST_KEYS = {
    "gaussian": {"kind", "mu", "sigma"},
    "pointmass": {"kind", "loc"},
    "empirical": {"kind", "samples"},
}
_REFERENCE_RULE_KEYS = {"inferential": {"kind"}, "predictive": {"kind"}, "general_bayes": {"kind", "rate"}}
_REFERENCE_CONFIG_KEYS = {"seed", "truth", "models", "horizon", "rules", "a", "replications"}


def _reference_unknown_keys(obj: dict, allowed, what: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError(f"{what}: unknown keys {unknown}")


def _reference_required(obj: dict, key: str, what: str):
    if key not in obj:
        raise ValueError(f"{what}: missing key {key!r}")
    return obj[key]


def _reference_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what}: must be a number, got {value!r}")
    return float(value)


def reference_forecast_from_json(obj):
    if not isinstance(obj, dict):
        raise ValueError(f"cannot parse forecast literal: {obj!r}")
    kind = _reference_required(obj, "kind", "forecast literal")
    what = f"{kind} forecast literal"
    if kind in _REFERENCE_FORECAST_KEYS:
        _reference_unknown_keys(obj, _REFERENCE_FORECAST_KEYS[kind], what)

    def param(key):
        return _reference_number(_reference_required(obj, key, what), f"{what}: {key}")

    if kind == "gaussian":
        mu, sigma = param("mu"), param("sigma")
        if not (math.isfinite(mu) and math.isfinite(sigma)):
            raise ValueError("gaussian parameters must be finite")
        if sigma <= 0.0:
            raise ValueError("sigma must be positive")
        return Gaussian(mu, sigma)
    if kind == "pointmass":
        loc = param("loc")
        if not math.isfinite(loc):
            raise ValueError("point-mass location must be finite")
        return PointMass(loc)
    if kind == "empirical":
        samples = _reference_required(obj, "samples", what)
        if not isinstance(samples, list):
            raise ValueError(f"{what}: samples: must be a list of numbers, got {samples!r}")
        return Empirical([_reference_number(v, f"{what}: samples") for v in samples])
    raise ValueError(f"unknown forecast kind: {kind!r}")


def reference_model_from_json(obj) -> ModelSpec:
    if not isinstance(obj, dict):
        raise ValueError(f"cannot parse model literal: {obj!r}")
    what = f"model literal {obj.get('label')!r}"
    _reference_unknown_keys(obj, {"label", "forecast"}, what)
    label = _reference_required(obj, "label", what)
    forecast = reference_forecast_from_json(_reference_required(obj, "forecast", what))
    if not isinstance(label, str):
        raise ValueError(f"model label: must be a string, got {label!r}")
    if not label:
        raise ValueError("model label must be non-empty")
    if any(c in label for c in ',"\r\n\x00'):
        raise ValueError(f"model label {label!r}: must not contain a comma, a double quote, a line break or a NUL")
    return ModelSpec(label, forecast)


def reference_rule_from_json(obj) -> UpdateRule:
    if isinstance(obj, str):
        obj = {"kind": obj}
    elif not isinstance(obj, dict):
        raise ValueError(f"cannot parse rule literal: {obj!r}")
    kind = _reference_required(obj, "kind", "rule literal")
    if kind not in _REFERENCE_RULE_KEYS:
        raise ValueError(f"unknown rule kind: {kind!r}")
    _reference_unknown_keys(obj, _REFERENCE_RULE_KEYS[kind], f"{kind} rule literal")
    if kind != "general_bayes":
        return UpdateRule(RuleKind(kind))
    if obj.get("rate") is None:
        raise ValueError("general_bayes rule literal needs a 'rate'")
    return UpdateRule.general_bayes(_reference_number(obj["rate"], "general_bayes rule literal: rate"))


def reference_config_from_json(obj) -> ExperimentConfig:
    """``ExperimentConfig.from_json`` by the reference parser; the config's
    own constructor checks the rest."""
    what = "invalid experiment config"
    if not isinstance(obj, dict):
        raise ValueError(f"{what}: expected a JSON object, got {type(obj).__name__}")
    _reference_unknown_keys(obj, _REFERENCE_CONFIG_KEYS, what)

    def listed(key):
        value = _reference_required(obj, key, what)
        if not isinstance(value, list):
            raise ValueError(f"{what}: {key}: must be a list, got {value!r}")
        return value

    return ExperimentConfig(
        seed=_reference_required(obj, "seed", what),
        truth=reference_forecast_from_json(_reference_required(obj, "truth", what)),
        models=tuple(reference_model_from_json(m) for m in listed("models")),
        horizon=_reference_required(obj, "horizon", what),
        rules=tuple(reference_rule_from_json(r) for r in listed("rules")),
        a=obj.get("a", -1.0),
        replications=obj.get("replications", 1),
    )
