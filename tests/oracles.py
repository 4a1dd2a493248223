"""Independent reference implementations the library is checked against.

None is used by the library itself: the enumeration oracle tries every
zero count directly, the Michelot projection reaches the same map by
an active-set iteration instead of a sort-and-threshold scan, and the
mixture CRPS is estimated by sampling instead of the pairwise closed form.
"""

import math

import numpy as np

from credal import NormalizationResult, ProbabilityVector
from credal.core import as_values
from credal.measures import sample_forecast


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
            zeroed = frozenset(int(i) for i in order[n - m :])
            return NormalizationResult(ProbabilityVector(posterior), d, zeroed, m)
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
