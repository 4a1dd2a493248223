"""Accuracy dominance at desk scale: divergence, simplex projection, search.

The ideal credibility function is a vertex of the simplex (probability 1 on
the best hypothesis).  A candidate is dominated when some other function is
strictly closer to every vertex.  Non-probabilistic vectors are always
dominated by their Euclidean projection onto the simplex; for probabilistic
vectors a seeded randomized search looks for a dominator and is expected to
find none (evidence, not proof).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_EPS, ProbabilityVector, as_values, is_probabilistic
from .updating import _simplex_projection


@dataclass(frozen=True)
class DominanceReport:
    """Outcome of a dominance check.

    ``per_vertex_gap[j]`` is divergence(candidate, vertex j) minus
    divergence(dominator, vertex j); all gaps are strictly positive exactly
    when the candidate is dominated.  When no dominator was found the gaps
    reported are those of the best candidate tried.
    """

    dominated: bool
    dominator: ProbabilityVector | None
    per_vertex_gap: np.ndarray

    def __post_init__(self):
        gaps = np.asarray(self.per_vertex_gap, dtype=float)
        gaps.flags.writeable = False
        object.__setattr__(self, "per_vertex_gap", gaps)
        if self.dominated and not np.all(gaps > 0.0):
            raise ValueError("a dominated report requires strictly positive gaps")

    def to_json(self) -> dict:
        return {
            "dominated": self.dominated,
            "dominator": None if self.dominator is None else self.dominator.values.tolist(),
            "per_vertex_gap": self.per_vertex_gap.tolist(),
        }


def divergence(a, b) -> float:
    """Squared Euclidean divergence between two vectors: sum((a-b)^2)."""
    av, bv = as_values(a), as_values(b)
    if av.size != bv.size:
        raise ValueError("vectors must have the same length")
    if not (np.all(np.isfinite(av)) and np.all(np.isfinite(bv))):
        raise ValueError("entries must be finite")
    diff = av - bv
    return float(np.dot(diff, diff))


def project_to_simplex(v) -> ProbabilityVector:
    """Euclidean projection onto the probability simplex.

    The same map as the additive rule's conservative normalization
    (:func:`credal.updating.conservative_normalize`), computed by the same
    kernel; only the projected vector is returned.
    """
    return ProbabilityVector(_simplex_projection(v)[0])


def _gaps_against_vertices(c: np.ndarray, p: np.ndarray) -> np.ndarray:
    # divergence to vertex j expands to sum(v^2) - 2*v[j] + 1; the +1 cancels
    return (float(np.dot(c, c)) - 2.0 * c) - (float(np.dot(p, p)) - 2.0 * p)


def verify_dominance(
    c,
    eps: float = DEFAULT_EPS,
    n_perturbations: int = 10_000,
    seed: int = 0,
) -> DominanceReport:
    """Check whether a credibility vector is accuracy-dominated.

    Non-probabilistic input: its simplex projection is returned as the
    dominator together with the per-vertex gaps, all of which are strictly
    positive (projection onto a convex set never moves farther from any of
    its points, and here it moves strictly closer).

    Probabilistic input: a seeded randomized search over perturbed and
    fresh candidates looks for a dominator.  Finding none reports
    ``dominated=False`` with the gaps of the best candidate tried; this is
    sampled evidence of undominatedness, not a proof.
    """
    cv = as_values(c)
    if not is_probabilistic(cv, eps):
        dominator = project_to_simplex(cv)
        gaps = _gaps_against_vertices(cv, dominator.values)
        return DominanceReport(bool(np.all(gaps > 0.0)), dominator, gaps)

    rng = np.random.default_rng(seed)
    n = cv.size
    half = n_perturbations // 2
    scales = np.array([1e-3, 1e-2, 1e-1, 0.5])
    noise = rng.standard_normal((half, n)) * scales[rng.integers(0, scales.size, (half, 1))]
    candidates = np.vstack(
        [np.clip(cv + noise, 0.0, 1.0), rng.uniform(0.0, 1.0, (n_perturbations - half, n))]
    )
    base = float(np.dot(cv, cv)) - 2.0 * cv
    gaps_all = base[None, :] - (np.sum(candidates * candidates, axis=1)[:, None] - 2.0 * candidates)
    min_gaps = gaps_all.min(axis=1)
    best = int(np.argmax(min_gaps))
    if min_gaps[best] > 0.0:
        # a dominating candidate's projection dominates at least as strictly
        dominator = project_to_simplex(candidates[best])
        gaps = _gaps_against_vertices(cv, dominator.values)
        if np.all(gaps > 0.0):
            return DominanceReport(True, dominator, gaps)
    return DominanceReport(False, None, gaps_all[best])
