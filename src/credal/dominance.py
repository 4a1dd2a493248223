"""Accuracy dominance at desk scale: divergence, simplex projection, certificates.

The ideal credibility function is a vertex of the simplex (probability 1 on
the best hypothesis).  A candidate is dominated when some other function is
strictly closer to every vertex.  Both answers are exact closed forms:
non-probabilistic vectors are dominated by their Euclidean projection onto
the simplex, and a probabilistic vector is undominated with itself as the
certificate, since its weights average every rival's per-vertex gaps to
minus the squared distance between the two.
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
    divergence(dominator, vertex j).  A dominated report carries a
    dominator and non-negative gaps: the exact gaps are all strictly
    positive, but a computed one can round to 0.0, e.g. when the
    candidate's distance from the simplex is so small that its square
    underflows.

    An undominated report carries no dominator and all-zero gaps (the
    candidate against itself).  Its certificate is the candidate ``c``
    itself, so the report holds no copy of it: for any rival ``c'`` with
    gaps ``gap_j(c') = divergence(c, e_j) - divergence(c', e_j)``,
    ``sum_j c_j gap_j(c') = -|c - c'|^2 + delta (|c|^2 - |c'|^2)`` where
    ``sum(c) = 1 + delta``.  At ``delta = 0`` the weighted sum is
    ``-|c - c'|^2 <= 0``, so no ``c'`` is closer to every vertex.
    """

    dominated: bool
    dominator: ProbabilityVector | None
    per_vertex_gap: np.ndarray

    def __post_init__(self):
        self._seal(np.array(self.per_vertex_gap, dtype=float))  # the caller's array stays its own

    @classmethod
    def _adopt(cls, dominated: bool, dominator: ProbabilityVector | None, gaps: np.ndarray) -> "DominanceReport":
        """A report on float64 gaps that no one else holds, without copying
        them; the checks of the constructor run, and ``gaps`` becomes read-only."""
        self = cls.__new__(cls)
        object.__setattr__(self, "dominated", dominated)
        object.__setattr__(self, "dominator", dominator)
        self._seal(gaps)
        return self

    def _seal(self, gaps: np.ndarray) -> None:
        gaps.flags.writeable = False
        object.__setattr__(self, "per_vertex_gap", gaps)
        if self.dominated and (self.dominator is None or not np.all(gaps >= 0.0)):
            raise ValueError("a dominated report requires a dominator and non-negative gaps")

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
    return ProbabilityVector._adopt(_simplex_projection(as_values(v))[0])


def verify_dominance(c, eps: float = DEFAULT_EPS) -> DominanceReport:
    """Check whether a credibility vector is accuracy-dominated, in closed form.

    Non-probabilistic input is dominated, by the theorem above: its simplex
    projection ``p`` is returned as the dominator.  With the projection's
    shift ``d`` and its ``k`` survivors, the per-vertex gaps are ``k d^2 +
    sum_{i not kept} c_i^2 + 2 max(0, -(c_j + d))``: every term is
    non-negative and the exact sum is strictly positive unless ``c`` already
    lies on the simplex, so no difference of nearly equal terms is taken.
    The decision does not read the computed gaps, which can underflow to
    0.0 (``[0.5, 0.5, -1e-170]`` has gaps ``[0, 0, 2e-170]``).

    Probabilistic input (entries non-negative, ``sum(c) = 1 + delta`` with
    ``|delta| <= eps``): ``dominated=False`` with no dominator and zero
    gaps, in O(n).  The certificate is ``c`` itself (Predd et al. 2009):
    ``sum_j c_j gap_j(c') = -|c - c'|^2 + delta (|c|^2 - |c'|^2)`` for any
    ``c'``, so at ``delta = 0`` no ``c'`` is strictly closer to every
    vertex, and otherwise none is closer to every vertex by more than
    ``(delta |c| / (1 + delta))^2``.

    ``eps`` must be non-negative; a negative or NaN ``eps`` raises
    ``ValueError``.
    """
    cv = as_values(c)
    if is_probabilistic(cv, eps):
        return DominanceReport._adopt(False, None, np.zeros(cv.size))
    posterior, d, keep = _simplex_projection(cv)
    dropped = cv[~keep]
    offset = np.count_nonzero(keep) * d * d + np.dot(dropped, dropped)
    # (k d d + dropped.dropped) + 2 max(0, -(c + d)) in place: -2 min(c + d, 0)
    # has the same bits but for -0.0 where c + d > 0, which adding the
    # offset (never -0.0) turns into the same sum
    gaps = np.add(cv, d)
    np.minimum(gaps, 0.0, out=gaps)
    gaps *= -2.0
    gaps += offset
    return DominanceReport._adopt(True, ProbabilityVector._adopt(posterior), gaps)
