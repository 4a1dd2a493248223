"""The two updating rules and the conservative additive normalization.

Multiplicative route: posterior proportional to score times prior, rescaled
by the total (ratio-form updating).  It never zeroes a hypothesis whose
prior and score are positive.

Additive route: add scores to the prior, then renormalize with a single
additive constant, zeroing as few (and only the lowest) hypotheses as
possible.  Zeroing some hypotheses is usually unavoidable on this route,
and the minimal-constant normalization is the unique one that zeroes the
fewest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import ProbabilityVector, as_values, json_number
from .measures import LossValue, Mode, ModeMismatchError, ScoreVector, _shared_rate_losses


class UnderflowError(ArithmeticError):
    """Every posterior weight vanished in floating point."""


class RuleKind(Enum):
    INFERENTIAL = "inferential"
    PREDICTIVE = "predictive"
    GENERAL_BAYES = "general_bayes"


@dataclass(frozen=True)
class UpdateRule:
    """An updating rule choice; general-Bayes carries its learning rate."""

    kind: RuleKind
    learning_rate: float | None = None

    def __post_init__(self):
        if self.kind is RuleKind.GENERAL_BAYES:
            rate = None if self.learning_rate is None else json_number(self.learning_rate, "general-Bayes rule: rate")
            object.__setattr__(self, "learning_rate", rate)
            if rate is None or not (math.isfinite(rate) and rate > 0.0):
                raise ValueError(f"general-Bayes rule needs a positive, finite learning rate, got {rate!r}")
        elif self.learning_rate is not None:
            raise ValueError(f"{self.kind.value} rule takes no learning rate")

    @classmethod
    def inferential(cls) -> "UpdateRule":
        return cls(RuleKind.INFERENTIAL)

    @classmethod
    def predictive(cls) -> "UpdateRule":
        return cls(RuleKind.PREDICTIVE)

    @classmethod
    def general_bayes(cls, learning_rate: float) -> "UpdateRule":
        return cls(RuleKind.GENERAL_BAYES, learning_rate)

    @property
    def score_mode(self) -> Mode:
        return Mode.ADDITIVE if self.kind is RuleKind.PREDICTIVE else Mode.MULTIPLICATIVE


@dataclass(frozen=True)
class NormalizationResult:
    """Outcome of the additive normalization step.

    ``posterior[i]`` equals ``q[i] + d`` where the survivor mask ``keep`` is
    set and 0 elsewhere.  ``zeroed``, the indices outside ``keep``, is built
    on first access; ``m`` is their count.  ``==`` compares the values of
    ``posterior`` and ``d`` only, and the hash is consistent with it.
    """

    posterior: ProbabilityVector
    d: float
    keep: np.ndarray = field(repr=False)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.d == other.d and np.array_equal(self.posterior.values, other.posterior.values)

    def __hash__(self) -> int:
        return hash((self.d, len(self.posterior)))

    @cached_property
    def zeroed(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(~self.keep).tolist())

    @property
    def m(self) -> int:
        return int(self.keep.size - np.count_nonzero(self.keep))


def _require_mode(s: ScoreVector, mode: Mode, op: str) -> None:
    if s.mode is not mode:
        raise ModeMismatchError(f"{op} needs a {mode.value} score vector, got {s.mode.value}")


def _ratio_update(p: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Ratio-form update along the last axis: ``w = s*p; w / w.sum(-1)``.

    Works on any ``[..., n]`` pair of arrays; each row's denominator is
    numpy's pairwise sum of that row, as for a 1-d vector.  A denominator
    that is zero or not finite makes the update undefined and raises
    :class:`UnderflowError`.
    """
    w = s * p
    denom = w.sum(axis=-1, keepdims=True)
    ok = (denom > 0.0) & (denom < np.inf)
    if not ok.all():
        raise UnderflowError(f"posterior weights sum to {float(denom[~ok][0])!r}")
    return w / denom


def inferential_update(p: ProbabilityVector, s: ScoreVector) -> ProbabilityVector:
    """Multiplicative update: posterior[i] = s[i]*p[i] / sum_j s[j]*p[j].

    Keeps every hypothesis with positive prior at positive posterior (no
    hypothesis is ever conclusively ruled out).  The denominator uses
    numpy's pairwise summation; if it underflows to zero the update is
    undefined and :class:`UnderflowError` is raised.
    """
    _require_mode(s, Mode.MULTIPLICATIVE, "inferential_update")
    pv = p.values
    if pv.size != len(s):
        raise ValueError("prior and scores must have the same length")
    return ProbabilityVector._adopt(_ratio_update(pv, s.scores))


def combine_additive(p: ProbabilityVector, s: ScoreVector) -> np.ndarray:
    """Raw combined vector q = p + s (finite, unconstrained sum)."""
    _require_mode(s, Mode.ADDITIVE, "combine_additive")
    if len(p) != len(s):
        raise ValueError("prior and scores must have the same length")
    return p.values + s.scores


#: unit roundoff of float64
_EPS = 2.0**-53
#: rows at least this long try the candidate scan before the full sort
_CANDIDATE_MIN_N = 1 << 14
#: about this many entries, taken at a fixed stride, place the candidate cut
_SAMPLE_SIZE = 1 << 12


def _simplex_projection(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Euclidean projection of each row of q onto the probability simplex.

    ``q`` is any ``[..., n]`` float array; each slice along the last axis
    is projected on its own.  Returns ``(posterior, d, keep)``:
    ``posterior`` is ``q + d`` where the survivor mask ``keep`` is set and
    +0.0 elsewhere, and ``d`` has the shape of ``q`` without its last axis.

    Sort-and-threshold (Duchi et al. 2008; Condat 2016): sort the values
    descending as u, take the largest j whose entry stays strictly
    positive after adding d_j = (1 - c_j)/j, where c_j is the sequential
    prefix sum of u.  The prefix sums depend only on the sorted values, so
    survivors are then picked from q directly: every entry above the cut
    value u_j, then entries equal to it in index order until j are kept
    (the stable-sort tie rule).  The full scan costs O(n log n) per row.

    Rows of at least ``_CANDIDATE_MIN_N`` entries first try a candidate
    scan: the full scan of the k entries above a threshold t alone, placed
    from max(q) - 1 (a lower bound on the cut) and a strided sample of
    the row.  The candidates are the row's top k values, so their prefix
    sums c_1 ... c_k are the full scan's.  It is accepted only when no
    j > k can pass the full scan's test.  The full scan then ends at the
    same j, with the same d, cut, mask and posterior, bit for bit.

    The bound: let A_j be the exact prefix sums, S = sum |q|, eps = 2^-53
    and g = n eps / (1 - n eps).  Every excluded entry is at most t, so
    for j > k::

        A_j - j u_j = A_k - k u_j + sum_{k<i<=j} (u_i - u_j) >= A_k - k t.

    Let s be any computed sum of the k candidates: every summation order
    errs by at most g S, so A_k >= s - g S.  With |c_j - A_j| <= g S and
    two roundings in d_j::

        j (u_j + d_j) <= -(s - 1 - k t) + 2 g S + 2.1 eps (1 + S + g S),

    and the computed u_j + d_j has the sign of the exact one.  So no
    j > k passes when s - 1 - k t exceeds 2 g S + 2.1 eps (1 + S + g S).
    The scan asks, before it sorts, that numpy's sum s of the candidates
    give s - 1 - k t > 8 (n + 1) eps (1 + n max|q| + k |t|), more than
    twice that after the rounding of the check itself.  When the check
    fails for a row, or the sample puts more than an eighth of a row
    above t, the whole array takes the full sort: the library passes
    rows this long one at a time.

    The full scan of a row this long sorts it and takes its prefix sums,
    but evaluates the test only inside a bracket.  The exact value
    F_j = j (u_j + d_j) = j u_j + 1 - A_j is non-increasing in j, since
    F_{j+1} - F_j = j (u_{j+1} - u_j) <= 0.  The bound above with k = 0
    puts the computed j (u_j + d_j) within E = g S + 2.1 eps (1 + S + g S)
    of F_j, and the probe fl(j fl(d_j - w_j)) adds two roundings that keep
    its sign.  With n eps < 1/8, B = 8 (n + 1) eps (1 + n max|q|), the
    candidate scan's bound at k = 0, exceeds 3 E.  So a probe above B
    passes the test, and a probe below -B at j gives F_j < -E, hence
    F_i < -E and a failing test at every i >= j.  One bisection keeps a
    passing j (j = 1 passes by definition), the other a j from which
    every test fails; the scan's end lies between them, and the test is
    evaluated there alone.  The bracket holds the j whose F_j is within
    about B of 0: one or two in a row of distinct values, a run of ties
    whose F_j is near 0, the whole row where B exceeds every |F_j| (as at
    an offset of 1e15).  An overflowed prefix sum stays infinite to the
    end of the row, so a finite last prefix sum rules overflow out; when
    it is not finite the bracket is the whole row.
    """
    shape = q.shape
    n = shape[-1]
    q = q.reshape(-1, n)
    if n < _CANDIDATE_MIN_N:
        if not np.isfinite(q).all():
            raise ValueError("entries must be finite")
        posterior, d, keep = _sort_scan(q)
    else:
        posterior, d, keep = _long_rows(q)
    return posterior.reshape(shape), d.reshape(shape[:-1]), keep.reshape(shape)


def _sort_scan(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The full sort-and-threshold scan of every row of a 2-d ``q``.

    Sorts -q ascending, so that w = -u: negation is exact and commutes
    with rounding, so 1 + cumsum(w) is 1 - c bit for bit, and
    ``d_j > w_j`` is the sign of u_j + d_j.  A row of at least
    ``_CANDIDATE_MIN_N`` entries evaluates the test only inside its
    :func:`_bracket`.
    """
    n = q.shape[-1]
    w = np.negative(q)
    w.sort(-1)
    c = w.cumsum(-1)
    if n < _CANDIDATE_MIN_N:
        last = _scan_ends(w, c)
    else:
        last = np.empty(len(q), dtype=np.intp)
        for r in range(len(q)):
            lo, hi = _bracket(w[r], c[r])
            last[r] = _scan_ends(w[r : r + 1, lo:hi], c[r : r + 1, lo:hi], lo)[0]
    return _finish(q, w, c, last)


def _scan_ends(w: np.ndarray, c: np.ndarray, start: int = 0) -> np.ndarray:
    """The last position of each row where the scan's test passes.

    ``w`` and ``c`` are columns ``start, start + 1, ...`` of the sorted
    negated rows and of their prefix sums; the test is taken to pass at
    the first column (it does at ``start``, or is forced at position 0,
    where u1 + (1 - u1) = 1 > 0 identically).  ``c`` is overwritten with
    d for each prefix length.
    """
    m = w.shape[-1]
    shift = c
    shift += 1.0
    shift /= np.arange(start + 1.0, start + m + 1.0)
    cond = shift > w
    cond[:, 0] = True
    return start + (m - 1) - cond[:, ::-1].argmax(-1)


def _bracket(w: np.ndarray, c: np.ndarray) -> tuple[int, int]:
    """Positions ``lo < hi`` of one sorted negated row ``w``, with prefix
    sums ``c``, such that the scan's test passes at ``lo`` and fails at
    every position from ``hi`` on (proved in :func:`_simplex_projection`).

    Two bisections on the computed ``j (u_j + d_j)`` against the bound B
    of the candidate scan at k = 0: the lower keeps a position whose value
    exceeds B (or position 0), the upper one whose value is below -B (or
    n).  Where B exceeds every |F_j|, as at an offset of 1e15, the bracket
    is the whole row.
    """
    n = w.size
    if not math.isfinite(c[-1]):  # a prefix sum overflowed: no bound holds
        return 0, n
    bound = _bound(n, max(-w.item(0), w.item(-1)), 0, 0.0)

    def margin(p: int) -> float:
        j = p + 1.0
        return j * ((c.item(p) + 1.0) / j - w.item(p))

    lo, hi = 0, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if margin(mid) > bound:
            lo = mid
        else:
            hi = mid
    top, hi = lo, n
    while hi - top > 1:
        mid = (top + hi) // 2
        if margin(mid) < -bound:
            hi = mid
        else:
            top = mid
    return lo, hi


def _finish(q: np.ndarray, w: np.ndarray, shift: np.ndarray, last: np.ndarray):
    """The projection of the rows of ``q`` whose scans end at ``last``:
    d, cut, survivor mask, tie split and the posterior, which is written
    into ``shift``, the buffer that holds d at each row's ``last``."""
    n = q.shape[-1]
    at = np.arange(0, q.size, n) + last
    d = shift.take(at)
    cut = -w.take(at)
    keep = q >= cut[:, None]
    if np.count_nonzero(keep) != last.sum() + len(last):
        # more entries reach the cut than the prefixes hold: a tie is split
        # at the cut, and its highest-index entries go
        extra = keep.sum(-1) - (last + 1)
        for r in np.flatnonzero(extra).tolist():
            keep[r, np.flatnonzero(q[r] == cut[r])[-extra[r]:]] = False
    posterior = np.add(q, d[:, None], out=shift)
    posterior *= keep
    posterior += 0.0  # a dropped entry is (q + d) * 0, which may be -0.0
    return posterior, d, keep


def _long_rows(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project the rows of a 2-d ``q`` by the candidate scan, or all of
    them by the full scan once the candidate scan refuses a row."""
    hi, lo = q.max(-1), q.min(-1)  # a NaN or an infinity reaches one of them
    if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
        raise ValueError("entries must be finite")
    scans = []
    for row, h, m_inf in zip(q, hi.tolist(), np.maximum(hi, -lo).tolist()):
        t = _candidate_threshold(row, h, m_inf)
        scans.append(None if t is None else _candidate_scan(row, t, m_inf))
        if scans[-1] is None:
            return _sort_scan(q)
    posterior = np.zeros(q.shape)
    d = np.empty(len(q))
    keep = np.zeros(q.shape, dtype=bool)
    for r, (kept, values, d[r]) in enumerate(scans):
        posterior[r, kept] = values
        keep[r, kept] = True
    return posterior, d, keep


def _bound(n: int, m_inf: float, k: int, t: float) -> float:
    """What the candidate scan's ``s - 1 - k t`` must exceed (see
    :func:`_simplex_projection`); ``n m_inf`` bounds sum |q|."""
    return 8.0 * (n + 1) * _EPS * (1.0 + n * m_inf + k * abs(t))


def _candidate_threshold(row: np.ndarray, hi: float, m_inf: float) -> float | None:
    """A threshold for the candidate scan of ``row``, or None when a strided
    sample suggests that more than an eighth of the row lies above it.

    ``hi`` is the row's maximum and ``m_inf`` its largest magnitude.  The
    threshold is the higher of two: max(q) - 1 lowered by four times the
    bound, and the highest sample value t at which the sample, scaled to
    the row, estimates sum_{q > t} (q - t) above 4 (1 + bound).
    """
    n = row.size
    slack = 4.0 * _bound(n, m_inf, 0, 0.0)
    t = hi - 1.0 - slack
    sample = np.sort(row[:: n // _SAMPLE_SIZE])[::-1]
    scale = n / sample.size
    mass = scale * (sample.cumsum() - sample * np.arange(1.0, sample.size + 1.0))
    j = int(np.argmax(mass > 4.0 + slack))
    if mass[j] > 4.0 + slack:
        t = max(t, float(sample[j]))
    if np.count_nonzero(sample > t) * scale > n / 8:
        return None
    return t


def _candidate_scan(row: np.ndarray, t: float, m_inf: float):
    """The scan of one row over its entries above ``t`` alone.

    Returns ``(kept, values, d)``: the survivors' indices, their posterior
    values and the shift; or None when the bound of
    :func:`_simplex_projection` does not prove that the full scan ends
    within the candidates (as when there are none: the sum is then 0).
    ``m_inf`` is at least max |row|.
    """
    idx = np.flatnonzero(row > t)
    vals = row[idx]
    k = idx.size
    if not (float(vals.sum()) - 1.0) - k * t > _bound(row.size, m_inf, k, t):
        return None
    posterior, d, keep = _sort_scan(vals[None])
    return idx[keep[0]], posterior[0, keep[0]], float(d[0])


def conservative_normalize(q) -> NormalizationResult:
    """Renormalize a raw vector by the minimal additive constant.

    Finds the unique posterior of the form ``max(q + d, 0)`` on the largest
    possible support, which is the Euclidean projection of q onto the
    simplex.  Minimizing the number of zeroed entries and minimizing d
    coincide.  Runs in O(n log n).

    Entries landing exactly on zero are reported as zeroed.  Equal entries
    at the threshold are kept in index order (lower index survives first).
    Only rounding can split a tied pair (the survivor then sits a rounding
    error above zero), so this fixes the reported bookkeeping, not the
    posterior.
    """
    posterior, d, keep = _simplex_projection(as_values(q))
    keep.flags.writeable = False
    return NormalizationResult(ProbabilityVector._adopt(posterior), float(d), keep)


def predictive_update(p: ProbabilityVector, s: ScoreVector) -> NormalizationResult:
    """Additive update: combine scores with the prior, then conservatively normalize.

    The prior may contain zeros: a hypothesis zeroed earlier re-enters if
    later evidence lifts its combined value above the cut.
    """
    return conservative_normalize(combine_additive(p, s))


def general_bayes_update(p: ProbabilityVector, losses: Sequence[LossValue]) -> ProbabilityVector:
    """Loss-based update: posterior[i] proportional to exp(-rate*L[i]) * p[i].

    Equals :func:`inferential_update` with :func:`~credal.measures.exp_loss_score`
    scores, bit for bit.  The scores go to the kernel without a
    :class:`~credal.measures.ScoreVector`, which rejects a score that
    underflowed to zero, so an update whose weights all vanish raises
    :class:`UnderflowError`.
    """
    rate, values = _shared_rate_losses(losses)
    pv = p.values
    if pv.size != values.size:
        raise ValueError("prior and losses must have the same length")
    return ProbabilityVector._adopt(_ratio_update(pv, np.exp(-rate * values)))


def _trajectory(kind: RuleKind, p0: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Fold scores ``[..., T, n]`` through a rule from the prior ``p0``
    ``[..., n]``, along the last axis.

    Returns the weights ``[..., T + 1, n]``: slot 0 holds the prior, slot
    t the posterior after step t.  The predictive rule projects ``p + s``
    onto the simplex; the ratio-form rules (inferential, and general-Bayes
    with exponentiated losses as scores) rescale ``s * p``.  Every row is
    folded bit for bit as it would be on its own.
    """
    weights = np.empty(scores.shape[:-2] + (scores.shape[-2] + 1, scores.shape[-1]))
    weights[..., 0, :] = p0
    for t in range(scores.shape[-2]):
        p, s = weights[..., t, :], scores[..., t, :]
        if kind is RuleKind.PREDICTIVE:
            weights[..., t + 1, :] = _simplex_projection(p + s)[0]
        else:
            weights[..., t + 1, :] = _ratio_update(p, s)
    return weights


def sequential_update(
    p0: ProbabilityVector, stream: Sequence[ScoreVector], rule: UpdateRule
) -> list[ProbabilityVector]:
    """Fold a stream of score vectors through a rule, returning the trajectory.

    The result has length ``len(stream) + 1`` and starts at ``p0`` itself;
    the other entries are the rows of one :func:`_trajectory` call.  Every
    stream entry must carry the mode the rule expects (multiplicative for
    the ratio-form rules, additive for the predictive rule) and the prior's
    length; both are checked, naming the step, before any update runs.
    """
    n, stream = len(p0), list(stream)
    for step, s in enumerate(stream):
        if s.mode is not rule.score_mode:
            raise ModeMismatchError(
                f"step {step}: {rule.kind.value} rule needs {rule.score_mode.value} "
                f"scores, got {s.mode.value}"
            )
        if len(s) != n:
            raise ValueError(f"step {step}: prior and scores must have the same length, got {n} and {len(s)}")
    scores = np.array([s.scores for s in stream]).reshape(len(stream), n)
    weights = _trajectory(rule.kind, p0.values, scores)
    weights.flags.writeable = False
    return [p0] + [ProbabilityVector._adopt(row) for row in weights[1:]]
