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

from .core import DEFAULT_EPS, ProbabilityVector, as_values, json_number
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


def _paired(p: ProbabilityVector, s: ScoreVector, mode: Mode, op: str) -> tuple[np.ndarray, np.ndarray]:
    """``p.values`` and ``s.scores``, once ``s`` is found to have ``mode`` and ``p``'s length."""
    if s.mode is not mode:
        raise ModeMismatchError(f"{op} needs a {mode.value} score vector, got {s.mode.value}")
    if len(p) != len(s):
        raise ValueError("prior and scores must have the same length")
    return p.values, s.scores


def _ratio_update(p: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Ratio-form update of two 1-d vectors: ``w = s*p; w / w.sum()``.

    The denominator is numpy's pairwise sum.  Where it overflows, a
    product or the sum, the weights are taken again as ``(s/2)*p`` and
    summed: a prior entry is at most 1 + ``DEFAULT_EPS`` and the prior sums
    to at most that, so neither these products nor their sum overflow, and
    a power of two changes no ratio.  A sum of zero makes the update
    undefined and raises :class:`UnderflowError`.  The weights are divided
    in place, so the result is the only array made of the inputs' size.
    """
    with np.errstate(over="ignore"):
        w = s * p
        denom = float(w.sum())
    if denom == math.inf:
        np.multiply(s, 0.5, out=w)
        w *= p
        denom = float(w.sum())
    if not 0.0 < denom < math.inf:
        raise UnderflowError(f"posterior weights sum to {denom!r}")
    w /= denom
    return w


def inferential_update(p: ProbabilityVector, s: ScoreVector) -> ProbabilityVector:
    """Multiplicative update: posterior[i] = s[i]*p[i] / sum_j s[j]*p[j].

    Keeps every hypothesis with positive prior at positive posterior (no
    hypothesis is ever conclusively ruled out).  The denominator uses
    numpy's pairwise summation; if it underflows to zero the update is
    undefined and :class:`UnderflowError` is raised.
    """
    return ProbabilityVector._adopt(_ratio_update(*_paired(p, s, Mode.MULTIPLICATIVE, "inferential_update")))


def combine_additive(p: ProbabilityVector, s: ScoreVector) -> np.ndarray:
    """Raw combined vector q = p + s (finite, unconstrained sum)."""
    pv, sv = _paired(p, s, Mode.ADDITIVE, "combine_additive")
    return pv + sv


#: unit roundoff of float64
_EPS = 2.0**-53
#: rows at least this long try the candidate scan before the full sort
_CANDIDATE_MIN_N = 1 << 14
#: about this many entries, taken at a fixed stride, place the candidate cut
_SAMPLE_SIZE = 1 << 12


class _ScanWork:
    """The buffers of :func:`_sort_scan` for ``rows`` rows of ``n`` entries.

    ``w`` and ``c`` hold the sorted negated rows and their prefix sums
    (then d), ``keep`` the survivor mask, and ``d``, ``cut``, ``last`` and
    ``at`` one value per row, ``d_col`` and ``cut_col`` being ``d`` and
    ``cut`` as columns; ``starts`` is each row's flat offset.  Rows shorter
    than ``_CANDIDATE_MIN_N`` also have ``ranks``, the prefix lengths
    1 ... n, the views ``w_tail``, ``c_tail`` and ``test_tail`` of columns
    1 ... n - 1 of ``w``, ``c`` and the scan's test, whose column 0 is set
    once (the test passes there by definition), the test reversed as
    ``test_rev``, and ``ends``, each row's last flat index.  Longer rows
    evaluate the test in windows of their bracket and have none of these.
    """

    __slots__ = (
        "starts", "w", "c", "keep", "d", "cut", "last", "at", "d_col", "cut_col",
        "ranks", "w_tail", "c_tail", "test_tail", "test_rev", "ends",
    )

    def __init__(self, rows: int, n: int):
        self.starts = np.arange(0, rows * n, n)
        self.w, self.c = np.empty((rows, n)), np.empty((rows, n))
        self.keep = np.empty((rows, n), dtype=bool)
        self.d, self.cut = np.empty(rows), np.empty(rows)
        self.last, self.at = np.empty(rows, dtype=np.intp), np.empty(rows, dtype=np.intp)
        self.d_col, self.cut_col = self.d[:, None], self.cut[:, None]
        self.ranks = self.w_tail = self.c_tail = self.test_tail = self.test_rev = self.ends = None
        if n < _CANDIDATE_MIN_N:
            test = np.empty((rows, n), dtype=bool)
            test[:, 0] = True
            self.ranks = np.arange(1.0, n + 1.0)
            self.w_tail, self.c_tail = self.w[:, 1:], self.c[:, 1:]
            self.test_tail, self.test_rev = test[:, 1:], test[:, ::-1]
            self.ends = self.starts + (n - 1)


def _sort_scan(
    q: np.ndarray, work: _ScanWork | None = None, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The full sort-and-threshold scan of every row of a 2-d ``q``.

    Sorts -q ascending, so that w = -u: negation is exact and commutes
    with rounding, so 1 + cumsum(w) is 1 - c bit for bit, and
    ``d_j > w_j`` is the sign of u_j + d_j.  The prefix sums become d at
    each prefix length in place, and a row's scan ends at the last
    position where the test passes.  It passes at position 0 by
    definition, where u1 + (1 - u1) = 1 > 0 identically.  A row of at
    least ``_CANDIDATE_MIN_N`` entries evaluates the test only inside its
    :func:`_bracket`, where it passes at the first position.  The end
    gives d, the cut and the survivor mask; the posterior is q + d on the
    mask and +0.0 elsewhere.

    ``work`` is a :class:`_ScanWork` for q's shape, or None for a fresh
    one.  The posterior is written into ``out``, or into the prefix-sum
    buffer ``work.c`` when ``out`` is None, and the returned ``d`` and
    ``keep`` are ``work.d`` and ``work.keep``.  So a caller that passes the
    same ``work`` and its own ``out`` on every call allocates nothing, and
    each call overwrites the last call's ``d`` and ``keep``.
    """
    work = _ScanWork(*q.shape) if work is None else work
    w = np.negative(q, work.w)
    w.sort(-1)
    c = np.add.accumulate(w, 1, None, work.c)  # the bits of cumsum, for less fixed cost
    last, at = work.last, work.at
    if work.ranks is not None:
        c += 1.0
        c /= work.ranks
        np.greater(work.c_tail, work.w_tail, work.test_tail)
        work.test_rev.argmax(-1, last)  # each row's end, counted back from its last entry
        np.subtract(work.ends, last, at)
        survivors = c.size - sum(last.tolist())
    else:
        for r in range(len(q)):
            lo, hi = _bracket(w[r], c[r])
            window = c[r, lo:hi]
            window += 1.0
            window /= np.arange(lo + 1.0, hi + 1.0)
            test = np.greater(window, w[r, lo:hi])
            test[0] = True
            last[r] = hi - 1 - int(test[::-1].argmax())
        np.add(work.starts, last, at)
        survivors = int(last.sum()) + len(last)
    # every index is in range, so "clip" changes none; it lets take write
    # into a given out without buffering
    d = c.take(at, None, work.d, "clip")
    cut = w.take(at, None, work.cut, "clip")
    np.negative(cut, cut)
    keep = np.greater_equal(q, work.cut_col, work.keep)
    if np.count_nonzero(keep) != survivors:
        # more entries reach the cut than the prefixes hold: a tie is split
        # at the cut, and its highest-index entries go
        extra = keep.sum(-1) - (at - work.starts + 1)
        for r in np.flatnonzero(extra).tolist():
            keep[r, np.flatnonzero(q[r] == cut[r])[-extra[r]:]] = False
    posterior = np.add(q, work.d_col, c if out is None else out)
    posterior *= keep
    posterior += 0.0  # a dropped entry is (q + d) * 0, which may be -0.0
    return posterior, d, keep


def _bracket(w: np.ndarray, c: np.ndarray) -> tuple[int, int]:
    """Positions ``lo < hi`` of one sorted negated row ``w``, with prefix
    sums ``c``, such that the scan's test passes at ``lo`` and fails at
    every position from ``hi`` on (proved in :func:`_project_rows`).

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


def _project_rows(q: np.ndarray, work: _ScanWork | None = None, out: np.ndarray | None = None):
    """Euclidean projection of each row of a 2-d ``q`` onto the simplex.

    Returns ``(posterior, d, keep)``: ``posterior`` is ``q + d`` where the
    survivor mask ``keep`` is set and +0.0 elsewhere, and ``d`` holds one
    value per row.  ``work`` and ``out`` are :func:`_sort_scan`'s, given
    together or not at all.  Rows shorter than ``_CANDIDATE_MIN_N`` go to
    :func:`_sort_scan` unchecked: a NaN or an infinity leaves a NaN in its
    row's posterior.  Longer rows, whose entries must be finite, try the
    candidate scan below, and all take the full scan once it refuses one.

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
    above t, the whole stack takes the full sort.

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
    if q.shape[-1] < _CANDIDATE_MIN_N:
        return _sort_scan(q, work, out)
    hi, lo = q.max(-1), q.min(-1)  # a NaN or an infinity reaches one of them
    if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
        raise ValueError("entries must be finite")
    scans = []
    for row, h, m_inf in zip(q, hi.tolist(), np.maximum(hi, -lo).tolist()):
        t = _candidate_threshold(row, h, m_inf)
        scans.append(None if t is None else _candidate_scan(row, t, m_inf))
        if scans[-1] is None:
            return _sort_scan(q, work, out)
    if work is None:
        out, d, keep = np.zeros(q.shape), np.empty(len(q)), np.zeros(q.shape, dtype=bool)
    else:  # the buffers hold the last call's projection
        out.fill(0.0)
        work.keep.fill(False)
        d, keep = work.d, work.keep
    for r, (kept, values, d[r]) in enumerate(scans):
        out[r, kept] = values
        keep[r, kept] = True
    return out, d, keep


def _bound(n: int, m_inf: float, k: int, t: float) -> float:
    """What the candidate scan's ``s - 1 - k t`` must exceed (see
    :func:`_project_rows`); ``n m_inf`` bounds sum |q|."""
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
    :func:`_project_rows` does not prove that the full scan ends
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
    coincide.  Runs in O(n log n): ``q`` is the one row of
    :func:`_project_rows`, which proves its bits.

    Entries landing exactly on zero are reported as zeroed.  Equal entries
    at the threshold are kept in index order (lower index survives first).
    Only rounding can split a tied pair (the survivor then sits a rounding
    error above zero), so this fixes the reported bookkeeping, not the
    posterior.
    """
    q = as_values(q, "q")
    if q.size < _CANDIDATE_MIN_N and not np.isfinite(q).all():
        raise ValueError("entries must be finite")
    posterior, d, keep = _project_rows(q[None])
    keep = keep[0]
    keep.flags.writeable = False
    return NormalizationResult(ProbabilityVector._adopt(posterior[0]), float(d[0]), keep)


def predictive_update(p: ProbabilityVector, s: ScoreVector) -> NormalizationResult:
    """Additive update: combine scores with the prior, then conservatively normalize.

    The prior may contain zeros: a hypothesis zeroed earlier re-enters if
    later evidence lifts its combined value above the cut.
    """
    return conservative_normalize(combine_additive(p, s))


def general_bayes_update(p: ProbabilityVector, losses: Sequence[LossValue]) -> ProbabilityVector:
    """Loss-based update: posterior[i] proportional to exp(-rate*L[i]) * p[i].

    Equals :func:`inferential_update` with :func:`~credal.measures.exp_loss_score`
    scores, bit for bit, wherever the weights ``exp(-rate*L[i]) * p[i]``
    sum to a normal float.  Where their sum is subnormal or 0.0, as at
    losses 800 and 801 with rate 1, the scores are taken from the losses
    less the smallest loss on a positive prior, which leaves the exact
    posterior as it is and gives that hypothesis a score of 1, so its
    weight is its prior and the weights never all vanish.  A loss below
    it, which only a zero prior carries, takes a score of 1 too.
    """
    rate, values = _shared_rate_losses(losses)
    pv = p.values
    if pv.size != values.size:
        raise ValueError("prior and losses must have the same length")
    with np.errstate(over="ignore"):  # an infinite product scores exp(-inf) = 0
        scores = np.exp(-rate * values)
        if (scores * pv).sum() < np.finfo(float).tiny:
            scores = np.exp(-rate * np.maximum(values - values[pv > 0.0].min(), 0.0))
    return ProbabilityVector._adopt(_ratio_update(pv, scores))


def _trajectory(
    kind: RuleKind, p0: np.ndarray, scores: np.ndarray, out: np.ndarray | None = None, log_out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Fold scores ``[..., T, n]`` through a rule from the prior ``p0``
    ``[..., n]``, along the last axis.

    Returns ``(weights, log_weights)``, each ``[..., T + 1, n]``: slot 0
    holds the prior (and its log), slot t the posterior after step t.
    ``out`` and ``log_out``, when given, receive them; ``out`` must be
    C-contiguous, as the predictive fold writes through a view of its rows.
    Every row is folded bit for bit as it would be on its own.

    The predictive rule takes additive scores and projects ``p + s`` onto
    the simplex by :func:`_project_rows`, one step at a time, on one
    :class:`_ScanWork` and one buffer for ``p + s`` allocated once per
    fold; each posterior is written straight into its slot of the weights,
    and the log-weights are their ``log``, -inf exactly where the rule
    zeroed a model.  The loop checks its result, not its inputs: one
    product of the posteriors with a vector of ones sums each of them.  A
    sum that is not finite raises ``ValueError("entries must be finite")``:
    a NaN or an infinity in ``p + s`` leaves a NaN in that step's
    posterior, as a dropped entry is ``(q + d) * 0`` and an infinity turns
    ``d`` or the whole row into NaN.  A sum off 1 by more than
    ``DEFAULT_EPS``, which :class:`~credal.core.ProbabilityVector` refuses
    too, raises ``ValueError`` naming the first such replication and step.
    Such a row lost its mass to rounding at the scores' magnitude: ``q =
    [1 - 1.7e308]`` gives ``d = 1.7e308`` and ``q + d = 0.0``, and a
    prefix sum that overflows to inf zeroes every entry.  Only the invalid
    operations on the way are silenced; an overflowing prefix sum warns.
    Long rows raise ``entries must be finite`` at the first non-finite
    step, as the candidate scan reads each row's max and min.

    The ratio-form rules (inferential, and general-Bayes with ``-rate *
    loss``) take log-scores and keep log-weights, so no weight underflows
    on the way.  Since ``log w_t = log p0 + sum_{tau <= t} l_tau - log Z_t``,
    the whole fold is one cumulative sum over t and one max-shifted
    log-sum-exp per row, with no loop over t.  Each step's log-scores are
    first centred on their largest, which changes no exact weight and keeps
    the sums small.  The weights are ``exp(d) / sum(exp(d))``, with ``d``
    the log-weights less their row's largest, and the log-weights are
    ``d - log sum(exp(d))``.  A log-weight is -inf only where the prior is
    0 or a log-score up to step t is -inf (a weight also reads 0.0 where
    its ``exp`` underflows).  A row and step where every log-weight is -inf
    raises :class:`UnderflowError` naming them; the leading index of a row
    is its replication in the harness.

    The bound, to first order in eps = 2^-52 (numpy's log and exp within
    2 ulps): let ``A_t,i = -log p0_i + sum_{tau <= t} (max_j l_tau,j -
    l_tau,i)``, the magnitude of the centred sum, ``Abar_t`` its mean under
    the exact posterior ``w_t`` and ``L_t,i = log w_t,i``.  Then::

        delta_t,i = eps ((t + 6) (A_t,i + 2 Abar_t) + 2 |L_t,i| + 4 log n + n + 8)

    bounds the computed log-weight's distance from ``L_t,i``, and the
    computed weight lies within ``w_t,i expm1(delta_t,i) + 2^-1073`` of
    ``w_t,i``; the last term covers subnormal and underflowed weights.
    The first term is the cumulative sum's rounding (t additions of
    centred terms, each rounded once, and the log of the prior); it enters
    once through the entry itself and once through the log-sum-exp, whose
    rows are dominated by the heaviest weights.  The rest is the
    log-sum-exp's own rounding.  It holds while (t + 6) eps A_t,i and
    (t + 6) eps Abar_t stay below 0.1.
    """
    *_, horizon, n = scores.shape
    weights = np.empty(scores.shape[:-2] + (horizon + 1, n)) if out is None else out
    logs = np.empty(weights.shape) if log_out is None else log_out
    weights[..., 0, :] = p0
    if kind is not RuleKind.PREDICTIVE:
        _log_fold(p0, scores, weights[..., 1:, :], logs)
        return weights, logs
    rows = weights.reshape(-1, horizon + 1, n)
    grid = scores.reshape(len(rows), horizon, n)
    work, q = _ScanWork(len(rows), n), np.empty((len(rows), n))
    steps = rows.transpose(1, 0, 2)
    with np.errstate(invalid="ignore"):
        for p, s, post in zip(steps, grid.transpose(1, 0, 2), steps[1:]):
            _project_rows(np.add(p, s, q), work, post)
        mass = (rows[:, 1:] @ np.ones(n)).reshape(scores.shape[:-1])
    if not np.isfinite(mass).all():
        raise ValueError("entries must be finite")
    lost = np.abs(mass - 1.0) > DEFAULT_EPS
    if lost.any():
        at = np.argwhere(lost)[0].tolist()
        raise ValueError(
            f"{_step_name(at)}: the posterior sums to {float(mass[tuple(at)])!r}, not 1, "
            "as the scores are too large for the prior's mass to survive rounding"
        )
    with np.errstate(divide="ignore"):
        np.log(weights, out=logs)
    return weights, logs


def _step_name(at: list[int]) -> str:
    """The name of the step of :func:`_trajectory` at index ``[*r, t - 1]``:
    ``replication r, t = t``, or ``t = t`` in a fold of one row."""
    *row, t = at
    return f"replication {', '.join(map(str, row))}, t = {t + 1}" if row else f"t = {t + 1}"


def _log_fold(p0: np.ndarray, log_scores: np.ndarray, post: np.ndarray, log_weights: np.ndarray) -> None:
    """The ratio-form half of :func:`_trajectory`: writes the posteriors
    into ``post`` and the log-weights, the prior's log included, into
    ``log_weights``."""
    with np.errstate(divide="ignore", over="ignore"):
        np.log(p0, out=log_weights[..., 0, :])
        # a step whose log-scores are all -inf is centred on the lowest float,
        # so that they stay -inf instead of turning into -inf - -inf
        top = np.maximum(log_scores.max(-1, keepdims=True), np.finfo(float).min)
        np.subtract(log_scores, top, out=log_weights[..., 1:, :])
        np.cumsum(log_weights, axis=-2, out=log_weights)
    logs = log_weights[..., 1:, :]
    top = logs.max(-1, keepdims=True)
    vanished = np.isneginf(top)
    if vanished.any():
        *at, _ = np.argwhere(vanished)[0].tolist()
        raise UnderflowError(
            f"{_step_name(at)}: every weight vanished, as no model with a positive prior has a finite log-score"
        )
    logs -= top
    np.exp(logs, out=post)
    total = post.sum(-1, keepdims=True)
    post /= total
    logs -= np.log(total)


def sequential_update(
    p0: ProbabilityVector, stream: Sequence[ScoreVector], rule: UpdateRule
) -> list[ProbabilityVector]:
    """Fold a stream of score vectors through a rule, returning the trajectory.

    The result has length ``len(stream) + 1`` and starts at ``p0`` itself;
    the other entries are the rows of one :func:`_trajectory` call, which
    the ratio-form rules make with the logs of their scores, within the
    bound it states of the exact fold.  Every
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
    if rule.kind is not RuleKind.PREDICTIVE:
        scores = np.log(scores)
    weights = _trajectory(rule.kind, p0.values, scores)[0]
    weights.flags.writeable = False
    return [p0] + [ProbabilityVector._adopt(row) for row in weights[1:]]
