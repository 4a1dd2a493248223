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

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import ProbabilityVector, as_values
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
            if self.learning_rate is None or not self.learning_rate > 0.0:
                raise ValueError("general-Bayes rule needs a positive learning rate")
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
    on first access; ``m`` is their count.  ``==`` compares ``posterior``
    and ``d`` only.
    """

    posterior: ProbabilityVector
    d: float
    keep: np.ndarray = field(compare=False, repr=False)

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
    return ProbabilityVector(_ratio_update(pv, s.scores))


def combine_additive(p: ProbabilityVector, s: ScoreVector) -> np.ndarray:
    """Raw combined vector q = p + s (finite, unconstrained sum)."""
    _require_mode(s, Mode.ADDITIVE, "combine_additive")
    if len(p) != len(s):
        raise ValueError("prior and scores must have the same length")
    return p.values + s.scores


def _simplex_projection(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Euclidean projection of each row of q onto the probability simplex.

    ``q`` is any ``[..., n]`` float array; each slice along the last axis
    is projected on its own.  Returns ``(posterior, d, keep)``:
    ``posterior`` is ``q + d`` where the survivor mask ``keep`` is set and
    0 elsewhere, and ``d`` has the shape of ``q`` without its last axis.
    Sort-and-threshold (Duchi et al. 2008; Condat 2016): sort the values
    descending, take the longest prefix whose last entry stays strictly
    positive after adding d = (1 - prefix sum)/prefix length.  The prefix
    sums depend only on the sorted values, so survivors are then picked
    from q directly: every entry above the cut value, then entries equal
    to it in index order until the prefix length is reached (the
    stable-sort tie rule).
    """
    if not np.isfinite(q).all():
        raise ValueError("entries must be finite")
    shape = q.shape
    n = shape[-1]
    q = q.reshape(-1, n)
    s = np.sort(q)
    u = s[:, ::-1]
    shift = (1.0 - u.cumsum(-1)) / np.arange(1.0, n + 1.0)  # d for each prefix length
    cond = u + shift > 0.0
    cond[:, 0] = True  # u1 + (1 - u1) = 1 > 0 identically
    last = (n - 1) - cond[:, ::-1].argmax(-1)  # where each row's longest prefix ends
    row_start = np.arange(0, q.size, n)
    d = shift.take(row_start + last)
    cut = s.take(row_start + ((n - 1) - last))
    keep = q >= cut[:, None]
    if np.count_nonzero(keep) != last.sum() + len(last):
        # more entries reach the cut than the prefixes hold: a tie is split
        # at the cut, and its highest-index entries go
        extra = keep.sum(-1) - (last + 1)
        for r in np.flatnonzero(extra).tolist():
            keep[r, np.flatnonzero(q[r] == cut[r])[-extra[r]:]] = False
    posterior = np.where(keep, q + d[:, None], 0.0)
    return posterior.reshape(shape), d.reshape(shape[:-1]), keep.reshape(shape)


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
    return NormalizationResult(ProbabilityVector(posterior), float(d), keep)


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
    return ProbabilityVector(_ratio_update(pv, np.exp(-rate * values)))


def sequential_update(
    p0: ProbabilityVector, stream: Sequence[ScoreVector], rule: UpdateRule
) -> list[ProbabilityVector]:
    """Fold a stream of score vectors through a rule, returning the trajectory.

    The result has length ``len(stream) + 1`` and starts at ``p0``.  Every
    stream entry must carry the mode the rule expects (multiplicative for
    the ratio-form rules, additive for the predictive rule).
    """
    trajectory = [p0]
    p = p0
    for step, s in enumerate(stream):
        if s.mode is not rule.score_mode:
            raise ModeMismatchError(
                f"step {step}: {rule.kind.value} rule needs {rule.score_mode.value} "
                f"scores, got {s.mode.value}"
            )
        if rule.kind is RuleKind.PREDICTIVE:
            p = predictive_update(p, s).posterior
        else:
            p = inferential_update(p, s)
        trajectory.append(p)
    return trajectory
