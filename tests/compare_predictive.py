"""Compare the library's predictive trajectories with the step-by-step
sort-and-threshold fold of ``tests/oracles.py``, bit for bit.

    PYTHONPATH=src python tests/compare_predictive.py [--count N] [--seed S]

Folds two fixed stacks: the benchmark's sim-medium shape (10 replications
of 8 Gaussian models, 200 steps, scored by ``a * crps`` with a = -1), and
acceptance criterion 9's models at horizon 1000, where the far model is
zeroed and the near one leaves and re-enters.  Then ``N`` (default 100)
seeded stacks of two rows each, whose n is spread evenly in log scale over
[1, 64] and whose horizon over [1, 1000], each of one kind of
``predictive_stream`` in ``tests/test_updating.py`` in turn: normal scores,
scores on a coarse grid whose zeroed entries tie at the cut, a first step
that splits a tie at the cut, a prior with zeros, scores that change sign
every step so that zeroed entries re-enter, scores on a grid of 1/(4n)
whose margins at the cut are 0 up to rounding, and scores up to 2^1001 in
magnitude.  Last, one stack of each kind on each side of the row-length
split, over 1 to 3 steps: at n = 2^14 - 1, the longest row the full scan
takes at every step, and at n = 2^14, the shortest row that tries the
candidate scan first.

Every stack must equal ``oracles.sort_scan_fold`` bit for bit, and every
row must equal its own fold, folded alone, wherever every posterior of the
oracle fold keeps its mass (sums to 1 within ``DEFAULT_EPS``); where one
does not, as rounding at 2^1001 loses it, the library must raise the
lost-mass ``ValueError`` instead.  Prints how many stacks and weights were
compared, how many stacks had to raise, and how many steps of the stacks
at n = 2^14 the candidate scan took and how many it refused; then every
mismatch.  Exits 1 if there is one, or if no stack had to raise, or if
either path of those long rows went unused.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from unittest import mock

import numpy as np
from oracles import sort_scan_fold
from test_updating import PREDICTIVE_KINDS, keeps_mass, predictive_stream

from credal import Gaussian, updating
from credal.measures import crps_matrix
from credal.updating import _CANDIDATE_MIN_N, RuleKind, _trajectory

LARGEST_N, LONGEST = 64, 1000
CRITERION_9 = (Gaussian(0.0, 1.0), Gaussian(0.5, 1.0), Gaussian(5.0, 1.0))
MEDIUM = CRITERION_9 + (
    Gaussian(-1.2, 0.7),
    Gaussian(0.3, 1.9),
    Gaussian(1.4, 1.1),
    Gaussian(-0.4, 0.5),
    Gaussian(0.9, 1.6),
)


def harness(rng: np.random.Generator, forecasts, reps: int, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """The harness's uniform prior and predictive scores ``-crps`` at
    standard normal draws, ``[reps, horizon, n]``."""
    n = len(forecasts)
    xs = rng.normal(size=reps * horizon)
    return np.full((reps, n), 1.0 / n), -crps_matrix(list(forecasts), xs).reshape(reps, horizon, n)


def stacks(rng: np.random.Generator, count: int):
    """``(kind, p0, scores)`` of every stack compared, in order."""
    yield ("sim-medium", *harness(rng, MEDIUM, 10, 200))
    yield ("criterion-9", *harness(rng, CRITERION_9, 2, LONGEST))
    for i in range(count):
        kind = PREDICTIVE_KINDS[i % len(PREDICTIVE_KINDS)]
        n = int(np.exp(rng.uniform(0.0, np.log(LARGEST_N + 1))))
        horizon = int(np.exp(rng.uniform(0.0, np.log(LONGEST + 1))))
        yield (kind, *predictive_stream(rng, (2,), horizon, n, kind))
    for n in (_CANDIDATE_MIN_N - 1, _CANDIDATE_MIN_N):
        for kind in PREDICTIVE_KINDS:
            yield (kind, *predictive_stream(rng, (2,), int(rng.integers(1, 4)), n, kind))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def fold(p0: np.ndarray, scores: np.ndarray) -> np.ndarray | None:
    """The library's predictive fold of a stack, or None where it raises
    that a posterior lost its mass."""
    try:
        return _trajectory(RuleKind.PREDICTIVE, p0, scores)[0]
    except ValueError as exc:
        if "the posterior sums to" not in str(exc):
            raise
        return None


def long_row_fold(p0: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray | None, Counter]:
    """:func:`fold` of a stack of rows of at least ``_CANDIDATE_MIN_N``
    entries, and how many of its steps the candidate scan took and how many
    it refused, sending the stack to the full scan."""
    *_, horizon, n = scores.shape
    with mock.patch.object(updating, "_sort_scan", wraps=updating._sort_scan) as full:
        weights = fold(p0, scores)
    refused = sum(call.args[0].shape[-1] == n for call in full.call_args_list)
    return weights, Counter(candidate=horizon - refused, refused=refused)


def agrees(got: np.ndarray | None, want: np.ndarray) -> bool:
    """Whether a fold is the oracle fold ``want`` bit for bit where that
    keeps its mass, and raised (None) where it does not."""
    return got is not None and same_bits(got, want) if keeps_mass(want) else got is None


def mismatches(p0: np.ndarray, scores: np.ndarray, paths: Counter) -> tuple[int, bool]:
    """How many rows of one stack disagree with the oracle fold in the
    stack, or folded alone, and whether the stack had to raise; a long-row
    stack's paths go into ``paths``."""
    if scores.shape[-1] < _CANDIDATE_MIN_N:
        weights = fold(p0, scores)
    else:
        weights, taken = long_row_fold(p0, scores)
        paths.update(taken)
    want = sort_scan_fold(p0, scores)
    stack = agrees(weights, want)
    return sum(not (stack and agrees(fold(p0[r], scores[r]), want[r])) for r in range(len(p0))), not keeps_mass(want)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    compared, weights, raised, failing, paths = 0, 0, 0, [], Counter()
    for i, (kind, p0, scores) in enumerate(stacks(rng, args.count)):
        off, lost = mismatches(p0, scores, paths)
        compared, weights, raised = compared + 1, weights + scores.size, raised + lost
        if off:
            failing.append((i, kind, scores.shape, off))
    print(
        f"{compared} stacks (seed {args.seed}), {weights} weights; {raised} stacks must raise, as a posterior "
        f"loses its mass; {len(failing)} mismatching stacks; "
        f"steps at n = {_CANDIDATE_MIN_N}: {paths['candidate']} by the candidate scan, {paths['refused']} refused"
    )
    for i, kind, shape, off in failing[:10]:
        print(f"  stack {i}: {kind}, shape {list(shape)}, {off} rows off")
    return 1 if failing or not (raised and paths["candidate"] and paths["refused"]) else 0


if __name__ == "__main__":
    sys.exit(main())
