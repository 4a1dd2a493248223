"""Compare ``measures.mixture_crps`` on seeded stacks of weight rows with the
exact rational mixture score of ``tests/oracles.py``.

    PYTHONPATH=src python tests/compare_mixture.py [--count N] [--seed S]

Scores two fixed stacks, the benchmark's sim-wide shape [2, 5, 25, 512]
(dense weights for one rule, mostly zero weights for the other, taken as
the view without the last step, as the harness does) and two rows at
n = 2048, then ``N`` (default 20) seeded stacks whose n is spread evenly
in log scale over [1, 2048], with as many rows as keep the exact sums
small.  Each seeded stack is of one weight kind of ``kernel_weights`` in
``tests/test_measures.py`` (dirichlet, one-hot, zero-heavy, subnormal) in
turn.  Every row must lie within the bound ``mixture_crps`` states
of the exact value, and every one-hot row must score its component
exactly.  Prints the largest error as a share of its bound and every
failing stack, and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

import numpy as np
from oracles import ExactMixture
from test_measures import MIXTURE_KINDS, kernel_weights, mixture_forecasts, one_hot_misses

from credal.measures import expected_abs_difference, mixture_crps

LARGEST = 2048
#: rows times n^2 of a seeded stack, the exact integer products it costs
BUDGET = 1 << 22


def sim_wide(rng: np.random.Generator) -> tuple[str, np.ndarray, np.ndarray]:
    n = 512
    dense = kernel_weights(rng, "dirichlet", (1, 5, 26, n))
    sparse = kernel_weights(rng, "zero_heavy", (1, 5, 26, n))
    w = np.concatenate([dense, sparse])[:, :, :-1]
    return "sim-wide", w, rng.uniform(0.0, 4.0, (5, 25, n))


def largest(rng: np.random.Generator) -> tuple[str, np.ndarray, np.ndarray]:
    return "dirichlet", kernel_weights(rng, "dirichlet", (2, LARGEST)), rng.uniform(0.0, 4.0, (2, LARGEST))


def seeded(rng: np.random.Generator, i: int) -> tuple[str, np.ndarray, np.ndarray]:
    kind = MIXTURE_KINDS[i % len(MIXTURE_KINDS)]
    n = int(np.exp(rng.uniform(0.0, np.log(LARGEST + 1))))
    rows = int(rng.integers(1, max(2, min(64, BUDGET // (n * n)) + 1)))
    shape = (rows, n) if rows < 4 else (2, rows // 2, n)
    return kind, kernel_weights(rng, kind, shape), rng.uniform(0.0, 4.0, shape)


def check(w: np.ndarray, c: np.ndarray, rng: np.random.Generator) -> tuple[float, int]:
    """``(largest error as a share of its bound, failures)`` of one stack."""
    pair = expected_abs_difference(mixture_forecasts(rng, w.shape[-1]))
    out = mixture_crps(pair, w, c)
    exact = ExactMixture(pair, 0.5 * np.diag(pair))
    worst, failures = 0.0, one_hot_misses(w, c, out)
    for i in np.ndindex(out.shape):
        value, bound = exact.score(w[i], c[i[out.ndim - c.ndim + 1 :]])
        error = abs(Fraction(float(out[i])) - value)
        worst = max(worst, float(error / Fraction(bound)))
        failures += error > bound
    return worst, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    stacks = [sim_wide(rng), largest(rng)] + [seeded(rng, i) for i in range(args.count)]
    worst, rows, failing = 0.0, 0, []
    for i, (kind, w, c) in enumerate(stacks):
        share, failures = check(w, c, rng)
        worst, rows = max(worst, share), rows + w[..., 0].size
        if failures:
            failing.append((i, kind, w.shape, failures))
    print(
        f"{len(stacks)} stacks (seed {args.seed}), {rows} rows: the largest error is "
        f"{worst:.3g} of its bound; {len(failing)} failing stacks"
    )
    for i, kind, shape, failures in failing[:10]:
        print(f"  stack {i}: {kind}, shape {list(shape)}, {failures} rows off")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
