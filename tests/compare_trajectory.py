"""Compare the ratio-form trajectory kernel on seeded log-score stacks with
the exact 50-digit fold of ``tests/oracles.py``.

    PYTHONPATH=src python tests/compare_trajectory.py [--count N] [--seed S]

Folds three fixed stacks: the benchmark's sim-medium shape (8 Gaussian
models, 200 steps) and acceptance criterion 9's models at horizon 1000,
whose weights pass through the subnormals and underflow far below them,
both under the Gaussian log-density; and criterion 9's CRPS under the
general-Bayes rule at rate 1.  Then ``N`` (default 20) seeded stacks of
two rows each, whose n is spread evenly in log scale over [1, 64] and
whose horizon over [1, 1000], each of one kind in turn:

* ``gaussian``: log-densities of random Gaussians at draws from N(0, 1);
* ``loss``: ``-rate * loss`` with losses in [0, 4] and rates in [0.1, 10];
* ``subnormal``: gaps whose sums bring the lowest weights to between
  1e-300 and the smallest subnormal by the last step;
* ``underflowing``: gaps of up to 40 a step, far below the subnormals;
* ``zero-prior``: a prior with zeros and some log-scores of -inf or
  -1e300, whose weights are exactly 0 (log-weight -inf).

Every row is folded in one batched kernel call and must match its own
fold bit for bit.  Every weight and log-weight after step 1 .. T must lie
within the bound that ``updating._trajectory`` states of the exact fold
(``oracles.fold_errors``).  Prints the largest error as a share of its
bound and every failing stack, and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np
from oracles import fold_errors, log_sigma_sqrt_2pi

from credal import Gaussian
from credal.measures import crps_matrix
from credal.updating import RuleKind, _trajectory

KINDS = ("gaussian", "loss", "subnormal", "underflowing", "zero-prior")
LARGEST_N, LONGEST = 64, 1000
CRITERION_9 = (Gaussian(0.0, 1.0), Gaussian(0.5, 1.0), Gaussian(5.0, 1.0))
MEDIUM = CRITERION_9 + (
    Gaussian(-1.2, 0.7),
    Gaussian(0.3, 1.9),
    Gaussian(1.4, 1.1),
    Gaussian(-0.4, 0.5),
    Gaussian(0.9, 1.6),
)


def log_density(forecasts, xs: np.ndarray) -> np.ndarray:
    """The harness's Gaussian log-density ``[..., T, n]`` at outcomes ``xs``."""
    mu = np.array([f.mu for f in forecasts])
    sigma = np.array([f.sigma for f in forecasts])
    z = (xs[..., None] - mu) / sigma
    return z * z * -0.5 - log_sigma_sqrt_2pi(sigma)


def fixed(rng: np.random.Generator) -> list[tuple[str, np.ndarray, np.ndarray]]:
    def uniform(n):
        return np.full((2, n), 1.0 / n)

    medium = rng.normal(size=(2, 200))
    long = rng.normal(size=(2, LONGEST))
    losses = crps_matrix(list(CRITERION_9), long.ravel()).reshape(2, LONGEST, 3)
    return [
        ("sim-medium", uniform(8), log_density(MEDIUM, medium)),
        ("criterion-9", uniform(3), log_density(CRITERION_9, long)),
        ("criterion-9-loss", uniform(3), -losses),
    ]


def seeded(rng: np.random.Generator, i: int) -> tuple[str, np.ndarray, np.ndarray]:
    kind = KINDS[i % len(KINDS)]
    n = int(np.exp(rng.uniform(0.0, np.log(LARGEST_N + 1))))
    horizon = int(np.exp(rng.uniform(0.0, np.log(LONGEST + 1))))
    shape = (2, horizon, n)
    p0 = rng.dirichlet(np.ones(n), size=2)
    if kind == "gaussian":
        forecasts = [Gaussian(float(m), float(s)) for m, s in zip(rng.normal(0.0, 2.0, n), rng.uniform(0.3, 3.0, n))]
        return kind, p0, log_density(forecasts, rng.normal(size=shape[:-1]))
    if kind == "loss":
        return kind, p0, -rng.uniform(0.1, 10.0, (2, 1, 1)) * rng.uniform(0.0, 4.0, shape)
    if kind == "subnormal":
        # summed gaps of 690 .. 745 below model 0 by the last step
        target = rng.uniform(690.0, 745.0, (2, 1, n))
        target[..., 0] = 0.0
        return kind, p0, -rng.uniform(0.0, 2.0, shape) * target / horizon + rng.normal(size=(2, horizon, 1))
    if kind == "underflowing":
        return kind, p0, -rng.uniform(0.0, 40.0, shape)
    p0[:, rng.random(n) < 0.3] = 0.0
    p0[:, int(rng.integers(n))] += 1e-3
    p0 /= p0.sum(-1, keepdims=True)
    scores = -rng.uniform(0.0, 4.0, shape)
    scores[rng.random(shape) < 0.05] = -np.inf
    scores[rng.random(shape) < 0.05] = -1e300
    # keep one model with a positive prior finite at every step
    alive = int(np.flatnonzero(p0[0] > 0.0)[0])
    scores[..., alive] = np.maximum(scores[..., alive], -4.0)
    return kind, p0, scores


def check(p0: np.ndarray, log_scores: np.ndarray) -> tuple[float, int]:
    """``(largest error as a share of its bound, failures)`` of one stack of
    rows; a row that differs from its own fold folded alone is a failure."""
    weights, logs = _trajectory(RuleKind.INFERENTIAL, p0, log_scores)
    worst, failures = 0.0, 0
    for r in range(len(p0)):
        alone, alone_logs = _trajectory(RuleKind.INFERENTIAL, p0[r], log_scores[r])
        failures += not (np.array_equal(alone, weights[r]) and np.array_equal(alone_logs, logs[r]))
        share, misses = fold_errors(p0[r], log_scores[r], weights[r, 1:], logs[r, 1:])
        worst, failures = max(worst, share), failures + misses
    return worst, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    stacks = fixed(rng) + [seeded(rng, i) for i in range(args.count)]
    worst, entries, failing = 0.0, 0, []
    for i, (kind, p0, log_scores) in enumerate(stacks):
        share, failures = check(p0, log_scores)
        worst, entries = max(worst, share), entries + log_scores.size
        if failures:
            failing.append((i, kind, log_scores.shape, failures))
    print(
        f"{len(stacks)} stacks (seed {args.seed}), {entries} weights: the largest error is "
        f"{worst:.3g} of its bound; {len(failing)} failing stacks"
    )
    for i, kind, shape, failures in failing[:10]:
        print(f"  stack {i}: {kind}, shape {list(shape)}, {failures} entries off")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
