"""Compare the library's simplex projection on long rows with the full
sort-and-threshold scan of ``tests/oracles.py``, bit for bit.

    PYTHONPATH=src python tests/compare_projection.py [--count N] [--seed S]

Draws ``N`` (default 200) seeded rows whose lengths are spread evenly in
log scale over [2**14, 10**6].  Each row is of one kind, in turn: the
kinds of ``projection_input`` in ``tests/test_updating.py`` (one survivor,
few, most, ties, a split tie, an entry at the cut, an offset of 1e15),
its ``most_survive`` row, shaped like the benchmark's large-n input (a
probability vector plus additive scores, about 79% survivors), and its
``tie_at_cut`` row of equal values b but one 1 + b, where every b sits at
the cut: u_j + d_j is 0 up to rounding, and the computed test passes and
fails at random along the row.  Prints how many rows the candidate scan
took, how many the full scan took with its test evaluated in a bracket,
and how many with it evaluated over the whole row; then every mismatch,
and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from unittest import mock

import numpy as np
from oracles import sort_scan_projection
from test_updating import most_survive, projection_input, scan_windows, tie_at_cut

from credal import updating

KINDS = ("one", "few", "most", "ties", "split-tie", "near-cut", "offset", "kernels", "tie-at-cut")
SMALLEST, LARGEST = 1 << 14, 10**6


def sample_row(rng: np.random.Generator, kind: str) -> np.ndarray:
    n = int(np.exp(rng.uniform(np.log(SMALLEST), np.log(LARGEST + 1))))
    if kind == "kernels":
        return most_survive(rng, n)
    if kind == "tie-at-cut":
        return tie_at_cut(rng, n)
    return projection_input(rng, (n,), kind)


def project(q: np.ndarray):
    """``_project_rows(q)`` of a stack of one row, and the way it was found:
    "candidate", "bracket" or "whole row"."""
    n = q.shape[-1]
    with mock.patch.object(updating, "_sort_scan", wraps=updating._sort_scan) as full:
        got, windows = scan_windows(q)
    if not any(call.args[0].shape[-1] == n for call in full.call_args_list):
        return got, "candidate"
    return got, "whole row" if (0, n) in windows else "bracket"


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    paths, mismatches = Counter(), []
    for i in range(args.count):
        kind = KINDS[i % len(KINDS)]
        q = sample_row(rng, kind)[None]
        got, path = project(q)
        paths[path] += 1
        if not all(same_bits(g, w) for g, w in zip(got, sort_scan_projection(q))):
            mismatches.append((i, kind, q.size, path))
    print(
        f"{args.count} rows (seed {args.seed}): {paths['candidate']} by the candidate scan, "
        f"{paths['bracket']} by the bracket, {paths['whole row']} by the whole row; "
        f"{len(mismatches)} mismatches"
    )
    for i, kind, n, path in mismatches[:10]:
        print(f"  row {i}: {kind}, n = {n}, {path}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
