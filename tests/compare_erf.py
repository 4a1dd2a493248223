"""Compare ``credal.measures._erf`` with Python's ``math.erf``.

    PYTHONPATH=src python tests/compare_erf.py [--count N] [--seed S]

Draws ``N`` (default 10**6) seeded points: half uniform on [-8, 8], which
crosses every region of the erf, a quarter with magnitudes from the
smallest subnormal to 16 spread evenly over the binades, and a quarter of
random 64-bit patterns viewed as doubles, so that infinities, NaNs and
huge values occur too.  The region edges 2**-28, 0.84375, 1.25, 1/0.35 and
6, the smallest normal double and their neighbours are added with both
signs.  Prints the largest distance in ulps and how many values differ at
all, and exits 1 if a value is more than ``MAX_ULPS`` away or a NaN does
not map to NaN.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from credal.measures import _erf

#: the bound the library's erf docstring states
MAX_ULPS = 1
#: the edges of the erf's regions, and the smallest normal double
EDGES = (2.0**-28, 0.84375, 1.25, float.fromhex("0x1.6db6ep+1"), 6.0, 2.0**-1022)


def sample_points(count: int, seed: int) -> np.ndarray:
    """``count`` seeded points, plus the edges and their neighbours with both signs."""
    rng = np.random.default_rng(seed)
    uniform = rng.uniform(0.0, 8.0, count // 2)
    magnitudes = np.ldexp(rng.uniform(1.0, 2.0, count // 4), rng.integers(-1075, 4, count // 4))
    unsigned = np.concatenate([uniform, magnitudes])
    signed = np.where(rng.random(unsigned.size) < 0.5, -unsigned, unsigned)
    bits = rng.integers(-(2**63), 2**63, count - unsigned.size, dtype=np.int64).view(float)
    edges = np.array(EDGES)
    around = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf), [0.0, 5e-324, np.inf]])
    return np.concatenate([signed, bits, around, -around])


def ulp_distance(a, b) -> np.ndarray:
    """|a - b| in units in the last place, counted along the doubles in
    order, so that -0.0 and +0.0 are 0 apart."""

    def line(v):
        k = np.asarray(v, dtype=float).view(np.int64)
        return np.where(k < 0, np.int64(-(2**63)) - k, k)

    return np.abs(line(a) - line(b))


def compare(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(got, want, ulps)`` for ``values``; NaN outputs count 0 ulps
    where both sides are NaN and 2**62 where only one is."""
    got = _erf(values)
    want = np.array([math.erf(v) for v in values.tolist()])
    nan = np.isnan(got) | np.isnan(want)
    ulps = np.where(nan, 0, ulp_distance(np.where(nan, 0.0, got), np.where(nan, 0.0, want)))
    ulps[np.isnan(got) != np.isnan(want)] = 2**62
    return got, want, ulps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10**6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    values = sample_points(args.count, args.seed)
    got, want, ulps = compare(values)
    worst = int(ulps.max())
    print(f"max {worst} ulp, {int(np.count_nonzero(ulps))} of {values.size} values differ (seed {args.seed}, bound {MAX_ULPS})")
    for i in np.flatnonzero(ulps > MAX_ULPS)[:10].tolist():
        v = values[i]
        print(f"  {v.hex()}: _erf {got[i].hex()}, math.erf {want[i].hex()}")
    return 1 if worst > MAX_ULPS else 0


if __name__ == "__main__":
    sys.exit(main())
