"""Compare ``credal.core.format_floats`` with Python's ``format(v, ".17g")``.

    PYTHONPATH=src python tests/compare_format_floats.py [--count N] [--seed S]
    PYTHONPATH=src python tests/compare_format_floats.py --exponents [--seed S]

Two passes, each over seeded random values:

* ``N`` (default 10**6) random 64-bit patterns viewed as doubles, so
  negatives, subnormals, infinities and NaN payloads all occur, and their
  absolute values; every block mixes signs and NaN, so it takes the path
  that gathers the positive finite entries;
* positive finite values alone, so every block takes the path without a
  gather: the finite non-zero absolute values of the patterns, and ``N``
  log-uniform magnitudes from 1e-300 to 1e300.

With ``--exponents``, a deterministic sweep instead: for every decimal
exponent ``X`` of a positive double (-324 .. 308) and every number of
significant digits ``nd`` from 1 to 17, the doubles nearest ``k * 10**(X -
nd + 1)`` for 50 seeded ``nd``-digit integers ``k``, about 5 x 10**5 values,
so that every exponent, in fixed and in exponent notation, is written with
few and with many significant digits.

Prints the number of mismatches of each pass and the first few, and exits 1
if there is any.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from credal.core import format_floats


def exponent_sweep(rng: np.random.Generator, per_form: int = 50) -> np.ndarray:
    """The finite non-zero doubles nearest ``k * 10**(X - nd + 1)``, for
    every exponent ``X`` in -324 .. 308, every ``nd`` in 1 .. 17 and
    ``per_form`` seeded ``nd``-digit integers ``k``."""
    values = []
    for nd in range(1, 18):
        low = 10 ** (nd - 1)
        ks = low + rng.integers(0, 9 * low, (633, per_form), dtype=np.int64)
        for x, row in zip(range(-324, 309), ks.tolist()):
            values += [float(f"{k}e{x - nd + 1}") for k in row]
    values = np.array(values)
    return values[(values > 0.0) & (values < np.inf)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10**6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--exponents", action="store_true", help="sweep every exponent and digit count instead")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    if args.exponents:
        passes = [("every exponent and digit count", exponent_sweep(rng))]
    else:
        patterns = rng.integers(-(2**63), 2**63, args.count, dtype=np.int64).view(float)
        mixed = np.concatenate([patterns, np.abs(patterns)])
        finite = np.abs(patterns[np.isfinite(patterns) & (patterns != 0.0)])
        positive = np.concatenate([finite, 10.0 ** rng.uniform(-300.0, 300.0, args.count)])
        passes = [
            ("bit patterns and their absolute values", mixed),
            ("positive finite values", positive),
        ]
    failed = False
    for name, values in passes:
        got = format_floats(values).tolist()
        bad = [(v, g) for v, g in zip(values.tolist(), got) if g != format(v, ".17g").encode()]
        print(f"{len(bad)} mismatches in {values.size} values, {name} (seed {args.seed})")
        for v, g in bad[:10]:
            print(f"  {v.hex()}: format_floats {g.decode()!r}, format {format(v, '.17g')!r}")
        failed = failed or bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
