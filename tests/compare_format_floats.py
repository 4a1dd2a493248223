"""Compare ``credal.core.format_floats`` with Python's ``format(v, ".17g")``.

    PYTHONPATH=src python tests/compare_format_floats.py [--count N] [--seed S]

Draws ``N`` (default 10**6) seeded random 64-bit patterns and views them as
doubles, so negatives, subnormals, infinities and NaN payloads all occur;
their absolute values are compared too, since positive finite values take
the bulk path.  Prints the number of mismatches and the first few, and
exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from credal.core import format_floats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10**6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    bits = np.random.default_rng(args.seed).integers(-(2**63), 2**63, args.count, dtype=np.int64)
    values = np.concatenate([bits.view(float), np.abs(bits.view(float))])
    got = format_floats(values).tolist()
    bad = [(v, g) for v, g in zip(values.tolist(), got) if g != format(v, ".17g").encode()]
    print(f"{len(bad)} mismatches in {values.size} values (seed {args.seed})")
    for v, g in bad[:10]:
        print(f"  {v.hex()}: format_floats {g.decode()!r}, format {format(v, '.17g')!r}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
