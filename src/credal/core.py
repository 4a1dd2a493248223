"""Hypothesis sets, credibility functions, and the probability axioms.

A credibility function assigns each hypothesis a number in [0, 1] measuring
how plausible it is that the hypothesis is the best one in the set.  A
probability vector is the normalized special case: non-negative entries
summing to one.  Events over the finite hypothesis set are implicit (the
probability of a subset is the sum of its atom entries), so no event type
is needed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Default tolerance on |sum - 1| when testing for probabilistic vectors.
DEFAULT_EPS = 1e-9


def as_values(x) -> np.ndarray:
    """Return the float64 vector behind a wrapper type or array-like."""
    v = np.asarray(getattr(x, "values", x), dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a non-empty 1-d vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class HypothesisSet:
    """Ordered finite set of competing hypotheses, identified by label.

    Exactly one hypothesis is assumed to be best; ties are not modeled.
    """

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        if len(self.labels) < 1:
            raise ValueError("a hypothesis set needs at least one hypothesis")
        if any(not s for s in self.labels):
            raise ValueError("hypothesis labels must be non-empty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("hypothesis labels must be unique")

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)


class Credibility:
    """Per-hypothesis plausibility scores, each in [0, 1].

    Entries need not sum to one.  Immutable after construction.
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        v = np.array(values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("credibility needs a non-empty 1-d vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("credibility entries must be finite")
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise ValueError("credibility entries must lie in [0, 1]")
        v.flags.writeable = False
        self._values = v

    @property
    def values(self) -> np.ndarray:
        return self._values

    def __len__(self) -> int:
        return self._values.size

    def __repr__(self) -> str:
        return f"Credibility({self._values.tolist()})"


class ProbabilityVector:
    """Non-negative vector summing to one (within ``eps``, which must be
    non-negative).

    Immutable after construction; safe to share across threads.
    """

    __slots__ = ("_values",)

    def __init__(self, values, eps: float = DEFAULT_EPS):
        _check_eps(eps)
        self._values = self._checked(np.array(values, dtype=float), eps)

    @classmethod
    def _adopt(cls, v: np.ndarray) -> "ProbabilityVector":
        """Wrap a float64 array that no one else holds, without copying it.

        The checks of the constructor run (with the default ``eps``), and
        ``v`` becomes read-only.
        """
        self = cls.__new__(cls)
        self._values = cls._checked(v, DEFAULT_EPS)
        return self

    @staticmethod
    def _checked(v: np.ndarray, eps: float) -> np.ndarray:
        if v.ndim != 1 or v.size == 0:
            raise ValueError("probability vector needs a non-empty 1-d vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("probability entries must be finite")
        if np.any(v < 0.0):
            raise ValueError("probability entries must be non-negative")
        total = float(np.sum(v))
        if abs(total - 1.0) > eps:
            raise ValueError(f"probabilities must sum to 1 (got {total!r})")
        v.flags.writeable = False
        return v

    @property
    def values(self) -> np.ndarray:
        return self._values

    def __len__(self) -> int:
        return self._values.size

    def __repr__(self) -> str:
        return f"ProbabilityVector({self._values.tolist()})"


def _check_eps(eps: float) -> None:
    if not eps >= 0.0:
        raise ValueError(f"eps must be non-negative, got {eps!r}")


def is_probabilistic(c, eps: float = DEFAULT_EPS) -> bool:
    """True iff all entries are >= 0 and the total is within ``eps`` of 1.

    On the finite algebra, additivity over disjoint events reduces to
    additivity of the atoms, so this atomic test suffices.  Accepts
    :class:`Credibility`, :class:`ProbabilityVector`, or any array-like.
    A negative or NaN ``eps`` raises ``ValueError``.
    """
    _check_eps(eps)
    v = as_values(c)
    if not np.all(np.isfinite(v)):
        raise ValueError("entries must be finite")
    return bool(np.all(v >= 0.0)) and abs(float(np.sum(v)) - 1.0) <= eps


def ideal_credibility(j: int, n: int) -> ProbabilityVector:
    """The vector assigning 1 to hypothesis ``j`` and 0 to all others."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= j < n:
        raise IndexError(f"hypothesis index {j} out of range for n={n}")
    v = np.zeros(n)
    v[j] = 1.0
    return ProbabilityVector(v)


def uniform(n: int) -> ProbabilityVector:
    """The uniform distribution over ``n`` hypotheses."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return ProbabilityVector(np.full(n, 1.0 / n))


# Labeled vectors serialize to CSV as `label,value` rows under a header,
# with values printed to 17 significant digits (round-trip exact).

_CSV_HEADER = ["label", "value"]


def reject_unknown_keys(obj: dict, allowed, what: str) -> None:
    """Raise ``ValueError`` naming every key of a parsed literal outside ``allowed``."""
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError(f"{what}: unknown keys {unknown}")


def json_number(value, what: str) -> float:
    """A JSON number as a float; booleans, strings and other types are
    rejected with ``what`` (the key) named."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what}: must be a number, got {value!r}")
    return float(value)


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


#: Bytes of one :func:`format_floats` field; the longest positive output,
#: ``d.dddddddddddddddde-XXX``, is 23.
FLOAT_FIELD = 24
_CHUNK = 4096
# 10**k in long double for k in [-_POW_LO, _POW_HI]: 16 - X ranges over
# [-292, 340] for the decimal exponents X of positive doubles, one more
# either way after the exponent is corrected
_POW_LO, _POW_HI = 293, 341
_U = float(np.finfo(np.longdouble).eps) / 2
# |D - exact| <= (2u + u^2) * 1e17 for the two roundings of D = x * 10**k;
# doubled, as margin.  The bound needs correctly rounded operations: x87
# extended (63-bit fraction) or binary128 (112); a long double that is a
# double, or PowerPC's double-double, sends every entry to the fallback
_HALF_TOL = 2 * (2 * _U + _U * _U) * 1e17 if np.finfo(np.longdouble).nmant in (63, 112) else math.inf
_MAX_FLOAT = np.finfo(float).max
_tables = None


def _words(text: bytes) -> list:
    """``text`` NUL-padded to 24 bytes, as three little-endian 64-bit words."""
    value = int.from_bytes(text, "little")
    return [(value >> (64 * i)) & (2**64 - 1) for i in range(3)]


def _format_tables():
    """Lookup tables of :func:`format_floats`, built on first use.

    ``powers``: 10**k in long double for k in [-_POW_LO, _POW_HI];
    ``groups``: the digits of 0000 .. 9999, each as one little-endian word;
    ``trailing``: their trailing zero digits (4 for 0000);
    ``suffixes``: ``e-324`` .. ``e+308`` as words, indexed by exponent + 324;
    ``below[k]``: a mask of the first ``k`` of 24 bytes, as three words;
    ``after[k]`` and ``point[k]``: a mask of the bytes from ``k`` on, but
    for byte ``max(k, 1)``, and a point in that byte.
    """
    global _tables
    if _tables is None:
        powers = np.array([f"1e{k}" for k in range(-_POW_LO, _POW_HI + 1)], dtype=np.longdouble)
        digits = [f"{i:04d}" for i in range(10_000)]
        groups = np.array([_words(g.encode())[0] for g in digits], dtype=np.uint64)
        trailing = np.array([len(g) - len(g.rstrip("0")) for g in digits])
        suffixes = np.array([_words(f"e{e:+03d}".encode())[0] for e in range(-324, 309)], dtype=np.uint64)
        below = np.array([_words(b"\xff" * k) for k in range(FLOAT_FIELD + 1)], dtype=np.uint64)
        at = [max(k, 1) for k in range(FLOAT_FIELD)]
        after = ~below[:-1] & ~np.array([_words(b"\0" * j + b"\xff") for j in at], dtype=np.uint64)
        point = np.array([_words(b"\0" * j + b".") for j in at], dtype=np.uint64)
        _tables = powers, groups, trailing, suffixes, below, after, point
    return _tables


def _digits(v: np.ndarray):
    """The 17 significant digits of each positive finite ``v`` as an int64,
    its decimal exponent, and a mask of the entries too close to a rounding
    tie to trust."""
    powers = _format_tables()[0]
    # D = v * 10**(16 - X) has 17 digits before the point once X is
    # floor(log10 v); log10 can miss by one near a power of ten
    x_exp = np.floor(np.log10(v)).astype(np.int64)
    d = v.astype(np.longdouble) * powers[_POW_LO + 16 - x_exp]
    off = (d < 1e16).astype(np.int64) - (d >= 1e17)
    miss = np.flatnonzero(off)
    x_exp[miss] -= off[miss]
    d[miss] = v[miss] * powers[_POW_LO + 16 - x_exp[miss]]
    # now D is in [1e16, 1e17) up to its error, so it rounds into
    # [1e16, 1e17]; 1e17 carries into the exponent
    whole = d.astype(np.int64)
    frac = (d - whole).astype(float)
    n = whole + (frac > 0.5)
    carry = n == 10**17
    n[carry] = 10**16
    x_exp[carry] += 1
    # within _HALF_TOL of .5 the exact D may round the other way
    return n, x_exp, np.abs(frac - 0.5) <= _HALF_TOL


def _layout(n: np.ndarray, x_exp: np.ndarray) -> np.ndarray:
    """``%.17g`` text of the 17-digit integers ``n`` with decimal exponents
    ``x_exp``, as three little-endian words (24 NUL-padded bytes) each.

    The text is the first ``keep`` digits (the integer part in fixed
    notation, the leading digit in exponent notation), then the digits
    shifted ``shift`` bytes on behind '0's, with the point written at byte
    ``max(keep, 1)``, cut after the last significant digit.  Fixed notation
    with ``X < 0`` keeps no digit and shifts by ``1 - X``, making room for
    ``0.`` and ``-X - 1`` zeros; the others shift by one, for the point.
    Exponent notation then appends its suffix.
    """
    _, groups, trailing, suffixes, below, after, point = _format_tables()
    g = [n // 10**13, n // 10**9 % 10_000, n // 10**5 % 10_000, n // 10 % 10_000]
    last = n % 10
    # trailing zero digits, a group of four at a time
    zeros = (last == 0).astype(np.int64)
    going = last == 0
    for group in reversed(g):
        zeros += going * np.take(trailing, group)
        going &= group == 0
    nd = 17 - zeros
    fixed = (x_exp >= -4) & (x_exp < 17)
    small = fixed & (x_exp < 0)
    keep = np.where(fixed, np.where(small, 0, x_exp + 1), 1)
    length = np.where(small, 1 - x_exp + nd, np.where(nd > keep, nd + 1, keep))
    u64 = np.uint64
    a0 = np.take(groups, g[0]) | (np.take(groups, g[1]) << u64(32))
    a1 = np.take(groups, g[2]) | (np.take(groups, g[3]) << u64(32))
    a2 = (last + ord("0")).astype(u64)
    bits = np.where(small, 8 - 8 * x_exp, 8).astype(u64)
    back = u64(64) - bits
    text = np.empty((n.size, 3), u64)
    text[:, 0] = (a0 << bits) | (u64(0x3030303030303030) & ~(u64(2**64 - 1) << bits))
    text[:, 1] = (a1 << bits) | (a0 >> back)
    text[:, 2] = (a2 << bits) | (a1 >> back)
    text &= np.take(after, keep, axis=0)
    text |= np.stack([a0, a1, a2], axis=1) & np.take(below, keep, axis=0)
    text |= np.take(point, keep, axis=0)
    text &= np.take(below, length, axis=0)
    sci = np.flatnonzero(~fixed)
    if sci.size:
        at = length[sci].astype(u64)
        word, bits = (at // u64(8)).astype(np.intp), at % u64(8) * u64(8)
        suffix = np.take(suffixes, x_exp[sci] + 324)
        text[sci, word] |= suffix << bits
        text[sci, np.minimum(word + 1, 2)] |= suffix >> (u64(64) - bits)
    return text


def _format_chunk(x: np.ndarray, out: np.ndarray) -> None:
    """Write ``%.17g`` of the 1-d float64 ``x`` into the ``S24`` array ``out``."""
    bits = x.view(np.int64)
    out[bits == 0] = b"0"
    fast = (x > 0.0) & (x <= _MAX_FLOAT)
    slow = ~fast & (bits != 0)
    if _HALF_TOL < 0.5:
        at = np.flatnonzero(fast)
        if at.size:
            n, x_exp, near = _digits(x[at])
            out[at] = _layout(n, x_exp).astype("<u8", copy=False).view(f"S{FLOAT_FIELD}").reshape(-1)
            slow[at[near]] = True
    else:
        slow |= fast
    if slow.any():
        out[slow] = [format(v, ".17g").encode() for v in x[slow].tolist()]


def format_floats(values) -> np.ndarray:
    """``%.17g`` of every entry as ASCII bytes, in an ``S24`` array shaped like ``values``.

    Equal, entry for entry, to ``format_float(v).encode()``.  A positive
    finite ``v`` is formatted in bulk: with ``X = floor(log10 v)``, corrected
    once if needed, the 17 digits are ``D = v * 10**(16 - X)`` rounded to an
    integer.  ``D`` is computed in ``np.longdouble`` from correctly rounded
    powers of ten, so it is within ``(2u + u^2) * 1e17`` of the exact value,
    ``u = finfo(longdouble).eps / 2``: about 0.011 where ``longdouble`` has
    a 64-bit significand (x86-64).  Where the computed fraction of ``D`` is
    within twice that of .5, the rounding could go either way, so the entry
    falls back to :func:`format_float`; so do zeros with the sign bit set,
    negative and non-finite entries.  Where ``longdouble`` is only
    ``double`` the bound exceeds .5, and PowerPC's double-double does not
    round its operations correctly, so there every entry falls back: the
    output is the same, only slower.  +0.0 is ``b"0"``.  Work is done in
    chunks of 4096 entries, so temporaries stay small.
    """
    values = np.asarray(values, dtype=float)
    flat = np.ascontiguousarray(values).reshape(-1)
    out = np.empty(flat.size, dtype=f"S{FLOAT_FIELD}")
    for start in range(0, flat.size, _CHUNK):
        _format_chunk(flat[start : start + _CHUNK], out[start : start + _CHUNK])
    return out.reshape(values.shape)


def write_labeled_csv(path, labels, values) -> None:
    v = as_values(values)
    labels = list(labels)
    if len(labels) != v.size:
        raise ValueError("labels and values must have the same length")
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for lab, val in zip(labels, v):
            writer.writerow([lab, format_float(val)])


def read_labeled_csv(path) -> tuple[HypothesisSet, np.ndarray]:
    """Read a ``label,value`` CSV; a leading byte-order mark is skipped.

    Blank lines, rows without exactly two fields and values that are not
    finite numbers are rejected with the path and line named.
    """
    labels, values = [], []
    with open(Path(path), newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [s.strip() for s in header] != _CSV_HEADER:
            raise ValueError(f"{path}: expected header 'label,value'")
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            if not row:
                raise ValueError(f"{where}: blank line")
            if len(row) != 2:
                raise ValueError(f"{where}: expected two fields")
            label, text = row
            try:
                value = float(text)
            except ValueError:
                raise ValueError(f"{where}: value for {label!r} is not a number: {text!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{where}: value for {label!r} is not finite: {text!r}")
            labels.append(label)
            values.append(value)
    return HypothesisSet(tuple(labels)), np.asarray(values, dtype=float)
