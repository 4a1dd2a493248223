"""Credibility functions, the probability axioms, and labeled-vector CSV.

A credibility function assigns each hypothesis a number in [0, 1] measuring
how plausible it is that the hypothesis is the best one in the set.  A
probability vector is the normalized special case: non-negative entries
summing to one.  Hypotheses are vector positions, labeled in CSV files;
events over the finite set are implicit (the probability of a subset is
the sum of its atom entries), so no event type is needed.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: Default tolerance on |sum - 1| when testing for probabilistic vectors.
DEFAULT_EPS = 1e-9


def as_values(x, what: str = "entries", frozen: bool = False) -> np.ndarray:
    """The float64 vector behind a wrapper (its ``values``) or an array-like:
    the one conversion of every public vector input.  Any shape but a
    non-empty 1-d vector, a bool, string or object dtype and a list holding a
    bool (which numpy reads as a number) raise ``ValueError`` naming ``what``;
    a float64 array costs a look at its dtype and shape alone.  ``frozen``, for
    the vector types, returns a read-only copy and refuses a non-finite entry."""
    v = getattr(x, "values", x)
    a = np.asarray(v)
    if a.ndim != 1 or a.size == 0:
        raise ValueError(f"{what}: expected a non-empty 1-d vector, got shape {a.shape}")
    listed_bool = a is not v and not isinstance(v, np.ndarray) and any(isinstance(e, (bool, np.bool_)) for e in v)
    if a.dtype.kind not in "fiu" or listed_bool:
        raise ValueError(f"{what}: must be numbers, not booleans, strings or objects")
    if not frozen:
        return a.astype(float, copy=False)
    a = np.array(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    a.flags.writeable = False
    return a


class Credibility:
    """Per-hypothesis plausibility scores, each in [0, 1].

    Entries need not sum to one.  Immutable after construction.  Refuses
    what :func:`as_values` refuses when ``frozen``, and entries outside [0, 1].
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        v = as_values(values, "credibility entries", frozen=True)
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise ValueError("credibility entries must lie in [0, 1]")
        self._values = v

    @property
    def values(self) -> np.ndarray:
        return self._values

    def __len__(self) -> int:
        return self._values.size

    def __repr__(self) -> str:
        return f"Credibility({self._values.tolist()})"


class ProbabilityVector:
    """Non-negative vector summing to one within ``DEFAULT_EPS``.

    Immutable after construction; safe to share across threads.  Refuses
    what :func:`as_values` refuses when ``frozen``, negative entries and sums off 1.
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        self._values = self._checked(as_values(values, "probability entries", frozen=True))

    @classmethod
    def _adopt(cls, v: np.ndarray) -> "ProbabilityVector":
        """Wrap a float64 array that no one else holds, without copying it.

        The checks of the constructor run, and ``v`` becomes read-only.
        """
        self = cls.__new__(cls)
        self._values = cls._checked(as_values(v, "probability entries"))
        return self

    @staticmethod
    def _checked(v: np.ndarray) -> np.ndarray:
        lowest, total = _min_and_sum(v, "probability entries")
        if not lowest >= 0.0:
            raise ValueError("probability entries must be non-negative")
        if abs(total - 1.0) > DEFAULT_EPS:
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


def _min_and_sum(v: np.ndarray, what: str) -> tuple[float, float]:
    """``v.min()`` and, where that is non-negative, ``v.sum()`` (else NaN).

    Raises ``ValueError(f"{what} must be finite")`` on a NaN or infinite
    entry, before any other fault is reported.  The sum comes after the
    min: a sum that meets both +inf and -inf warns, and a min that is NaN
    or -inf has already found a bad entry.  A full finiteness test runs
    only where the min is negative or the sum is not finite (+inf, or an
    overflow).
    """
    lowest = float(v.min())
    total = float(v.sum()) if lowest >= 0.0 else math.nan
    if not math.isfinite(total) and not np.isfinite(v).all():
        raise ValueError(f"{what} must be finite")
    return lowest, total


def is_probabilistic(c, eps: float = DEFAULT_EPS) -> bool:
    """True iff all entries are >= 0 and the total is within ``eps`` of 1.

    On the finite algebra, additivity over disjoint events reduces to
    additivity of the atoms, so this atomic test suffices.  Accepts
    :class:`Credibility`, :class:`ProbabilityVector`, or any array-like.
    A negative or NaN ``eps`` raises ``ValueError``.
    """
    if not eps >= 0.0:
        raise ValueError(f"eps must be non-negative, got {eps!r}")
    lowest, total = _min_and_sum(as_values(c, "c"), "entries")
    return lowest >= 0.0 and abs(total - 1.0) <= eps


def ideal_credibility(j: int, n: int) -> ProbabilityVector:
    """The vector assigning 1 to hypothesis ``j`` and 0 to all others; ``j`` and ``n >= 1`` must be integers."""
    j, n = checked_int(j, "j"), checked_int(n, "n", 1)
    if not 0 <= j < n:
        raise IndexError(f"hypothesis index {j} out of range for n={n}")
    v = np.zeros(n)
    v[j] = 1.0
    return ProbabilityVector(v)


def uniform(n: int) -> ProbabilityVector:
    """The uniform distribution over ``n`` hypotheses; ``n`` must be an integer of at least 1."""
    n = checked_int(n, "n", 1)
    return ProbabilityVector(np.full(n, 1.0 / n))


_CSV_HEADER = ["label", "value"]


def reject_unknown_keys(obj: dict, allowed: frozenset, what: str) -> None:
    """Raise ``ValueError`` naming every key of a parsed literal outside the
    set ``allowed``; a literal within it costs one subset test of its keys."""
    if not obj.keys() <= allowed:
        raise ValueError(f"{what}: unknown keys {sorted(obj.keys() - allowed)}")


def required_key(obj: dict, key: str, what: str):
    """``obj[key]`` of a parsed literal; a missing key raises ``ValueError``
    naming ``what`` and the key."""
    if key not in obj:
        raise ValueError(f"{what}: missing key {key!r}")
    return obj[key]


def json_number(value, what: str) -> float:
    """A JSON number (or a numpy number) as a float; booleans, strings and
    other types are rejected with ``what`` (the key) named.  A float skips
    the slower ``numbers.Real`` test: a config of 512 models makes about 2000 calls."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValueError(f"{what}: must be a number, got {value!r}")
    return float(value)


def negative_number(value, what: str) -> float:
    """:func:`json_number`, also refusing a number that is not finite and negative (a scale ``a``)."""
    a = json_number(value, what)
    if not (math.isfinite(a) and a < 0.0):
        raise ValueError(f"{what}: must be negative, got {value!r}")
    return a


def checked_int(value, what: str, least: int | None = None) -> int:
    """``value`` as an ``int``, numpy integers too; a bool, a non-integer or
    an integer below ``least`` raises ``ValueError`` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what}: must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be at least {least}")
    return int(value)


def unit_scale(x: np.ndarray) -> float:
    """A power of two that takes the largest magnitude of ``x`` to [0.5, 1),
    within 2^±1021 (1.0 when it is not finite).

    Sums and squares taken of the scaled values, then scaled back, neither
    overflow nor underflow on the way.  Scaling by a power of two is exact
    and commutes with rounding, and sqrt(4^m v) = 2^m sqrt(v), so a result
    in the normal range keeps every bit of the unscaled one."""
    return math.ldexp(1.0, -min(max(math.frexp(max(x.max(), -x.min()))[1], -1021), 1021))


#: Bytes of one :func:`format_floats` field; the longest positive output,
#: ``d.dddddddddddddddde-XXX``, is 23.
FLOAT_FIELD = 24
#: Entries formatted at a time, by :func:`format_floats` and by the rows of
#: ``results.csv``: a block makes about 120 numpy calls whatever its size,
#: so at 4096 their fixed cost made formatting 15% slower; from 16384 on,
#: a block of rows and its NUL mask outgrow a 2 MB L2 cache, and encoding
#: slows again (measured on the benchmark's sim-wide config).
FLOAT_BLOCK = 8192
# rows of the powers-of-ten table, k = 16 - X for k in [-_POW_LO, _POW_HI]:
# 16 - X ranges over [-292, 340] for the decimal exponents X of positive
# doubles, one more either way before the exponent is corrected
_POW_LO, _POW_HI = 293, 341
_SPLIT = 2.0**27 + 1  # Dekker's constant: a double into two 26-bit halves
# bound on the error of the fraction of D, proved in format_floats
_TIE_TOL = 2.0**-47
_MAX_FLOAT = np.finfo(float).max
_tables = None


def _words(text: bytes) -> list:
    """``text`` NUL-padded to 24 bytes, as three little-endian 64-bit words."""
    value = int.from_bytes(text, "little")
    return [(value >> (64 * i)) & (2**64 - 1) for i in range(3)]


def _split(x):
    """Dekker's split of ``x`` into ``hi + lo``, each with at most 26 significant bits."""
    c = x * _SPLIT
    hi = c - (c - x)
    return hi, x - hi


def _powers_of_ten() -> np.ndarray:
    """Rows ``[H, L, Hh, Hl, 2**-s]`` for k in [-_POW_LO, _POW_HI]: ``H + L``
    is ``10**k * 2**s`` to 106 bits, each correctly rounded from the exact
    value; ``Hh + Hl`` is Dekker's split of ``H``.  ``s`` is -512 for
    k > 250 and 512 for k < -250, so that ``H`` and ``L`` are normal."""
    from fractions import Fraction  # here, so that importing credal stays as fast

    rows = []
    for k in range(-_POW_LO, _POW_HI + 1):
        s = -512 if k > 250 else 512 if k < -250 else 0
        exact = Fraction(10) ** k * Fraction(2) ** s
        high = float(exact)
        rows.append([high, float(exact - Fraction(high)), 0.0, 0.0, 2.0**-s])
    table = np.array(rows)
    table[:, 2], table[:, 3] = _split(table[:, 0])
    return table


def _format_tables():
    """Lookup tables of :func:`format_floats`, built on first use.

    ``powers``: the double-double powers of ten of :func:`_powers_of_ten`;
    ``groups``: the digits of 0000 .. 9999, each as one little-endian word;
    ``trailing``: their trailing zero digits (4 for 0000); then the tables
    of :func:`_layout_tables`.  All are built at once, so that no table is
    allocated between the blocks of an encode.
    """
    global _tables
    if _tables is None:
        digits = [f"{i:04d}" for i in range(10_000)]
        groups = np.array([_words(g.encode())[0] for g in digits], dtype=np.uint64)
        trailing = np.array([len(g) - len(g.rstrip("0")) for g in digits])
        _tables = (_powers_of_ten(), groups, trailing) + _layout_tables()
    return _tables


def _layout_tables():
    """The layout of :func:`_layout`, by decimal exponent ``X`` and by form.

    The exponents fall in 23 classes, ``c = clip(X + 5, 0, 22)``: 0 and 22
    are exponent notation, 1 .. 21 fixed, 1 .. 4 of them below 1.  A form
    is a class with a number of significant digits, ``nd``, at
    ``c * 18 + nd``.  Indexed by ``X + 324``: ``forms``, the form of
    ``nd = 17``, and ``shifts``, the shift of the digits in bits.  Indexed
    by form: ``masks[kind, word]``, the masks ``keep`` and ``tail``, each as
    three words.  Indexed by ``(X + 324) * 18 + nd``: ``leads``, the three
    words of the lead cut at the length of the text, and in exponent
    notation the suffix ``e-324`` .. ``e+308`` after it; 633 x 18 x 3
    words, 273 KB.
    """
    shifts, lengths, masks = [], [], []
    for c in range(23):
        x_exp, small = c - 5, 0 < c < 5
        keep = 0 if small else x_exp + 1 if 0 < c < 22 else 1
        shift = 1 - x_exp if small else 1
        shifts.append(8 * shift)
        for nd in range(18):
            length = shift + nd if small else nd + 1 if nd > keep else keep
            lengths.append(length)
            # keep: the digits before the point; tail: the shifted digits
            # after it; lead: the point, or below 1 the "0." and zeros
            # before the digits; all cut at the length
            point = max(keep, 1)
            tail = b"\0" * (point + 1) + b"\xff" * (length - point - 1)
            lead = b"0." + b"0" * (shift - 2) if small else b"\0" * keep + b"."
            masks.append([_words(k) for k in (b"\xff" * keep, tail, lead[:length])])
    c = np.clip(np.arange(-324, 309) + 5, 0, 22)
    masks = np.array(masks, dtype=np.uint64).transpose(1, 2, 0).copy()
    # each exponent's suffix, NUL-padded to 5 bytes, placed after the text of
    # each digit count; both exponent-notation classes have class 0's lengths.
    # Written in place, so that building the table allocates no copy of it
    sci = c % 22 == 0
    suffix = np.array([f"e{x:+03d}".encode() for x in range(-324, 309)], "S5")[:, None].view(np.uint8)
    leads = np.zeros((c.size, 18, 3), "<u8")
    text = leads.view(np.uint8)
    for nd, at in enumerate(lengths[:18]):
        text[sci, nd, at : at + 5] = suffix[sci]
    for w in range(3):
        leads[..., w] |= np.take(masks[2, w], c[:, None] * 18 + np.arange(18))
    return c * 18 + 17, np.array(shifts, dtype=np.uint64)[c], masks[:2].copy(), leads.reshape(-1, 3)


def _scaled(v: np.ndarray, x_exp: np.ndarray):
    """``D = v * 10**(16 - x_exp)`` as ``whole + frac``: an int64 and a
    float in [0, 1], within the bound of :func:`format_floats`."""
    h, lo, hh, hl, unscale = np.take(_format_tables()[0], _POW_LO + 16 - x_exp, axis=0).T
    a = v * unscale
    ah, al = _split(a)
    p = a * h
    # a * h - p exactly (Dekker's product), plus a * lo
    e = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    e += a * lo
    floor = np.floor(e)
    return p.astype(np.int64) + floor.astype(np.int64), e - floor


def _digits(v: np.ndarray):
    """The 17 significant digits of each positive finite ``v`` as an int64,
    its decimal exponent, and a mask of the entries too close to a rounding
    tie to trust."""
    # D = v * 10**(16 - X) has 17 digits before the point once X is
    # floor(log10 v); log10 can miss by one near a power of ten
    x_exp = np.floor(np.log10(v)).astype(np.int64)
    whole, frac = _scaled(v, x_exp)
    off = (whole < 10**16).astype(np.int64) - (whole >= 10**17)
    miss = np.flatnonzero(off)
    if miss.size:
        x_exp[miss] -= off[miss]
        whole[miss], frac[miss] = _scaled(v[miss], x_exp[miss])
    # now D is in [1e16, 1e17) up to its error, so it rounds into
    # [1e16, 1e17]; 1e17 carries into the exponent
    n = whole + (frac > 0.5)
    carry = n == 10**17
    n[carry] = 10**16
    x_exp[carry] += 1
    # within _TIE_TOL of .5 the exact D may round the other way
    return n, x_exp, np.abs(frac - 0.5) <= _TIE_TOL


def _layout(n: np.ndarray, x_exp: np.ndarray, text: np.ndarray) -> None:
    """Write the ``%.17g`` text of the 17-digit integers ``n`` with decimal
    exponents ``x_exp`` into ``text``, three little-endian words (24
    NUL-padded bytes) per entry.

    Each word of the text is ``(digits & keep) | (shifted & tail) | lead``,
    with the masks ``keep``, ``tail`` and ``lead`` looked up by the class of
    the exponent and the number of significant digits: the first digits
    (the integer part in fixed notation, the leading digit in exponent
    notation), then the digits shifted one byte on, past the point, cut
    after the last significant digit.  Fixed notation with ``X < 0`` keeps
    no digit and shifts by ``1 - X``, behind a lead of ``0.`` and ``-X - 1``
    zeros.  In exponent notation the lead also holds the suffix, placed
    after the last digit, so the suffix costs no pass of its own.
    """
    _, groups, trailing, forms, shifts, masks, leads = _format_tables()
    # 8 + 9 digits, then groups of 4, 4 | 4, 4, 1 in int32
    high = n // 10**9
    low = (n - high * 10**9).astype(np.int32)
    high = high.astype(np.int32)
    tens = low // 10
    g0, g2 = high // 10_000, tens // 10_000
    g = [g0, high - g0 * 10_000, g2, tens - g2 * 10_000]
    last = low - tens * 10
    # trailing zero digits: 1 where the last digit is 0, then a group of four
    # at a time while the groups after it are 0000
    zeros = np.zeros(n.size, np.int64)
    at = np.flatnonzero(last == 0)
    zeros[at] = 1
    for group in reversed(g):
        if not at.size:
            break
        group = group[at]
        zeros[at] += np.take(trailing, group)
        at = at[group == 0]
    e = x_exp + 324
    form = np.take(forms, e) - zeros
    u64 = np.uint64
    bits = np.take(shifts, e)
    back = u64(64) - bits
    a0 = np.take(groups, g[0]) | (np.take(groups, g[1]) << u64(32))
    a1 = np.take(groups, g[2]) | (np.take(groups, g[3]) << u64(32))
    a2 = (last + ord("0")).astype(u64)
    shifted = a0 << bits, (a1 << bits) | (a0 >> back), (a2 << bits) | (a1 >> back)
    # the lead and any suffix, by exponent and digit count, in one gather
    lead = np.take(leads, e * 18 + (17 - zeros), axis=0)
    for w, (digits, moved) in enumerate(zip((a0, a1, a2), shifted)):
        keep, tail = (np.take(m, form) for m in masks[:, w])
        text[:, w] = (digits & keep) | (moved & tail) | lead[:, w]


def _format_block(x: np.ndarray, out: np.ndarray) -> None:
    """Write ``%.17g`` of the 1-d float64 ``x`` into the contiguous ``S24`` array ``out``."""
    if x.min() > 0.0 and x.max() <= _MAX_FLOAT:
        # all positive and finite (a NaN fails both tests): no gather, no scatter
        n, x_exp, slow = _digits(x)
        _layout(n, x_exp, out[:, None].view("<u8"))
    else:
        bits = x.view(np.int64)
        out[bits == 0] = b"0"
        fast = (x > 0.0) & (x <= _MAX_FLOAT)
        slow = ~fast & (bits != 0)
        at = np.flatnonzero(fast)
        if at.size:
            n, x_exp, near = _digits(x[at])
            text = np.empty((at.size, 3), "<u8")
            _layout(n, x_exp, text)
            out[at] = text.view(f"S{FLOAT_FIELD}")[:, 0]
            slow[at[near]] = True
    if slow.any():
        out[slow] = [format(v, ".17g").encode() for v in x[slow].tolist()]


def format_floats(values) -> np.ndarray:
    """``%.17g`` of every entry as ASCII bytes, in an ``S24`` array shaped like ``values``.

    Equal, entry for entry, to ``f"{v:.17g}".encode()``.  A positive
    finite ``v`` is formatted in bulk: with ``X = floor(log10 v)``, corrected
    once if needed, the 17 digits are ``D = v * 10**(16 - X)`` rounded to an
    integer.  ``D`` is computed in float64 alone, as an unevaluated sum
    ``p + e``.  With ``k = 16 - X``, a table holds ``H = fl(10**k * 2**s)``
    and ``L = fl(10**k * 2**s - H)``, both correctly rounded from the exact
    values (``s = -512`` for ``k > 250``, ``512`` for ``k < -250``, else 0,
    so that both are normal).  ``a = v * 2**-s`` is exact, ``p = fl(a * H)``,
    and Dekker's (1971) product gives ``a * H - p`` exactly from the 26-bit
    halves of ``a`` and ``H``; ``e`` is that error plus ``fl(a * L)``.  The
    digits are ``floor(p) + floor(e)``, plus one where the fraction
    ``e - floor(e)`` exceeds .5.

    Error bound: the fraction is within ``2**-47`` of the exact fraction of
    ``D``.  Once ``X`` is right, ``D < 2**57``, so ``p`` is an integer
    (``p > 2**53``) and ``|a * H - p| <= ulp(p) / 2 <= 8``; ``|L| <= 2**-53
    H``, so ``|a * L| < 16`` and ``fl(a * L)`` is off by at most ``2**-50``;
    their sum is below 32, so ``e`` is off by at most ``2**-49`` more; the
    table's own error, ``|10**k * 2**s - H - L| <= ulp(L) / 2 <= 2**-53
    |L|``, adds at most ``2**-53 * 16 = 2**-49``; and ``e - floor(e)`` is
    exact unless ``-1/2 < e < 0``, where it is rounded by at most
    ``2**-54``.  The total, ``2.5 * 2**-49 + 2**-54``, is below ``2**-47``.
    Only where the computed fraction is within ``2**-47`` of .5 could the
    rounding go either way; such an entry, in practice an exact tie like
    ``1000000000000000.25``, falls back to Python's ``format``.  So do
    zeros with the sign bit set, negative and non-finite entries.  +0.0 is
    ``b"0"``.  The output is the same on every platform.  It is written
    into a fresh array, ``FLOAT_BLOCK`` entries at a time, so temporaries stay small.
    """
    values = np.asarray(values, dtype=float)
    out = np.empty(values.shape, dtype=f"S{FLOAT_FIELD}")
    x, flat = values.reshape(-1), out.reshape(-1)
    for start in range(0, x.size, FLOAT_BLOCK):
        _format_block(x[start : start + FLOAT_BLOCK], flat[start : start + FLOAT_BLOCK])
    return out


@contextmanager
def _rewrite(path, mode: str, **kwargs):
    """``open(path, mode, **kwargs)`` for writing, but an existing file is
    overwritten in place rather than emptied first: on some file systems
    truncating a large file to zero costs more than writing it again.

    On leaving the block, also by an exception, a file longer than what was
    written is shrunk to it, so it holds exactly the bytes written, as with
    plain ``open``.  A missing file is created with the same permission bits.
    A path of size 0, such as ``/dev/null`` or a FIFO, is never shrunk (nor
    asked its position).  A process killed before the shrink can leave the
    old file's tail after the new bytes.
    """
    with open(Path(path), mode, opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666), **kwargs) as fh:
        try:
            yield fh
        finally:
            size = os.fstat(fh.fileno()).st_size
            if size and size > fh.tell():
                fh.truncate()


def write_labeled_csv(path, labels, values) -> None:
    """Write ``label,value`` rows under a header, values as ``%.17g`` (round-trip exact).
    Only what :func:`read_labeled_csv` reads back is written: a non-string, empty or repeated
    label, or a non-finite value, raises ``ValueError`` naming the label before the file is opened.
    An existing file is overwritten in place and shrunk at the end, so a process killed
    mid-write can leave the old file's tail after the new rows."""
    v = as_values(values, "values")
    labels = list(labels)
    if len(labels) != v.size:
        raise ValueError("labels and values must have the same length")
    seen = set()
    for label, value in zip(labels, v.tolist()):
        if not isinstance(label, str) or not label:
            raise ValueError(f"label {label!r}: must be a non-empty string")
        if label in seen:
            raise ValueError(f"repeated label {label!r}")
        if not math.isfinite(value):
            raise ValueError(f"value for {label!r} is not finite: {value!r}")
        seen.add(label)
    with _rewrite(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for lab, text in zip(labels, format_floats(v).tolist()):
            writer.writerow([lab, text.decode()])


def read_labeled_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a ``label,value`` CSV as ``(labels, values)``, skipping a leading byte-order mark.

    Blank lines, rows without exactly two fields, empty or repeated labels
    and values that are not finite numbers are rejected with the path and
    line named, and so is a file with a header and no rows.
    """
    values = {}  # by label, in file order
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
            if not label:
                raise ValueError(f"{where}: empty label")
            if label in values:
                raise ValueError(f"{where}: repeated label {label!r}")
            try:
                value = float(text)
            except ValueError:
                raise ValueError(f"{where}: value for {label!r} is not a number: {text!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{where}: value for {label!r} is not finite: {text!r}")
            values[label] = value
    if not values:
        raise ValueError(f"{path}: no rows after the header")
    return tuple(values), np.array(list(values.values()), dtype=float)
