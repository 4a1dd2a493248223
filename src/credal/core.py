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
    """Non-negative vector summing to one (within ``eps``).

    Immutable after construction; safe to share across threads.
    """

    __slots__ = ("_values",)

    def __init__(self, values, eps: float = DEFAULT_EPS):
        v = np.array(values, dtype=float)
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
        self._values = v

    @property
    def values(self) -> np.ndarray:
        return self._values

    def __len__(self) -> int:
        return self._values.size

    def __repr__(self) -> str:
        return f"ProbabilityVector({self._values.tolist()})"


def is_probabilistic(c, eps: float = DEFAULT_EPS) -> bool:
    """True iff all entries are >= 0 and the total is within ``eps`` of 1.

    On the finite algebra, additivity over disjoint events reduces to
    additivity of the atoms, so this atomic test suffices.  Accepts
    :class:`Credibility`, :class:`ProbabilityVector`, or any array-like.
    """
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


def format_floats(values: np.ndarray) -> list:
    """:func:`format_float` of every entry, as nested lists shaped like ``values``.

    Entries equal to +0.0 (every bit clear; -0.0 still prints as ``-0``)
    share one string, since updates zero many weights.
    """
    text = np.full(values.shape, "0", dtype=object)
    nonzero = values.view(np.int64) != 0
    text[nonzero] = [f"{v:.17g}" for v in values[nonzero].tolist()]
    return text.tolist()


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
