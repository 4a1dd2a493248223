"""Spans and counts around the calls between credal's layers.

Tracing wraps, from outside the library, the public functions each module
calls: a name is replaced in the namespace of the module that calls it, so
`experiments` calling `crps` is recorded even though it imported the name.
Spans (name, start, end, parent, key) are kept in memory and written out at
the end of a run.  A layer's self time is its span's duration minus the time
covered by its child spans.  Work the tracer itself does to fill counters
runs under a ``trace.bookkeeping`` span, so it is charged to the benchmark,
not to the layer that happened to call.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

BOOKKEEPING = "trace.bookkeeping"


class Recorder:
    """Spans of one pass plus counts; single-threaded."""

    def __init__(self):
        self.counts = Counter()
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.keys: list[str | None] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack = [-1]
        self.counts.clear()

    def open(self, name: str, key: str | None = None) -> int:
        i = len(self.names)
        self.names.append(name)
        self.keys.append(key)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    def spans(self) -> list[list]:
        return [list(s) for s in zip(self.names, self.starts, self.ends, self.parents, self.keys)]


def _size_key(vector) -> str:
    return f"n{np.size(getattr(vector, 'values', vector))}"


def _after_predictive(rec: Recorder, span: int, args, result) -> None:
    prior = getattr(args[0], "values", args[0])
    post = result.posterior.values
    rec.counts["updating.zeroed_total"] += len(result.zeroed)
    rec.counts["updating.reentered_total"] += int(np.count_nonzero((prior == 0.0) & (post > 0.0)))


def _after_dominance(rec: Recorder, span: int, args, result) -> None:
    v = np.asarray(getattr(args[0], "values", args[0]), dtype=float)
    kind = "prob" if np.all(v >= 0.0) and abs(float(v.sum()) - 1.0) <= 1e-9 else "nonprob"
    rec.keys[span] = f"{kind}.n{v.size}"
    rec.counts["dominance.dominated_found"] += int(bool(result.dominated))


def _after_csv(rec: Recorder, span: int, args, result) -> None:
    rec.counts["experiments.csv_bytes"] += len(result.encode())


def _span(rec: Recorder, name: str, fn, key_of=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        key = key_of(args[0]) if key_of is not None else None
        i = rec.open(name, key)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if after is not None:
            j = rec.open(BOOKKEEPING)
            after(rec, i, args, result)
            rec.close(j)
        return result

    return wrapper


def _count(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def install(rec: Recorder):
    """Wrap the layer boundaries; returns a function that restores them.

    A name the library no longer has is skipped, so the benchmark keeps
    running across refactors; its metrics then read 0.
    """
    from credal import cli, core, dominance, experiments, measures, updating

    targets = [
        (cli, "dispatch", "cli.dispatch", {}),
        (cli, "run_experiment", "experiments.run_experiment", {}),
        (experiments.ExperimentResult, "write_csv", "experiments.write_csv", {}),
        (experiments.ExperimentResult, "to_csv_text", "experiments.to_csv_text", {"after": _after_csv}),
        (experiments, "generate_data", "experiments.generate_data", {}),
        (experiments, "weighted_predictive_score", "experiments.weighted_predictive_score", {}),
        (experiments, "crps", "measures.crps", {}),
        (measures, "crps", "measures.crps", {}),
        (experiments, "crps_measure", "measures.crps_measure", {}),
        (experiments, "likelihood_score", "measures.likelihood_score", {}),
        (dominance, "project_to_simplex", "dominance.project_to_simplex", {"key_of": _size_key}),
        (dominance, "verify_dominance", "dominance.verify_dominance", {"after": _after_dominance}),
    ]
    for module in (experiments, updating):
        targets += [
            (module, "inferential_update", "updating.inferential_update", {"key_of": _size_key}),
            (module, "general_bayes_update", "updating.general_bayes_update", {"key_of": _size_key}),
            (module, "predictive_update", "updating.predictive_update",
             {"key_of": _size_key, "after": _after_predictive}),
        ]

    saved = []
    for owner, attr, name, opts in targets:
        if attr in vars(owner):
            fn = vars(owner)[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, _span(rec, name, fn, **opts))
    for cls in (core.ProbabilityVector, measures.ScoreVector):
        saved.append((cls, "__init__", cls.__init__))
        cls.__init__ = _count(rec, "core.wrappers_built", cls.__init__)

    def uninstall() -> None:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)

    return uninstall


class PassStats:
    """Per-layer figures of one traced pass, computed from its spans."""

    def __init__(self, rec: Recorder, pass_s: float):
        n = len(rec.names)
        child = [0.0] * n
        for i in range(n):
            parent = rec.parents[i]
            if parent >= 0:
                if not (rec.starts[parent] <= rec.starts[i] and rec.ends[i] <= rec.ends[parent]):
                    raise AssertionError(f"span {rec.names[i]} is not inside its parent")
                child[parent] += rec.ends[i] - rec.starts[i]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.durations = defaultdict(list)  # (name, key) -> seconds
        layer_self = 0.0
        for i in range(n):
            name, dur = rec.names[i], rec.ends[i] - rec.starts[i]
            if name == BOOKKEEPING:
                continue
            self.calls[name] += 1
            self.self_s[name] += dur - child[i]
            self.total_s[name] += dur
            layer_self += dur - child[i]
            if rec.keys[i] is not None:
                self.durations[(name, rec.keys[i])].append(dur)
        self.counts = Counter(rec.counts)
        self.pass_s = pass_s
        # everything not inside a layer's own code: loop glue between calls
        # and the tracer's bookkeeping
        self.glue_s = pass_s - layer_self


def write_trace(path, header: dict, rec: Recorder) -> None:
    """Write the spans of the last traced pass and its counts as one JSON document."""
    with open(path, "w") as fh:
        json.dump({**header, "counts": dict(rec.counts), "spans": rec.spans()}, fh)
