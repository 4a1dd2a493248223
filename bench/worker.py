"""One workload in one fresh process: set up, warm up, time passes, check outputs.

Started by ``bench/run.py`` as ``python -m bench.worker`` from the repository
root with ``src`` on the path and BLAS/OpenMP threads pinned to 1 in the
environment.  Prints ``READY`` once set-up is done, human-readable report
lines, and finally ``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import credal
from credal import cli, dominance, updating
from credal.experiments import generate_data
from credal.measures import forecast_from_json

from . import inputs
from .metrics import CALLS_AND_SELF, COUNTS, SELF_ONLY, percentile_keys
from .reference import ResultsCheck
from .tracing import PassStats, Recorder, install, write_trace

MIN_PASSES = 3  # timed passes, even when one pass outlasts --seconds
MIN_TRACED_PAIRS = 2  # (untraced, traced) pass pairs in a traced run
AGREE_TOL = 1e-12  # predictive update vs simplex projection
SUM_TOL = 1e-9


class Tally:
    """Operations attempted and failed, with the first few problems kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, problems=()) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(list(problems)[: max(0, 5 - len(self.problems))])


def _guard(fn, *args):
    """Call ``fn``; an exception becomes the result, to be counted as a failure."""
    try:
        return fn(*args)
    except Exception as exc:  # any error the library raises is a failed operation
        return exc


class SimWorkload:
    """`credal simulate` through `cli.dispatch`; one pass is one dispatch.

    Each pass must reproduce the first pass byte for byte; the first pass's
    output gets the full check once timing is over, so the checker's memory
    stays out of ``peak_rss_mb``.
    """

    def __init__(self, name: str, seed: int, size: str, out_dir: Path):
        config = out_dir / "config.json"
        self.cfg = inputs.write_sim_config(config, name, seed, size)
        self.argv = ["simulate", "--config", str(config), "--out-dir", str(out_dir / "results")]
        self.csv_path = out_dir / "results" / "results.csv"
        self.reference = None  # (csv bytes, summary) of the first pass
        self.matching = 0  # passes identical to the first
        self.ratio_zero_rows = 0
        self.mixture_crps_abs_err = math.nan

    def run_pass(self, tally: Tally) -> float:
        stdout = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = _guard(cli.dispatch, self.argv)
        elapsed = perf_counter() - t0
        tally.add(1, *self._compare(code, stdout.getvalue()))
        return elapsed

    def _compare(self, code, stdout: str) -> tuple[int, list[str]]:
        if code != 0:
            return 1, [f"simulate dispatch returned {code!r}"]
        try:
            output = (self.csv_path.read_bytes(), json.loads(stdout))
        except ValueError:
            return 1, [f"simulate printed no JSON summary: {stdout[:200]!r}"]
        if self.reference is None:
            self.reference = output
        if output != self.reference:
            return 1, ["results.csv or the summary differs between two passes with the same seed"]
        self.matching += 1
        return 0, []

    def finish(self, tally: Tally) -> None:
        if self.reference is None:
            return
        data, summary = self.reference
        truth = forecast_from_json(self.cfg["truth"])
        observations = [
            generate_data(self.cfg["seed"], truth, self.cfg["horizon"], replication=rep)
            for rep in range(self.cfg["replications"])
        ]
        check = ResultsCheck(self.cfg, data.decode(), summary, observations)
        self.ratio_zero_rows = check.ratio_zero_rows
        self.mixture_crps_abs_err = check.mixture_crps_abs_err
        if check.problems:  # every pass that reproduced this output failed with it
            tally.add(0, self.matching, check.problems)

    def notes(self) -> list[str]:
        c = self.cfg
        return [
            f"{len(c['models'])} models x {c['horizon']} steps x {c['replications']} replications "
            f"x {len(c['rules'])} rules; a pass is one `credal simulate` dispatch, results.csv included"
        ]


class KernelWorkload:
    """Direct calls of the update, projection and dominance kernels.

    A pass times only the calls; each call's output is checked, and
    released, between timed sections.
    """

    def __init__(self, seed: int, size: str):
        self.inputs = inputs.kernel_inputs(seed, size)
        self.ratio_zero_rows = 0
        self.mixture_crps_abs_err = math.nan

    def run_pass(self, tally: Tally) -> float:
        elapsed = 0.0
        for case in self.inputs.cases:
            for _ in range(case.repeats):
                t0 = perf_counter()
                pred = _guard(updating.predictive_update, case.prior, case.additive)
                inf = _guard(updating.inferential_update, case.prior, case.multiplicative)
                proj = _guard(dominance.project_to_simplex, case.q)
                elapsed += perf_counter() - t0
                tally.add(3, *_check_update(case.n, pred, inf, proj))
        for dominated, vectors in ((True, self.inputs.nonprob), (False, self.inputs.prob)):
            for c in vectors:
                t0 = perf_counter()
                report = _guard(dominance.verify_dominance, c)
                elapsed += perf_counter() - t0
                tally.add(1, *_check_dominance(len(c), dominated, report))
        return elapsed

    def finish(self, tally: Tally) -> None:
        pass

    def notes(self) -> list[str]:
        return [
            "calls per pass: "
            + ", ".join(f"n={c.n} x{c.repeats}" for c in self.inputs.cases)
            + " of predictive_update, inferential_update and project_to_simplex; verify_dominance on "
            + f"{len(self.inputs.nonprob)} non-probabilistic and {len(self.inputs.prob)} probabilistic vectors"
        ]


def _check_update(n: int, pred, inf, proj) -> tuple[int, list[str]]:
    errors = [r for r in (pred, inf, proj) if isinstance(r, Exception)]
    if errors:
        return len(errors), [f"n={n}: {type(e).__name__}: {e}" for e in errors]
    failed, problems = 0, []
    p = inf.values
    if not (np.all(p > 0.0) and abs(float(p.sum()) - 1.0) <= SUM_TOL):
        failed += 1
        problems.append(f"inferential posterior at n={n} has a zero or does not sum to 1")
    q = pred.posterior.values
    gap = float(np.max(np.abs(q - proj.values)))
    if not (np.all(q >= 0.0) and abs(float(q.sum()) - 1.0) <= SUM_TOL and gap <= AGREE_TOL):
        failed += 2
        problems.append(
            f"predictive update at n={n} is not a probability vector or differs "
            f"from the simplex projection by {gap:.3g}"
        )
    return failed, problems


def _check_dominance(n: int, dominated: bool, report) -> tuple[int, list[str]]:
    if isinstance(report, Exception):
        return 1, [f"n={n}: {type(report).__name__}: {report}"]
    if bool(report.dominated) != dominated:
        kind = "non-probabilistic" if dominated else "probabilistic"
        return 1, [f"{kind} vector at n={n} reported dominated={report.dominated}"]
    return 0, []


def _median(values) -> float:
    return float(statistics.median(values))


def _quartiles(values) -> str:
    if len(values) < 2:
        return "single pass"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"quartiles {q1:.4f} .. {q3:.4f}"


_CALIBRATION_INPUT = np.random.default_rng(12345).standard_normal(1024)


def calibration_s() -> float:
    """Time of a fixed mix of interpreter and small-array numpy work (~40 ms).

    It does not touch credal.  Timed just before each pass, it tracks the
    host's speed, which on a shared VM drifts by 20% or more from minute to
    minute and moves every workload with it; pass time over calibration time
    cancels that drift.
    """
    t0 = perf_counter()
    acc = 0.0
    for i in range(7000):
        acc += float(np.sort(_CALIBRATION_INPUT[i % 512 : i % 512 + 512])[256])
        for j in range(20):
            acc += j * 0.5
    return perf_counter() - t0


def _timed_pass(work, tally: Tally) -> float:
    gc.collect()  # every pass starts without the previous pass's garbage
    return work.run_pass(tally)


def run_timed(work, seconds: float, tally: Tally) -> dict:
    _timed_pass(work, tally)  # warm-up
    times, calibrations = [], []
    start = perf_counter()
    while len(times) < MIN_PASSES or perf_counter() - start < seconds:
        calibrations.append(calibration_s())
        times.append(_timed_pass(work, tally))
    ratios = [t / c for t, c in zip(times, calibrations)]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{len(times)} timed passes after 1 warm-up pass, each after a calibration loop")
    print(f"wall_s = {_median(times)!r} s (median pass wall time, {_quartiles(times)})")
    print(f"calibration_s = {_median(calibrations)!r} s (median, {_quartiles(calibrations)})")
    print(f"wall_norm: median of pass time / calibration time, {_quartiles(ratios)}")
    return {"wall_norm": _median(ratios), "peak_rss_mb": peak_mb}


def run_traced(work, seconds: float, tally: Tally, trace_path: Path, header: dict) -> dict:
    _timed_pass(work, tally)
    rec = Recorder()
    plain, traced, stats = [], [], []
    start = perf_counter()
    while len(traced) < MIN_TRACED_PAIRS or perf_counter() - start < seconds:
        plain.append(_timed_pass(work, tally))
        rec.reset()
        uninstall = install(rec)
        try:
            traced.append(_timed_pass(work, tally))
        finally:
            uninstall()
        stats.append(PassStats(rec, traced[-1]))
    write_trace(trace_path, header, rec)
    print(f"traced {len(traced)} passes alternating with {len(plain)} untraced ones; spans of the last in {trace_path}")
    last = stats[-1]
    print(f"last traced pass: layer self times {sum(last.self_s.values()):.4f} s + benchmark glue "
          f"{last.glue_s:.4f} s = pass {last.pass_s:.4f} s")
    return _layer_metrics(stats, plain, traced)


def _layer_metrics(stats: list[PassStats], plain, traced) -> dict:
    def med(fn):
        return _median([fn(s) for s in stats])

    m = {}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = statistics.median_low([s.calls[name] for s in stats])
        m[f"{name}.self_s"] = med(lambda s: s.self_s[name])
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = med(lambda s: s.self_s[name])
    m["experiments.weighted_predictive_score.total_s"] = med(
        lambda s: s.total_s["experiments.weighted_predictive_score"]
    )
    for name in COUNTS:
        m[name] = statistics.median_low([s.counts[name] for s in stats])
    steps = sum(m[f"updating.{k}_update.calls"] for k in ("inferential", "predictive", "general_bayes"))
    m["core.wrappers_per_step"] = m["core.wrappers_built"] / steps if steps else 0.0
    pooled = {}
    for s in stats:
        for key, durations in s.durations.items():
            pooled.setdefault(key, []).extend(durations)
    for metric, name, key, q in percentile_keys():
        durations = pooled.get((name, key))
        m[metric] = float(np.percentile(durations, q)) * 1e3 if durations else 0.0
    m["wall_s"] = _median(plain)
    m["trace.pass_s"] = _median(traced)
    # each traced pass against the untraced pass just before it, so host drift cancels
    m["trace.overhead_frac"] = _median([t / p for t, p in zip(traced, plain)]) - 1.0
    m["trace.glue_frac"] = med(lambda s: s.glue_s / s.pass_s)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=sorted(inputs.SIZES))
    parser.add_argument("--out-dir", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    if src not in Path(credal.__file__).resolve().parents:
        print(f"error: imported credal from {credal.__file__}, not from {src}", file=sys.stderr)
        return 2
    args.out_dir.mkdir(parents=True, exist_ok=True)
    if args.workload == "kernels-large-n":
        work = KernelWorkload(args.seed, args.size)
    else:
        work = SimWorkload(args.workload, args.seed, args.size, args.out_dir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    for line in work.notes():
        print(line)
    tally = Tally()
    if args.trace:
        header = {"workload": args.workload, "seed": args.seed, "size": args.size}
        metrics = run_traced(work, args.seconds, tally, args.out_dir / "trace.json", header)
    else:
        metrics = run_timed(work, args.seconds, tally)
    work.finish(tally)

    if isinstance(work, SimWorkload):
        print(f"ratio_zero_rows = {work.ratio_zero_rows} count (ratio-form posterior rows holding an exact 0.0)")
        print(f"mixture_crps_abs_err = {work.mixture_crps_abs_err!r} crps (worst rule, harness vs exact mean)")
    else:
        print("ratio_zero_rows, mixture_crps_abs_err: not applicable, reported as 0")
    if args.trace:
        err = work.mixture_crps_abs_err
        metrics["ratio_zero_rows"] = work.ratio_zero_rows
        metrics["mixture_crps_abs_err"] = 0.0 if math.isnan(err) else err
        metrics["fail_frac"] = tally.failed / tally.attempted
    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "metrics": metrics,
        "numpy": np.__version__,
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
