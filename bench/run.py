"""Benchmark of the credal library, end to end and layer by layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (any checkout holding ``src/credal``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit, the machine, and any failed check.

Workloads (one client, closed loop, batch passes; each in a fresh process):

* ``sim-medium``: `credal simulate` on 8 Gaussian models (the criterion-9
  good/near/far models plus 5 drawn from the seed), horizon 200,
  10 replications, all 3 rules.  Small n, so mixture CRPS and per-step
  Python overhead dominate; exposes the ratio-form underflow.
* ``sim-wide``: `credal simulate` on 512 models (about 3/4 Gaussian, 1/4
  point mass, spread locations, plus `far`), horizon 25, 5 replications,
  rules predictive and general_bayes.  Per-model CRPS loops and CSV encoding
  dominate, and the predictive rule zeroes most models every step.
* ``kernels-large-n``: direct calls of `predictive_update`,
  `inferential_update` and `project_to_simplex` at n = 8 .. 1e6 and of
  `verify_dominance` on non-probabilistic (large n) and probabilistic
  (n = 8 .. 512) vectors.  No simulation work.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (median
over several fresh processes of interpreter start, ``import credal`` and
input generation), ``wall_norm`` (median over timed passes, after a warm-up
pass, of the pass's wall time divided by the time of a fixed calibration loop
run just before it) and ``peak_rss_mb`` (peak resident memory of the workload
process).  A shared virtual machine can drift in speed by 20% or more over
minutes (measured on a 2-vCPU KVM guest), moving every workload with it; the
ratio cancels that drift, and the raw median ``wall_s`` is printed next to it.  The correctness context
(``fail_frac``, and on the simulation workloads ``ratio_zero_rows`` and
``mixture_crps_abs_err``) is printed as report lines and, with ``--trace 1``,
returned among the per-layer metrics.  These can legitimately read 0, so
they carry no regression bound.

With ``--trace 1`` the run alternates untraced and traced passes and returns
per-layer metrics computed from spans recorded around each layer boundary
(see ``bench/tracing.py``); the spans of the last traced pass are written to
``bench/out/<size>/<workload>/trace.json``.

``--size tiny`` shrinks every workload for the smoke test in ``bench/tests``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench.inputs import SIZES, WORKLOADS  # noqa: E402
from bench.metrics import END_TO_END_UNITS, per_layer_units  # noqa: E402

SETUP_SAMPLES = 5  # fresh processes timed for setup_s, the measured run's included
TIME_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, out_dir: Path, deadline: float, setup_only: bool = False):
    """Run `python -m bench.worker`; returns (exit code, seconds to its READY line, result).

    Report lines it prints are passed through; it is killed at ``deadline``.
    """
    cmd = [
        sys.executable, "-m", "bench.worker",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, "--out-dir", str(out_dir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    setup_s = result = None
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line == "READY" and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                print(line, flush=True)
        return proc.wait(), setup_s, result
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def _git_sha() -> str:
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if not head.startswith("ref: "):
        return head if head != "unknown" else "unknown (not a git checkout)"
    ref = head[len("ref: "):]
    sha = _read(git / ref)
    if sha != "unknown":
        return sha
    for line in _read(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine_info(numpy_version: str) -> dict:
    cpu = "unknown"
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"l{level}"] = _read(index / "size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(),
    }


def _cache_note(l3: str, n: int) -> str:
    """Whether the four length-n float vectors of the largest kernel case fit in L3."""
    working_set = 4 * 8 * n
    scale = {"K": 2**10, "M": 2**20, "G": 2**30}
    if not (l3[:-1].isdigit() and l3[-1] in scale):
        return f"L3 size unknown; the largest kernel inputs take {working_set / 2**20:.1f} MiB"
    if int(l3[:-1]) * scale[l3[-1]] >= working_set:
        return (f"the largest kernel inputs ({working_set / 2**20:.1f} MiB) fit in the {l3} L3 cache, so this "
                "workload measures compute and interpreter cost, not DRAM bandwidth")
    return f"the largest kernel inputs ({working_set / 2**20:.1f} MiB) exceed the {l3} L3 cache"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=sorted(SIZES))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "credal" / "__init__.py").is_file():
        print(f"error: no credal sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    out_dir = ROOT / "bench" / "out" / args.size / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            code, setup_s, _ = run_worker(args, out_dir, deadline, setup_only=True)
            if code != 0 or setup_s is None:
                print(f"error: set-up probe exited with {code}", file=sys.stderr)
                return 1
            setup.append(setup_s)
    code, setup_s, result = run_worker(args, out_dir, deadline)
    if code != 0 or result is None:
        print(f"error: workload process exited with {code} and no result", file=sys.stderr)
        return 1

    metrics = {}
    if not args.trace:
        setup.append(setup_s)
        metrics["setup_s"] = statistics.median(setup)
        print(f"setup_s: median of {len(setup)} fresh processes, samples {[round(s, 4) for s in setup]}")
        units = END_TO_END_UNITS
    else:
        units = per_layer_units()
    metrics.update(result["metrics"])
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} are missing or unexpected", file=sys.stderr)
        return 1

    info = machine_info(result["numpy"])
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload {args.workload}, seed {args.seed}, size {args.size}, trace {args.trace}, "
          f"one client, closed loop, BLAS/OpenMP threads pinned to 1")
    if args.workload == "kernels-large-n":
        print(_cache_note(info["l3"], max(SIZES[args.size]["kernels-large-n"]["update_sizes"])))
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"fail_frac = {fail_frac!r} fraction ({result['failed']} of {result['attempted']} operations failed)")
    for name in sorted(metrics) if args.trace else metrics:
        print(f"{name} = {metrics[name]!r} {units[name]}")

    record = {"args": vars(args), "machine": info, **{k: result[k] for k in ("attempted", "failed", "problems")},
              "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}}
    (out_dir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
