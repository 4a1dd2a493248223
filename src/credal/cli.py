"""Command-line interface.

Subcommands: ``update`` (one updating step over CSV vectors), ``simulate``
(run an experiment config), ``dominance`` (accuracy-dominance report for a
credibility CSV), ``props`` (run the sampled suites of :mod:`credal.axioms`
on candidate combination and rescaling functions and on the additive rule's
forced zeroes).  Exit codes: 0 success, 1 a suite's outcome differed from
the expected one, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .axioms import (
    check_combination_axioms,
    check_commutation,
    regularity_violation_report,
)
from .core import DEFAULT_EPS, Credibility, ProbabilityVector, read_labeled_csv, write_labeled_csv
from .dominance import verify_dominance
from .experiments import ExperimentConfig, run_experiment
from .measures import LossValue, Mode, ModeMismatchError, ScoreVector
from .updating import general_bayes_update, inferential_update, predictive_update


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="credal")
    sub = parser.add_subparsers(dest="command", required=True)

    up = sub.add_parser("update", help="apply one updating step to a prior CSV")
    up.add_argument("--rule", required=True, choices=["inferential", "predictive", "general-bayes"])
    up.add_argument("--prior", required=True, help="prior CSV (label,value)")
    up.add_argument("--scores", required=True, help="scores CSV (label,value)")
    up.add_argument("--out", required=True, help="posterior CSV to write")
    up.add_argument("--a", type=float, default=None, help="predictive only: negative scale applied to additive scores")
    up.add_argument("--rate", type=float, default=None, help="general-bayes only: learning rate (default 1.0)")
    up.set_defaults(func=_cmd_update)

    sim = sub.add_parser("simulate", help="run an experiment config")
    sim.add_argument("--config", required=True, help="experiment config JSON")
    sim.add_argument("--out-dir", required=True, help="directory for results.csv")
    sim.set_defaults(func=_cmd_simulate)

    dom = sub.add_parser("dominance", help="accuracy-dominance report for a credibility CSV")
    dom.add_argument("--cred", required=True, help="credibility CSV (label,value)")
    dom.add_argument("--eps", type=float, default=DEFAULT_EPS)
    dom.set_defaults(func=_cmd_dominance)

    pr = sub.add_parser("props", help="run the axiom suites")
    pr.add_argument("--tol", type=float, default=1e-6)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--samples", type=int, default=1000)
    pr.set_defaults(func=_cmd_props)

    return parser


def _cmd_update(args) -> int:
    for flag, value, rule in (("--a", args.a, "predictive"), ("--rate", args.rate, "general-bayes")):
        if value is not None and args.rule != rule:
            raise ValueError(f"{flag} applies to the {rule} rule only, not to {args.rule}")
    labels, prior_values = read_labeled_csv(args.prior)
    score_labels, score_values = read_labeled_csv(args.scores)
    if labels != score_labels:
        raise ValueError("prior and scores must list the same labels in the same order")
    prior = ProbabilityVector(prior_values)

    if args.rule == "inferential":
        posterior = inferential_update(prior, ScoreVector(score_values, Mode.MULTIPLICATIVE))
    elif args.rule == "general-bayes":
        rate = 1.0 if args.rate is None else args.rate
        losses = [LossValue(float(v), rate) for v in score_values]
        posterior = general_bayes_update(prior, losses)
    else:
        if args.a is not None:
            if not args.a < 0.0:
                raise ValueError(f"--a must be negative, got {args.a!r}")
            score_values = args.a * score_values
        result = predictive_update(prior, ScoreVector(score_values, Mode.ADDITIVE))
        write_labeled_csv(args.out, labels, result.posterior.values)
        print(json.dumps({"d": result.d, "zeroed": sorted(result.zeroed), "rule": "predictive"}))
        return 0

    write_labeled_csv(args.out, labels, posterior.values)
    # the ratio-form rules never zero a weight; the smallest one shows how
    # close the update came to underflow
    print(json.dumps({"rule": args.rule, "min_posterior": float(posterior.values.min())}))
    return 0


def _cmd_simulate(args) -> int:
    from pathlib import Path

    cfg = ExperimentConfig.from_file(args.config)
    result = run_experiment(cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result.write_csv(out_dir / "results.csv")
    print(
        json.dumps(
            {
                "results": str(out_dir / "results.csv"),
                "aggregates": [
                    {
                        "rule": agg.rule,
                        "mean_mixture_crps": agg.mean_mixture_crps,
                        "se_mixture_crps": agg.se_mixture_crps,
                    }
                    for agg in result.aggregates
                ],
            }
        )
    )
    return 0


def _cmd_dominance(args) -> int:
    labels, values = read_labeled_csv(args.cred)
    report = verify_dominance(Credibility(values), eps=args.eps)
    out = {"labels": list(labels)}
    out.update(report.to_json())
    print(json.dumps(out))
    return 0


_COMBINATIONS = (
    ("multiplication", "pass", lambda a, b: a * b),
    ("addition", "pass", lambda a, b: a + b),
    ("subtraction", "fail", lambda a, b: a - b),
    ("max", "fail", max),
)
_RESCALINGS = (
    ("multiplicative-constant-scale", "pass", Mode.MULTIPLICATIVE, lambda x: 0.5 * x),
    ("additive-constant-shift", "pass", Mode.ADDITIVE, lambda x: x - 0.3),
    ("multiplicative-square", "fail", Mode.MULTIPLICATIVE, lambda x: x * x),
)


def _props_suites(tol: float, seed: int, samples: int):
    """``(suite, expected outcome, report)`` of each combination, each rescaling, then the forced zero."""
    for name, expected, f in _COMBINATIONS:
        yield f"combination/{name}", expected, check_combination_axioms(f, samples, seed, tol)
    for name, expected, mode, rescale in _RESCALINGS:
        yield f"commutation/{name}", expected, check_commutation(mode, rescale, samples, seed, tol)
    yield "regularity-violation/forced-zero", "pass", regularity_violation_report(max(1, samples // 2), seed)


def _cmd_props(args) -> int:
    out = []
    failures = 0
    for name, expected, report in _props_suites(args.tol, args.seed, args.samples):
        ok = report.passed if expected == "pass" else not report.passed
        failures += 0 if ok else 1
        out.append({"suite": name, "expected": expected, "ok": ok, "report": report.to_json()})
    print(json.dumps(out, indent=2))
    return 1 if failures else 0


def dispatch(argv=None) -> int:
    """Parse argv, run the selected subcommand, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help (0) and usage errors (2)
        code = exc.code
        return 0 if code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, KeyError, IndexError, TypeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
