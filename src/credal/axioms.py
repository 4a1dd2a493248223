"""Sampled numerical checks of the algebraic requirements on updating.

Any combination function worth using must be commutative, associative, and
have a constant mixed partial derivative; that pins it down to addition or
multiplication.  The rescaling used to normalize must commute with the
combination; that pins it to x + k for addition and k*x for multiplication.
This module turns those requirements into seeded finite-sample checks of
caller-supplied functions, with explicit residuals, and provides the
constructive witness that credal's additive rule must zero hypotheses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ProbabilityVector, checked_int
from .measures import Mode, ModeMismatchError, ScoreVector
from .updating import predictive_update


@dataclass(frozen=True)
class AxiomCheck:
    """One named check: pass/fail, worst residual, optional fitted constant."""

    name: str
    passed: bool
    residual: float
    fitted: float | None = None
    note: str = ""

    def to_json(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "residual": self.residual}
        if self.fitted is not None:
            out["fitted"] = self.fitted
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class AxiomReport:
    """Bundle of checks over one sampled suite."""

    checks: tuple[AxiomCheck, ...]
    n_samples: int
    seed: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def residual(self, name: str) -> float:
        return self.check(name).residual

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "checks": [c.to_json() for c in self.checks],
        }


#: the interval (lo, hi) each coordinate of a sampled triple is drawn from
DOMAIN = (0.1, 10.0)
#: central-difference step of the mixed-partial estimates, and their
#: relative tolerance between steps FD_STEP and FD_STEP / 2
FD_STEP = 1e-4
FD_RTOL = 1e-4


def _sample_triples(n_samples: int, seed: int, diagonal_probes: bool) -> np.ndarray:
    lo, hi = DOMAIN
    rng = np.random.default_rng(checked_int(seed, "seed"))
    pts = rng.uniform(lo, hi, (checked_int(n_samples, "n_samples", 1), 3))
    span = hi - lo
    probes = [(lo + 0.2 * span, lo + 0.35 * span, lo + 0.6 * span)]
    if diagonal_probes:
        # derivative checks must see the diagonal, where kinked candidates hide
        probes += [(lo + t * span,) * 3 for t in (0.25, 0.5, 0.75)]
    return np.vstack([pts, np.array(probes)])


def _worst(triples: np.ndarray, residual: Callable[[float, float, float], float]) -> tuple[float, str]:
    """The largest ``residual(x, y, z)`` over ``triples``, and a note: a NaN
    residual stops the scan with ``inf`` and a note naming its triple."""
    worst = 0.0
    for x, y, z in triples.tolist():
        r = residual(x, y, z)
        if math.isnan(r):
            return math.inf, f"non-finite value at (x={x:.6g}, y={y:.6g}, z={z:.6g})"
        worst = max(worst, r)
    return worst, ""


def _safe_eval(f: Callable[[float, float], float], x: float, y: float) -> float:
    try:
        return float(f(x, y))
    except (ArithmeticError, ValueError):
        return math.nan


def check_combination_axioms(
    f: Callable[[float, float], float],
    n_samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-6,
) -> AxiomReport:
    """Check a candidate combination function on sampled triples.

    Four checks, each with its worst absolute residual over triples drawn
    from ``DOMAIN``:

    * ``commutativity``: |f(x,y) - f(y,x)|
    * ``associativity``: |f(f(x,y),z) - f(x,f(y,z))|
    * ``differentiability``: relative stability of the central-difference
      mixed partial between steps ``FD_STEP`` and ``FD_STEP/2`` (tolerance
      ``FD_RTOL``); a kink in f shows up here as step-dependence
    * ``mixed_partial_constancy``: spread of the mixed-partial estimates
      around their median, which is reported as the fitted constant

    A non-finite value fails the corresponding check and records where it
    occurred.  Sample triples always include one fixed asymmetric probe and
    three diagonal probes in addition to the seeded draws.  ``n_samples``
    (at least 1) and ``seed`` must be integers: ``seed=0.7`` raises
    ``ValueError("seed: must be an integer, got 0.7")``.
    """
    triples = _sample_triples(n_samples, seed, diagonal_probes=True)

    def comm(x, y, z):
        a, b = _safe_eval(f, x, y), _safe_eval(f, y, x)
        return abs(a - b) if math.isfinite(a - b) else math.nan

    def assoc(x, y, z):
        left = _safe_eval(f, _safe_eval(f, x, y), z)
        right = _safe_eval(f, x, _safe_eval(f, y, z))
        return abs(left - right) if math.isfinite(left - right) else math.nan

    def mixed_partial(x, y, h):
        v = (
            _safe_eval(f, x + h, y + h)
            - _safe_eval(f, x + h, y - h)
            - _safe_eval(f, x - h, y + h)
            + _safe_eval(f, x - h, y - h)
        )
        return v / (4.0 * h * h)

    comm_res, comm_note = _worst(triples, comm)
    assoc_res, assoc_note = _worst(triples, assoc)

    est_h = np.array([mixed_partial(x, y, FD_STEP) for x, y, _ in triples.tolist()])
    est_h2 = np.array([mixed_partial(x, y, FD_STEP / 2.0) for x, y, _ in triples.tolist()])

    finite = np.isfinite(est_h) & np.isfinite(est_h2)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        note = f"non-finite derivative estimate at (x={triples[bad,0]:.6g}, y={triples[bad,1]:.6g})"
        diff_res = const_res = math.inf
        k = None
    else:
        note = ""
        scale = np.maximum(1.0, np.maximum(np.abs(est_h), np.abs(est_h2)))
        diff_res = float(np.max(np.abs(est_h - est_h2) / scale))
        k = float(np.median(est_h))
        const_res = float(np.max(np.abs(est_h - k)))

    checks = (
        AxiomCheck("commutativity", comm_res <= tol, comm_res, note=comm_note),
        AxiomCheck("associativity", assoc_res <= tol, assoc_res, note=assoc_note),
        AxiomCheck("differentiability", diff_res <= FD_RTOL, diff_res, note=note),
        AxiomCheck("mixed_partial_constancy", const_res <= tol, const_res, fitted=k, note=note),
    )
    return AxiomReport(checks, int(n_samples), int(seed))  # checked by _sample_triples


def _combiner(combination: Mode) -> Callable[[float, float], float]:
    if combination is Mode.MULTIPLICATIVE:
        return lambda a, b: a * b
    if combination is Mode.ADDITIVE:
        return lambda a, b: a + b
    raise ValueError(f"unsupported combination: {combination!r}")


def check_commutation(
    combination: Mode,
    rescale_family: Callable[[float], float],
    n_samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> AxiomReport:
    """Check that a rescaling function commutes with a combination function.

    Evaluation order must not matter: rescaling after combining (y, z) and
    then combining with x must equal rescaling after combining (x, y) and
    then combining with z, i.e. f(c(x, f(c(y, z)))) == f(c(f(c(x, y)), z))
    on every triple sampled from ``DOMAIN``.  Residuals are relative.
    Constant-scale families pass for the matching combination; genuinely
    nonlinear rescalings such as squaring fail.  A non-finite value fails
    the check and names the first triple where it occurred.  ``n_samples``
    and ``seed`` are checked as in :func:`check_combination_axioms`.
    """
    c = _combiner(combination)
    f = rescale_family

    def relative(x, y, z):
        left, right = f(c(x, f(c(y, z)))), f(c(f(c(x, y)), z))
        finite = math.isfinite(left) and math.isfinite(right)
        return abs(left - right) / max(1.0, abs(left), abs(right)) if finite else math.nan

    worst, note = _worst(_sample_triples(n_samples, seed, diagonal_probes=False), relative)
    checks = (AxiomCheck("commutation", worst <= tol, worst, note=note),)
    return AxiomReport(checks, int(n_samples), int(seed))  # checked by _sample_triples


def construct_regularity_violation(e: ScoreVector) -> tuple[ProbabilityVector, int]:
    """Build a prior that the additive rule must zero at the weakest score.

    For non-constant additive scores, the hypothesis with the smallest score
    has combined value below the zero-truncation cut whenever its prior mass
    is under ``mean(e) - min(e)``.  The returned prior puts
    ``min(mean(e) - min(e), 1/n) / 2`` on that hypothesis and spreads the
    rest uniformly, which makes its combined value the strict minimum, so
    the additive update provably zeroes it.  Returns the prior and the index
    that gets zeroed.  Constant scores admit no such prior and are rejected.
    """
    if e.mode is not Mode.ADDITIVE:
        raise ModeMismatchError("regularity violations are an additive-rule phenomenon")
    s = e.scores
    n = s.size
    if n < 2:
        raise ValueError("need at least two hypotheses")
    gap = float(np.mean(s) - np.min(s))  # = -r in the violation inequality
    if gap == 0.0:
        raise ValueError("constant scores cannot force a zero: shift invariance")
    weakest = int(np.argmin(s))
    h_min = 0.5 * min(gap, 1.0 / n)
    prior = np.full(n, (1.0 - h_min) / (n - 1))
    prior[weakest] = h_min
    return ProbabilityVector(prior), weakest


def regularity_violation_report(n_instances: int = 1000, seed: int = 0) -> AxiomReport:
    """Batch check: every constructed violation yields at least one exact zero.

    Draws random non-constant additive score vectors, builds the violating
    prior for each, runs the additive update, and counts instances whose
    posterior has no zero entry (the residual; must be 0) and instances
    where the predicted index survived.  ``n_instances`` (at least 1) and
    ``seed`` must be integers.
    """
    n_instances, seed = checked_int(n_instances, "n_instances", 1), checked_int(seed, "seed")
    rng = np.random.default_rng(seed)
    no_zero = 0
    wrong_index = 0
    for _ in range(n_instances):
        n = int(rng.integers(2, 9))
        scores = rng.uniform(-1.0, 1.0, n)
        scores[rng.integers(0, n)] -= rng.uniform(0.1, 2.0)  # ensure non-constant
        e = ScoreVector(scores, Mode.ADDITIVE)
        prior, idx = construct_regularity_violation(e)
        result = predictive_update(prior, e)
        if result.m == 0:
            no_zero += 1
        if idx not in result.zeroed:
            wrong_index += 1
    checks = (
        AxiomCheck("every_instance_zeroes_some_hypothesis", no_zero == 0, float(no_zero)),
        AxiomCheck("predicted_index_is_zeroed", wrong_index == 0, float(wrong_index)),
    )
    return AxiomReport(checks, n_instances, seed)
