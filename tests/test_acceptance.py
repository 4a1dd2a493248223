"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances and instance counts are fixed here, not configurable.
"""

import math
import operator
import time

import numpy as np
from oracles import brute_force_normalize_oracle, michelot_projection

from credal import (
    Credibility,
    Empirical,
    ExperimentConfig,
    Gaussian,
    LossValue,
    Mode,
    ModelSpec,
    PointMass,
    ProbabilityVector,
    ScoreVector,
    UpdateRule,
    check_combination_axioms,
    check_commutation,
    conservative_normalize,
    construct_regularity_violation,
    crps,
    crps_monte_carlo,
    exp_loss_score,
    general_bayes_update,
    inferential_update,
    likelihood_score,
    predictive_update,
    run_experiment,
    uniform,
    verify_dominance,
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def random_raw_vectors(rng, count, n_max=12):
    for _ in range(count):
        n = int(rng.integers(1, n_max + 1))
        style = rng.integers(0, 5)
        if style == 0:
            q = rng.normal(0.0, 1.0, n)
        elif style == 1:
            q = rng.normal(0.5, 3.0, n) * 10.0 ** rng.integers(-2, 3)
        elif style == 2:
            q = np.round(rng.normal(0.0, 1.0, n), 1)  # coarse grid forces ties
        elif style == 3:
            q = rng.dirichlet(np.ones(n))
        else:
            q = rng.uniform(-1.0, 2.0, n) + rng.normal(0.0, 1e-9, n)
        yield q


def interior_simplex(rng, n):
    return ProbabilityVector(rng.dirichlet(np.ones(n)) * 0.98 + 0.02 / n)


def test_criterion_1_bayes_equivalence():
    def bayes_oracle(prior, lik):  # independent of the library path on purpose
        weights = [p * l for p, l in zip(prior, lik)]
        total = sum(weights)
        return [w / total for w in weights]

    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        prior = rng.dirichlet(np.ones(n))
        lik = rng.uniform(0.01, 5.0, n)
        via_engine = inferential_update(ProbabilityVector(prior), likelihood_score(lik)).values
        via_oracle = np.array(bayes_oracle(prior.tolist(), lik.tolist()))
        worst = max(worst, float(np.max(np.abs(via_engine - via_oracle))))
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: Bayes oracle agreement on 1000 instances",
        worst <= 1e-12 and elapsed < 1.0,
        f"max abs err {worst:.2e}, {elapsed:.2f}s",
    )


def _same_instances():
    return random_raw_vectors(np.random.default_rng(202), 10_000)


def test_criterion_2_normalization_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    mismatches = 0
    for q in _same_instances():
        fast = conservative_normalize(q)
        slow = brute_force_normalize_oracle(q)
        worst = max(
            worst,
            float(np.max(np.abs(fast.posterior.values - slow.posterior.values))),
            abs(fast.d - slow.d),
        )
        if fast.zeroed != slow.zeroed or fast.m != slow.m:
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 2: conservative normalization equals brute-force oracle on 10^4 instances",
        worst <= 1e-12 and mismatches == 0 and elapsed < 10.0,
        f"max err {worst:.2e}, {mismatches} set mismatches, {elapsed:.2f}s",
    )


def test_criterion_3_projection_coincidence():
    worst = 0.0
    for q in _same_instances():
        proj = michelot_projection(q)
        norm = conservative_normalize(q).posterior.values
        worst = max(worst, float(np.max(np.abs(proj - norm))))
    report(
        "criterion 3: simplex projection coincides with conservative normalization",
        worst <= 1e-12,
        f"max abs diff {worst:.2e}",
    )


def test_criterion_4_regularity_and_violation():
    rng = np.random.default_rng(404)
    regular_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        p = interior_simplex(rng, n)
        s = ScoreVector(rng.uniform(0.05, 5.0, n), Mode.MULTIPLICATIVE)
        regular_ok = regular_ok and bool(np.all(inferential_update(p, s).values > 0.0))

    violation_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        scores = rng.uniform(-2.0, 2.0, n)
        if np.ptp(scores) == 0.0:
            scores[0] -= 1.0
        e = ScoreVector(scores, Mode.ADDITIVE)
        prior, idx = construct_regularity_violation(e)
        result = predictive_update(prior, e)
        violation_ok = violation_ok and result.m >= 1 and result.posterior.values[idx] == 0.0

    report(
        "criterion 4: ratio-form updates stay positive; constructed additive instances force a zero",
        regular_ok and violation_ok,
        f"regularity {regular_ok}, violation {violation_ok}",
    )


def test_criterion_5_general_bayes_identity():
    rng = np.random.default_rng(505)
    worst_rel = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        p = ProbabilityVector(rng.dirichlet(np.ones(n)))
        rate = float(rng.uniform(0.1, 3.0))
        losses = [LossValue(float(v), rate) for v in rng.uniform(0.0, 6.0, n)]
        direct = general_bayes_update(p, losses).values
        composed = inferential_update(p, exp_loss_score(losses)).values
        scale = np.maximum(np.abs(direct), np.abs(composed))
        rel = np.abs(direct - composed) / np.where(scale > 0, scale, 1.0)
        worst_rel = max(worst_rel, float(np.max(rel)))

    xs = rng.uniform(0.0, 10.0, 1000)
    ys = rng.uniform(0.0, 10.0, 1000)
    rate = 1.7
    law = float(
        np.max(np.abs(np.exp(-rate * xs) * np.exp(-rate * ys) - np.exp(-rate * (xs + ys))))
    )
    report(
        "criterion 5: loss-based rule is the exponential-score special case",
        worst_rel <= 1e-15 and law <= 1e-12,
        f"max rel {worst_rel:.2e}, exp law {law:.2e}",
    )


def test_criterion_6_invariance_suite():
    rng = np.random.default_rng(606)
    scale_worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        p = ProbabilityVector(rng.dirichlet(np.ones(n)))
        s = rng.uniform(0.1, 4.0, n)
        base = inferential_update(p, ScoreVector(s, Mode.MULTIPLICATIVE)).values
        for k in (1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6):
            scaled = inferential_update(p, ScoreVector(k * s, Mode.MULTIPLICATIVE)).values
            scale_worst = max(scale_worst, float(np.max(np.abs(scaled - base))))

    shift_worst = 0.0
    shift_sets_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        p = ProbabilityVector(rng.dirichlet(np.ones(n)))
        s = rng.normal(0.0, 1.0, n)
        base = predictive_update(p, ScoreVector(s, Mode.ADDITIVE))
        t = float(rng.uniform(-10.0, 10.0))
        shifted = predictive_update(p, ScoreVector(s + t, Mode.ADDITIVE))
        shift_worst = max(
            shift_worst,
            float(np.max(np.abs(shifted.posterior.values - base.posterior.values))),
            abs(shifted.d - (base.d - t)),
        )
        shift_sets_ok = shift_sets_ok and shifted.zeroed == base.zeroed

    batch_worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        p = ProbabilityVector(rng.dirichlet(np.ones(n)))
        m1 = rng.uniform(0.1, 3.0, n)
        m2 = rng.uniform(0.1, 3.0, n)
        joint = inferential_update(p, ScoreVector(m1 * m2, Mode.MULTIPLICATIVE)).values
        twostep = inferential_update(
            inferential_update(p, ScoreVector(m1, Mode.MULTIPLICATIVE)),
            ScoreVector(m2, Mode.MULTIPLICATIVE),
        ).values
        batch_worst = max(batch_worst, float(np.max(np.abs(joint - twostep))))

        pu = uniform(n)
        bound = 1.0 / (4.0 * n)  # keeps every intermediate step truncation-free
        a1 = rng.uniform(-bound, bound, n)
        a2 = rng.uniform(-bound, bound, n)
        step = predictive_update(pu, ScoreVector(a1, Mode.ADDITIVE))
        assert step.m == 0
        two = predictive_update(step.posterior, ScoreVector(a2, Mode.ADDITIVE))
        assert two.m == 0
        batch = predictive_update(pu, ScoreVector(a1 + a2, Mode.ADDITIVE))
        batch_worst = max(
            batch_worst, float(np.max(np.abs(two.posterior.values - batch.posterior.values)))
        )

    report(
        "criterion 6: scale/shift invariance and truncation-free batch/sequential agreement",
        scale_worst <= 1e-12 and shift_worst <= 1e-12 and shift_sets_ok and batch_worst <= 1e-12,
        f"scale {scale_worst:.2e}, shift {shift_worst:.2e}, batch {batch_worst:.2e}",
    )


def test_criterion_7_dominance_desk_scale():
    rng = np.random.default_rng(707)
    start = time.perf_counter()

    dominated_ok = True
    produced = 0
    while produced < 1000:
        n = int(rng.integers(2, 6))
        c = rng.uniform(0.0, 1.0, n)
        if abs(c.sum() - 1.0) <= 1e-3:
            continue
        produced += 1
        rep = verify_dominance(Credibility(c))
        dominated_ok = dominated_ok and rep.dominated and bool(np.all(rep.per_vertex_gap > 0.0))

    undominated_ok = True
    for i in range(1000):
        n = int(rng.integers(2, 6))
        p = ProbabilityVector(rng.dirichlet(np.ones(n)))
        rep = verify_dominance(p)
        undominated_ok = undominated_ok and not rep.dominated

    elapsed = time.perf_counter() - start
    report(
        "criterion 7: projections dominate non-probabilistic vectors; search finds no dominator otherwise",
        dominated_ok and undominated_ok and elapsed < 30.0,
        f"dominated {dominated_ok}, undominated {undominated_ok}, {elapsed:.1f}s",
    )


def test_criterion_8_crps_validation():
    pm_ok = (
        crps(PointMass(3.0), 5.0) == 2.0
        and crps(PointMass(-1.5), 5.0) == 6.5
        and crps(PointMass(5.0), 5.0) == 0.0
    )

    gauss_ok = True
    detail = []
    for z in (0.0, 1.0, 2.0):
        mu, sigma = 0.0, 1.0
        x = mu + z * sigma
        est, se = crps_monte_carlo(Gaussian(mu, sigma), x, n_draws=10**6, seed=808 + int(z))
        closed = crps(Gaussian(mu, sigma), x)
        gauss_ok = gauss_ok and abs(closed - est) <= 3.0 * se
        detail.append(f"z={z:g}: |d|/se={abs(closed - est) / se:.2f}")

    rng = np.random.default_rng(809)
    emp = Empirical(rng.normal(0.0, 1.0, 100_000))
    emp_ok = all(abs(crps(emp, x) - crps(Gaussian(0.0, 1.0), x)) < 0.01 for x in (-1.0, 0.0, 1.0))

    report(
        "criterion 8: CRPS point-mass exact, Gaussian matches sampling oracle, empirical converges",
        pm_ok and gauss_ok and emp_ok,
        "; ".join(detail),
    )


def test_criterion_9_harness_elimination():
    cfg = ExperimentConfig(
        seed=0,
        truth=Gaussian(0.0, 1.0),
        models=(
            ModelSpec("good", Gaussian(0.0, 1.0)),
            ModelSpec("near", Gaussian(0.5, 1.0)),
            ModelSpec("far", Gaussian(5.0, 1.0)),
        ),
        horizon=50,
        rules=(UpdateRule.inferential(), UpdateRule.predictive()),
        a=-1.0,
        replications=20,
    )
    start = time.perf_counter()
    result = run_experiment(cfg)
    rerun = run_experiment(cfg)
    elapsed = time.perf_counter() - start

    # elimination means the posterior reaches exactly 0; a zeroed model may
    # briefly re-enter on an extreme draw (sanctioned by the rule), so the
    # per-replication requirement is hitting exact zero, plus persistence
    # across the run as a whole
    far = 2
    pred_rows = [r for r in result.records if r.rule == "predictive"]
    by_rep = {rep: [r for r in pred_rows if r.replication == rep] for rep in range(cfg.replications)}
    eliminated = all(
        any(r.posterior[far] == 0.0 for r in rows) for rows in by_rep.values()
    )
    zero_fraction = np.mean([r.posterior[far] == 0.0 for r in pred_rows])
    inf_rows = [r for r in result.records if r.rule == "inferential"]
    regular = all(r.posterior[far] > 0.0 for r in inf_rows)
    identical = result.to_csv_text() == rerun.to_csv_text()

    report(
        "criterion 9: additive rule eliminates the bad model, ratio rule never does, reruns identical",
        eliminated and zero_fraction > 0.9 and regular and identical and elapsed < 60.0,
        f"eliminated {eliminated}, at zero {zero_fraction:.1%} of steps, "
        f"regular {regular}, identical {identical}, {elapsed:.1f}s",
    )


def test_criterion_10_characterization_checks():
    mul_rep = check_combination_axioms(operator.mul, seed=0, tol=1e-6)
    add_rep = check_combination_axioms(operator.add, seed=0, tol=1e-6)
    residual_names = ("commutativity", "associativity", "mixed_partial_constancy")
    mul_ok = mul_rep.passed and all(mul_rep.residual(n) < 1e-6 for n in residual_names)
    add_ok = add_rep.passed and all(add_rep.residual(n) < 1e-6 for n in residual_names)

    sub_rep = check_combination_axioms(operator.sub, seed=0, tol=1e-6)
    sub_ok = not sub_rep.check("commutativity").passed

    comm_ok = (
        check_commutation(Mode.MULTIPLICATIVE, lambda x: 0.5 * x, seed=0).passed
        and check_commutation(Mode.ADDITIVE, lambda x: x + 0.3, seed=0).passed
        and not check_commutation(Mode.MULTIPLICATIVE, lambda x: x * x, seed=0).passed
    )

    report(
        "criterion 10: combination and normalization characterization checks",
        mul_ok and add_ok and sub_ok and comm_ok,
        f"mul residuals {[f'{mul_rep.residual(n):.1e}' for n in residual_names]}",
    )
