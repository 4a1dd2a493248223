import math

import numpy as np
import pytest
from oracles import brute_force_normalize_oracle

from credal import (
    LossValue,
    Mode,
    ModeMismatchError,
    ProbabilityVector,
    RuleKind,
    ScoreVector,
    UnderflowError,
    UpdateRule,
    combine_additive,
    conservative_normalize,
    exp_loss_score,
    general_bayes_update,
    inferential_update,
    predictive_update,
    sequential_update,
    uniform,
)


def random_raw_vectors(rng, count, n_max=12):
    """Raw combined vectors of mixed scale/sign, including ties and members of the simplex."""
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
            q = rng.dirichlet(np.ones(n))  # already probabilistic
        else:
            q = rng.uniform(-1.0, 2.0, n) + rng.normal(0.0, 1e-9, n)
        yield q


def test_inferential_examples():
    p = ProbabilityVector([0.5, 0.5])
    s = ScoreVector([0.8, 0.2], Mode.MULTIPLICATIVE)
    np.testing.assert_allclose(inferential_update(p, s).values, [0.8, 0.2], rtol=1e-15)

    p2 = ProbabilityVector([0.25, 0.75])
    s2 = ScoreVector([2.0, 1.0], Mode.MULTIPLICATIVE)
    np.testing.assert_allclose(inferential_update(p2, s2).values, [0.4, 0.6], rtol=1e-15)

    # constant scores are neutral evidence
    p3 = ProbabilityVector([0.1, 0.6, 0.3])
    s3 = ScoreVector([2.5, 2.5, 2.5], Mode.MULTIPLICATIVE)
    np.testing.assert_allclose(inferential_update(p3, s3).values, p3.values, rtol=1e-15)


def test_inferential_mode_and_underflow_errors():
    p = ProbabilityVector([0.5, 0.5])
    with pytest.raises(ModeMismatchError):
        inferential_update(p, ScoreVector([0.1, 0.2], Mode.ADDITIVE))
    tiny = ScoreVector([5e-324, 5e-324], Mode.MULTIPLICATIVE)
    with pytest.raises(UnderflowError):
        inferential_update(p, tiny)  # every product underflows to zero
    with pytest.raises(ValueError):
        inferential_update(p, ScoreVector([1.0, 1.0, 1.0], Mode.MULTIPLICATIVE))


def test_combine_additive_examples():
    p = ProbabilityVector([0.2, 0.3, 0.5])
    s = ScoreVector([0.4, 0.1, 0.1], Mode.ADDITIVE)
    np.testing.assert_allclose(combine_additive(p, s), [0.6, 0.4, 0.6], rtol=1e-15)

    zero = ScoreVector([0.0, 0.0, 0.0], Mode.ADDITIVE)
    np.testing.assert_array_equal(combine_additive(p, zero), p.values)

    p2 = ProbabilityVector([0.5, 0.45, 0.05])
    s2 = ScoreVector([0.5, 0.4, 0.0], Mode.ADDITIVE)
    np.testing.assert_allclose(combine_additive(p2, s2), [1.0, 0.85, 0.05], rtol=1e-15)

    with pytest.raises(ModeMismatchError):
        combine_additive(p, ScoreVector([1.0, 1.0, 1.0], Mode.MULTIPLICATIVE))


def test_conservative_normalize_examples():
    r = conservative_normalize([0.6, 0.4, 0.6])
    np.testing.assert_allclose(r.posterior.values, [0.4, 0.2, 0.4], atol=1e-15)
    assert r.d == pytest.approx(-0.2, abs=1e-15)
    assert r.zeroed == frozenset()

    r2 = conservative_normalize([1.0, 0.85, 0.05])
    np.testing.assert_allclose(r2.posterior.values, [0.575, 0.425, 0.0], atol=1e-15)
    assert r2.d == pytest.approx(-0.425, abs=1e-15)
    assert r2.zeroed == frozenset({2})
    assert r2.m == 1

    already = np.array([0.3, 0.45, 0.25])
    r3 = conservative_normalize(already)
    np.testing.assert_allclose(r3.posterior.values, already, atol=1e-15)
    assert r3.d == pytest.approx(0.0, abs=1e-15)
    assert r3.zeroed == frozenset()

    with pytest.raises(ValueError):
        conservative_normalize([])
    with pytest.raises(ValueError):
        conservative_normalize([np.nan, 0.5])


def test_oracle_examples():
    r = brute_force_normalize_oracle([0.5, 0.5])
    np.testing.assert_array_equal(r.posterior.values, [0.5, 0.5])
    assert r.m == 0

    r2 = brute_force_normalize_oracle([2.0, 0.0])
    np.testing.assert_array_equal(r2.posterior.values, [1.0, 0.0])
    assert r2.m == 1 and r2.d == -1.0

    with pytest.raises(ValueError):
        brute_force_normalize_oracle(np.zeros(13))


def test_normalize_agrees_with_oracle():
    # a tie split at the cut: index 3 survives at 2.8e-17, its twin index 5 is zeroed
    split_tie = np.array([0.5, -1.9, -0.9, -0.2, 0.1, -0.2])
    assert conservative_normalize(split_tie).zeroed == frozenset({1, 2, 5})
    rng = np.random.default_rng(202)
    for q in [split_tie, *random_raw_vectors(rng, 2000)]:
        fast = conservative_normalize(q)
        slow = brute_force_normalize_oracle(q)
        np.testing.assert_allclose(fast.posterior.values, slow.posterior.values, atol=1e-12)
        assert fast.zeroed == slow.zeroed
        assert fast.m == slow.m
        assert fast.d == pytest.approx(slow.d, abs=1e-12)


def test_boundary_entries_are_zeroed():
    # an entry landing exactly on the cut contributes zero and is reported zeroed
    r = conservative_normalize([1.0, 0.0])
    np.testing.assert_array_equal(r.posterior.values, [1.0, 0.0])
    assert r.zeroed == frozenset({1})
    assert r.d == 0.0


def test_minimal_constant_among_larger_zero_sets():
    # zeroing more than necessary always needs a larger additive constant;
    # the gap is the dropped survivor mass, so strictness is only resolvable
    # in float64 when the smallest survivor clears zero by a real margin
    rng = np.random.default_rng(77)
    for q in random_raw_vectors(rng, 400, n_max=8):
        n = q.size
        r = conservative_normalize(q)
        order = np.argsort(-q, kind="stable")
        margin = np.min(r.posterior.values[order[: n - r.m]])
        for m_bigger in range(r.m + 1, n):
            survivors = order[: n - m_bigger]
            d_bigger = (1.0 - q[survivors].sum()) / (n - m_bigger)
            if margin > 1e-9:
                assert r.d < d_bigger
            else:
                assert r.d <= d_bigger + 1e-12


def test_normalize_idempotent():
    rng = np.random.default_rng(31)
    for q in random_raw_vectors(rng, 300):
        once = conservative_normalize(q)
        twice = conservative_normalize(once.posterior.values)
        np.testing.assert_allclose(twice.posterior.values, once.posterior.values, atol=1e-12)
        assert abs(twice.d) <= 1e-12


def test_predictive_examples():
    p = ProbabilityVector([0.5, 0.45, 0.05])
    s = ScoreVector([0.5, 0.4, 0.0], Mode.ADDITIVE)
    r = predictive_update(p, s)
    np.testing.assert_allclose(r.posterior.values, [0.575, 0.425, 0.0], atol=1e-15)

    p2 = uniform(4)
    s2 = ScoreVector([1.3] * 4, Mode.ADDITIVE)
    np.testing.assert_allclose(predictive_update(p2, s2).posterior.values, p2.values, atol=1e-15)

    p3 = ProbabilityVector([0.2, 0.3, 0.5])
    s3 = ScoreVector([0.4, 0.1, 0.1], Mode.ADDITIVE)
    r3 = predictive_update(p3, s3)
    np.testing.assert_allclose(r3.posterior.values, [0.4, 0.2, 0.4], atol=1e-15)
    assert r3.d == pytest.approx(-0.2, abs=1e-15)
    assert r3.zeroed == frozenset()


def test_predictive_accepts_zeros_and_allows_reentry():
    # a hypothesis zeroed earlier re-enters when its score lifts it above the cut
    p = ProbabilityVector([0.7, 0.3, 0.0])
    s = ScoreVector([0.0, 0.0, 0.9], Mode.ADDITIVE)
    r = predictive_update(p, s)
    assert r.posterior.values[2] > 0.0
    assert 2 not in r.zeroed


def test_regularity_of_inferential_updates():
    rng = np.random.default_rng(9)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        p = ProbabilityVector(rng.dirichlet(np.ones(n)) * 0.98 + 0.02 / n)
        s = ScoreVector(rng.uniform(0.05, 5.0, n), Mode.MULTIPLICATIVE)
        assert np.all(inferential_update(p, s).values > 0.0)


def test_scale_invariance_of_inferential():
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        p = ProbabilityVector(rng.dirichlet(np.ones(n)))
        s = rng.uniform(0.1, 4.0, n)
        base = inferential_update(p, ScoreVector(s, Mode.MULTIPLICATIVE)).values
        for k in (1e-6, 1e-3, 7.0, 1e3, 1e6):
            scaled = inferential_update(p, ScoreVector(k * s, Mode.MULTIPLICATIVE)).values
            assert np.max(np.abs(scaled - base)) <= 1e-12


def test_shift_invariance_of_predictive():
    rng = np.random.default_rng(14)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        p = ProbabilityVector(rng.dirichlet(np.ones(n)))
        s = rng.normal(0.0, 1.0, n)
        base = predictive_update(p, ScoreVector(s, Mode.ADDITIVE))
        for t in rng.uniform(-10.0, 10.0, 3):
            shifted = predictive_update(p, ScoreVector(s + t, Mode.ADDITIVE))
            assert np.max(np.abs(shifted.posterior.values - base.posterior.values)) <= 1e-12
            assert shifted.zeroed == base.zeroed
            assert abs(shifted.d - (base.d - t)) <= 1e-12


def test_general_bayes_examples():
    p = ProbabilityVector([0.5, 0.5])
    post = general_bayes_update(p, [LossValue(0.0, 1.0), LossValue(math.log(4.0), 1.0)])
    np.testing.assert_allclose(post.values, [0.8, 0.2], rtol=1e-15)

    same = general_bayes_update(p, [LossValue(2.0, 1.0), LossValue(2.0, 1.0)])
    np.testing.assert_allclose(same.values, p.values, rtol=1e-15)

    post2 = general_bayes_update(p, [LossValue(0.0, 2.0), LossValue(math.log(4.0), 2.0)])
    np.testing.assert_allclose(post2.values, [16.0 / 17.0, 1.0 / 17.0], rtol=1e-15)


def test_general_bayes_underflow():
    p = ProbabilityVector([0.5, 0.5])
    # exp(-800) underflows to zero in float64, so every weight vanishes
    with pytest.raises(UnderflowError):
        general_bayes_update(p, [LossValue(800.0, 1.0), LossValue(900.0, 1.0)])


def test_general_bayes_matches_exponential_score_route():
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(2, 10))
        p = ProbabilityVector(rng.dirichlet(np.ones(n)))
        rate = float(rng.uniform(0.1, 3.0))
        losses = [LossValue(float(v), rate) for v in rng.uniform(0.0, 6.0, n)]
        direct = general_bayes_update(p, losses).values
        composed = inferential_update(p, exp_loss_score(losses)).values
        np.testing.assert_array_equal(direct, composed)


def test_update_rule_validation():
    assert UpdateRule.inferential().score_mode is Mode.MULTIPLICATIVE
    assert UpdateRule.predictive().score_mode is Mode.ADDITIVE
    assert UpdateRule.general_bayes(0.5).learning_rate == 0.5
    with pytest.raises(ValueError):
        UpdateRule(RuleKind.GENERAL_BAYES)
    with pytest.raises(ValueError):
        UpdateRule(RuleKind.INFERENTIAL, learning_rate=1.0)


def test_sequential_examples():
    p0 = ProbabilityVector([0.5, 0.5])
    assert sequential_update(p0, [], UpdateRule.inferential()) == [p0]

    s = ScoreVector([0.8, 0.2], Mode.MULTIPLICATIVE)
    traj = sequential_update(p0, [s, s], UpdateRule.inferential())
    assert len(traj) == 3
    np.testing.assert_allclose(traj[-1].values, [16.0 / 17.0, 1.0 / 17.0], rtol=1e-12)

    flat = ScoreVector([0.2, 0.2], Mode.ADDITIVE)
    traj2 = sequential_update(p0, [flat, flat], UpdateRule.predictive())
    for p in traj2:
        np.testing.assert_allclose(p.values, p0.values, atol=1e-15)


def test_sequential_mode_mismatch_names_the_step():
    p0 = ProbabilityVector([0.5, 0.5])
    good = ScoreVector([1.0, 2.0], Mode.MULTIPLICATIVE)
    bad = ScoreVector([0.1, 0.2], Mode.ADDITIVE)
    with pytest.raises(ModeMismatchError, match="step 1"):
        sequential_update(p0, [good, bad], UpdateRule.inferential())


def test_batch_equals_sequential_inferential():
    # joint score = product of conditional scores; one-shot equals two-step
    rng = np.random.default_rng(4)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        p = ProbabilityVector(rng.dirichlet(np.ones(n)))
        s1 = rng.uniform(0.1, 3.0, n)
        s2 = rng.uniform(0.1, 3.0, n)
        joint = inferential_update(p, ScoreVector(s1 * s2, Mode.MULTIPLICATIVE)).values
        twostep = inferential_update(
            inferential_update(p, ScoreVector(s1, Mode.MULTIPLICATIVE)),
            ScoreVector(s2, Mode.MULTIPLICATIVE),
        ).values
        assert np.max(np.abs(joint - twostep)) <= 1e-12


def test_batch_equals_sequential_predictive_without_truncation():
    # scores small enough that no intermediate step zeroes anything
    rng = np.random.default_rng(6)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        p = uniform(n)
        bound = 1.0 / (4.0 * n)
        s1 = rng.uniform(-bound, bound, n)
        s2 = rng.uniform(-bound, bound, n)
        sv1 = ScoreVector(s1, Mode.ADDITIVE)
        sv2 = ScoreVector(s2, Mode.ADDITIVE)
        step1 = predictive_update(p, sv1)
        assert step1.m == 0
        two = predictive_update(step1.posterior, sv2)
        assert two.m == 0
        batch = predictive_update(p, ScoreVector(s1 + s2, Mode.ADDITIVE))
        swapped = predictive_update(predictive_update(p, sv2).posterior, sv1)
        assert np.max(np.abs(two.posterior.values - batch.posterior.values)) <= 1e-12
        assert np.max(np.abs(two.posterior.values - swapped.posterior.values)) <= 1e-12
