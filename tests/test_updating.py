import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_force_normalize_oracle, sort_scan_projection

from credal import (
    LossValue,
    Mode,
    ModeMismatchError,
    NormalizationResult,
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
from credal import updating
from credal.updating import _CANDIDATE_MIN_N, _candidate_scan, _ratio_update, _simplex_projection


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


def test_normalization_result_derives_zeroed_and_m_from_mask():
    p = ProbabilityVector([0.5, 0.0, 0.5, 0.0])
    r = NormalizationResult(p, -0.25, np.array([True, False, True, False]))
    assert r.zeroed == frozenset({1, 3})
    assert r.m == 2
    assert r.zeroed is r.zeroed  # built once, on first access

    none_zeroed = NormalizationResult(ProbabilityVector([0.5, 0.5]), 0.0, np.ones(2, dtype=bool))
    assert none_zeroed.zeroed == frozenset() and none_zeroed.m == 0

    one_left = NormalizationResult(ProbabilityVector([0.0, 1.0, 0.0]), -1.0, np.array([False, True, False]))
    assert one_left.zeroed == frozenset({0, 2}) and one_left.m == 2


def test_normalize_mask_is_read_only_and_matches_zeroed():
    rng = np.random.default_rng(31)
    for q in random_raw_vectors(rng, 300):
        r = conservative_normalize(q)
        assert not r.keep.flags.writeable
        with pytest.raises(ValueError):
            r.keep[0] = not r.keep[0]
        np.testing.assert_array_equal(np.flatnonzero(~r.keep), sorted(r.zeroed))
        assert r.m == len(r.zeroed)
        assert np.all(r.posterior.values[~r.keep] == 0.0)


def test_batched_projection_matches_rows():
    # rows that keep different numbers of survivors, projected in one call
    fixed = np.array(
        [
            [0.5, -1.9, -0.9, -0.2, 0.1, -0.2],  # tie split at the cut: zeroed {1, 2, 5}
            [4.0, -1.0, 0.0, 0.3, -2.0, 0.1],  # a single survivor
            [0.2, 0.1, 0.15, 0.25, 0.2, 0.1],  # already on the simplex: all six survive
            [0.5, 0.5, -1.0, -1.0, 0.2, 0.2],  # a tie at the cut kept whole
            [-0.2, 0.1, -0.2, 0.5, -0.9, -1.9],  # the split tie again, in another order
        ]
    )
    rng = np.random.default_rng(31)
    grid = np.round(rng.normal(0.0, 1.0, (300, 6)), 1)  # coarse grid forces ties
    scaled = rng.normal(0.5, 3.0, (300, 6)) * 10.0 ** rng.integers(-2, 3, (300, 1))
    q = np.concatenate([fixed, grid, scaled])
    posterior, d, keep = _simplex_projection(q)
    assert sorted(np.flatnonzero(~keep[0]).tolist()) == [1, 2, 5]
    assert np.count_nonzero(keep[1]) == 1 and keep[2].all()
    assert len({int(k) for k in keep.sum(axis=1)}) == 6  # every survivor count from 1 to 6
    for i, row in enumerate(q):
        one = conservative_normalize(row)
        np.testing.assert_array_equal(posterior[i], one.posterior.values)
        assert d[i] == one.d
        assert set(np.flatnonzero(~keep[i]).tolist()) == one.zeroed
    # any leading shape: each slice along the last axis is projected on its own
    stacked = _simplex_projection(q.reshape(5, -1, 6))
    for whole, part in zip((posterior, d, keep), stacked):
        np.testing.assert_array_equal(whole, part.reshape(whole.shape))


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    if got.dtype == bool:
        np.testing.assert_array_equal(got, want)
    else:  # compares sign bits too: -0.0 differs from +0.0
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


SPLIT_TIE = np.array([0.5, -1.9, -0.9, -0.2, 0.1, -0.2])  # the scan keeps one of the two -0.2


def projection_input(rng, shape, kind):
    """Rows of one family: a single survivor, few, most, ties, a split tie at
    the cut, an excluded entry at the cut value itself, or an offset of 1e15."""
    n = shape[-1]
    if kind == "one":
        q = rng.normal(0.0, 1e-3, shape)
        q[..., rng.integers(n)] = 5.0
    elif kind == "few":
        q = rng.uniform(0.0, 1.0, shape)  # about sqrt(2 n) survive
    elif kind == "most":
        q = (rng.exponential(size=shape) - 2.0 * rng.uniform(size=shape)) / n
    elif kind == "ties":
        q = np.round(rng.normal(0.0, 1.0, shape), 1)
    elif kind == "split-tie":
        q = np.full(shape, -10.0)
        at = np.sort(rng.choice(n, min(n, SPLIT_TIE.size), replace=False))
        q[..., at] = SPLIT_TIE[: at.size]
    elif kind == "near-cut":
        # the largest excluded entry is set to the computed cut value -d,
        # which adds nothing to the sum over the survivors
        q = rng.uniform(0.0, 1.0, shape)
        _, d, keep = sort_scan_projection(q)
        for r in np.ndindex(shape[:-1]):
            dropped = np.flatnonzero(~keep[r])
            if dropped.size:
                q[r][dropped[np.argmax(q[r][dropped])]] = -d[r]
    else:  # "offset"
        q = 1e15 + rng.uniform(0.0, 1.0, shape)
    return q


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(
        st.integers(1, 40),
        st.sampled_from([_CANDIDATE_MIN_N - 1, _CANDIDATE_MIN_N, 1 << 15, (1 << 15) + 3]),
        st.integers(_CANDIDATE_MIN_N, 1 << 16),
    ),
    lead=st.sampled_from([(), (2,), (2, 2)]),
    kind=st.sampled_from(["one", "few", "most", "ties", "split-tie", "near-cut", "offset"]),
)
def test_projection_matches_full_sort_scan_bit_for_bit(seed, n, lead, kind):
    q = projection_input(np.random.default_rng(seed), lead + (n,), kind)
    with mock.patch.object(updating, "_sort_scan", wraps=updating._sort_scan) as full:
        got = _simplex_projection(q)
    for g, w in zip(got, sort_scan_projection(q)):
        assert_same_bits(g, w)
    if kind == "offset":  # the bound refuses every row, so the full scan runs on all of them
        assert sum(len(call.args[0]) for call in full.call_args_list) == q.size // n
    if kind == "near-cut":
        # candidates cut at the cut value, or at the entry planted there
        # (kept or excluded by rounding): the bound cannot prove where the
        # full scan ends
        _, d, _ = got
        for r in np.ndindex(lead):
            row, tau = q[r], -float(d[r])
            for t in (tau, *row[np.abs(row - tau) <= 1e-12]):
                assert _candidate_scan(row, float(t), float(np.abs(row).max())) is None


def test_candidate_scan_refuses_a_threshold_at_or_above_the_cut():
    rng = np.random.default_rng(41)
    for n in (50, 1 << 15):
        row = rng.uniform(0.0, 1.0, n)
        _, d, keep = sort_scan_projection(row)
        m_inf = float(np.abs(row).max())
        tau = -float(d)
        for t in (np.nextafter(tau, -np.inf), tau, np.nextafter(tau, np.inf), row[keep].min(), row.max()):
            assert _candidate_scan(row, float(t), m_inf) is None
        # well below the cut the bound holds, and the scan is the full one's
        t = float(np.sort(row)[-3 * np.count_nonzero(keep)])
        kept, values, d_scan = _candidate_scan(row, t, m_inf)
        np.testing.assert_array_equal(kept, np.flatnonzero(keep))
        assert_same_bits(values, (row + d)[keep])
        assert d_scan == d


def test_a_refused_long_row_sends_every_row_to_one_full_scan():
    # the first row passes the candidate scan and the offset row is refused,
    # so all three rows take a single full-width sort
    rng = np.random.default_rng(42)
    n = _CANDIDATE_MIN_N
    q = np.stack([rng.uniform(0.0, 1.0, n), 1e15 + rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)])
    with mock.patch.object(updating, "_sort_scan", wraps=updating._sort_scan) as full:
        got = _simplex_projection(q)
    shapes = [call.args[0].shape for call in full.call_args_list]
    assert [s for s in shapes if s[-1] == n] == [q.shape]
    assert shapes[0][0] == 1 and shapes[0][-1] < n  # the first row's candidates
    for g, w in zip(got, sort_scan_projection(q)):
        assert_same_bits(g, w)


def most_survive(rng, n):
    """A row shaped like the benchmark's large-n input, prior + additive:
    about 79% of its entries survive, so the candidate scan refuses it."""
    prior = rng.exponential(size=n)
    return prior / prior.sum() - 2.0 * rng.uniform(size=n) / n


def tie_at_cut(rng, n):
    """b, ..., b, 1 + b, b, ..., b: every b sits at the cut, where u_j + d_j
    is 0 up to rounding and the computed test passes and fails at random
    along the row."""
    q = np.full(n, rng.uniform(0.0, 1.0))
    q[rng.integers(n)] += 1.0
    return q


def scan_windows(q):
    """The projection of ``q``, with the (start, width) of every window
    in which the full scan evaluated its test."""
    with mock.patch.object(updating, "_scan_ends", wraps=updating._scan_ends) as ends:
        got = _simplex_projection(q)
    return got, [(call.args[2] if len(call.args) > 2 else 0, call.args[0].shape[-1]) for call in ends.call_args_list]


@pytest.mark.parametrize("kind", ["most", "ties"])
def test_the_bracket_closes_on_long_rows_where_most_entries_survive(kind):
    rng = np.random.default_rng(44)
    n = 100_000
    q = np.stack([most_survive(rng, n) for _ in range(2)])
    if kind == "ties":  # runs of equal values on both sides of the cut
        q = np.round(q * n, 1) / n
    got, windows = scan_windows(q)
    for g, w in zip(got, sort_scan_projection(q)):
        assert_same_bits(g, w)
    survivors = np.count_nonzero(got[2], axis=-1) / n
    assert np.all((survivors > 0.7) & (survivors < 0.9))
    assert len(windows) == 2 and all(width <= 64 for _, width in windows)
    if kind == "ties":
        _, _, keep = got
        for r in range(2):
            cut = q[r][keep[r]].min()
            assert np.count_nonzero(q[r] == cut) > 1


@pytest.mark.parametrize("kind", ["offset", "tie-at-cut"])
def test_rows_whose_bracket_the_bound_cannot_close_take_the_whole_row(kind):
    rng = np.random.default_rng(45)
    n = _CANDIDATE_MIN_N
    q = 1e15 + rng.uniform(0.0, 1.0, n) if kind == "offset" else tie_at_cut(rng, n)
    got, windows = scan_windows(q)
    for g, w in zip(got, sort_scan_projection(q)):
        assert_same_bits(g, w)
    assert windows == [(0, n)]


def test_projection_rejects_non_finite_entries_at_any_length():
    for n in (5, _CANDIDATE_MIN_N):
        for bad in (np.nan, np.inf, -np.inf):
            q = np.zeros((2, n))
            q[1, n // 2] = bad
            with pytest.raises(ValueError, match="finite"):
                _simplex_projection(q)


def test_normalization_results_compare_by_posterior_and_d():
    q = [0.5, 0.4, -0.3]
    a, b = conservative_normalize(q), conservative_normalize(np.array(q))
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != conservative_normalize([0.5, 0.4, 0.3])
    keep = np.ones(2, dtype=bool)
    half = ProbabilityVector([0.5, 0.5])
    assert NormalizationResult(half, 0.0, keep) != NormalizationResult(half, 0.25, keep)  # d differs
    skew = ProbabilityVector([0.25, 0.75])
    assert NormalizationResult(half, 0.0, keep) != NormalizationResult(skew, 0.0, keep)  # posterior differs
    # the mask is derived from the posterior and takes no part
    other_mask = NormalizationResult(ProbabilityVector([0.5, 0.5]), 0.0, np.array([True, False]))
    assert other_mask == NormalizationResult(half, 0.0, keep)
    assert hash(other_mask) == hash(NormalizationResult(half, 0.0, keep))
    assert a != q and (a == q) is False


def test_batched_ratio_update_matches_rows():
    rng = np.random.default_rng(32)
    p = rng.dirichlet(np.ones(7), size=40)
    s = rng.uniform(0.1, 3.0, (40, 7)) * 10.0 ** rng.integers(-200, 0, (40, 1))
    batch = _ratio_update(p, s)
    for i in range(40):
        one = inferential_update(ProbabilityVector(p[i]), ScoreVector(s[i], Mode.MULTIPLICATIVE))
        np.testing.assert_array_equal(batch[i], one.values)
    s[3] = 1e-300  # one row's weights underflow to zero
    with pytest.raises(UnderflowError):
        _ratio_update(p * 1e-30, s)


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

    with pytest.raises(ValueError, match="share the same learning rate"):
        general_bayes_update(p, [LossValue(0.0, 1.0), LossValue(1.0, 2.0)])
    with pytest.raises(ValueError, match="same length"):
        general_bayes_update(p, [LossValue(0.0, 1.0)])


@pytest.mark.parametrize(
    "losses, message",
    [
        ([], "need at least one loss"),
        ([LossValue(0.0, 1.0), LossValue(1.0, 1.0), LossValue(2.0, 0.5)], "share the same learning rate"),
    ],
    ids=["empty", "mixed-rate"],
)
def test_loss_list_checked_alike_by_both_routes(losses, message):
    p = uniform(max(len(losses), 1))
    with pytest.raises(ValueError, match=message):
        exp_loss_score(losses)
    with pytest.raises(ValueError, match=message):
        general_bayes_update(p, losses)


def test_loss_list_may_be_any_iterable():
    p = ProbabilityVector([0.25, 0.75])
    losses = [LossValue(0.5, 1.5), LossValue(2.0, 1.5)]
    expected = general_bayes_update(p, losses).values
    np.testing.assert_array_equal(general_bayes_update(p, tuple(losses)).values, expected)
    np.testing.assert_array_equal(general_bayes_update(p, iter(losses)).values, expected)
    np.testing.assert_array_equal(exp_loss_score(iter(losses)).scores, exp_loss_score(losses).scores)


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


@pytest.mark.parametrize("rule", [UpdateRule.inferential(), UpdateRule.predictive(), UpdateRule.general_bayes(1.0)])
def test_sequential_checks_the_whole_stream_before_any_update(rule):
    p0 = ProbabilityVector([0.5, 0.3, 0.2])
    good = ScoreVector([1.0, 2.0, 0.5], rule.score_mode)
    other = Mode.ADDITIVE if rule.score_mode is Mode.MULTIPLICATIVE else Mode.MULTIPLICATIVE
    with mock.patch.object(updating, "_trajectory") as kernel:
        with pytest.raises(ValueError, match="step 2: prior and scores must have the same length, got 3 and 2"):
            sequential_update(p0, [good, good, ScoreVector([1.0, 2.0], rule.score_mode)], rule)
        with pytest.raises(ValueError, match="step 0: prior and scores must have the same length, got 3 and 4"):
            sequential_update(p0, [ScoreVector([1.0, 2.0, 0.5, 1.0], rule.score_mode), good], rule)
        with pytest.raises(ModeMismatchError, match="step 1"):
            sequential_update(p0, [good, ScoreVector([1.0, 2.0, 0.5], other)], rule)
    kernel.assert_not_called()
    assert sequential_update(p0, [], rule) == [p0]
    trajectory = sequential_update(p0, iter([good, good]), rule)
    assert len(trajectory) == 3 and trajectory[0] is p0
    assert not any(p.values.flags.writeable for p in trajectory)
    with pytest.raises(ValueError, match="read-only"):
        trajectory[1].values.base[0, 0] = 1.0


@pytest.mark.parametrize("kind", list(RuleKind))
def test_trajectory_rows_at_large_n_fold_as_alone(kind):
    # one row passes the candidate scan; on the other most entries survive,
    # which sends the whole array to the full sort
    rng = np.random.default_rng(43)
    n, horizon = _CANDIDATE_MIN_N, 3
    few = rng.uniform(0.0, 1.0, (horizon, n))
    most = (rng.exponential(size=(horizon, n)) - 2.0 * rng.uniform(size=(horizon, n))) / n
    scores = np.stack([few, most])
    if kind is not RuleKind.PREDICTIVE:
        scores = np.exp(scores)
    p0 = np.stack([np.full(n, 1.0 / n), rng.dirichlet(np.ones(n))])
    weights = updating._trajectory(kind, p0, scores)
    assert weights.shape == (2, horizon + 1, n)
    for r in range(2):
        assert_same_bits(weights[r], updating._trajectory(kind, p0[r], scores[r]))
    if kind is RuleKind.PREDICTIVE:
        # the row that passes sorts only its candidates when folded alone
        for prior, steps, widths in ((p0, scores, [(2, n)] * horizon), (p0[0], scores[0], [])):
            with mock.patch.object(updating, "_sort_scan", wraps=updating._sort_scan) as full:
                updating._trajectory(kind, prior, steps)
            assert [c.args[0].shape for c in full.call_args_list if c.args[0].shape[-1] == n] == widths


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
