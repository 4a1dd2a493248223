import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import brute_force_normalize_oracle, fold_errors, sort_scan_fold, sort_scan_projection

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
    is_probabilistic,
    predictive_update,
    project_to_simplex,
    sequential_update,
    uniform,
    verify_dominance,
)
from credal import updating
from credal.core import DEFAULT_EPS
from credal.updating import _CANDIDATE_MIN_N, _candidate_scan, _project_rows


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


def test_inferential_update_whose_weights_sum_past_the_largest_float():
    # both weights are finite, but their sum overflows (a warning is an
    # error under this suite); the update is p / sum(p), to within 1 ulp
    big = np.finfo(float).max
    p = ProbabilityVector([0.5000000004, 0.5])
    posterior = inferential_update(p, ScoreVector([big, big], Mode.MULTIPLICATIVE)).values
    total = sum(map(Fraction, p.values))
    for value, prior in zip(posterior.tolist(), p.values.tolist()):
        assert abs(Fraction(value) - Fraction(prior) / total) <= math.ulp(value)


@st.composite
def prior_scores_and_scale(draw):
    """A prior, up to 1 + 9e-10 in total, positive normal scores of the same
    length, and a power ``k`` that moves their largest binary exponent
    anywhere in range, often near either end.  In half the draws every
    score is within a relative 1e-9 of the largest float, where the weights
    or their sum may overflow; in the others their binary exponents lie
    within 8 below a common one."""
    n = draw(st.integers(1, 6))
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    assume(raw.sum() > 0.0)
    prior = raw / raw.sum() * (1.0 + draw(st.sampled_from([0.0, 4e-10, 9e-10])))
    ends = st.one_of(st.integers(-1022, 1023), st.integers(1013, 1023), st.integers(-1022, -1012))
    if draw(st.booleans()):
        base = 1023
        scores = np.finfo(float).max * (1.0 - np.array(draw(st.lists(st.floats(0.0, 1e-9), min_size=n, max_size=n))))
    else:
        base = draw(ends)
        mantissas = draw(st.lists(st.floats(1.0, 2.0, exclude_max=True), min_size=n, max_size=n))
        offsets = draw(st.lists(st.integers(-8, 0), min_size=n, max_size=n))
        scores = np.ldexp(mantissas, np.maximum(base + np.array(offsets), -1022))
    return prior.tolist(), scores.tolist(), draw(ends) - base


def ratio_weights(p: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scores that the ratio-form update multiplies by ``p`` and its
    weights: ``s`` and ``s * p``, or ``s / 2`` and ``(s / 2) * p`` where
    the sum of ``s * p`` overflows."""
    with np.errstate(over="ignore"):
        if (s * p).sum() < math.inf:
            return s, s * p
    return 0.5 * s, (0.5 * s) * p


def normal(x: np.ndarray) -> bool:
    return bool(np.all((x >= np.finfo(float).tiny) & (x <= np.finfo(float).max)))


@settings(max_examples=300, deadline=None)
@given(prior_scores_and_scale())
@example(([1.0000000004, 0.0], [1.7976931348623157e308] * 2, -1))
def test_inferential_update_is_power_of_two_equivariant(case):
    # wherever the weights of the path taken, and the scores they come from,
    # stay normal, scaling every score by 2**k scales the weights and their
    # sum exactly, so the posterior keeps every bit; near the largest float
    # the two sides may take different paths
    prior, scores, k = case
    p, s = np.array(prior), np.array(scores)
    with np.errstate(over="ignore"):
        scaled = np.ldexp(s, k)
    assume(normal(scaled))
    for t in (s, scaled):
        used, w = ratio_weights(p, t)
        assume(normal(used) and normal(w[p > 0.0]))
    pv = ProbabilityVector(p)
    want = inferential_update(pv, ScoreVector(s, Mode.MULTIPLICATIVE)).values
    got = inferential_update(pv, ScoreVector(scaled, Mode.MULTIPLICATIVE)).values
    assert got.tobytes() == want.tobytes()


def test_inferential_update_allocates_little_beyond_its_output():
    # the posterior takes 8n bytes; a second n-sized array for the
    # normalized weights would double it
    n = 1 << 20
    rng = np.random.default_rng(0)
    p = ProbabilityVector(np.full(n, 1.0 / n))
    s = ScoreVector(rng.uniform(0.1, 1.0, n), Mode.MULTIPLICATIVE)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        inferential_update(p, s)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * n


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
    posterior, d, keep = _project_rows(q)
    assert sorted(np.flatnonzero(~keep[0]).tolist()) == [1, 2, 5]
    assert np.count_nonzero(keep[1]) == 1 and keep[2].all()
    assert len({int(k) for k in keep.sum(axis=1)}) == 6  # every survivor count from 1 to 6
    for i, row in enumerate(q):
        one = conservative_normalize(row)
        np.testing.assert_array_equal(posterior[i], one.posterior.values)
        assert d[i] == one.d
        assert set(np.flatnonzero(~keep[i]).tolist()) == one.zeroed
    # each row is projected on its own, whatever stack it is in
    for rows in np.array_split(np.arange(len(q)), 5):
        for whole, part in zip((posterior, d, keep), _project_rows(q[rows])):
            np.testing.assert_array_equal(whole[rows], part)


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
    q = projection_input(np.random.default_rng(seed), lead + (n,), kind).reshape(-1, n)
    with mock.patch.object(updating, "_sort_scan", wraps=updating._sort_scan) as full:
        got = _project_rows(q)
    for g, w in zip(got, sort_scan_projection(q)):
        assert_same_bits(g, w)
    if kind == "offset":  # the bound refuses every row, so the full scan runs on all of them
        assert sum(len(call.args[0]) for call in full.call_args_list) == len(q)
    if kind == "near-cut":
        # candidates cut at the cut value, or at the entry planted there
        # (kept or excluded by rounding): the bound cannot prove where the
        # full scan ends
        _, d, _ = got
        for row, d_row in zip(q, d.tolist()):
            tau = -d_row
            for t in (tau, *row[np.abs(row - tau) <= 1e-12]):
                assert _candidate_scan(row, float(t), float(np.abs(row).max())) is None


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.integers(1, 64), st.sampled_from([_CANDIDATE_MIN_N - 1, _CANDIDATE_MIN_N])),
    kind=st.sampled_from(["one", "few", "most", "ties", "split-tie", "near-cut", "offset"]),
)
def test_one_map_behind_three_names(seed, n, kind):
    # at n = 2^14 the candidate scan takes "one" and "few" rows and refuses
    # "most" and "offset" ones
    v = projection_input(np.random.default_rng(seed), (n,), kind)
    posterior, d, keep = _project_rows(v[None])
    if not is_probabilistic(posterior[0]):  # rounding at an offset of 1e15 can lose mass
        for name in (conservative_normalize, project_to_simplex, verify_dominance):
            with pytest.raises(ValueError, match="probabilities must sum to 1"):
                name(v)
        return
    result = conservative_normalize(v)
    assert_same_bits(result.posterior.values, posterior[0])
    assert_same_bits(np.array([result.d]), d)
    assert_same_bits(result.keep, keep[0])
    assert_same_bits(project_to_simplex(v).values, posterior[0])
    if not is_probabilistic(v):
        assert_same_bits(verify_dominance(v).dominator.values, posterior[0])


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
        got = _project_rows(q)
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
    """The projection of the rows of ``q``, with the (start, width) of
    every window in which the full scan evaluated its test: the ``(lo,
    hi)`` of each :func:`~credal.updating._bracket`."""
    brackets, bracket = [], updating._bracket

    def record(w, c):
        brackets.append(bracket(w, c))
        return brackets[-1]

    with mock.patch.object(updating, "_bracket", record):
        got = _project_rows(q)
    return got, [(lo, hi - lo) for lo, hi in brackets]


def test_a_reused_scan_work_projects_as_a_fresh_one():
    # one _ScanWork and one out per row length serve unlike stacks in turn:
    # the test column set once and the views made once must not carry a
    # stack's bits into the next; the n = 1 stack, whose every column is
    # column 0, runs on a work of its own shape between two uses of the other
    split = np.stack([SPLIT_TIE, SPLIT_TIE[::-1]])
    stacks = [
        split,
        np.array([[0.3, 0.1, -0.2, 0.6, 0.05, -1.0], [0.9, -0.4, 0.2, 0.15, -0.05, 0.7]]),
        np.array([[5.0, 0.0, 0.1, -0.3, 0.2, 0.0], [-1.0, -2.0, -3.0, -4.0, -5.0, 3.0]]),
        np.array([[0.3], [-4.0]]),
        split,
    ]
    works = {}
    for q in stacks:
        work, out = works.setdefault(q.shape, (updating._ScanWork(*q.shape), np.empty(q.shape)))
        got = updating._sort_scan(q, work, out)
        assert got[0] is out and got[1] is work.d and got[2] is work.keep
        for g, w in zip(got, updating._sort_scan(q)):
            assert_same_bits(g, w)
        if q is split:  # the scan keeps the lower-index -0.2 of each row's pair
            np.testing.assert_array_equal(got[2][q == -0.2], [True, False, True, False])


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
    q = (1e15 + rng.uniform(0.0, 1.0, n) if kind == "offset" else tie_at_cut(rng, n))[None]
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
                conservative_normalize(q[1])
            if n >= _CANDIDATE_MIN_N:  # a stack of short rows is checked by the fold, after its last step
                with pytest.raises(ValueError, match="finite"):
                    _project_rows(q)


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


def test_general_bayes_at_a_loss_product_beyond_the_float_range():
    # 10 * 1e308 overflows to inf, which scores exp(-inf) = 0 without a
    # warning (pytest turns warnings into errors)
    losses = [LossValue(1e308, 10.0), LossValue(0.0, 10.0)]
    post = general_bayes_update(ProbabilityVector([0.5, 0.5]), losses)
    np.testing.assert_array_equal(post.values, [0.0, 1.0])
    with pytest.raises(ValueError, match="multiplicative scores must be strictly positive"):
        exp_loss_score(losses)


def test_general_bayes_underflow():
    # the losses are shifted by the smallest loss on a positive prior, 800,
    # so that hypothesis keeps its prior's weight and none underflows
    p = ProbabilityVector([1.0, 0.0])
    post = general_bayes_update(p, [LossValue(800.0, 1.0), LossValue(0.0, 1.0)])
    np.testing.assert_array_equal(post.values, [1.0, 0.0])


@pytest.mark.parametrize(
    "prior, losses",
    [([0.5, 0.5], [smallest, smallest + 1.0]) for smallest in (720.0, 745.0, 800.0, 1e4)]
    # the smallest loss sits on a zero prior, which takes no part in the shift
    + [([0.5, 0.5, 0.0], [740.0, 741.0, 0.0])],
    ids=["720.0", "745.0", "800.0", "10000.0", "740.0-on-a-zero-prior"],
)
def test_general_bayes_at_large_losses_takes_them_less_their_smallest(prior, losses):
    # the weights are subnormal, or vanish; losses L and L + 1 give
    # e / (1 + e) and 1 / (1 + e), correctly rounded
    post = general_bayes_update(ProbabilityVector(prior), [LossValue(loss, 1.0) for loss in losses])
    np.testing.assert_array_equal(post.values[:2], [0.7310585786300049, 0.2689414213699951])
    np.testing.assert_array_equal(post.values[2:], 0.0)


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
    losses=st.lists(st.floats(0.0, 1000.0), min_size=8, max_size=8),
    rate=st.floats(0.01, 10.0),
    c=st.floats(0.0, 1e4),
)
def test_general_bayes_moves_little_when_every_loss_grows_by_one_constant(weights, losses, rate, c):
    # adding c to every loss leaves the exact posterior as it is.  With
    # u = 2^-53 and A = rate (max L + c), each computed posterior lies
    # within 6 u A + (n + 8) u of it, relatively (the argument of each exp
    # errs by at most 3 u A), and within 2^-51 absolutely where a weight
    # leaves the normal range; the bound below is more than twice that
    n = len(weights)
    p = ProbabilityVector(np.array(weights) / sum(weights))
    losses = losses[:n]
    base = general_bayes_update(p, [LossValue(v, rate) for v in losses]).values
    moved = general_bayes_update(p, [LossValue(v + c, rate) for v in losses]).values
    a = rate * (max(losses) + c)
    assert np.all(np.abs(moved - base) <= 2.0**-47 * (a + n + 1) * np.maximum(base, moved) + 2.0**-48)


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
    # additive scores for the predictive rule, log-scores for the others
    scores = np.stack([few, most])
    p0 = np.stack([np.full(n, 1.0 / n), rng.dirichlet(np.ones(n))])
    weights, log_weights = updating._trajectory(kind, p0, scores)
    assert weights.shape == log_weights.shape == (2, horizon + 1, n)
    for r in range(2):
        alone, alone_logs = updating._trajectory(kind, p0[r], scores[r])
        assert_same_bits(weights[r], alone)
        assert_same_bits(log_weights[r], alone_logs)
    if kind is RuleKind.PREDICTIVE:
        # the row that passes sorts only its candidates when folded alone
        for prior, steps, widths in ((p0, scores, [(2, n)] * horizon), (p0[0], scores[0], [])):
            with mock.patch.object(updating, "_sort_scan", wraps=updating._sort_scan) as full:
                updating._trajectory(kind, prior, steps)
            assert [c.args[0].shape for c in full.call_args_list if c.args[0].shape[-1] == n] == widths


PREDICTIVE_KINDS = ("plain", "ties", "split-tie", "zero-prior", "re-entry", "near-cut", "huge")


def predictive_stream(rng, lead, horizon, n, kind):
    """A prior ``lead + (n,)`` and additive scores ``lead + (horizon, n)``
    of one family: normal scores; scores on a grid of 0.1 from a uniform
    prior, so that zeroed entries tie, at the cut too; a first step whose
    ``p + s`` is ``projection_input``'s split tie exactly, from a vertex,
    then normal scores; a prior with zeros; scores that change sign every
    step, so that zeroed entries re-enter; scores on a grid of 1/(4n) from
    a uniform prior, so that margins at the cut are 0 up to rounding; or
    scores up to 2^1001 in magnitude."""
    shape = lead + (horizon, n)
    uniform_prior = np.full(lead + (n,), 1.0 / n)
    p0 = rng.dirichlet(np.ones(n), size=lead)
    if kind == "plain":
        return p0, rng.normal(0.0, 2.0 / n, shape)
    if kind == "ties":
        return uniform_prior, np.round(rng.normal(0.0, 1.0, shape), 1)
    if kind == "split-tie":
        first = projection_input(rng, lead + (n,), "split-tie")
        vertex = np.zeros(lead + (n,))
        vertex[..., int(np.argmax(first.reshape(-1, n)[0]))] = 1.0
        scores = rng.normal(0.0, 2.0 / n, shape)
        if horizon:
            scores[..., 0, :] = first - vertex  # 0.5 - 1 and 0 + q are exact
        return vertex, scores
    if kind == "zero-prior":
        p0[..., rng.random(n) < 0.3] = 0.0
        p0[..., rng.integers(n)] += 0.5
        p0 /= p0.sum(-1, keepdims=True)
        return p0, rng.normal(0.0, 1.0 / n, shape)
    if kind == "re-entry":
        return p0, rng.normal(0.0, 1.0, lead + (1, n)) * (-1.0) ** np.arange(horizon)[:, None]
    if kind == "near-cut":
        return uniform_prior, rng.integers(-4, 5, shape) / (4.0 * n)
    return p0, rng.uniform(-1.0, 1.0, shape) * 2.0**1001  # "huge"


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lead=st.sampled_from([(), (1,), (3, 2)]),
    n=st.one_of(st.integers(1, 64), st.just(_CANDIDATE_MIN_N - 1)),
    horizon=st.integers(0, 40),
    kind=st.sampled_from(PREDICTIVE_KINDS),
)
def test_predictive_trajectory_matches_the_step_by_step_oracle_fold(seed, lead, n, horizon, kind):
    if n > 64:  # a few steps of the longest short rows are enough
        horizon = min(horizon, 3)
    p0, scores = predictive_stream(np.random.default_rng(seed), lead, horizon, n, kind)
    fold_as_oracle(p0, scores)


def keeps_mass(fold) -> bool:
    """Whether every posterior of a predictive fold sums to 1 within ``DEFAULT_EPS``."""
    return bool(np.all(np.abs(fold[..., 1:, :].sum(-1) - 1.0) <= DEFAULT_EPS))


def fold_as_oracle(p0, scores):
    """The predictive fold of a stack, which must equal the oracle fold
    bit for bit where every posterior of it keeps its mass, and raise
    naming a step where one does not: the "huge" family's scores, up to
    2^1001, round the mass of most stacks away."""
    want = sort_scan_fold(p0, scores)
    if keeps_mass(want):
        weights, log_weights = updating._trajectory(RuleKind.PREDICTIVE, p0, scores)
        assert_same_bits(weights, want)
        with np.errstate(divide="ignore"):
            assert_same_bits(log_weights, np.log(want))
    else:
        with pytest.raises(ValueError, match=r"t = \d+: the posterior sums to .+, not 1"):
            updating._trajectory(RuleKind.PREDICTIVE, p0, scores)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lead=st.sampled_from([(), (1,), (3, 2)]),
    n=st.integers(1, 64),
    horizon=st.integers(1, 40),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
)
def test_predictive_trajectory_rejects_a_non_finite_score(seed, lead, n, horizon, bad):
    rng = np.random.default_rng(seed)
    p0, scores = predictive_stream(rng, lead, horizon, n, "plain")
    scores[tuple(int(rng.integers(size)) for size in scores.shape)] = bad
    with pytest.raises(ValueError, match="entries must be finite"):
        updating._trajectory(RuleKind.PREDICTIVE, p0, scores)


@pytest.mark.parametrize("kind", ["re-entry", "huge"])
def test_the_predictive_fold_allocates_its_scan_buffers_once(kind):
    # one set of buffers serves every step, whatever the magnitude of the
    # scores, and no step is a projection of its own
    horizon = 50
    p0, scores = predictive_stream(np.random.default_rng(46), (10,), horizon, 8, kind)
    if kind == "huge":
        scores[0, 0, 0] = 2.0**1001
    with mock.patch.object(updating, "_ScanWork", wraps=updating._ScanWork) as work, mock.patch.object(
        updating, "conservative_normalize", wraps=updating.conservative_normalize
    ) as step:
        fold_as_oracle(p0, scores)
    assert (work.call_count, step.call_count) == (1, 0)


@pytest.mark.parametrize("path", ["candidate", "refused"])
def test_long_rows_fold_on_one_set_of_scan_buffers(path):
    # the candidate scan takes every step of one row and refuses every step
    # of the other, where most entries survive; either way the steps share
    # the fold's buffers, and none is a projection of its own
    rng = np.random.default_rng(47)
    n, horizon = _CANDIDATE_MIN_N, 4
    if path == "candidate":
        p0, scores = np.full(n, 1.0 / n), rng.uniform(0.0, 1.0, (horizon, n))
    else:
        p0 = rng.dirichlet(np.ones(n))
        scores = (rng.exponential(size=(horizon, n)) - 2.0 * rng.uniform(size=(horizon, n))) / n
    with mock.patch.object(updating, "_ScanWork", wraps=updating._ScanWork) as work, mock.patch.object(
        updating, "conservative_normalize", wraps=updating.conservative_normalize
    ) as step, mock.patch.object(updating, "_sort_scan", wraps=updating._sort_scan) as full:
        weights, _ = updating._trajectory(RuleKind.PREDICTIVE, p0, scores)
    assert [c.args for c in work.call_args_list if c.args[-1] == n] == [(1, n)]
    assert step.call_count == 0
    full_width = sum(c.args[0].shape[-1] == n for c in full.call_args_list)
    assert full_width == (0 if path == "candidate" else horizon)
    assert_same_bits(weights, sort_scan_fold(p0, scores))


def test_a_predictive_fold_whose_prefix_sums_overflow_warns():
    # the fold silences only the invalid operations of a non-finite row;
    # an overflow still warns, which the suite turns into an error
    scores = np.zeros((2, 4))
    scores[0] = [1.5e308, 1.5e308, -1.0, -1.0]
    with pytest.raises(RuntimeWarning, match="overflow encountered in accumulate"):
        updating._trajectory(RuleKind.PREDICTIVE, np.full(4, 0.25), scores)


def test_sequential_ratio_form_from_a_prior_with_a_zero_matches_the_exact_fold():
    # the harness's prior is uniform, so its log cancels; here it does not,
    # and the zero entry stays exactly 0
    rng = np.random.default_rng(12)
    p0 = ProbabilityVector([0.6, 0.0, 0.3, 0.1])
    stream = [ScoreVector(rng.uniform(0.05, 3.0, 4), Mode.MULTIPLICATIVE) for _ in range(30)]
    trajectory = np.array([p.values for p in sequential_update(p0, stream, UpdateRule.inferential())[1:]])
    assert np.all(trajectory[:, 1] == 0.0)
    assert fold_errors(p0.values, np.log([s.scores for s in stream]), trajectory)[1] == 0


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
