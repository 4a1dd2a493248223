import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dominance_gaps, michelot_projection, random_dominator_search, sort_scan_projection

from credal import (
    Credibility,
    DominanceReport,
    ProbabilityVector,
    conservative_normalize,
    divergence,
    ideal_credibility,
    is_probabilistic,
    project_to_simplex,
    verify_dominance,
)


def test_divergence_examples():
    assert divergence([1.0, 0.0], [0.8, 0.2]) == pytest.approx(0.08, abs=1e-15)
    assert divergence([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert divergence([0.6, 0.6], [1.0, 0.0]) == pytest.approx(0.52, abs=1e-15)
    with pytest.raises(ValueError):
        divergence([0.5], [0.5, 0.5])


def test_divergence_symmetric_and_definite():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a, b = rng.normal(size=n), rng.normal(size=n)
        assert abs(divergence(a, b) - divergence(b, a)) <= 1e-15
        assert divergence(a, a) <= 1e-15
        if not np.array_equal(a, b):
            assert divergence(a, b) > 0.0


def test_projection_examples():
    np.testing.assert_allclose(
        project_to_simplex([1.0, 0.85, 0.05]).values, [0.575, 0.425, 0.0], atol=1e-15
    )
    member = [0.25, 0.5, 0.25]
    np.testing.assert_allclose(project_to_simplex(member).values, member, atol=1e-15)
    np.testing.assert_allclose(project_to_simplex([0.6, 0.6]).values, [0.5, 0.5], atol=1e-15)
    with pytest.raises(ValueError):
        project_to_simplex([])


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=12))
def test_projection_matches_conservative_normalization(raw):
    q = np.asarray(raw)
    proj = project_to_simplex(q).values
    np.testing.assert_array_equal(proj, conservative_normalize(q).posterior.values)
    assert np.max(np.abs(proj - michelot_projection(q))) <= 1e-12


def test_projection_is_nearest_point():
    # no random simplex point is ever closer to q than the projection
    rng = np.random.default_rng(15)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        q = rng.normal(0.0, 1.5, n)
        proj = project_to_simplex(q).values
        d_proj = divergence(q, proj)
        for _ in range(20):
            other = rng.dirichlet(np.ones(n))
            assert d_proj <= divergence(q, other) + 1e-12


def test_dominance_examples():
    rep = verify_dominance(Credibility([0.6, 0.6]))
    assert rep.dominated
    np.testing.assert_allclose(rep.dominator.values, [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(rep.per_vertex_gap, [0.02, 0.02], atol=1e-15)

    assert not verify_dominance(Credibility([0.5, 0.5])).dominated
    assert not verify_dominance(Credibility([1.0, 0.0])).dominated  # already ideal at vertex 0

    rep = verify_dominance([1.2, -0.2])  # sums to 1 but has a negative entry
    assert rep.dominated
    np.testing.assert_allclose(rep.dominator.values, [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(rep.per_vertex_gap, [0.08, 0.88], atol=1e-15)


def test_dominance_does_not_read_underflowed_gaps():
    # sum exactly 1 with one negative entry: k d^2 and c_i^2 underflow, so
    # two computed gaps are 0.0, yet the vector is off the simplex
    rep = verify_dominance([0.5, 0.5, -1e-170])
    assert rep.dominated
    assert rep.dominator.values.tolist() == [0.5, 0.5, 0.0]
    assert rep.per_vertex_gap.tolist() == [0.0, 0.0, 2e-170]


def test_dominated_report_needs_a_dominator_and_non_negative_gaps():
    half = ProbabilityVector([0.5, 0.5])
    with pytest.raises(ValueError, match="dominator"):
        DominanceReport(True, None, [0.1, 0.1])
    with pytest.raises(ValueError, match="non-negative"):
        DominanceReport(True, half, [0.1, -0.1])
    with pytest.raises(ValueError, match="non-negative"):
        DominanceReport(True, half, [0.1, math.nan])
    assert DominanceReport(True, half, [0.0, 0.1]).dominated  # a positive gap may round to 0.0


def test_report_copies_the_callers_gaps():
    half = ProbabilityVector([0.5, 0.5])
    g = np.array([0.1, 0.2])
    rep = DominanceReport(True, half, g)
    assert g.flags.writeable and rep.per_vertex_gap is not g
    g[0] = 5.0
    assert rep.per_vertex_gap.tolist() == [0.1, 0.2]
    assert not rep.per_vertex_gap.flags.writeable


def test_verify_dominance_hands_over_its_gaps_without_a_copy():
    # the public constructor, which copies, never runs
    with mock.patch.object(DominanceReport, "__post_init__", side_effect=AssertionError("copied")):
        for c in ([0.6, 0.6, 0.1], [0.25, 0.75]):
            rep = verify_dominance(c)
            assert rep.per_vertex_gap.base is None and not rep.per_vertex_gap.flags.writeable
    with pytest.raises(ValueError, match="non-negative"):
        DominanceReport._adopt(True, ProbabilityVector([0.5, 0.5]), np.array([0.1, -0.1]))


def test_probabilistic_report_is_the_certificate():
    p = ProbabilityVector([0.3, 0.45, 0.25])
    rep = verify_dominance(p)
    assert not rep.dominated
    assert rep.dominator is None
    np.testing.assert_array_equal(rep.per_vertex_gap, np.zeros(3))
    # the former search arguments are gone
    for former in ({"n_perturbations": 7}, {"seed": 3}):
        with pytest.raises(TypeError):
            verify_dominance(p, **former)
    with pytest.raises(TypeError):
        verify_dominance(p, 1e-9, 10_000)


def test_non_probabilistic_vectors_are_dominated():
    rng = np.random.default_rng(21)
    found = 0
    while found < 300:
        n = int(rng.integers(2, 6))
        c = rng.uniform(0.0, 1.0, n)
        if abs(c.sum() - 1.0) <= 1e-3:
            continue
        found += 1
        rep = verify_dominance(Credibility(c))
        assert rep.dominated
        assert np.all(rep.per_vertex_gap > 0.0)
        # gaps really are divergence differences against each vertex
        for j in range(n):
            direct = divergence(c, ideal_credibility(j, n)) - divergence(
                rep.dominator, ideal_credibility(j, n)
            )
            assert rep.per_vertex_gap[j] == pytest.approx(direct, abs=1e-12)


def test_gaps_near_the_simplex_stay_positive():
    # sums 1 +- delta just outside eps: the gaps are tiny but must not cancel
    rng = np.random.default_rng(24)
    for delta in np.geomspace(2e-9, 1e-3, 25):
        for sign in (1.0, -1.0):
            for _ in range(8):
                n = int(rng.integers(2, 9))
                c = rng.dirichlet(np.ones(n)) * (1.0 + sign * delta)
                rep = verify_dominance(Credibility(c))
                assert rep.dominated
                assert np.all(rep.per_vertex_gap > 0.0)
                for j in range(n):
                    direct = divergence(c, ideal_credibility(j, n)) - divergence(
                        rep.dominator, ideal_credibility(j, n)
                    )
                    assert rep.per_vertex_gap[j] == pytest.approx(direct, abs=1e-12)


def test_probabilistic_vectors_never_dominated_in_search():
    rng = np.random.default_rng(22)
    for i in range(150):
        n = int(rng.integers(2, 6))
        p = ProbabilityVector(rng.dirichlet(np.ones(n)))
        dominator, gaps = random_dominator_search(p, n_perturbations=2000, seed=i)
        assert dominator is None
        assert gaps.min() <= 0.0
        assert not verify_dominance(p).dominated


def test_search_oracle_finds_dominators_well_off_the_simplex():
    rng = np.random.default_rng(23)
    found = 0
    while found < 100:
        n = int(rng.integers(2, 6))
        c = rng.uniform(0.0, 1.0, n)
        if c.sum() < 1.3:
            continue
        found += 1
        dominator, gaps = random_dominator_search(c, n_perturbations=2000, seed=found)
        assert dominator is not None
        for j in range(n):
            direct = divergence(c, ideal_credibility(j, n)) - divergence(dominator, ideal_credibility(j, n))
            assert direct > 0.0
            assert gaps[j] == pytest.approx(direct, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 512),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["uniform", "near", "dirichlet", "normal"]),
    st.one_of(st.just(0.0), st.floats(-0.5, 0.5)),
)
def test_certificate_identity(n, seed, rival, scale):
    # sum_j c_j gap_j(c') = -|c - c'|^2 + delta (|c|^2 - |c'|^2), sum(c) = 1 + delta
    rng = np.random.default_rng(seed)
    c = rng.dirichlet(np.ones(n)) * (1.0 + scale)
    other = {
        "uniform": lambda: rng.uniform(-1.0, 2.0, n),
        "near": lambda: c + rng.normal(0.0, 1e-3, n),
        "dirichlet": lambda: rng.dirichlet(np.ones(n)),
        "normal": lambda: rng.normal(0.0, 1.0, n),
    }[rival]()
    vertices = np.eye(n)
    gaps = ((c - vertices) ** 2).sum(axis=1) - ((other - vertices) ** 2).sum(axis=1)
    delta = c.sum() - 1.0
    expected = -divergence(c, other) + delta * (c @ c - other @ other)
    assert c @ gaps == pytest.approx(expected, abs=1e-12 * (1.0 + other @ other))
    if scale == 0.0:
        assert c @ gaps <= 1e-12 * (1.0 + other @ other)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    # the last two span several of the 2**16-entry compaction blocks, one
    # ending mid-block
    n=st.one_of(st.integers(1, 40), st.integers(1 << 14, 1 << 16), st.sampled_from([2**16 + 3, 3 * 2**16])),
    kind=st.sampled_from(["uniform", "scaled", "one", "ties", "negative"]),
)
def test_verify_dominance_matches_the_gap_formula_bit_for_bit(seed, n, kind):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        c = rng.uniform(0.0, 1.0, n)
    elif kind == "scaled":
        c = rng.dirichlet(np.ones(n)) * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8.0, -0.5))
    elif kind == "one":
        c = rng.normal(0.0, 1e-3, n)
        c[rng.integers(n)] = 5.0
    elif kind == "ties":
        c = np.round(rng.normal(0.0, 1.0, n), 1)
    else:
        c = rng.dirichlet(np.ones(n)) - rng.uniform(0.0, 2.0 / n, n)
    rep = verify_dominance(c)
    if is_probabilistic(c):
        assert not rep.dominated and rep.dominator is None
        return
    posterior, d, keep = sort_scan_projection(c)
    gaps = dominance_gaps(c, d, keep)
    np.testing.assert_array_equal(rep.dominator.values.view(np.int64), posterior.view(np.int64))
    np.testing.assert_array_equal(rep.per_vertex_gap.view(np.int64), gaps.view(np.int64))
    assert rep.dominated and np.all(gaps >= 0.0)


def test_verify_dominance_allocates_little_beyond_its_outputs():
    # the dominator and the gaps take 2 x 8n bytes; the survivor mask and the
    # projection's temporaries add about a quarter more, and a copy of the
    # dropped entries would add another 8n
    n = 1 << 20
    c = np.random.default_rng(0).uniform(size=n)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert verify_dominance(c).dominated
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * n


def test_dominance_report_json():
    rep = verify_dominance(Credibility([0.6, 0.6]))
    obj = rep.to_json()
    assert obj["dominated"] is True
    assert obj["dominator"] == [0.5, 0.5]
    assert len(obj["per_vertex_gap"]) == 2


@pytest.mark.parametrize("eps", [-1.0, -1e-300, math.nan])
def test_negative_or_nan_eps_rejected(eps):
    # such an eps made every input non-probabilistic, so [0.5, 0.5] came
    # back undominated with a dominator
    with pytest.raises(ValueError, match="eps must be non-negative"):
        verify_dominance([0.5, 0.5], eps=eps)
