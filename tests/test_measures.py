import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from compare_erf import EDGES, MAX_ULPS, sample_points
from compare_erf import compare as compare_erf
from oracles import (
    ExactMixture,
    abs_normal_mean_mpmath,
    abs_normal_mean_reference,
    crps_reference,
    crps_tolerance,
    gaussian_crps_mpmath,
    point_mass_crps_as_normal_atom,
)

from credal import (
    Empirical,
    ExperimentConfig,
    Gaussian,
    LossValue,
    Mode,
    ModelSpec,
    PointMass,
    ScoreVector,
    UpdateRule,
    crps,
    crps_measure,
    crps_monte_carlo,
    exp_loss_score,
    forecast_from_json,
    forecast_to_json,
    generate_data,
    likelihood_score,
    min_abs_error_score,
    run_experiment,
)
from credal.measures import (
    _abs_normal_mean,
    _erf,
    crps_matrix,
    expected_abs_difference,
    mixture_crps,
)

# closed-form value of the standard-normal CRPS at its mean: 2*phi(0) - 1/sqrt(pi)
STD_NORMAL_CRPS_AT_MEAN = 2.0 / math.sqrt(2.0 * math.pi) - 1.0 / math.sqrt(math.pi)
EPS = np.finfo(float).eps


def test_score_vector_validation():
    s = ScoreVector([0.5, 1.5], Mode.MULTIPLICATIVE)
    assert s.mode is Mode.MULTIPLICATIVE
    ScoreVector([-1.0, 0.0], Mode.ADDITIVE)
    with pytest.raises(ValueError):
        ScoreVector([0.0, 1.0], Mode.MULTIPLICATIVE)
    with pytest.raises(ValueError):
        ScoreVector([np.inf, 1.0], Mode.ADDITIVE)
    with pytest.raises(TypeError):
        ScoreVector([1.0], "multiplicative")


def test_forecast_validation():
    with pytest.raises(ValueError):
        Gaussian(0.0, 0.0)
    with pytest.raises(ValueError):
        Gaussian(np.nan, 1.0)
    with pytest.raises(ValueError):
        PointMass(np.inf)
    with pytest.raises(ValueError):
        Empirical([])
    with pytest.raises(ValueError):
        Empirical([1.0, np.nan])


def test_crps_point_mass_examples():
    assert crps(PointMass(3.0), 5.0) == 2.0
    assert crps(PointMass(5.0), 5.0) == 0.0
    with pytest.raises(ValueError):
        crps(PointMass(3.0), np.inf)


def test_crps_gaussian_at_mean():
    assert crps(Gaussian(0.0, 1.0), 0.0) == pytest.approx(0.23370, abs=1e-4)
    assert crps(Gaussian(0.0, 1.0), 0.0) == pytest.approx(STD_NORMAL_CRPS_AT_MEAN, abs=1e-15)


@pytest.mark.parametrize("z", [0.0, 1.0, 2.0])
def test_gaussian_closed_form_matches_monte_carlo(z):
    # the closed form must agree with a direct sampled estimate of
    # E|X - x| - 0.5 E|X1 - X2| before we trust it anywhere else
    mu, sigma = 0.7, 1.3
    x = mu + z * sigma
    est, se = crps_monte_carlo(Gaussian(mu, sigma), x, n_draws=200_000, seed=17)
    assert abs(crps(Gaussian(mu, sigma), x) - est) <= 3.0 * se


def test_gaussian_crps_scales_linearly_in_sigma():
    for z in (0.0, 1.0, 2.0):
        base = crps(Gaussian(0.0, 1.0), z)
        for sigma in (0.5, 2.0, 7.5):
            assert crps(Gaussian(0.0, sigma), z * sigma) == pytest.approx(sigma * base, rel=1e-12)


def test_empirical_estimator_matches_naive_double_sum():
    rng = np.random.default_rng(5)
    for m in (1, 2, 3, 50, 301):
        s = rng.normal(0.0, 2.0, m)
        x = float(rng.normal())
        naive = np.mean(np.abs(s - x)) - np.abs(s[:, None] - s[None, :]).sum() / (2 * m * m)
        assert crps(Empirical(s), x) == pytest.approx(naive, abs=1e-12)


def test_expected_abs_difference_matches_naive_forms():
    rng = np.random.default_rng(8)
    a, b = rng.normal(0.0, 2.0, 7), rng.normal(1.0, 1.0, 12)
    forecasts = [Empirical(a), Empirical(b), PointMass(0.4), Gaussian(-0.5, 1.5), Gaussian(2.0, 0.5)]
    pair = expected_abs_difference(forecasts)
    np.testing.assert_array_equal(pair, pair.T)
    assert pair[0, 1] == pytest.approx(np.abs(a[:, None] - b[None, :]).mean(), abs=1e-12)
    assert pair[0, 0] == pytest.approx(np.abs(a[:, None] - a[None, :]).mean(), abs=1e-12)
    assert pair[1, 2] == pytest.approx(np.abs(b - 0.4).mean(), abs=1e-12)
    assert pair[2, 2] == 0.0
    # E|X - Y| = crps(F, y) + E|X - X'|/2 for a Gaussian X and an atom y
    for i, g in ((3, forecasts[3]), (4, forecasts[4])):
        half_self = 0.5 * pair[i, i]
        assert pair[i, 2] == pytest.approx(crps(g, 0.4) + half_self, abs=1e-12)
        expected = np.mean([crps(g, v) for v in a]) + half_self
        assert pair[i, 0] == pytest.approx(expected, abs=1e-12)
    # Gaussian pair: the difference D is N(-2.5, 1.5^2 + 0.5^2), E|D - D'|/2 = sd/sqrt(pi)
    sd = math.hypot(1.5, 0.5)
    assert pair[3, 4] == pytest.approx(crps(Gaussian(-2.5, sd), 0.0) + sd / math.sqrt(math.pi), abs=1e-12)

    # a larger mixed list: every grid entry, above and below the diagonal
    mixed = [Empirical(a)]
    for k in range(30):
        loc = float(rng.normal(0.0, 3.0))
        mixed.append(PointMass(loc) if k % 3 == 0 else Gaussian(loc, float(rng.uniform(0.2, 2.0))))
    pair = expected_abs_difference(mixed)
    assert np.array_equal(pair, pair.T)
    for i, f in enumerate(mixed[1:], start=1):
        for j, g in enumerate(mixed[1:], start=1):
            if isinstance(f, PointMass) and isinstance(g, PointMass):
                assert pair[i, j] == abs(f.location - g.location)
            elif isinstance(f, PointMass):
                assert pair[i, j] == pytest.approx(crps(g, f.location) + 0.5 * pair[j, j], abs=1e-12)
            elif isinstance(g, Gaussian):
                sd = math.hypot(f.sigma, g.sigma)
                expected = crps(Gaussian(f.mu - g.mu, sd), 0.0) + sd / math.sqrt(math.pi)
                assert pair[i, j] == pytest.approx(expected, abs=1e-12)


def test_an_empirical_by_gaussian_entry_near_the_largest_float_is_its_mean():
    # three entries of 8e307 sum past the largest float (a warning is an
    # error under this suite); their mean is taken as the point mass's is
    pair = expected_abs_difference([Empirical([8e307] * 3), Gaussian(0.0, 1.0), PointMass(0.0)])
    assert pair[0, 1] == pair[1, 0] == pair[0, 2] == 8e307

def test_abs_normal_mean_is_within_4_eps_of_the_math_erf_form():
    # the two erfs differ by at most 1 ulp and the forms group their terms
    # differently; 2 eps was the largest relative gap measured
    rng = np.random.default_rng(9)
    m = rng.normal(0.0, 3.0, (40, 30))
    s = rng.uniform(0.1, 2.0, (40, 30)) * (rng.uniform(size=(40, 30)) < 0.7)
    for args in ((m, s), (m, np.zeros_like(s)), (m, 1.3), (m[0], s[0]), (m, s + 1.0)):
        got, want = _abs_normal_mean(*args), abs_normal_mean_reference(*args)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=4 * EPS, atol=0.0)
    # a point mass (s == 0) is |m| exactly
    assert np.array_equal(bits(_abs_normal_mean(m, 0.0)), bits(np.abs(m)))


def test_a_spread_too_small_for_the_distance_gives_the_limit_without_a_warning():
    # pytest turns numpy's overflow warnings into errors
    assert np.array_equal(bits(_abs_normal_mean([-3.0, 0.0, 2.0], [1e-300, 0.0, 5e-324])), bits([3.0, 0.0, 2.0]))
    assert crps(Gaussian(0.0, 1e-300), 1.0) == 1.0


def test_closed_forms_match_mpmath():
    # 120-bit references: E|N(m, s^2)| within 4 eps (1.9 eps measured on
    # 20000 points), the Gaussian CRPS within 12 eps (5.2 eps measured; near
    # z = 0 subtracting sigma/sqrt(pi) costs up to two bits)
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(12)
    m = np.concatenate([rng.normal(0.0, 3.0, 600), rng.normal(0.0, 1e-3, 200), rng.uniform(-60.0, 60.0, 200)])
    s = np.exp(rng.uniform(-3.0, 3.0, m.size))
    s[::7] = 0.0
    want = np.array([abs_normal_mean_mpmath(a, b) for a, b in zip(m.tolist(), s.tolist())])
    np.testing.assert_allclose(_abs_normal_mean(m, s), want, rtol=4 * EPS, atol=0.0)
    forecasts = [Gaussian(float(mu), float(sigma)) for mu, sigma in zip(rng.normal(0.0, 3.0, 20), np.exp(rng.uniform(-3.0, 3.0, 20)))]
    xs = np.concatenate([rng.normal(0.0, 4.0, 40), [f.mu + 1e-4 * f.sigma for f in forecasts]])
    want = np.array([[gaussian_crps_mpmath(f.mu, f.sigma, x) for f in forecasts] for x in xs.tolist()])
    np.testing.assert_allclose(crps_matrix(forecasts, xs), want, rtol=12 * EPS, atol=0.0)


def test_erf_is_within_one_ulp_of_math_erf():
    # 10^5 seeded points with the region edges, subnormals, infinities and
    # NaNs; tests/compare_erf.py runs the same check on 10^6 points
    assert MAX_ULPS == 1  # the bound the erf's docstring states
    _, _, ulps = compare_erf(sample_points(10**5, 0))
    assert ulps.max() <= MAX_ULPS


def test_erf_special_values_and_symmetry():
    got = _erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 6.0, -30.0, 5e-324, -5e-324]))
    assert np.array_equal(bits(got[:4]), bits([0.0, -0.0, 1.0, -1.0]))
    assert np.isnan(got[4])
    assert got[5:7].tolist() == [1.0, -1.0]
    assert got[7] > 0.0 and got[8] == -got[7]
    values = sample_points(10**4, 1)
    values = values[~np.isnan(values)]
    assert np.array_equal(bits(_erf(-values)), bits(-_erf(values)))  # exactly odd
    assert _erf(np.array(0.5)).shape == () and _erf(np.zeros((2, 3))).shape == (2, 3)


def test_erf_is_monotone_on_a_sorted_grid():
    # both the grid and the points next to each region edge; at the ulp
    # scale the fdlibm rational form, like glibc's erf, steps down by 1 ulp
    # once, at 1.25 - 3.8e-11
    grid = np.linspace(-7.0, 7.0, 1_400_001)
    edges = np.array(EDGES)
    near = (edges.view(np.int64)[:, None] + np.arange(-500, 500)).view(float).ravel()
    for values in (grid, np.sort(np.concatenate([near, -near]))):
        assert np.all(np.diff(_erf(values)) >= 0.0)


def test_empirical_converges_to_gaussian_closed_form():
    rng = np.random.default_rng(42)
    samples = rng.normal(0.0, 1.0, 100_000)
    f = Empirical(samples)
    for x in (-1.0, 0.0, 1.0):
        assert abs(crps(f, x) - crps(Gaussian(0.0, 1.0), x)) < 0.01


@given(
    st.floats(-50, 50),
    st.floats(-50, 50),
    st.floats(0.01, 20),
)
def test_crps_non_negative(x, mu, sigma):
    assert crps(PointMass(mu), x) >= 0.0
    assert crps(Gaussian(mu, sigma), x) >= 0.0


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=60), st.floats(-100, 100))
def test_empirical_crps_non_negative(samples, x):
    assert crps(Empirical(samples), x) >= 0.0


def test_crps_measure_examples():
    # forecasts engineered to have CRPS 0.1 and 0.5 at x = 0
    fs = [PointMass(0.1), PointMass(0.5)]
    sv = crps_measure(fs, 0.0, -1.0)
    assert sv.mode is Mode.ADDITIVE
    np.testing.assert_allclose(sv.scores, [-0.1, -0.5])
    with pytest.raises(ValueError):
        crps_measure(fs, 0.0, 1.0)
    with pytest.raises(ValueError):
        crps_measure(fs, 0.0, 0.0)
    for bad in (([], 0.0, -1.0), (fs, np.nan, -1.0), (fs, 0.0, np.nan), (fs, 0.0, -np.inf)):
        with pytest.raises(ValueError):
            crps_measure(*bad)
    # equal CRPS in every coordinate is posterior-neutral under additive updating
    same = crps_measure([PointMass(1.0), PointMass(-1.0)], 0.0, -2.0)
    assert same.scores[0] == same.scores[1]


def test_exp_loss_score_examples():
    assert exp_loss_score([LossValue(0.0, 1.0)]).scores[0] == 1.0
    assert exp_loss_score([LossValue(math.log(4.0), 1.0)]).scores[0] == pytest.approx(0.25, rel=1e-15)
    sv = exp_loss_score([LossValue(0.0, 0.5), LossValue(math.log(4.0), 0.5)])
    np.testing.assert_allclose(sv.scores, [1.0, 0.5], rtol=1e-15)
    assert sv.mode is Mode.MULTIPLICATIVE
    with pytest.raises(ValueError):
        exp_loss_score([LossValue(1.0, 1.0), LossValue(1.0, 2.0)])


def test_loss_value_validation():
    with pytest.raises(ValueError):
        LossValue(-0.1, 1.0)
    with pytest.raises(ValueError):
        LossValue(1.0, 0.0)
    with pytest.raises(ValueError):
        LossValue(np.nan, 1.0)


@given(st.floats(0, 20), st.floats(0, 20), st.floats(0.1, 4))
def test_exponential_scores_multiply_over_loss_sums(l1, l2, rate):
    s1 = exp_loss_score([LossValue(l1, rate)]).scores[0]
    s2 = exp_loss_score([LossValue(l2, rate)]).scores[0]
    joint = exp_loss_score([LossValue(l1 + l2, rate)]).scores[0]
    assert abs(s1 * s2 - joint) <= 1e-12


def test_min_abs_error_examples():
    data = [(0.0, 0.0), (1.0, 2.0)]
    sv = min_abs_error_score(data, [[0.0, 1.0]], a=-1.0)  # hypothesis f(x) = x
    assert sv.scores[0] == 0.0  # min of {0, 1}
    assert sv.mode is Mode.ADDITIVE
    # a perfect fit scores zero regardless of the scale
    perfect = min_abs_error_score(data, [[0.0, 2.0]], a=-7.0)
    assert perfect.scores[0] == 0.0
    with pytest.raises(ValueError):
        min_abs_error_score([], [[]], a=-1.0)
    with pytest.raises(ValueError):
        min_abs_error_score(data, [[0.0]], a=-1.0)  # misaligned predictions


def test_likelihood_score_examples():
    sv = likelihood_score([0.8, 0.2])
    assert sv.mode is Mode.MULTIPLICATIVE
    np.testing.assert_array_equal(sv.scores, [0.8, 0.2])
    likelihood_score([1.0, 1.0])  # neutral evidence is fine
    with pytest.raises(ValueError):
        likelihood_score([0.0, 0.5])
    with pytest.raises(ValueError):
        likelihood_score([-0.2, 0.5])
    for bad in ([], [np.nan, 0.5], [[0.5, 0.5]]):
        with pytest.raises(ValueError):
            likelihood_score(bad)


def test_forecast_json_literals():
    cases = [
        ({"kind": "gaussian", "mu": 0.0, "sigma": 1.0}, Gaussian),
        ({"kind": "pointmass", "loc": 3.0}, PointMass),
        ({"kind": "empirical", "samples": [1.0, 2.0]}, Empirical),
    ]
    for obj, cls in cases:
        f = forecast_from_json(obj)
        assert isinstance(f, cls)
        assert forecast_from_json(json.loads(json.dumps(forecast_to_json(f)))).__class__ is cls
    assert forecast_to_json(forecast_from_json(cases[0][0])) == cases[0][0]
    with pytest.raises(ValueError):
        forecast_from_json({"kind": "cauchy", "loc": 0.0})


@pytest.mark.parametrize(
    "obj, key",
    [
        ({"kind": "gaussian", "mu": 0, "sigma": 1, "sigmaa": 3}, "sigmaa"),
        ({"kind": "pointmass", "loc": 1.0, "location": 2.0}, "location"),
        ({"kind": "empirical", "samples": [1.0], "weights": [1.0]}, "weights"),
    ],
)
def test_forecast_literal_rejects_unknown_keys(obj, key):
    with pytest.raises(ValueError, match=rf"{obj['kind']} forecast literal: unknown keys \['{key}'\]"):
        forecast_from_json(obj)


def test_crps_matrix_is_within_bound_of_the_scalar_reference():
    rng = np.random.default_rng(41)
    forecasts = [Gaussian(float(m), float(s)) for m, s in zip(rng.normal(0, 2, 6), rng.uniform(0.1, 3, 6))]
    forecasts += [PointMass(0.25), Empirical([-1.0, 0.5, 0.5, 4.0]), PointMass(-3.0), Empirical(rng.normal(size=300))]
    xs = np.concatenate([rng.normal(0.0, 3.0, 3000), [0.0, 0.25, -40.0, 40.0]])
    table = crps_matrix(forecasts, xs)
    expected = [[crps_reference(f, x) for f in forecasts] for x in xs.tolist()]
    bound = [[crps_tolerance(f, x) for f in forecasts] for x in xs.tolist()]
    assert np.all(np.abs(table - expected) <= bound)
    with pytest.raises(ValueError, match="finite"):
        crps_matrix(forecasts, [0.0, math.inf])
    with pytest.raises(TypeError, match="not a forecast"):
        crps_matrix([Gaussian(0.0, 1.0), 0.5], [0.0])


def test_blocked_grids_equal_the_whole_grid_bit_for_bit():
    # both grids are evaluated in blocks of rows; P only on and right of the
    # diagonal, mirrored below it
    rng = np.random.default_rng(43)
    locs, spreads = rng.uniform(-4.0, 4.0, 700), rng.uniform(0.5, 2.0, 700)
    forecasts = [PointMass(float(m)) if i % 4 == 0 else Gaussian(float(m), float(s)) for i, (m, s) in enumerate(zip(locs, spreads))]
    sd = np.where(np.arange(700) % 4 == 0, 0.0, spreads)
    pair = expected_abs_difference(forecasts)
    whole = _abs_normal_mean(locs[:, None] - locs, np.hypot(sd[:, None], sd))
    assert np.array_equal(bits(pair), bits(whole)) and np.array_equal(pair, pair.T)
    xs = rng.normal(0.0, 2.0, 120)
    rows = np.vstack([crps_matrix(forecasts, [x]) for x in xs.tolist()])
    assert np.array_equal(bits(crps_matrix(forecasts, xs)), bits(rows))


def test_empirical_crps_of_a_tight_cluster_keeps_its_digits():
    # prefix sums taken about the median: equal samples at an outcome score
    # exactly 0, and a cluster far from 0 is scored to its own scale
    assert crps(Empirical([0.1] * 10), 0.1) == 0.0
    assert crps(Empirical([1e6 + 0.1] * 7), 1e6 + 0.1) == 0.0
    cluster = 1e6 + np.array([0.0, 1e-6, 2e-6, 3e-6])
    naive = np.mean(np.abs(cluster - cluster[1])) - np.abs(cluster[:, None] - cluster).mean() / 2
    assert crps(Empirical(cluster), float(cluster[1])) == pytest.approx(naive, rel=1e-9)


@pytest.mark.parametrize(
    "samples",
    [[0.0, 1.0, 4.0], [-1e307, 0.5, 2.0, 1e307], [3.0] * 5 + [-7.0] * 4, [-1e308, -1e308, 0.0, 1e308, 1e308]],
)
@pytest.mark.parametrize("x", [0.0, 9e307, -9e307, 1.7e308, -1.7e308])
def test_empirical_crps_of_a_far_outcome_does_not_overflow(samples, x):
    # each sample count is divided by m before it scales x - median, and
    # the prefix sums and means are taken of power-of-two-scaled values, so
    # the score is finite, and no warning is raised (the suite makes each
    # an error); the exact value is the defining sums in rationals
    m = len(samples)
    exact = sum(abs(Fraction(s) - Fraction(x)) for s in samples) / m - sum(
        abs(Fraction(s) - Fraction(t)) for s in samples for t in samples
    ) / (2 * m * m)
    f = Empirical(samples)
    assert abs(Fraction(crps(f, x)) - exact) <= crps_tolerance(f, x)


def bits(values) -> np.ndarray:
    """The float64 bit patterns of ``values``: -0.0 differs from +0.0."""
    return np.asarray(values, dtype=float).view(np.int64)


reals = st.floats(-1e3, 1e3)
any_forecast = st.one_of(
    st.builds(PointMass, reals),
    st.builds(Gaussian, reals, st.floats(1e-3, 1e3)),
    # draws from a short list repeat, so samples tie
    st.builds(Empirical, st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | reals, min_size=1, max_size=40)),
)


# a loc equal to an outcome, both zeros, the smallest subnormal, and pairs
# whose difference is about 1.7e308, the largest finite value but 6%
EDGE_LOCS = [0.0, -0.0, 1.5, -8e307, 8e307, 5e-324, -3.25]
EDGE_XS = EDGE_LOCS + [9e307, -9e307, 1e-300, 0.7]
wide_locs = st.sampled_from(EDGE_LOCS) | st.floats(-8e307, 8e307)
wide_xs = st.sampled_from(EDGE_XS) | st.floats(-9e307, 9e307)


def point_mass_columns(forecasts) -> tuple[list, np.ndarray]:
    """The columns of ``crps_matrix`` that hold an atom without spread, and their locations."""
    locs = {
        j: f.location if isinstance(f, PointMass) else f.samples[0]
        for j, f in enumerate(forecasts)
        if isinstance(f, PointMass) or (isinstance(f, Empirical) and f.samples.size == 1)
    }
    return list(locs), np.array(list(locs.values()))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.builds(PointMass, wide_locs),
            st.builds(Gaussian, wide_locs, st.floats(1e-3, 1e3)),
            st.builds(lambda v: Empirical([v]), wide_locs),
        ),
        min_size=1,
        max_size=8,
    ),
    st.lists(wide_xs, min_size=1, max_size=12),
)
@example([Gaussian(0.5, 2.0), *map(PointMass, EDGE_LOCS), Empirical([1.5]), Gaussian(-8e307, 1.0)], EDGE_XS)
def test_point_mass_columns_are_the_absolute_error_bit_for_bit(forecasts, xs):
    # |x - loc| is what the normal atom's E|N(m, s^2)| gives at s = 0, and a
    # Gaussian column is what it is when scored alone
    xs = np.array(xs)
    got = crps_matrix(forecasts, xs)
    at, locs = point_mass_columns(forecasts)
    if at:
        assert np.array_equal(bits(got[:, at]), bits(np.abs(xs[:, None] - locs)))
        assert np.array_equal(bits(got[:, at]), bits(point_mass_crps_as_normal_atom(xs, locs)))
    for j, f in enumerate(forecasts):
        assert np.array_equal(bits(crps_matrix([f], xs)[:, 0]), bits(got[:, j]))


@pytest.mark.parametrize(
    "truth, models",
    [
        # Gaussian data, every kind of model
        (
            Gaussian(0.0, 1.0),
            [Gaussian(0.0, 1.0), PointMass(0.25), Empirical([-1.0, 0.5, 2.0]), PointMass(-0.0), Empirical([0.3])],
        ),
        # every outcome 4e307: a model at it, one 4e307 away, and an ensemble
        # about it; the mean over the steps of a larger score would overflow
        (
            PointMass(4e307),
            [PointMass(4e307), PointMass(0.0), Gaussian(4e307, 1.0), Empirical([3.5e307, 4e307, 4.5e307])],
        ),
        # every outcome -0.0: models at +0.0 and -0.0
        (PointMass(-0.0), [PointMass(0.0), Gaussian(1.0, 2.0), PointMass(-0.0), Empirical([-1.0, 0.0, 1.0])]),
    ],
)
def test_a_run_scores_its_point_masses_by_the_absolute_error(truth, models):
    cfg = ExperimentConfig(
        seed=5,
        truth=truth,
        models=tuple(ModelSpec(f"m{i}", f) for i, f in enumerate(models)),
        horizon=4,
        rules=(UpdateRule.predictive(),),
        replications=2,
    )
    result = run_experiment(cfg)
    xs = np.array([generate_data(cfg.seed, cfg.truth, cfg.horizon, replication=rep) for rep in range(2)])
    at, locs = point_mass_columns(models)
    assert np.array_equal(bits(result.crps[..., at]), bits(np.abs(xs[..., None] - locs)))
    oracle = point_mass_crps_as_normal_atom(xs.ravel(), locs).reshape(2, 4, -1)
    assert np.array_equal(bits(result.crps[..., at]), bits(oracle))


@settings(max_examples=150, deadline=None)
@given(st.lists(any_forecast, min_size=1, max_size=6), st.lists(reals, min_size=1, max_size=12), st.floats(-10.0, -1e-3))
@example([Empirical([2.0]), Empirical([-0.5])], [2.0, -1.0], -1.0)  # m = 1
@example([Empirical([0.5, 0.5, -1.0, 0.5]), PointMass(0.5), Gaussian(0.5, 1.0)], [0.5, -1.0], -2.0)  # ties
def test_every_crps_path_equals_scalar_crps_and_is_within_bound_of_the_reference(forecasts, xs, a):
    table = crps_matrix(forecasts, xs)
    scalar = [[crps(f, x) for f in forecasts] for x in xs]
    assert np.array_equal(bits(table), bits(scalar))
    for x, row in zip(xs, scalar):
        measure = crps_measure(forecasts, x, a)
        assert np.array_equal(bits(measure.scores), bits([a * v for v in row]))
    expected = [[crps_reference(f, x) for f in forecasts] for x in xs]
    assert np.all(np.abs(table - expected) <= [[crps_tolerance(f, x) for f in forecasts] for x in xs])


MIXTURE_KINDS = ("dirichlet", "one_hot", "zero_heavy", "subnormal")


def kernel_weights(rng, kind, shape):
    """Weights of ``shape`` in one of the patterns the harness produces."""
    if kind == "dirichlet":
        return rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    w = np.zeros(shape)
    if kind == "one_hot":
        np.put_along_axis(w, rng.integers(0, shape[-1], shape[:-1] + (1,)), 1.0, axis=-1)
    elif kind == "zero_heavy":
        keep = rng.random(shape) < 0.1
        w[keep] = rng.random(int(keep.sum()))
    else:  # subnormal: a dominant weight next to weights at or below the smallest normal
        w = rng.uniform(0.0, 2.2250738585072014e-308, shape)
        w[rng.random(shape) < 0.3] = 0.0
        np.put_along_axis(w, rng.integers(0, shape[-1], shape[:-1] + (1,)), 1.0, axis=-1)
    return w


def mixture_forecasts(rng, n):
    """``n`` Gaussians with spread locations, every fifth a point mass instead."""
    return [
        PointMass(float(loc)) if i % 5 == 4 else Gaussian(float(loc), float(rng.uniform(0.3, 2.0)))
        for i, loc in enumerate(rng.uniform(-3.0, 3.0, n))
    ]


def one_hot_misses(w, c, out) -> int:
    """How many rows of ``w`` with a single nonzero weight, 1, do not score
    exactly that component's entry of ``c``; ``out`` is the score of ``w``."""
    c, out = np.broadcast_to(c, w.shape), np.reshape(out, w.shape[:-1])
    one_hot = (np.count_nonzero(w, axis=-1) == 1) & (w.max(axis=-1, initial=0.0) == 1.0)
    k = w.argmax(axis=-1)[..., None]
    return int(np.count_nonzero(one_hot & (out != np.take_along_axis(c, k, axis=-1)[..., 0])))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 4), max_size=2),
    st.integers(1, 512),
    st.sampled_from(MIXTURE_KINDS),
    st.sampled_from(["contiguous", "drop_last_row", "drop_last_column", "every_other_column", "rule_axis"]),
)
@example(0, [3, 5], 512, "subnormal", "drop_last_row")
@example(3, [3, 5], 64, "zero_heavy", "rule_axis")
@example(1, [2], 1, "one_hot", "drop_last_column")
@example(2, [], 8, "zero_heavy", "every_other_column")
def test_mixture_score_is_within_its_bound_of_the_exact_value(seed, lead, n, kind, layout):
    # the rows of a stack share matrix products, so a row's last bits may
    # depend on its neighbours and on the BLAS; the stated bound may not
    rng = np.random.default_rng(seed)
    pair = expected_abs_difference(mixture_forecasts(rng, n))
    lead = tuple(lead)
    # a rule axis on the weights alone, broadcast against the scores as in the harness
    rules = (2,) if layout == "rule_axis" else ()
    if layout in ("drop_last_row", "rule_axis") and lead:  # like the harness's weights[:, :, :-1]
        shape, view = lead[:-1] + (lead[-1] + 1, n), (..., slice(None, -1), slice(None))
    elif layout == "drop_last_column":
        shape, view = lead + (n + 1,), (..., slice(None, -1))
    elif layout == "every_other_column":
        shape, view = lead + (2 * n,), (..., slice(None, None, 2))
    else:
        shape, view = lead + (n,), (...,)
    w = kernel_weights(rng, kind, rules + shape)[view]
    c = rng.uniform(0.0, 4.0, lead + (n,)) if rules else rng.uniform(0.0, 4.0, shape)[view]
    assert w.shape == rules + c.shape and c.shape == lead + (n,)

    out = mixture_crps(pair, w, c)
    if rules + lead:
        assert out.shape == rules + lead
    else:
        assert type(out) is float
    exact, scores = ExactMixture(pair, 0.5 * np.diag(pair)), np.reshape(out, rules + lead)
    for i in np.ndindex(rules + lead):
        value, bound = exact.score(w[i], c[i[len(rules) :]])
        assert abs(Fraction(float(scores[i])) - value) <= bound
    assert one_hot_misses(w, c, out) == 0
    assert np.array_equal(bits(mixture_crps(pair, w, c)), bits(out))


def test_the_self_term_comes_from_the_pair_matrix_given():
    # h = diag(P)/2 is taken from the P given, so an edited diagonal cannot
    # leave a stale h behind: one-hot weights still score each component's own
    c = np.array([0.3, 2.0])
    pair = expected_abs_difference([Gaussian(0.0, 1.0), PointMass(2.0)])
    assert mixture_crps(pair, np.eye(2), c).tolist() == c.tolist()
    pair[0, 0] = 3.0  # the same array, edited in place
    exact = ExactMixture(pair, 0.5 * np.diag(pair))
    for k, w in enumerate(np.eye(2)):
        out = mixture_crps(pair, w, c)
        assert out == c[k]
        value, bound = exact.score(w, c)
        assert abs(Fraction(out) - value) <= bound


def test_mixture_score_names_both_lengths_on_a_mismatch():
    pair = expected_abs_difference([Gaussian(0.0, 1.0), PointMass(2.0), PointMass(-1.0)])
    with pytest.raises(ValueError, match="weights have a last axis of length 2, the mixture has 3 components"):
        mixture_crps(pair, [0.5, 0.5], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="component scores have a last axis of length 4, the mixture has 3"):
        mixture_crps(pair, np.full((2, 3), 1 / 3), np.ones((2, 4)))
    with pytest.raises(ValueError, match="weights have no axis, the mixture has 3 components"):
        mixture_crps(pair, 1.0, [1.0, 2.0, 3.0])
