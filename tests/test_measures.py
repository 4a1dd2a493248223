import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import abs_normal_mean_reference, crps_reference, mixture_score_reference

from credal import (
    Empirical,
    Gaussian,
    LossValue,
    Mode,
    PointMass,
    ScoreVector,
    crps,
    crps_measure,
    crps_monte_carlo,
    exp_loss_score,
    forecast_from_json,
    forecast_to_json,
    likelihood_score,
    min_abs_error_score,
)
from credal import measures
from credal.measures import MixtureCRPS, _abs_normal_mean, crps_matrix, expected_abs_difference

# closed-form value of the standard-normal CRPS at its mean: 2*phi(0) - 1/sqrt(pi)
STD_NORMAL_CRPS_AT_MEAN = 2.0 / math.sqrt(2.0 * math.pi) - 1.0 / math.sqrt(math.pi)


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


def test_abs_normal_mean_matches_the_every_entry_form_bit_for_bit():
    # erf runs only where the spread is positive; the values may not move a bit
    rng = np.random.default_rng(9)
    m = rng.normal(0.0, 3.0, (40, 30))
    s = rng.uniform(0.1, 2.0, (40, 30)) * (rng.uniform(size=(40, 30)) < 0.7)
    for args in ((m, s), (m, np.zeros_like(s)), (m, 1.3), (m[0], s[0]), (m, s + 1.0)):
        got, want = _abs_normal_mean(*args), abs_normal_mean_reference(*args)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


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


def test_crps_matrix_equals_scalar_crps_bit_for_bit(monkeypatch):
    # numpy's own exp differs from math.exp in the last bit on some inputs;
    # the grid must not
    rng = np.random.default_rng(41)
    forecasts = [Gaussian(float(m), float(s)) for m, s in zip(rng.normal(0, 2, 6), rng.uniform(0.1, 3, 6))]
    forecasts += [PointMass(0.25), Empirical([-1.0, 0.5, 0.5, 4.0]), PointMass(-3.0), Empirical(rng.normal(size=300))]
    xs = np.concatenate([rng.normal(0.0, 3.0, 3000), [0.0, 0.25, -40.0, 40.0]])
    table = crps_matrix(forecasts, xs)
    expected = [[crps_reference(f, x) for f in forecasts] for x in xs.tolist()]
    assert table.tolist() == expected
    # empirical columns in blocks of 225 and 3 outcomes, each with a short last block
    monkeypatch.setattr(measures, "_BLOCK", 900)
    assert crps_matrix(forecasts, xs).tolist() == expected
    with pytest.raises(ValueError, match="finite"):
        crps_matrix(forecasts, [0.0, math.inf])
    with pytest.raises(TypeError, match="not a forecast"):
        crps_matrix([Gaussian(0.0, 1.0), 0.5], [0.0])


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


@settings(max_examples=150, deadline=None)
@given(st.lists(any_forecast, min_size=1, max_size=6), st.lists(reals, min_size=1, max_size=12), st.floats(-10.0, -1e-3))
@example([Empirical([2.0]), Empirical([-0.5])], [2.0, -1.0], -1.0)  # m = 1
@example([Empirical([0.5, 0.5, -1.0, 0.5]), PointMass(0.5), Gaussian(0.5, 1.0)], [0.5, -1.0], -2.0)  # ties
def test_every_crps_path_matches_the_scalar_reference_bit_for_bit(forecasts, xs, a):
    expected = np.array([[crps_reference(f, x) for f in forecasts] for x in xs])
    assert np.array_equal(bits(crps_matrix(forecasts, xs)), bits(expected))
    assert np.array_equal(bits([[crps(f, x) for f in forecasts] for x in xs]), bits(expected))
    for x, row in zip(xs, expected.tolist()):
        measure = crps_measure(forecasts, x, a)
        assert np.array_equal(bits(measure.scores), bits([a * v for v in row]))


def _kernel_weights(rng, kind, shape):
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


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 4), max_size=2),
    st.integers(1, 512),
    st.sampled_from(["dirichlet", "one_hot", "zero_heavy", "subnormal"]),
    st.sampled_from(["contiguous", "drop_last_row", "drop_last_column", "every_other_column"]),
)
@example(0, [3, 5], 512, "subnormal", "drop_last_row")
@example(1, [2], 1, "one_hot", "drop_last_column")
@example(2, [], 8, "zero_heavy", "every_other_column")
def test_mixture_score_equals_1d_oracle_bit_for_bit(seed, lead, n, kind, layout):
    # the last-axis score must send each row through the same numpy dot and
    # mat-vec as the 1-d expression; a numpy that sums a stacked product in
    # another order fails here instead of changing results.csv
    rng = np.random.default_rng(seed)
    forecasts = [
        PointMass(float(loc)) if i % 5 == 4 else Gaussian(float(loc), float(rng.uniform(0.3, 2.0)))
        for i, loc in enumerate(rng.uniform(-3.0, 3.0, n))
    ]
    mixture = MixtureCRPS(forecasts)
    lead = tuple(lead)
    if layout == "drop_last_row" and lead:  # like the harness's posterior[k, :, :-1]
        shape, view = lead[:-1] + (lead[-1] + 1, n), (..., slice(None, -1), slice(None))
    elif layout == "drop_last_column":
        shape, view = lead + (n + 1,), (..., slice(None, -1))
    elif layout == "every_other_column":
        shape, view = lead + (2 * n,), (..., slice(None, None, 2))
    else:
        shape, view = lead + (n,), (...,)
    w = _kernel_weights(rng, kind, shape)[view]
    c = rng.uniform(0.0, 4.0, shape)[view]
    assert w.shape == c.shape == lead + (n,)

    out = mixture.score(w, c)
    expected = [mixture_score_reference(mixture.pair, mixture.half_self, w[i], c[i]) for i in np.ndindex(lead)]
    if lead:
        assert out.shape == lead
        assert np.array_equal(out, np.reshape(expected, lead))
    else:
        assert type(out) is float and out == expected[0]
