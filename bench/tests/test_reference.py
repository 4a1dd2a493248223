import math

import numpy as np
import pytest

from bench import inputs
from bench.reference import Mixture, ResultsCheck, abs_normal_mean, components
from credal import ExperimentConfig, Gaussian, PointMass, crps, crps_monte_carlo, generate_data, run_experiment
from credal.measures import forecast_from_json

N_DRAWS = 200_000


def _mixture_monte_carlo(means, sds, weights, x, seed):
    """The estimator of `crps_monte_carlo`, |X - x| - |X1 - X2|/2, on mixture draws."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(weights), size=(3, N_DRAWS), p=weights)
    draws = means[idx] + sds[idx] * rng.standard_normal((3, N_DRAWS))
    stat = np.abs(draws[0] - x) - 0.5 * np.abs(draws[1] - draws[2])
    return stat.mean(), stat.std(ddof=1) / math.sqrt(N_DRAWS)


def test_abs_normal_mean_limits():
    assert abs_normal_mean(0.0, 1.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-15)
    assert abs_normal_mean(-3.0, 0.0) == 3.0
    assert abs_normal_mean(40.0, 1.0) == pytest.approx(40.0, rel=1e-15)


@pytest.mark.parametrize("forecast", [Gaussian(0.3, 1.7), Gaussian(-2.0, 0.4), PointMass(1.25)])
@pytest.mark.parametrize("x", [-1.0, 0.2, 3.5])
def test_single_component_matches_closed_form_and_monte_carlo(forecast, x):
    if isinstance(forecast, Gaussian):
        mixture = Mixture([forecast.mu], [forecast.sigma])
    else:
        mixture = Mixture([forecast.location], [0.0])
    exact = float(mixture.crps(np.array([1.0]), x))
    assert exact == pytest.approx(crps(forecast, x), rel=1e-12, abs=1e-14)
    assert float(mixture.component_crps(x)[0]) == pytest.approx(exact, rel=1e-12, abs=1e-14)
    estimate, se = crps_monte_carlo(forecast, x, n_draws=N_DRAWS, seed=11)
    assert abs(estimate - exact) <= 3.0 * se + 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mixture_matches_monte_carlo(seed):
    rng = np.random.default_rng(seed)
    means = rng.uniform(-3.0, 3.0, 5)
    sds = np.array([1.0, 0.5, 2.0, 0.0, 0.0])  # three Gaussians, two point masses
    weights = rng.dirichlet(np.ones(5))
    x = float(rng.normal())
    exact = float(Mixture(means, sds).crps(weights, x))
    estimate, se = _mixture_monte_carlo(means, sds, weights, x, seed)
    assert abs(estimate - exact) <= 3.0 * se


def test_mixture_batches_over_leading_axes():
    means, sds = np.array([0.0, 1.0, 4.0]), np.array([1.0, 0.0, 2.0])
    mixture = Mixture(means, sds)
    w = np.random.default_rng(3).dirichlet(np.ones(3), size=(2, 4))
    x = np.linspace(-2.0, 2.0, 8).reshape(2, 4)
    batched = mixture.crps(w, x)
    one_by_one = [[float(mixture.crps(w[i, j], x[i, j])) for j in range(4)] for i in range(2)]
    np.testing.assert_allclose(batched, one_by_one, rtol=1e-14)


def _tiny_run(workload="sim-medium", seed=5):
    cfg = inputs.sim_config(workload, seed, "tiny")
    result = run_experiment(ExperimentConfig.from_json(cfg))
    summary = {"aggregates": [{"rule": a.rule, "mean_mixture_crps": a.mean_mixture_crps} for a in result.aggregates]}
    truth = forecast_from_json(cfg["truth"])
    obs = [generate_data(seed, truth, cfg["horizon"], replication=r) for r in range(cfg["replications"])]
    return cfg, result, summary, obs


@pytest.mark.parametrize("workload", ["sim-medium", "sim-wide"])
def test_results_check_accepts_harness_output(workload):
    cfg, result, summary, obs = _tiny_run(workload)
    check = ResultsCheck(cfg, result.to_csv_text(), summary, obs)
    assert check.problems == []
    ratio_rows = [r for r in result.records if r.rule in ("inferential", "general_bayes")]
    assert check.ratio_zero_rows == sum(bool(np.any(r.posterior == 0.0)) for r in ratio_rows)
    assert 0.0 <= check.mixture_crps_abs_err < 0.05


def test_results_check_counts_underflowed_rows():
    cfg, result, summary, obs = _tiny_run()
    lines = result.to_csv_text().splitlines()
    header = lines[0].split(",")
    n = len(cfg["models"])
    # zero one inferential row's `far` entry and move its mass onto `good`
    row = [line.split(",") for line in lines[1 : 1 + n]]
    far = next(r for r in row if r[3] == "far")
    good = next(r for r in row if r[3] == "good")
    p = header.index("posterior")
    good[p] = repr(float(good[p]) + float(far[p]))
    far[p] = "0"
    text = "\n".join([lines[0]] + [",".join(r) for r in row] + lines[1 + n :]) + "\n"
    check = ResultsCheck(cfg, text, summary, obs)
    assert check.ratio_zero_rows == 1


def _mutations(text):
    lines = text.splitlines()
    yield "row dropped", "\n".join(lines[:-1]) + "\n"
    yield "column renamed", text.replace("posterior", "post", 1)
    yield "rows swapped", "\n".join([lines[0], lines[2], lines[1]] + lines[3:]) + "\n"
    cells = lines[1].split(",")
    cells[4] = "-0.5"
    yield "negative posterior", "\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n"
    cells = lines[1].split(",")
    cells[5] = repr(float(cells[5]) * 1.001)
    yield "per-model crps off", "\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n"


def test_results_check_rejects_broken_output():
    cfg, result, summary, obs = _tiny_run()
    text = result.to_csv_text()
    for what, broken in _mutations(text):
        assert ResultsCheck(cfg, broken, summary, obs).problems, what
    off = {"aggregates": [dict(a, mean_mixture_crps=a["mean_mixture_crps"] + 1.0) for a in summary["aggregates"]]}
    assert ResultsCheck(cfg, text, off, obs).problems


def test_results_check_requires_far_elimination():
    cfg, result, summary, obs = _tiny_run()
    # swap the labels of `good` and `far`: the model now called `far` is the
    # true one, which the predictive rule keeps
    swap = {"good": "far", "far": "good"}
    cfg = dict(cfg, models=[dict(m, label=swap.get(m["label"], m["label"])) for m in cfg["models"]])
    text = result.to_csv_text().replace(",good,", ",tmp,").replace(",far,", ",good,").replace(",tmp,", ",far,")
    problems = ResultsCheck(cfg, text, summary, obs).problems
    assert any("never zeroes 'far'" in p for p in problems)


def test_components_reject_empirical():
    with pytest.raises(ValueError):
        components([{"label": "e", "forecast": {"kind": "empirical", "samples": [1.0]}}])
