"""The array-native harness against the step-by-step reference harness."""

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import reference_harness

from credal import (
    Empirical,
    ExperimentConfig,
    Gaussian,
    LossValue,
    ModelSpec,
    Mode,
    PointMass,
    ScoreVector,
    UpdateRule,
    exp_loss_score,
    generate_data,
    likelihood_score,
    run_experiment,
    sequential_update,
    uniform,
)
from credal.experiments import _LIKELIHOOD_FLOOR
from credal.measures import MixtureCRPS, gaussian_density_matrix

# few distinct parameters, so that models tie and projections cut through ties
LOCATIONS = st.sampled_from([-1.0, 0.0, 0.5, 2.0])
SPREADS = st.sampled_from([0.5, 1.0, 2.0])
GAUSSIANS = st.builds(Gaussian, LOCATIONS, SPREADS)
FORECASTS = st.one_of(
    GAUSSIANS,
    st.builds(PointMass, LOCATIONS),
    st.builds(Empirical, st.lists(LOCATIONS, min_size=1, max_size=4)),
)
RULES = {
    "inferential": st.just(UpdateRule.inferential()),
    "predictive": st.just(UpdateRule.predictive()),
    "general_bayes": st.builds(UpdateRule.general_bayes, st.sampled_from([0.3, 1.0, 2.5])),
}


@st.composite
def configs(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(RULES)), min_size=1, max_size=3, unique=True))
    # inferential scoring needs a Gaussian forecast per model
    forecast = GAUSSIANS if "inferential" in kinds else FORECASTS
    n = draw(st.integers(1, 5))
    return ExperimentConfig(
        seed=draw(st.integers(0, 2**32)),
        truth=draw(FORECASTS),
        models=tuple(ModelSpec(f"m{i}", draw(forecast)) for i in range(n)),
        horizon=draw(st.integers(1, 6)),
        rules=tuple(draw(RULES[k]) for k in kinds),
        a=draw(st.sampled_from([-0.2, -1.0, -4.0])),
        replications=draw(st.integers(1, 4)),
    )


def assert_matches_reference(cfg, result):
    """Every line's first six fields equal the reference's byte for byte;
    the mixture scores and the aggregates lie within the bound that
    ``MixtureCRPS.score`` states of the exact scores."""
    text, aggregates, mixtures = reference_harness(cfg)
    csv = result.to_csv_text()
    assert csv.endswith("\n")
    got, want = csv.splitlines(), text.splitlines()
    assert got[0] == want[0]
    # compared as lists of lines: pytest then names the first differing row,
    # where its diff of two texts this long takes minutes
    got, want = [line.rsplit(",", 1) for line in got[1:]], [line.rsplit(",", 1) for line in want[1:]]
    assert [head for head, _ in got] == [head for head, _ in want]
    n = len(cfg.models)
    for row, (_, score) in enumerate(got):
        exact, bound = mixtures[row // n]
        assert abs(Fraction(float(score)) - exact) <= bound, (row, score, float(exact), bound)
    # an aggregate is a mean, or the standard error of means, of scores each
    # within its bound; each side rounds its sums by at most (horizon +
    # replications + 4) eps of the largest score besides
    largest = max(abs(float(exact)) for exact, _ in mixtures)
    eps = np.finfo(float).eps
    tolerance = max(bound for _, bound in mixtures) + (cfg.horizon + cfg.replications + 4) * eps * largest
    assert [a.rule for a in result.aggregates] == [a.rule for a in aggregates]
    for agg, ref in zip(result.aggregates, aggregates):
        assert len(agg.replication_means) == len(ref.replication_means)
        pairs = [(agg.mean_mixture_crps, ref.mean_mixture_crps), (agg.se_mixture_crps, ref.se_mixture_crps)]
        pairs += zip(agg.replication_means, ref.replication_means)
        assert all(abs(a - b) <= tolerance for a, b in pairs), (agg, ref, tolerance)


ALL_RULES = (UpdateRule.inferential(), UpdateRule.predictive(), UpdateRule.general_bayes(1.0))
TWINS = (
    ModelSpec("a", Gaussian(0.0, 1.0)),
    ModelSpec("b", Gaussian(0.0, 1.0)),
    ModelSpec("c", Gaussian(2.0, 0.5)),
)
MIXED = (
    ModelSpec("g", Gaussian(0.5, 1.0)),
    ModelSpec("p", PointMass(0.0)),
    ModelSpec("q", PointMass(0.0)),
    ModelSpec("e", Empirical([-1.0, 2.0, 2.0])),
)


@settings(max_examples=150, deadline=None)
@given(configs())
@example(ExperimentConfig(5, Gaussian(0.0, 1.0), TWINS, 6, ALL_RULES, replications=4))
@example(ExperimentConfig(6, Empirical([0.0, 1.0]), MIXED, 6, ALL_RULES[1:], replications=3))
@example(ExperimentConfig(7, PointMass(0.0), MIXED[1:2], 3, ALL_RULES[1:], replications=1))
def test_harness_matches_step_by_step_reference(cfg):
    assert_matches_reference(cfg, run_experiment(cfg))


def test_write_csv_streams_the_text_bytes(tmp_path):
    cfg = ExperimentConfig(
        seed=3,
        truth=Gaussian(0.0, 1.0),
        models=(
            ModelSpec("μ-good", Gaussian(0.0, 1.0)),
            ModelSpec("atom", PointMass(1.0)),
            ModelSpec("sample", Empirical([-1.0, 0.5, 3.0])),
        ),
        horizon=7,
        rules=(UpdateRule.predictive(), UpdateRule.general_bayes(1.0)),
        replications=3,
    )
    result = run_experiment(cfg)
    path = tmp_path / "results.csv"
    result.write_csv(path)
    assert path.read_bytes() == result.to_csv_text().encode("utf-8")


# acceptance criterion 9's models plus five Gaussians, the shape of the
# benchmark's sim-medium workload
MEDIUM_MODELS = (
    ModelSpec("good", Gaussian(0.0, 1.0)),
    ModelSpec("near", Gaussian(0.5, 1.0)),
    ModelSpec("far", Gaussian(5.0, 1.0)),
    ModelSpec("m1", Gaussian(-1.2, 0.7)),
    ModelSpec("m2", Gaussian(0.3, 1.9)),
    ModelSpec("m3", Gaussian(1.4, 1.1)),
    ModelSpec("m4", Gaussian(-0.4, 0.5)),
    ModelSpec("m5", Gaussian(0.9, 1.6)),
)


def test_harness_matches_reference_at_medium_shape():
    # at horizon 200 the ratio-form weights reach subnormals and exact
    # zeros, which the small configs above never do
    cfg = ExperimentConfig(0, Gaussian(0.0, 1.0), MEDIUM_MODELS, 200, ALL_RULES, replications=2)
    result = run_experiment(cfg)
    ratio_form = result.posterior[[0, 2]]
    assert np.any(ratio_form == 0.0)
    assert np.any((ratio_form > 0.0) & (ratio_form < np.finfo(float).tiny))
    assert_matches_reference(cfg, result)


def test_mixture_scored_once_per_run(monkeypatch):
    calls = []
    score = MixtureCRPS.score

    def counting_score(self, weights, component_crps):
        calls.append(np.shape(weights))
        return score(self, weights, component_crps)

    monkeypatch.setattr(MixtureCRPS, "score", counting_score)
    cfg = ExperimentConfig(1, Gaussian(0.0, 1.0), MEDIUM_MODELS, 7, ALL_RULES, replications=3)
    run_experiment(cfg)
    assert calls == [(3, 3, 7, 8)]


def test_sequential_update_folds_a_replication_as_the_harness_does():
    # the trajectory kernel's batch rows are its 1-d rows, bit for bit
    rules = (UpdateRule.inferential(), UpdateRule.predictive(), UpdateRule.general_bayes(0.7))
    cfg = ExperimentConfig(2, Gaussian(0.0, 1.0), MEDIUM_MODELS[:5], 12, rules, a=-4.0, replications=3)
    result = run_experiment(cfg)
    assert np.any(result.posterior[1] == 0.0)  # the predictive rule zeroes models
    forecasts = [m.forecast for m in cfg.models]
    for rep in range(cfg.replications):
        density = gaussian_density_matrix(forecasts, generate_data(cfg.seed, cfg.truth, cfg.horizon, rep))
        streams = (
            [likelihood_score(np.fmax(_LIKELIHOOD_FLOOR, row)) for row in density],
            [ScoreVector(cfg.a * row, Mode.ADDITIVE) for row in result.crps[rep]],
            [exp_loss_score([LossValue(c, 0.7) for c in row.tolist()]) for row in result.crps[rep]],
        )
        for k, (rule, stream) in enumerate(zip(cfg.rules, streams)):
            trajectory = sequential_update(uniform(len(forecasts)), stream, rule)
            assert np.array_equal([p.values for p in trajectory[1:]], result.posterior[k, rep])
