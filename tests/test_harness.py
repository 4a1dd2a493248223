"""The array-native harness against the step-by-step reference harness."""

from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import reference_harness

from credal import Empirical, ExperimentConfig, Gaussian, ModelSpec, PointMass, UpdateRule, run_experiment

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
    text, aggregates = reference_harness(cfg)
    result = run_experiment(cfg)
    assert result.to_csv_text() == text
    assert result.aggregates == aggregates


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
