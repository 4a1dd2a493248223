"""The array-native harness against the step-by-step reference harness."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import ExactMixture, fold_errors, ratio_log_scores, reference_harness

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
from credal import experiments
from credal.measures import expected_abs_difference
from credal.updating import RuleKind

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
    """Every row's ``rule``, ``replication``, ``t``, ``model`` and ``crps``
    fields, and the predictive rule's ``posterior``, equal the reference's
    byte for byte.  The ratio-form posteriors and log-posteriors lie within
    the trajectory kernel's bound of the exact fold.  The mixture scores and
    the aggregates lie within the bound that ``measures.mixture_crps`` states of
    the exact scores of the harness's own pre-update weights."""
    text, folds = reference_harness(cfg)
    csv = result.to_csv_text()
    assert csv.endswith("\n")
    got, want = csv.splitlines(), text.splitlines()
    assert got[0].rsplit(",", 1)[0] == want[0]
    # compared as lists of lines: pytest then names the first differing row,
    # where its diff of two texts this long takes minutes
    got, want = [line.split(",") for line in got[1:]], [line.split(",") for line in want[1:]]
    assert [g[:4] + g[5:6] for g in got] == [w[:4] + w[5:6] for w in want]
    n, horizon, reps = len(cfg.models), cfg.horizon, cfg.replications
    posterior = np.array([float(g[4]) for g in got]).reshape(result.posterior.shape)
    predictive = [k for k, rule in enumerate(cfg.rules) if rule.kind is RuleKind.PREDICTIVE]
    rows = np.arange(len(got)).reshape(len(cfg.rules), -1)
    assert [got[r][4] for r in rows[predictive].ravel()] == [want[r][4] for r in rows[predictive].ravel()]
    prior = uniform(n).values
    for (k, rep), log_scores in folds.items():
        worst, misses = fold_errors(prior, log_scores, posterior[k, rep], result.log_posterior[k, rep])
        assert misses == 0, (cfg.rules[k], rep, worst)
        assert np.isfinite(result.log_posterior[k, rep]).all()
    pair = expected_abs_difference([m.forecast for m in cfg.models])
    exact = ExactMixture(pair, 0.5 * np.diag(pair))
    # the pre-update weights: the uniform prior, then the posteriors of
    # steps 1 .. horizon - 1
    before = np.concatenate([np.broadcast_to(prior, (len(cfg.rules), reps, 1, n)), result.posterior[:, :, :-1]], 2)
    crps_rows = np.broadcast_to(result.crps, before.shape).reshape(-1, n)
    scores = [exact.score(w, c) for w, c in zip(before.reshape(-1, n), crps_rows)]
    for row, g in enumerate(got):
        value, bound = scores[row // n]
        assert abs(Fraction(float(g[6])) - value) <= bound, (row, g[6], float(value), bound)
    # an aggregate is a mean, or the standard error of means, of scores each
    # within its bound; each side rounds its sums by at most (horizon +
    # replications + 4) eps of the largest score besides
    exact_means = np.array([float(value) for value, _ in scores]).reshape(len(cfg.rules), reps, horizon).mean(-1)
    largest = max(abs(float(value)) for value, _ in scores)
    eps = np.finfo(float).eps
    tolerance = max(bound for _, bound in scores) + (horizon + reps + 4) * eps * largest
    assert [a.rule for a in result.aggregates] == [rule.kind.value for rule in cfg.rules]
    for agg, means in zip(result.aggregates, exact_means.tolist()):
        assert len(agg.replication_means) == reps
        pairs = [(agg.mean_mixture_crps, float(np.mean(means)))] + list(zip(agg.replication_means, means))
        if reps > 1:
            pairs.append((agg.se_mixture_crps, float(np.std(means, ddof=1) / math.sqrt(reps))))
        else:  # one replication leaves the standard error undefined
            assert agg.se_mixture_crps is None
        assert all(abs(a - b) <= tolerance for a, b in pairs), (agg, means, tolerance)


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
# labels of three widths, beside replications 0 .. 10, whose field pads 0 .. 9
UNEVEN = (
    ModelSpec("g", Gaussian(0.0, 1.0)),
    ModelSpec("wide", Gaussian(0.5, 2.0)),
    ModelSpec("mid", Gaussian(-1.0, 0.5)),
)


@settings(max_examples=150, deadline=None)
@given(configs())
@example(ExperimentConfig(5, Gaussian(0.0, 1.0), TWINS, 6, ALL_RULES, replications=4))
@example(ExperimentConfig(6, Empirical([0.0, 1.0]), MIXED, 6, ALL_RULES[1:], replications=3))
@example(ExperimentConfig(7, PointMass(0.0), MIXED[1:2], 3, ALL_RULES[1:], replications=1))
@example(ExperimentConfig(8, Gaussian(0.0, 1.0), UNEVEN, 3, ALL_RULES, replications=11))
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
    score = experiments.mixture_crps

    def counting_score(pair, weights, component_crps):
        calls.append(np.shape(weights))
        return score(pair, weights, component_crps)

    monkeypatch.setattr(experiments, "mixture_crps", counting_score)
    cfg = ExperimentConfig(1, Gaussian(0.0, 1.0), MEDIUM_MODELS, 7, ALL_RULES, replications=3)
    run_experiment(cfg)
    assert calls == [(3, 3, 7, 8)]


def test_sequential_update_folds_a_replication_as_the_harness_does():
    # sequential_update folds the logs of its scores with the harness's kernel.
    # A density is the exp of the harness's log-score, so the two folds differ
    # by the rounding of exp and log alone, and that difference, taken
    # exactly, widens the kernel's bound: a log-weight moves by at most twice
    # the summed largest log-score shift
    rules = (UpdateRule.inferential(), UpdateRule.predictive(), UpdateRule.general_bayes(0.7))
    cfg = ExperimentConfig(2, Gaussian(0.0, 1.0), MEDIUM_MODELS[:5], 12, rules, a=-4.0, replications=3)
    result = run_experiment(cfg)
    assert np.any(result.posterior[1] == 0.0)  # the predictive rule zeroes models
    prior = uniform(len(cfg.models))
    for rep in range(cfg.replications):
        xs = generate_data(cfg.seed, cfg.truth, cfg.horizon, rep)
        density = np.exp(ratio_log_scores(rules[0], cfg, xs, result.crps[rep]))
        assert np.all(density > 0.0)
        streams = (
            [likelihood_score(row) for row in density],
            [ScoreVector(cfg.a * row, Mode.ADDITIVE) for row in result.crps[rep]],
            [exp_loss_score([LossValue(c, 0.7) for c in row.tolist()]) for row in result.crps[rep]],
        )
        for k, (rule, stream) in enumerate(zip(cfg.rules, streams)):
            trajectory = np.array([p.values for p in sequential_update(prior, stream, rule)[1:]])
            if rule.kind is RuleKind.PREDICTIVE:
                assert np.array_equal(trajectory, result.posterior[k, rep])
                continue
            log_scores = ratio_log_scores(rule, cfg, xs, result.crps[rep])
            shift = np.abs(np.log([s.scores for s in stream]) - log_scores).max(-1)
            assert fold_errors(prior.values, log_scores, trajectory, slack=2.0 * np.cumsum(shift))[1] == 0
            assert fold_errors(prior.values, log_scores, result.posterior[k, rep], result.log_posterior[k, rep])[1] == 0
