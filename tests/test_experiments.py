import copy
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import monte_carlo_mixture_crps, reference_config_from_json

from credal import (
    ExperimentConfig,
    Gaussian,
    LossValue,
    ModelSpec,
    PointMass,
    ProbabilityVector,
    UnderflowError,
    UpdateRule,
    crps,
    crps_monte_carlo,
    Empirical,
    generate_data,
    is_probabilistic,
    run_experiment,
)
from credal import core
from credal.measures import MixtureCRPS


def small_config(**overrides):
    base = dict(
        seed=0,
        truth=Gaussian(0.0, 1.0),
        models=(
            ModelSpec("good", Gaussian(0.0, 1.0)),
            ModelSpec("near", Gaussian(0.5, 1.0)),
            ModelSpec("far", Gaussian(5.0, 1.0)),
        ),
        horizon=10,
        rules=(UpdateRule.inferential(), UpdateRule.predictive()),
        a=-1.0,
        replications=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_generate_data_examples():
    np.testing.assert_array_equal(generate_data(0, PointMass(2.0), 3), [2.0, 2.0, 2.0])
    a = generate_data(123, Gaussian(0.0, 1.0), 5)
    b = generate_data(123, Gaussian(0.0, 1.0), 5)
    np.testing.assert_array_equal(a, b)
    c = generate_data(124, Gaussian(0.0, 1.0), 5)
    assert np.any(a != c)
    with pytest.raises(ValueError):
        generate_data(0, Gaussian(0.0, 1.0), 0)


def test_generate_data_varies_by_replication():
    a = generate_data(0, Gaussian(0.0, 1.0), 5, replication=0)
    b = generate_data(0, Gaussian(0.0, 1.0), 5, replication=1)
    assert np.any(a != b)


def mixture_score(weights, forecasts, x):
    return MixtureCRPS(forecasts).score(weights, [crps(f, x) for f in forecasts])


def test_weighted_score_single_component():
    assert mixture_score([1.0, 0.0], [PointMass(3.0), Gaussian(0.0, 1.0)], 5.0) == 2.0


def test_weighted_score_identical_components():
    assert mixture_score([0.5, 0.5], [PointMass(1.0), PointMass(1.0)], 4.0) == 3.0


def test_weighted_score_two_atom_mixture():
    # exact mixture CRPS: E|X| = 1, E|X1 - X2|/2 = 0.5, total 0.5; confirmed
    # against the sampling estimate of the defining expectations
    mix = Empirical(np.array([0.0, 2.0]))  # two equally weighted atoms
    assert crps(mix, 0.0) == 0.5
    est, se = crps_monte_carlo(mix, 0.0, n_draws=200_000, seed=2)
    assert abs(est - 0.5) <= 3 * se
    score = mixture_score([0.5, 0.5], [PointMass(0.0), PointMass(2.0)], 0.0)
    assert score == pytest.approx(0.5, abs=1e-15)


MIXED_MODELS = (
    ModelSpec("gauss", Gaussian(0.3, 1.2)),
    ModelSpec("atom", PointMass(-1.0)),
    ModelSpec("sample", Empirical([-0.5, 0.1, 0.4, 2.0, 2.0])),
    ModelSpec("wide", Gaussian(-2.0, 0.5)),
    ModelSpec("pair", Empirical([1.5, -3.0])),
)


@pytest.mark.parametrize("x", [-2.5, 0.0, 0.7, 4.0])
def test_weighted_score_one_hot_is_component_crps(x):
    forecasts = [m.forecast for m in MIXED_MODELS]
    for i, f in enumerate(forecasts):
        w = np.zeros(len(forecasts))
        w[i] = 1.0
        assert mixture_score(w, forecasts, x) == crps(f, x)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_weighted_score_matches_monte_carlo_oracle(seed):
    rng = np.random.default_rng(seed)
    p = ProbabilityVector(rng.dirichlet(np.ones(len(MIXED_MODELS))))
    x = float(rng.normal())
    exact = mixture_score(p.values, [m.forecast for m in MIXED_MODELS], x)
    est, se = monte_carlo_mixture_crps(p, MIXED_MODELS, x, n_draws=200_000, seed=seed)
    assert abs(est - exact) <= 3 * se


def test_every_rule_records_the_same_model_crps():
    cfg = small_config(
        rules=(UpdateRule.inferential(), UpdateRule.predictive(), UpdateRule.general_bayes(1.0)),
        horizon=5,
        replications=2,
    )
    result = run_experiment(cfg)
    for rep in range(cfg.replications):
        xs = generate_data(cfg.seed, cfg.truth, cfg.horizon, replication=rep)
        # the grid must give each entry the bits of the public scalar crps
        expected = [[crps(m.forecast, float(x)) for m in cfg.models] for x in xs]
        for rule in ("inferential", "predictive", "general_bayes"):
            rows = [r.crps.tolist() for r in result.records if r.rule == rule and r.replication == rep]
            assert rows == expected


def test_config_validation_lists_fields():
    with pytest.raises(ValueError, match="horizon"):
        small_config(horizon=0)
    with pytest.raises(ValueError, match="a:"):
        small_config(a=1.0)
    with pytest.raises(ValueError, match="replications"):
        small_config(replications=0)
    with pytest.raises(ValueError, match="models"):
        small_config(models=())
    with pytest.raises(ValueError, match="rules"):
        small_config(rules=())
    with pytest.raises(ValueError, match="models"):
        # density scoring needs Gaussian forecasts
        small_config(models=(ModelSpec("pm", PointMass(0.0)),))


def test_config_json_round_trip():
    cfg = small_config(rules=(UpdateRule.predictive(), UpdateRule.general_bayes(0.7)))
    blob = json.dumps(cfg.to_json())
    back = ExperimentConfig.from_json(json.loads(blob))
    assert back == cfg
    assert sorted(json.loads(blob)) == [
        "a",
        "horizon",
        "models",
        "replications",
        "rules",
        "seed",
        "truth",
    ]


def test_config_json_rejects_unknown_keys():
    obj = small_config().to_json()
    obj["replication"] = 20
    obj["sead"] = 1
    with pytest.raises(ValueError, match=r"unknown keys \['replication', 'sead'\]"):
        ExperimentConfig.from_json(obj)


@pytest.mark.parametrize(
    "rule, key",
    [
        ({"kind": "general_bayes", "rate": 1, "rtae": 2}, "rtae"),
        ({"kind": "predictive", "rate": 1}, "rate"),
        ({"kind": "inferential", "a": -1}, "a"),
    ],
)
def test_config_json_rejects_unknown_rule_keys(rule, key):
    obj = small_config().to_json()
    obj["rules"] = ["predictive", rule]
    with pytest.raises(ValueError, match=rf"{rule['kind']} rule literal: unknown keys \['{key}'\]"):
        ExperimentConfig.from_json(obj)


def test_config_json_rejects_unknown_model_keys():
    obj = small_config().to_json()
    obj["models"][1]["lable"] = "near2"
    with pytest.raises(ValueError, match=r"model literal 'near': unknown keys \['lable'\]"):
        ExperimentConfig.from_json(obj)


@pytest.mark.parametrize("where", ["truth", "model"])
def test_config_json_rejects_unknown_forecast_keys(where):
    obj = small_config().to_json()
    literal = obj["truth"] if where == "truth" else obj["models"][0]["forecast"]
    literal["sigmaa"] = 3
    with pytest.raises(ValueError, match=r"gaussian forecast literal: unknown keys \['sigmaa'\]"):
        ExperimentConfig.from_json(obj)


def _drop(path):
    def mutate(obj):
        *parents, key = path
        for p in parents:
            obj = obj[p]
        del obj[key]

    return mutate


@pytest.mark.parametrize(
    "path, message",
    [
        (("horizon",), "invalid experiment config: missing key 'horizon'"),
        (("seed",), "invalid experiment config: missing key 'seed'"),
        (("truth",), "invalid experiment config: missing key 'truth'"),
        (("models",), "invalid experiment config: missing key 'models'"),
        (("rules",), "invalid experiment config: missing key 'rules'"),
        (("models", 1, "forecast"), "model literal 'near': missing key 'forecast'"),
        (("models", 1, "label"), "model literal None: missing key 'label'"),
        (("models", 1, "forecast", "sigma"), "gaussian forecast literal: missing key 'sigma'"),
        (("truth", "mu"), "gaussian forecast literal: missing key 'mu'"),
        (("truth", "kind"), "forecast literal: missing key 'kind'"),
        (("rules", 0, "kind"), "rule literal: missing key 'kind'"),
    ],
)
def test_config_json_names_a_missing_key(path, message):
    obj = small_config(rules=(UpdateRule.general_bayes(1.0),)).to_json()
    _drop(path)(obj)
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig.from_json(obj)


@pytest.mark.parametrize("obj, kind", [([1, 2], "list"), ("cfg", "str"), (None, "NoneType"), (3, "int")])
def test_config_json_rejects_a_top_level_that_is_not_an_object(obj, kind):
    with pytest.raises(ValueError, match=f"invalid experiment config: expected a JSON object, got {kind}$"):
        ExperimentConfig.from_json(obj)


@pytest.mark.parametrize("key", ["models", "rules"])
@pytest.mark.parametrize("value", ["predictive", 5, {"kind": "predictive"}])
def test_config_json_rejects_models_or_rules_that_are_not_a_list(key, value):
    obj = small_config().to_json()
    obj[key] = value
    with pytest.raises(ValueError, match=re.escape(f"invalid experiment config: {key}: must be a list, got {value!r}")):
        ExperimentConfig.from_json(obj)


@pytest.mark.parametrize("rate", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_general_bayes_rejects_a_rate_that_is_not_positive_and_finite(rate):
    with pytest.raises(ValueError, match=f"positive, finite learning rate, got {rate!r}"):
        UpdateRule.general_bayes(rate)


def test_readme_config_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    cfg = ExperimentConfig.from_json(dict(json.loads(blocks[0]), horizon=4, replications=2))
    result = run_experiment(cfg)
    assert len(result.records) == len(cfg.rules) * 2 * 4
    assert {agg.rule for agg in result.aggregates} == {r.kind.value for r in cfg.rules}


@pytest.mark.parametrize("key", ["seed", "horizon", "replications"])
def test_config_json_rejects_non_integer_counts(key):
    obj = small_config().to_json()
    obj[key] = 3.7
    with pytest.raises(ValueError, match=f"{key}: must be an integer, got 3.7"):
        ExperimentConfig.from_json(obj)
    with pytest.raises(ValueError, match=f"{key}: must be an integer, got 3.7"):
        small_config(**{key: 3.7})


@pytest.mark.parametrize("key", ["seed", "horizon", "replications"])
def test_config_json_rejects_boolean_counts(key):
    obj = small_config().to_json()
    obj[key] = True
    with pytest.raises(ValueError, match=f"{key}: must be an integer, got True"):
        ExperimentConfig.from_json(obj)
    with pytest.raises(ValueError, match=f"{key}: must be an integer, got True"):
        small_config(**{key: True})


def test_single_model_posterior_pinned():
    cfg = small_config(
        models=(ModelSpec("only", Gaussian(0.0, 1.0)),),
        rules=(UpdateRule.inferential(), UpdateRule.predictive(), UpdateRule.general_bayes(1.0)),
        horizon=5,
        replications=2,
    )
    result = run_experiment(cfg)
    for rec in result.records:
        np.testing.assert_array_equal(rec.posterior, [1.0])


def test_identical_models_stay_symmetric():
    cfg = small_config(
        models=(ModelSpec("twin1", Gaussian(0.0, 1.0)), ModelSpec("twin2", Gaussian(0.0, 1.0))),
        rules=(UpdateRule.inferential(), UpdateRule.predictive(), UpdateRule.general_bayes(1.0)),
        horizon=5,
        replications=2,
    )
    result = run_experiment(cfg)
    for rec in result.records:
        np.testing.assert_allclose(rec.posterior, [0.5, 0.5], atol=1e-15)


def test_recorded_posteriors_are_probabilistic():
    result = run_experiment(small_config())
    assert result.records
    for rec in result.records:
        assert is_probabilistic(rec.posterior, 1e-9)


def test_inferential_never_zeroes_predictive_eliminates():
    result = run_experiment(small_config(horizon=20))
    far = 2
    inf_rows = [r for r in result.records if r.rule == "inferential"]
    pred_rows = [r for r in result.records if r.rule == "predictive"]
    assert all(r.posterior[far] > 0.0 for r in inf_rows)
    # the bad model hits exact zero in every replication and stays there for
    # nearly all steps (brief re-entry on extreme draws is allowed by the rule)
    for rep in range(3):
        rows = [r for r in pred_rows if r.replication == rep]
        assert any(r.posterior[far] == 0.0 for r in rows)
    assert np.mean([r.posterior[far] == 0.0 for r in pred_rows]) > 0.9


def test_reruns_are_byte_identical():
    cfg = small_config(horizon=6, replications=2)
    a = run_experiment(cfg).to_csv_text()
    b = run_experiment(cfg).to_csv_text()
    assert a == b


def test_results_compare_by_value():
    cfg = small_config(horizon=6, rules=(UpdateRule.inferential(), UpdateRule.predictive(), UpdateRule.general_bayes(1.0)))
    a, b = run_experiment(cfg), run_experiment(cfg)
    assert a == b and hash(a) == hash(b)
    assert a != run_experiment(small_config(horizon=6, seed=1))
    # equal configs, one column or one rule's log-weights different
    assert a != dataclasses.replace(a, crps=a.crps + 1.0)
    assert a != dataclasses.replace(a, mixture_crps=a.mixture_crps[::-1].copy())
    assert a != dataclasses.replace(a, ratio_log_weights=(None,) * 3)
    assert a.__eq__(cfg) is NotImplemented and a != cfg


# eight far models first, so that once the predictive rule has zeroed them a
# block smaller than a step can hold zeros alone; the general-Bayes
# posteriors are all positive
FAR_FIRST = tuple(ModelSpec(f"far{i}", Gaussian(6.0 + i, 0.5)) for i in range(8)) + (
    ModelSpec("good", Gaussian(0.0, 1.0)),
    ModelSpec("near", Gaussian(0.5, 1.0)),
)


# around a step of len(FAR_FIRST) values and around a rule's 150 posteriors
@pytest.mark.parametrize("block", [1, 7, len(FAR_FIRST) - 1, len(FAR_FIRST), len(FAR_FIRST) + 1, 149, 150, 151])
def test_csv_bytes_do_not_depend_on_the_block_size(monkeypatch, block):
    cfg = ExperimentConfig(
        seed=4,
        truth=Gaussian(0.0, 1.0),
        models=FAR_FIRST,
        horizon=5,
        rules=(UpdateRule.predictive(), UpdateRule.general_bayes(1.0)),
        replications=3,
    )
    result = run_experiment(cfg)
    assert np.all(result.posterior[0, ..., :8] == 0.0) and np.all(result.posterior[1] > 0.0)
    expected = result.to_csv_text()
    monkeypatch.setattr(core, "FLOAT_BLOCK", block)
    assert result.to_csv_text() == expected


def test_csv_layout():
    cfg = small_config(horizon=2, replications=2)
    text = run_experiment(cfg).to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "rule,replication,t,model,posterior,crps,mixture_crps"
    # one row per (rule, replication, t, model), in that order
    assert len(lines) == 1 + 2 * 2 * 2 * 3
    first = lines[1].split(",")
    assert first[0] == "inferential" and first[1] == "0" and first[2] == "1" and first[3] == "good"
    second = lines[2].split(",")
    assert second[3] == "near"


def test_aggregates_have_standard_errors():
    result = run_experiment(small_config(horizon=4, replications=3))
    assert {agg.rule for agg in result.aggregates} == {"inferential", "predictive"}
    for agg in result.aggregates:
        assert len(agg.replication_means) == 3
        assert agg.se_mixture_crps >= 0.0
        assert agg.mean_mixture_crps == pytest.approx(np.mean(agg.replication_means))


def _set_rate(obj, value):
    obj["rules"] = [{"kind": "general_bayes", "rate": value}]


def _set_forecast(kind, key, value):
    literals = {
        "gaussian": {"kind": "gaussian", "mu": 0.0, "sigma": 1.0},
        "pointmass": {"kind": "pointmass", "loc": 0.0},
        "empirical": {"kind": "empirical", "samples": [0.0, 1.0]},
    }

    def mutate(obj):
        literal = dict(literals[kind], **{key: value})
        obj["rules"] = ["predictive"]
        obj["models"][1]["forecast"] = literal

    return mutate


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda o: o.update(a=True), r"config: a: must be a number, got True"),
        (lambda o: o.update(a="-1"), r"config: a: must be a number, got '-1'"),
        (lambda o: o.update(likelihood_floor=True), r"unknown keys \['likelihood_floor'\]"),
        (lambda o: _set_rate(o, True), r"general_bayes rule literal: rate: must be a number, got True"),
        (lambda o: _set_rate(o, "1"), r"general_bayes rule literal: rate: must be a number, got '1'"),
        (_set_forecast("gaussian", "mu", "0"), r"gaussian forecast literal: mu: must be a number, got '0'"),
        (_set_forecast("gaussian", "sigma", True), r"gaussian forecast literal: sigma: must be a number, got True"),
        (_set_forecast("pointmass", "loc", False), r"pointmass forecast literal: loc: must be a number, got False"),
        (_set_forecast("empirical", "samples", [0.5, "1"]), r"empirical forecast literal: samples: must be a number, got '1'"),
        (_set_forecast("empirical", "samples", [True]), r"empirical forecast literal: samples: must be a number, got True"),
        (_set_forecast("empirical", "samples", "01"), r"empirical forecast literal: samples: must be a list of numbers"),
        (lambda o: o["truth"].update(mu="0"), r"gaussian forecast literal: mu: must be a number, got '0'"),
        (lambda o: o["models"][0].update(label=3), r"model label: must be a string, got 3"),
    ],
)
def test_config_json_rejects_non_numbers_and_non_string_labels(mutate, message):
    obj = small_config().to_json()
    mutate(obj)
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_json(obj)


NOT_STRINGS = [["gaussian"], {"kind": "gaussian"}, None]


@pytest.mark.parametrize("kind", NOT_STRINGS)
@pytest.mark.parametrize("where", ["truth", "model", "rule"])
def test_a_kind_that_is_not_a_string_is_an_unknown_kind(where, kind):
    obj = small_config().to_json()
    if where == "rule":
        obj["rules"] = ["predictive", {"kind": kind}]
    else:
        (obj["truth"] if where == "truth" else obj["models"][1]["forecast"])["kind"] = kind
    with pytest.raises(ValueError) as info:
        ExperimentConfig.from_json(obj)
    assert str(info.value) == f"unknown {'rule' if where == 'rule' else 'forecast'} kind: {kind!r}"


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"seed": 0, "horizon": 3, "horizon": 5}', "horizon"),
        ('{"models": [{"label": "a", "label": "b"}]}', "label"),
        ('{"truth": {"kind": "gaussian", "mu": 0, "mu": 1, "sigma": 1}}', "mu"),
        ('{"rules": [{"kind": "general_bayes", "rate": 1, "rate": 2}], "rules": []}', "rate"),
    ],
)
def test_a_config_file_with_a_repeated_key_is_refused(tmp_path, text, key):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        ExperimentConfig.from_file(path)
    assert str(info.value) == f"invalid experiment config: repeated key {key!r}"


# values that break a literal: booleans, strings, lists, NaN, objects and
# None in number fields; non-string and unknown kinds; labels that are not
# strings or hold a character the CSV cannot carry
MUTANTS = [
    True, False, "1", "", "gaussian", "predictive", None, [], [0.5, "1"], ["gaussian"], {"kind": "gaussian"}, {},
    math.nan, math.inf, -1.0, 0, 2, 0.5, "a,b", 'say "hi"', "line\nbreak", "cr\r", "nul\x00", "ok",
]
numbers = st.floats(-5.0, 5.0) | st.integers(-3, 3)
spreads = st.floats(0.1, 3.0) | st.integers(1, 3)
forecast_literals = st.one_of(
    st.fixed_dictionaries({"kind": st.just("gaussian"), "mu": numbers, "sigma": spreads}),
    st.fixed_dictionaries({"kind": st.just("pointmass"), "loc": numbers}),
    st.fixed_dictionaries({"kind": st.just("empirical"), "samples": st.lists(numbers, min_size=1, max_size=3)}),
)
rule_literals = st.sampled_from(
    ["inferential", "predictive", {"kind": "predictive"}, {"kind": "general_bayes", "rate": 0.5}]
)


@st.composite
def config_literals(draw):
    """A config object that parses, with up to three mutations: a key dropped,
    a key added, or a value or list entry replaced by one of ``MUTANTS``,
    a ``kind`` or a ``label`` among them half the time."""
    forecasts = draw(st.lists(forecast_literals, min_size=1, max_size=3))
    rules = st.lists(rule_literals, min_size=1, max_size=3, unique_by=lambda r: r if isinstance(r, str) else r["kind"])
    obj = {
        "seed": draw(st.integers(0, 9)),
        "truth": draw(forecast_literals),
        "models": [{"label": f"m{i}", "forecast": f} for i, f in enumerate(forecasts)],
        "horizon": draw(st.integers(1, 4)),
        "rules": draw(rules),
    }
    if draw(st.booleans()):
        obj["a"] = draw(st.floats(-3.0, -0.1))
    obj = copy.deepcopy(obj)  # sampled literals are shared between examples
    for _ in range(draw(st.integers(0, 3))):
        slots = []

        def collect(node):
            items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
            for key, value in items:
                slots.append((node, key))
                collect(value)

        collect(obj)
        named = [(node, key) for node, key in slots if key in ("kind", "label")]
        node, key = draw(st.sampled_from(named if named and draw(st.booleans()) else slots))
        action = draw(st.sampled_from(["drop", "add", "replace"]))
        if action == "drop" and isinstance(node, dict):
            del node[key]
        elif action == "add" and isinstance(node, dict):
            added = draw(st.sampled_from(["lable", "sigmaa", "kind", "label", "rate", "extra"]))
            node[added] = copy.deepcopy(draw(st.sampled_from(MUTANTS)))
        else:
            node[key] = copy.deepcopy(draw(st.sampled_from(MUTANTS)))
    return obj


def parse_outcome(parse, obj):
    """``("ok", config as JSON)`` or ``(exception type, message)``."""
    try:
        return "ok", parse(copy.deepcopy(obj)).to_json()
    except Exception as exc:  # the outcome under test, whatever it is
        return type(exc), str(exc)


def _with_model(label, forecast, **extra):
    obj = small_config(rules=(UpdateRule.predictive(),)).to_json()
    obj["models"][1] = {"label": label, "forecast": forecast, **extra}
    return obj


@settings(max_examples=400, deadline=None)
@given(config_literals())
# two faults in one literal: the first the reference meets is the one named
@example(_with_model(3, {"kind": "gaussian", "mu": "0", "sigma": 1.0}))
@example(_with_model("a,b", {"kind": "pointmass"}))
@example(_with_model(None, {"kind": "gaussian", "mu": True}, lable="x"))
@example(_with_model("m", {"kind": "gaussian", "mu": "x"}))
@example(_with_model("m", {"kind": ["gaussian"], "extra": 1}))
@example(dict(small_config().to_json(), seed="0", truth={"kind": "cauchy"}))
def test_the_config_parser_agrees_with_the_reference(obj):
    # the same config or the same error; where the reference cannot hash a
    # kind, the library names it as an unknown kind
    got, expected = parse_outcome(ExperimentConfig.from_json, obj), parse_outcome(reference_config_from_json, obj)
    if expected[0] is TypeError and expected[1].startswith("unhashable type"):
        assert got[0] is ValueError and re.fullmatch(r"unknown (forecast|rule) kind: .*", got[1], re.S)
    else:
        assert got == expected


def test_config_json_accepts_integer_numbers():
    obj = small_config().to_json()
    obj.update(a=-2)
    obj["rules"] = [{"kind": "general_bayes", "rate": 2}]
    obj["models"][0]["forecast"] = {"kind": "gaussian", "mu": 0, "sigma": 1}
    cfg = ExperimentConfig.from_json(obj)
    assert (cfg.a, cfg.rules[0].learning_rate) == (-2.0, 2.0)
    assert cfg.models[0].forecast == Gaussian(0.0, 1.0)


@pytest.mark.parametrize("label", ["a,b", 'say "hi"', "line\nbreak", "carriage\rreturn", "\n", "a\x00b"])
def test_labels_that_would_break_the_csv_are_rejected(label):
    obj = small_config().to_json()
    obj["models"][2]["label"] = label
    with pytest.raises(ValueError, match=re.escape(f"model label {label!r}: must not contain")):
        ExperimentConfig.from_json(obj)
    with pytest.raises(ValueError, match="must not contain"):
        ModelSpec(label, Gaussian(0.0, 1.0))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Gaussian(True, 1.0), "gaussian mu: must be a number, got True"),
        (lambda: Gaussian(0.0, "1"), "gaussian sigma: must be a number, got '1'"),
        (lambda: PointMass(True), "point-mass location: must be a number, got True"),
        (lambda: UpdateRule.general_bayes(True), "general-Bayes rule: rate: must be a number, got True"),
        (lambda: LossValue(True, 1.0), "loss value: must be a number, got True"),
        (lambda: LossValue(1.0, "2"), "loss learning_rate: must be a number, got '2'"),
    ],
    ids=["gaussian-mu", "gaussian-sigma", "point-mass", "general-bayes", "loss-value", "loss-rate"],
)
def test_forecasts_rules_and_losses_built_directly_check_their_numbers(build, message):
    # True was accepted and a config holding it failed only on its JSON round
    # trip; a string failed with Python's TypeError
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        build()


def test_config_of_numpy_and_integer_numbers_survives_its_json_round_trip():
    cfg = small_config(
        truth=PointMass(np.float32(0.5)),
        models=(ModelSpec("a", Gaussian(np.int64(0), 1)), ModelSpec("b", Gaussian(np.float32(0.25), np.float64(2.0)))),
        rules=(UpdateRule.predictive(), UpdateRule.general_bayes(np.int64(2))),
    )
    assert type(cfg.truth.location) is type(cfg.models[0].forecast.mu) is type(cfg.rules[1].learning_rate) is float
    assert ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json()))) == cfg
    loss = LossValue(np.int64(1), np.float32(0.5))
    assert (loss.value, loss.learning_rate) == (1.0, 0.5) and type(loss.value) is float


def test_a_model_whose_log_score_overflows_gets_weight_zero_without_a_warning():
    # |x - mu| / sigma overflows for the first model at every outcome; its
    # log-density is -inf, so its weight is exactly 0 and its log-weight -inf
    # under both ratio-form rules' kernel (pytest turns warnings into errors)
    models = (ModelSpec("spike", Gaussian(3.0, 1e-200)), ModelSpec("good", Gaussian(0.0, 1.0)))
    result = run_experiment(small_config(models=models, horizon=4, rules=(UpdateRule.inferential(),)))
    assert np.all(result.posterior[0, ..., 0] == 0.0) and np.all(result.posterior[0, ..., 1] == 1.0)
    assert np.all(result.log_posterior[0, ..., 0] == -np.inf) and np.all(result.log_posterior[0, ..., 1] == 0.0)


def test_a_step_where_every_log_score_is_minus_inf_raises():
    # both spreads are too small for the distance 5: at the first draw of 5
    # every log-density overflows to -inf, and every weight would vanish
    models = (ModelSpec("a", Gaussian(0.0, 1e-200)), ModelSpec("b", Gaussian(0.0, 2e-200)))
    cfg = small_config(truth=Empirical([0.0, 0.0, 0.0, 5.0]), models=models, horizon=6, replications=4)
    xs = np.array([generate_data(cfg.seed, cfg.truth, cfg.horizon, rep) for rep in range(cfg.replications)])
    rep, t = np.argwhere(xs == 5.0)[0].tolist()
    assert (rep, t) != (0, 0)
    with pytest.raises(UnderflowError, match=rf"^replication {rep}, t = {t + 1}: every weight vanished"):
        run_experiment(cfg)
    # the predictive rule alone is unaffected
    predictive = small_config(truth=cfg.truth, models=models, horizon=6, replications=4, rules=(UpdateRule.predictive(),))
    assert np.isfinite(run_experiment(predictive).posterior).all()
