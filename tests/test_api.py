import inspect
import json
import pickle
import re

import numpy as np
import pytest

import credal
from credal import (
    Credibility,
    DominanceReport,
    Empirical,
    ExperimentConfig,
    Gaussian,
    Mode,
    ProbabilityVector,
    ScoreVector,
    check_combination_axioms,
    check_commutation,
    conservative_normalize,
    crps,
    crps_measure,
    crps_monte_carlo,
    divergence,
    generate_data,
    ideal_credibility,
    is_probabilistic,
    min_abs_error_score,
    project_to_simplex,
    regularity_violation_report,
    sample_forecast,
    uniform,
    verify_dominance,
    write_labeled_csv,
)
from credal.cli import dispatch


def test_all_lists_every_public_import_once():
    names = credal.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(credal, name), name
    public = {
        name
        for name, obj in vars(credal).items()
        if not name.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__.startswith("credal.")
    }
    assert public - set(names) == set()
    assert "HypothesisSet" not in names and not hasattr(credal, "HypothesisSet")


def _plain(out):
    """An output as something that ``==`` compares whole."""
    out = getattr(out, "values", out)
    return out.tolist() if isinstance(out, np.ndarray) else out


# (function, argument, a call that passes v as it, a valid value, its least value or None)
INTEGER_ARGUMENTS = [
    ("ideal_credibility", "n", lambda v: ideal_credibility(0, v), 3, 1),
    ("uniform", "n", lambda v: uniform(v), 3, 1),
    ("generate_data", "seed", lambda v: generate_data(v, Gaussian(0.0, 1.0), 4), 7, None),
    ("generate_data", "horizon", lambda v: generate_data(7, Gaussian(0.0, 1.0), v), 4, 1),
    ("generate_data", "replication", lambda v: generate_data(7, Gaussian(0.0, 1.0), 4, replication=v), 1, 0),
    ("sample_forecast", "size", lambda v: sample_forecast(Gaussian(0.0, 1.0), np.random.default_rng(0), v), 4, 0),
    ("crps_monte_carlo", "n_draws", lambda v: crps_monte_carlo(Gaussian(0.0, 1.0), 0.5, n_draws=v), 10, 2),
    ("crps_monte_carlo", "seed", lambda v: crps_monte_carlo(Gaussian(0.0, 1.0), 0.5, n_draws=10, seed=v), 3, None),
    ("check_combination_axioms", "n_samples", lambda v: check_combination_axioms(max, n_samples=v), 5, 1),
    ("check_combination_axioms", "seed", lambda v: check_combination_axioms(max, n_samples=5, seed=v), 3, None),
    ("check_commutation", "n_samples", lambda v: check_commutation(Mode.ADDITIVE, abs, n_samples=v), 5, 1),
    ("check_commutation", "seed", lambda v: check_commutation(Mode.ADDITIVE, abs, n_samples=5, seed=v), 3, None),
    ("regularity_violation_report", "n_instances", lambda v: regularity_violation_report(n_instances=v), 3, 1),
    ("regularity_violation_report", "seed", lambda v: regularity_violation_report(n_instances=3, seed=v), 3, None),
]


@pytest.mark.parametrize(
    "name, call, valid, least",
    [row[1:] for row in INTEGER_ARGUMENTS],
    ids=[f"{function}.{name}" for function, name, *_ in INTEGER_ARGUMENTS],
)
def test_integer_arguments_are_checked(name, call, valid, least):
    for bad in (2.5, True, np.float64(valid)):
        with pytest.raises(ValueError, match=rf"^{name}: must be an integer, got {re.escape(repr(bad))}$"):
            call(bad)
    if least is not None:
        with pytest.raises(ValueError, match=rf"^{name} must be at least {least}$"):
            call(least - 1)
    out = call(np.int64(valid))
    assert _plain(out) == _plain(call(valid))
    if hasattr(out, "to_json"):  # an axiom report, which held the np.int64 and could not be dumped
        json.dumps(out.to_json())


@pytest.mark.parametrize(
    "kwargs, name, shown",
    [(dict(seed=0.7), "seed", "0.7"), (dict(replication=1.5), "replication", "1.5"), (dict(seed=True), "seed", "True")],
)
def test_generate_data_no_longer_reads_a_non_integer_as_another_stream(kwargs, name, shown):
    # seed 0.7 drew seed 0's stream, replication 1.5 replication 1's, and
    # seed True seed 1's
    with pytest.raises(ValueError, match=rf"^{name}: must be an integer, got {shown}$"):
        generate_data(**{"seed": 0, "truth": Gaussian(0.0, 1.0), "horizon": 5, **kwargs})


# (entry point, the name its messages give the vector, a call that passes v
# as it (with a temporary path), integer entries it accepts)
VECTOR_INPUTS = [
    ("Credibility", "credibility entries", lambda v, path: Credibility(v), (0, 1)),
    ("ProbabilityVector", "probability entries", lambda v, path: ProbabilityVector(v), (0, 1)),
    ("ScoreVector-additive", "scores", lambda v, path: ScoreVector(v, Mode.ADDITIVE), (0, 1)),
    ("ScoreVector-multiplicative", "scores", lambda v, path: ScoreVector(v, Mode.MULTIPLICATIVE), (1, 3)),
    ("Empirical", "samples", lambda v, path: Empirical(v), (0, 1)),
    ("is_probabilistic", "c", lambda v, path: is_probabilistic(v), (0, 1)),
    ("divergence-a", "a", lambda v, path: divergence(v, [0.5, 0.5]), (0, 1)),
    ("divergence-b", "b", lambda v, path: divergence([0.5, 0.5], v), (0, 1)),
    ("project_to_simplex", "v", lambda v, path: project_to_simplex(v), (0, 1)),
    ("conservative_normalize", "q", lambda v, path: conservative_normalize(v), (0, 1)),
    ("verify_dominance", "c", lambda v, path: verify_dominance(v), (0, 1)),
    ("write_labeled_csv", "values", lambda v, path: (write_labeled_csv(path, ["a", "b"], v), path.read_bytes())[1], (0, 1)),
    ("DominanceReport", "per vertex gap", lambda v, path: DominanceReport(False, None, v), (0, 1)),
    (
        "min_abs_error_score",
        "predictions for hypothesis 0",
        lambda v, path: min_abs_error_score([(0.0, 1.0), (1.0, 2.0)], [v], -1.0),
        (0, 1),
    ),
]
NOT_VECTORS_OF_NUMBERS = {
    "bool-array": np.array([True, False]),
    "list-with-a-bool": [True, 0.0],
    "list-with-a-numeric-string": ["0.5", 0.5],
    "object-array": np.array([0.5, 0.5], dtype=object),
    "2-d": np.array([[0.5, 0.5]]),
    "empty": np.array([]),
}


@pytest.mark.parametrize("bad", list(NOT_VECTORS_OF_NUMBERS.values()), ids=list(NOT_VECTORS_OF_NUMBERS))
@pytest.mark.parametrize(
    "name, call, ints", [row[1:] for row in VECTOR_INPUTS], ids=[row[0] for row in VECTOR_INPUTS]
)
def test_vector_inputs_are_checked(name, call, ints, bad, tmp_path):
    # the bool and string inputs were read as the numbers 1.0, 0.0 and 0.5
    with pytest.raises(ValueError, match=rf"^{re.escape(name)}: (must be numbers|expected a non-empty 1-d vector)"):
        call(bad, tmp_path / "bad.csv")
    assert not (tmp_path / "bad.csv").exists()
    for given, same in ((np.array([0.25, 0.75], np.float32), [0.25, 0.75]), (np.array(ints), [float(i) for i in ints])):
        out = call(given, tmp_path / "given.csv")
        assert pickle.dumps(out) == pickle.dumps(call(np.array(same), tmp_path / "same.csv"))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: crps(Gaussian(0.0, 1.0), True), "observed outcome: must be a number, got True"),
        (lambda: crps_measure([Gaussian(0.0, 1.0)], True, -1.0), "observed outcome: must be a number, got True"),
        (lambda: crps_monte_carlo(Gaussian(0.0, 1.0), "0.5", n_draws=10), "observed outcome: must be a number, got '0.5'"),
        (lambda: crps_measure([Gaussian(0.0, 1.0)], 0.5, True), "scaling constant a: must be a number, got True"),
        (lambda: crps_measure([Gaussian(0.0, 1.0)], 0.5, 0.5), "scaling constant a: must be negative, got 0.5"),
        (lambda: crps_measure([Gaussian(0.0, 1.0)], 0.5, -np.inf), "scaling constant a: must be negative, got -inf"),
        (lambda: min_abs_error_score([(0.0, 1.0)], [[1.0]], 0.0), "scaling constant a: must be negative, got 0.0"),
        # returned the scores [-0.0, -0.5], reading True and '1' as 1.0
        (lambda: min_abs_error_score([(0.0, True)], [["1"], [0.5]], -1.0), "data point 0: must be a number, got True"),
        (
            lambda: ExperimentConfig(0, Gaussian(0.0, 1.0), (), 0, (), a=1.0),
            "invalid experiment config: horizon: must be at least 1; models: need at least one model; "
            "rules: need at least one rule; a: must be negative, got 1.0",
        ),
    ],
)
def test_outcomes_and_scales_are_checked(call, message):
    # crps(Gaussian(0, 1), True) scored the outcome 1.0
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_cli_scale_is_checked_as_the_library_checks_it(tmp_path, capsys):
    for name, text in (("prior.csv", "label,value\na,0.5\nb,0.5\n"), ("scores.csv", "label,value\na,1\nb,2\n")):
        (tmp_path / name).write_text(text)
    args = ["update", "--rule", "predictive", "--prior", str(tmp_path / "prior.csv")]
    args += ["--scores", str(tmp_path / "scores.csv"), "--out", str(tmp_path / "out.csv"), "--a", "0.5"]
    assert dispatch(args) == 2
    assert capsys.readouterr().err == "error: --a: must be negative, got 0.5\n"
