import inspect
import json
import re

import numpy as np
import pytest

import credal
from credal import (
    Gaussian,
    Mode,
    check_combination_axioms,
    check_commutation,
    crps_monte_carlo,
    generate_data,
    ideal_credibility,
    regularity_violation_report,
    sample_forecast,
    uniform,
)


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
