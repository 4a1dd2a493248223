import math
import operator

import numpy as np
import pytest

from credal import (
    Mode,
    ModeMismatchError,
    ProbabilityVector,
    ScoreVector,
    check_combination_axioms,
    check_commutation,
    construct_regularity_violation,
    predictive_update,
    regularity_violation_report,
)
from credal.axioms import _sample_triples


def test_multiplication_passes_combination_axioms():
    rep = check_combination_axioms(operator.mul, seed=0, tol=1e-6)
    assert rep.passed
    assert rep.residual("commutativity") < 1e-6
    assert rep.residual("associativity") < 1e-6
    assert rep.residual("mixed_partial_constancy") < 1e-6
    assert rep.check("mixed_partial_constancy").fitted == pytest.approx(1.0, abs=1e-6)


def test_addition_passes_combination_axioms():
    rep = check_combination_axioms(operator.add, seed=0, tol=1e-6)
    assert rep.passed
    assert rep.check("mixed_partial_constancy").fitted == pytest.approx(0.0, abs=1e-6)


def test_subtraction_fails_commutativity():
    rep = check_combination_axioms(operator.sub, seed=0)
    assert not rep.check("commutativity").passed
    assert rep.residual("commutativity") > 0.1


def test_max_fails_derivative_checks():
    rep = check_combination_axioms(max, seed=0)
    assert rep.check("commutativity").passed
    assert rep.check("associativity").passed
    # the kink on the diagonal shows up in both derivative checks
    assert not rep.check("mixed_partial_constancy").passed
    assert rep.residual("mixed_partial_constancy") > 0.1
    assert not rep.check("differentiability").passed


def test_non_finite_values_are_reported():
    def explodes(x, y):
        return (x - y) / (x - y) if x != y else math.inf

    rep = check_combination_axioms(explodes, n_samples=10, seed=0)
    assert not rep.passed
    failing = [c for c in rep.checks if not c.passed]
    assert any("non-finite" in c.note for c in failing)


def test_an_overflowing_combination_is_reported_in_every_check():
    # the derivative estimates called f on numpy scalars, whose overflow only
    # warns (an error under this suite's filterwarnings) where Python floats raise
    rep = check_combination_axioms(lambda a, b: (a * b) ** 400, n_samples=5, seed=0)
    assert [(c.passed, c.residual) for c in rep.checks] == [(False, math.inf)] * 4
    assert rep.check("differentiability").note.startswith("non-finite derivative estimate at (x=")


def test_commutation_constant_families_pass():
    assert check_commutation(Mode.MULTIPLICATIVE, lambda x: 0.5 * x, seed=0).passed
    assert check_commutation(Mode.ADDITIVE, lambda x: x - 0.3, seed=0).passed
    assert check_commutation(Mode.MULTIPLICATIVE, lambda x: 3.0 * x, seed=1).passed
    assert check_commutation(Mode.ADDITIVE, lambda x: x + 2.0, seed=1).passed


def test_commutation_square_fails():
    rep = check_commutation(Mode.MULTIPLICATIVE, lambda x: x * x, seed=0)
    assert not rep.passed
    assert rep.residual("commutation") > 0.1


def test_commutation_square_known_triples():
    # squaring happens to commute at (2, 2, 2) but not at (2, 3, 5)
    f = lambda x: x * x
    c = operator.mul
    left = lambda x, y, z: f(c(x, f(c(y, z))))
    right = lambda x, y, z: f(c(f(c(x, y)), z))
    assert left(2, 2, 2) == right(2, 2, 2) == 1024
    assert left(2, 3, 5) == 202500
    assert right(2, 3, 5) == 32400


def test_commutation_names_the_first_triple_where_a_rescaling_overflows():
    # 1e153 * 1e153 * x * y * z overflows where x * y * z > 179.77 (about a
    # quarter of the triples); the scan stops at the first such triple
    rescale = lambda v: 1e153 * v
    rep = check_commutation(Mode.MULTIPLICATIVE, rescale, n_samples=40, seed=0)
    triples = _sample_triples(40, 0, diagonal_probes=False).tolist()
    bad = [
        i for i, (x, y, z) in enumerate(triples)
        if not (math.isfinite(rescale(x * rescale(y * z))) and math.isfinite(rescale(rescale(x * y) * z)))
    ]
    assert 0 < bad[0] < len(triples) - 1  # finite triples come before it and after it
    x, y, z = triples[bad[0]]
    check = rep.check("commutation")
    assert not check.passed and check.residual == math.inf
    assert check.note == f"non-finite value at (x={x:.6g}, y={y:.6g}, z={z:.6g})"


def test_regularity_violation_examples():
    e = ScoreVector([0.0, 0.5], Mode.ADDITIVE)
    prior, idx = construct_regularity_violation(e)
    assert idx == 0
    assert np.all(prior.values > 0.0) and np.all(prior.values < 1.0)
    result = predictive_update(prior, e)
    assert result.posterior.values[idx] == 0.0
    assert idx in result.zeroed

    with pytest.raises(ValueError):
        construct_regularity_violation(ScoreVector([0.1, 0.1], Mode.ADDITIVE))
    with pytest.raises(ModeMismatchError):
        construct_regularity_violation(ScoreVector([1.0, 2.0], Mode.MULTIPLICATIVE))


def test_regularity_violation_three_hypotheses():
    e = ScoreVector([0.0, 0.3, 0.6], Mode.ADDITIVE)
    prior, idx = construct_regularity_violation(e)
    assert idx == 0
    assert prior.values[0] < 0.3  # below the mean-gap threshold
    result = predictive_update(prior, e)
    assert result.posterior.values[0] == 0.0


def test_hand_picked_prior_forces_zero():
    # any prior putting less than the mean gap on the weakest hypothesis works,
    # e.g. 0.2 < 0.25 for scores (0, 0.5)
    prior = ProbabilityVector([0.2, 0.8])
    e = ScoreVector([0.0, 0.5], Mode.ADDITIVE)
    result = predictive_update(prior, e)
    np.testing.assert_allclose(result.posterior.values, [0.0, 1.0], atol=1e-15)
    assert result.zeroed == frozenset({0})


def test_regularity_violation_batch():
    rep = regularity_violation_report(n_instances=500, seed=3)
    assert rep.passed


@pytest.mark.parametrize("n_instances", [0, -3])
def test_regularity_violation_report_needs_an_instance(n_instances):
    # it returned passed=True after checking nothing
    with pytest.raises(ValueError, match="n_instances must be at least 1"):
        regularity_violation_report(n_instances=n_instances)
