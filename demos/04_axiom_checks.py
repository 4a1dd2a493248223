"""Numerically checking the algebra that forces the two updating rules.

Combining evidential scores must be commutative, associative, and have a
constant mixed partial derivative; sampled finite-difference checks confirm
multiplication and addition qualify and show how other candidates fail.
The same goes for the rescaling step: it must commute with combination.
Finally, the additive route provably zeroes hypotheses: the violation is
constructive.
"""

import operator

from credal import (
    Mode,
    ScoreVector,
    check_combination_axioms,
    check_commutation,
    construct_regularity_violation,
    predictive_update,
)


def show(name, report):
    flag = "ok " if report.passed else "FAIL"
    print(f"  [{flag}] {name}")
    for c in report.checks:
        extra = f", fitted constant {c.fitted:.4g}" if c.fitted is not None else ""
        note = f"  ({c.note})" if c.note else ""
        print(f"        {c.name}: residual {c.residual:.2e}{extra}{note}")


print("candidate combination functions on sampled triples:")
show("x * y", check_combination_axioms(operator.mul, seed=0))
show("x + y", check_combination_axioms(operator.add, seed=0))
show("x - y (not commutative)", check_combination_axioms(operator.sub, seed=0))
show("max(x, y) (kinked on the diagonal)", check_combination_axioms(max, seed=0))

print("\nrescalings that must commute with the combination:")
show("multiplicative with f(x) = 0.5x", check_commutation(Mode.MULTIPLICATIVE, lambda x: 0.5 * x, seed=0))
show("additive with f(x) = x - 0.3", check_commutation(Mode.ADDITIVE, lambda x: x - 0.3, seed=0))
show("multiplicative with f(x) = x^2", check_commutation(Mode.MULTIPLICATIVE, lambda x: x * x, seed=0))

print("\nconstructive failure of never-zeroing on the additive route:")
e = ScoreVector([0.0, 0.3, 0.6], Mode.ADDITIVE)
prior, idx = construct_regularity_violation(e)
result = predictive_update(prior, e)
print(f"  scores {e.scores.tolist()}, constructed prior {prior.values.round(4).tolist()}")
print(f"  posterior {result.posterior.values.round(4).tolist()} -> index {idx} is exactly zero")
