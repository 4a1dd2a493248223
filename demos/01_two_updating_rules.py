"""Walkthrough of the two updating rules and what separates them.

Both rules turn a prior probability vector and a vector of evidential
scores into a posterior.  The ratio-form (multiplicative) rule rescales
score-times-prior and never zeroes anything; the additive rule adds scores
to the prior and renormalizes with the smallest additive constant that
works, zeroing the weakest hypotheses when it must.
"""

import numpy as np

from credal import (
    Mode,
    ProbabilityVector,
    ScoreVector,
    UpdateRule,
    conservative_normalize,
    inferential_update,
    likelihood_score,
    predictive_update,
    sequential_update,
)

prior = ProbabilityVector([0.5, 0.45, 0.05])
print("prior:", prior.values)

# --- multiplicative route -------------------------------------------------
# scores here are plain likelihoods; any positive "evidence favoring" works
scores = likelihood_score([0.9, 0.5, 0.2])
posterior = inferential_update(prior, scores)
print("\nratio-form update with likelihoods", scores.scores, "->", posterior.values)
print("every entry stays positive, however small:", posterior.values.min())

# --- additive route --------------------------------------------------------
add_scores = ScoreVector([0.5, 0.4, 0.0], Mode.ADDITIVE)
result = predictive_update(prior, add_scores)
print("\nadditive update with scores", add_scores.scores)
print("posterior:", result.posterior.values)
print(f"normalization constant d = {result.d}, zeroed indices = {sorted(result.zeroed)}")

# the normalization is exactly 'shift by the smallest d that works, clip at zero'
raw_sum = prior.values + add_scores.scores
print(
    "posterior equals max(prior + scores + d, 0):",
    np.array_equal(np.maximum(raw_sum + result.d, 0.0), result.posterior.values),
)

# shifting all scores by a constant changes nothing but d
shifted = predictive_update(prior, ScoreVector(add_scores.scores + 5.0, Mode.ADDITIVE))
print("shift the scores by +5: same posterior?", np.allclose(shifted.posterior.values, result.posterior.values))
print(f"  d moved from {result.d} to {shifted.d}")

# --- evidence arriving over time -------------------------------------------
stream = [likelihood_score([0.8, 0.3, 0.4]) for _ in range(4)]
trajectory = sequential_update(prior, stream, UpdateRule.inferential())
print("\nfour repetitions of the same evidence, ratio-form trajectory:")
for t, p in enumerate(trajectory):
    print(f"  t={t}: {np.round(p.values, 4)}")

# zeroed hypotheses are not gone forever: strong enough later evidence
# brings them back on the additive route
revived = predictive_update(
    result.posterior, ScoreVector([0.0, 0.0, 0.9], Mode.ADDITIVE)
)
print("\nre-entry after elimination:", revived.posterior.values)

# raw combined vectors can be normalized directly too
raw = np.array([0.6, 0.4, 0.6])
norm = conservative_normalize(raw)
print("\nnormalize raw", raw, "->", norm.posterior.values, "with d =", norm.d)
