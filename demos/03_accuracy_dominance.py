"""Why credibility functions should be probability vectors: dominance.

Distance to the ideal assignment (all mass on the best hypothesis) is
measured by squared Euclidean divergence.  Whatever hypothesis turns out
to be best, a non-probabilistic vector is strictly farther from the ideal
than its projection onto the simplex, so using it is throwing away
accuracy.  Probabilistic vectors admit no such sure improvement.
"""

import numpy as np

from credal import (
    Credibility,
    ProbabilityVector,
    conservative_normalize,
    divergence,
    ideal_credibility,
    project_to_simplex,
    verify_dominance,
)

c = Credibility([0.6, 0.6])
print("candidate credibility:", c.values, "(sums to 1.2)")

report = verify_dominance(c)
print("dominated:", report.dominated)
print("dominating vector:", report.dominator.values)
for j in range(2):
    vertex = ideal_credibility(j, 2)
    print(
        f"  if hypothesis {j} is best: candidate divergence "
        f"{divergence(c, vertex):.3f} vs dominator {divergence(report.dominator, vertex):.3f}"
        f"  (gap {report.per_vertex_gap[j]:+.3f})"
    )

# the dominator is just the nearest point on the simplex
print("\nprojection of (0.6, 0.6):", project_to_simplex(c.values).values)

# probabilistic vectors: the vector itself certifies that nothing dominates it.
# Weighting any rival's per-vertex gaps by p gives minus their squared distance,
# so every rival is farther than p from at least one vertex.
p = ProbabilityVector([0.3, 0.45, 0.25])
rep = verify_dominance(p)
print(f"\n{p.values}: dominated = {rep.dominated}, dominator = {rep.dominator}")
rng = np.random.default_rng(0)
for rival in (rng.dirichlet(np.ones(3)), rng.uniform(0.0, 1.0, 3), p.values + rng.normal(0.0, 0.01, 3)):
    gaps = [divergence(p, ideal_credibility(j, 3)) - divergence(rival, ideal_credibility(j, 3)) for j in range(3)]
    print(
        f"  rival {np.round(rival, 3)}: p . gaps = {np.dot(p.values, gaps):+.6f}, "
        f"-|p - rival|^2 = {-divergence(p, rival):+.6f}, worst gap {min(gaps):+.4f}"
    )

# the projection is the same map as the additive rule's normalization:
# shift by the minimal constant d and clip at zero
q = np.array([1.0, 0.85, 0.05])
proj = project_to_simplex(q)
norm = conservative_normalize(q)
print(f"\nprojection of {q}: {proj.values}")
print(
    f"conservative normalization: {norm.posterior.values} "
    f"(d = {norm.d:+.3f}, zeroed {sorted(norm.zeroed)})"
)

# and it is the nearest point of the simplex
rng = np.random.default_rng(7)
closest = min(divergence(q, other) for other in rng.dirichlet(np.ones(3), 1000))
print(
    f"distance to the projection {divergence(q, proj):.4f}; "
    f"closest of 1000 random simplex points {closest:.4f}"
)
