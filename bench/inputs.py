"""Seeded inputs for each workload: simulation configs and kernel vectors.

Every input is a function of (workload, seed, size) only.  The shapes are
fixed per workload; the seed moves model parameters, data draws and vector
entries, never the amount of work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("sim-medium", "sim-wide", "kernels-large-n")

# Update/projection kernel sizes and how often one pass calls each kernel at
# that size; small sizes repeat so their percentiles rest on many calls.
UPDATE_SIZES = {8: 100, 1_000: 50, 100_000: 4, 1_000_000: 1}
NONPROB_SIZES = (100_000, 1_000_000)
PROB_SIZES = (8, 64, 512)

SIZES = {
    "full": {
        "sim-medium": {"horizon": 200, "replications": 10},
        "sim-wide": {"models": 512, "horizon": 25, "replications": 5},
        "kernels-large-n": {
            "update_sizes": UPDATE_SIZES,
            "nonprob_sizes": NONPROB_SIZES,
            "prob_sizes": PROB_SIZES,
        },
    },
    # for the smoke test: same code paths, seconds instead of minutes
    "tiny": {
        "sim-medium": {"horizon": 6, "replications": 2},
        "sim-wide": {"models": 16, "horizon": 4, "replications": 2},
        "kernels-large-n": {
            "update_sizes": {8: 3, 1_000: 2},
            "nonprob_sizes": (1_000,),
            "prob_sizes": (8,),
        },
    },
}

TRUTH = {"kind": "gaussian", "mu": 0.0, "sigma": 1.0}
GENERAL_BAYES = {"kind": "general_bayes", "rate": 1.0}
# the three models of acceptance criterion 9; `far` is the one the
# predictive rule must eliminate and the ratio-form rules underflow on
CRITERION_9_MODELS = (
    {"label": "good", "forecast": {"kind": "gaussian", "mu": 0.0, "sigma": 1.0}},
    {"label": "near", "forecast": {"kind": "gaussian", "mu": 0.5, "sigma": 1.0}},
    {"label": "far", "forecast": {"kind": "gaussian", "mu": 5.0, "sigma": 1.0}},
)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), int(seed)])


def sim_config(workload: str, seed: int, size: str = "full") -> dict:
    """The `credal simulate` config JSON object for a simulation workload."""
    shape = SIZES[size][workload]
    rng = _rng(workload, seed)
    if workload == "sim-medium":
        models = list(CRITERION_9_MODELS)
        for i in range(5):
            mu, sigma = rng.uniform(-1.5, 1.5), rng.uniform(0.5, 2.0)
            models.append(_gaussian(f"m{i + 1}", mu, sigma))
        rules = ["inferential", "predictive", GENERAL_BAYES]
    elif workload == "sim-wide":
        models = [CRITERION_9_MODELS[2]]
        for i in range(1, shape["models"]):
            if i % 4 == 0:
                models.append({"label": f"p{i}", "forecast": {"kind": "pointmass", "loc": float(rng.uniform(-4.0, 4.0))}})
            else:
                models.append(_gaussian(f"g{i}", rng.uniform(-4.0, 4.0), rng.uniform(0.5, 2.0)))
        rules = ["predictive", GENERAL_BAYES]
    else:
        raise ValueError(f"{workload} is not a simulation workload")
    return {
        "seed": int(seed),
        "truth": TRUTH,
        "models": models,
        "horizon": shape["horizon"],
        "rules": rules,
        "a": -1.0,
        "replications": shape["replications"],
    }


def _gaussian(label: str, mu: float, sigma: float) -> dict:
    return {"label": label, "forecast": {"kind": "gaussian", "mu": float(mu), "sigma": float(sigma)}}


def write_sim_config(path, workload: str, seed: int, size: str = "full") -> dict:
    cfg = sim_config(workload, seed, size)
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=1)
    return cfg


@dataclass(frozen=True)
class KernelCase:
    """Inputs for the update and projection kernels at one size ``n``.

    ``q`` is the combined vector ``prior + additive``, so the predictive
    update and the simplex projection of ``q`` must agree.
    """

    n: int
    repeats: int
    prior: object
    additive: object
    multiplicative: object
    q: np.ndarray


@dataclass(frozen=True)
class KernelInputs:
    cases: tuple[KernelCase, ...]
    nonprob: tuple[object, ...]  # credibility vectors that do not sum to 1
    prob: tuple[object, ...]  # probability vectors


def kernel_inputs(seed: int, size: str = "full") -> KernelInputs:
    """Vectors for the kernels workload, wrapped in the library's public types."""
    from credal.core import Credibility, ProbabilityVector
    from credal.measures import Mode, ScoreVector

    shape = SIZES[size]["kernels-large-n"]
    rng = _rng("kernels-large-n", seed)

    def probability(n):
        w = rng.exponential(size=n)
        return ProbabilityVector(w / w.sum())

    cases = []
    for n, repeats in shape["update_sizes"].items():
        prior = probability(n)
        # additive scores of the order of the prior entries zero a share of
        # the hypotheses, as CRPS scores do in the simulations
        additive = ScoreVector(-2.0 * rng.uniform(size=n) / n, Mode.ADDITIVE)
        multiplicative = ScoreVector(rng.uniform(0.1, 1.0, size=n), Mode.MULTIPLICATIVE)
        q = prior.values + additive.scores
        cases.append(KernelCase(n, repeats, prior, additive, multiplicative, q))
    nonprob = tuple(Credibility(rng.uniform(size=n)) for n in shape["nonprob_sizes"])
    prob = tuple(probability(n) for n in shape["prob_sizes"])
    return KernelInputs(tuple(cases), nonprob, prob)
