"""Independent references and output checks for `credal simulate` runs.

The exact CRPS of a mixture of Gaussian and point-mass components is

    CRPS(F, x) = sum_i w_i E|X_i - x| - 1/2 sum_ij w_i w_j E|X_i - X_j|,

and every expectation is of the form E|N(m, s^2)| = 2 s phi(m/s) + m (2 Phi(m/s) - 1),
which is |m| when s = 0 (Gneiting & Raftery 2007).  Nothing here calls the
library's CRPS code, so it can check it.

The checks read `results.csv` by column name and hold for any correct
implementation: they compare against invariants and closed forms, not
against a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

REQUIRED_COLUMNS = ("rule", "replication", "t", "model", "posterior", "crps", "mixture_crps")
RATIO_RULES = ("inferential", "general_bayes")
SUM_TOL = 1e-9
CRPS_RTOL = 1e-9
# the harness estimates the mixture CRPS from 1000 draws per step; averaged
# over a run its error is a few 1e-4, so this only catches a broken score
MIXTURE_TOL = 0.05

_erf = np.vectorize(math.erf, otypes=[float])


def abs_normal_mean(m, s) -> np.ndarray:
    """E|N(m, s^2)| elementwise; ``s == 0`` gives |m|."""
    m, s = np.asarray(m, dtype=float), np.asarray(s, dtype=float)
    z = m / np.where(s > 0.0, s, 1.0)
    phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return np.where(s > 0.0, 2.0 * s * phi + m * _erf(z / math.sqrt(2.0)), np.abs(m))


def components(models) -> tuple[np.ndarray, np.ndarray]:
    """(means, standard deviations) of config model literals; point masses have s = 0."""
    means, sds = [], []
    for model in models:
        f = model["forecast"]
        if f["kind"] == "gaussian":
            means.append(f["mu"])
            sds.append(f["sigma"])
        elif f["kind"] == "pointmass":
            means.append(f["loc"])
            sds.append(0.0)
        else:
            raise ValueError(f"no closed form for forecast kind {f['kind']!r}")
    return np.array(means, dtype=float), np.array(sds, dtype=float)


class Mixture:
    """Exact CRPS of weighted mixtures over a fixed set of components."""

    def __init__(self, means, sds):
        self.means = np.asarray(means, dtype=float)
        self.sds = np.asarray(sds, dtype=float)
        # E|X_i - X_j|; depends only on the components, so computed once
        self.pair = abs_normal_mean(
            self.means[:, None] - self.means[None, :],
            np.sqrt(self.sds[:, None] ** 2 + self.sds[None, :] ** 2),
        )

    def to_outcome(self, x) -> np.ndarray:
        """E|X_i - x| with shape ``x.shape + (n,)``."""
        x = np.asarray(x, dtype=float)
        return abs_normal_mean(self.means - x[..., None], self.sds)

    def component_crps(self, x) -> np.ndarray:
        """Each component's own CRPS at ``x``, shape ``x.shape + (n,)``."""
        return self.to_outcome(x) - 0.5 * np.diag(self.pair)

    def crps(self, weights, x) -> np.ndarray:
        """Mixture CRPS for weights of shape ``x.shape + (n,)``."""
        w = np.asarray(weights, dtype=float)
        first = np.sum(w * self.to_outcome(x), axis=-1)
        second = np.einsum("...i,ij,...j->...", w, self.pair, w)
        return first - 0.5 * second


class ResultsCheck:
    """Checks of one `results.csv` against the config that produced it.

    ``problems`` lists every failed check; the other attributes are the
    measurements the benchmark reports.
    """

    def __init__(self, cfg: dict, csv_text: str, summary: dict, observations):
        self.problems: list[str] = []
        self.ratio_zero_rows = 0
        self.mixture_crps_abs_err = math.nan
        rules = [r if isinstance(r, str) else r["kind"] for r in cfg["rules"]]
        labels = [m["label"] for m in cfg["models"]]
        reps, horizon, n = cfg["replications"], cfg["horizon"], len(labels)
        shape = (len(rules), reps, horizon, n)

        rows = list(csv.reader(io.StringIO(csv_text)))
        header, body = rows[0], rows[1:]
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            self.problems.append(f"header {header} lacks {missing}")
            return
        if len(body) != math.prod(shape):
            self.problems.append(f"{len(body)} rows, expected {math.prod(shape)} = rules x replications x horizon x models")
            return
        if any(len(r) != len(header) for r in body):
            self.problems.append("a row has the wrong number of fields")
            return
        cols = {name: [r[i] for r in body] for i, name in enumerate(header)}

        # rows are ordered by (rule, replication, t, model index)
        expected_keys = {
            "rule": np.repeat(rules, reps * horizon * n),
            "replication": np.tile(np.repeat(np.arange(reps), horizon * n), len(rules)).astype(str),
            "t": np.tile(np.repeat(np.arange(1, horizon + 1), n), len(rules) * reps).astype(str),
            "model": np.tile(labels, len(rules) * reps * horizon),
        }
        for name, expected in expected_keys.items():
            if cols[name] != expected.tolist():
                self.problems.append(f"column {name!r} is not in (rule, replication, t, model) order")
                return

        post = np.array(cols["posterior"], dtype=float).reshape(shape)
        model_crps = np.array(cols["crps"], dtype=float).reshape(shape)
        if not np.all(np.isfinite(post)) or np.any(post < 0.0):
            self.problems.append("a posterior entry is negative or not finite")
        worst_sum = float(np.max(np.abs(post.sum(axis=-1) - 1.0)))
        if not worst_sum <= SUM_TOL:
            self.problems.append(f"a posterior row sums to 1 +- {worst_sum:.3g}")

        if "predictive" in rules and "far" in labels:
            far = post[rules.index("predictive"), :, :, labels.index("far")]
            kept = [rep for rep in range(reps) if not np.any(far[rep] == 0.0)]
            if kept:
                self.problems.append(f"predictive rule never zeroes 'far' in replications {kept}")

        ratio = [i for i, r in enumerate(rules) if r in RATIO_RULES]
        self.ratio_zero_rows = int(np.sum(np.any(post[ratio] == 0.0, axis=-1)))

        mixture = Mixture(*components(cfg["models"]))
        x = np.asarray(observations, dtype=float)  # (reps, horizon)
        err = np.max(np.abs(model_crps - mixture.component_crps(x)) / np.maximum(1.0, model_crps))
        if not err <= CRPS_RTOL:
            self.problems.append(f"per-model crps column is off the closed form by {err:.3g}")

        # weights before each update: uniform at t = 1, then the previous row
        prior = np.concatenate([np.full(shape[:2] + (1, n), 1.0 / n), post[:, :, :-1, :]], axis=2)
        exact = mixture.crps(prior, np.broadcast_to(x, shape[:3])).mean(axis=2).mean(axis=1)
        reported = {a["rule"]: a["mean_mixture_crps"] for a in summary.get("aggregates", [])}
        if sorted(reported) != sorted(rules):
            self.problems.append(f"summary aggregates cover {sorted(reported)}, expected {sorted(rules)}")
            return
        self.mixture_crps_abs_err = float(max(abs(reported[r] - exact[i]) for i, r in enumerate(rules)))
        if not self.mixture_crps_abs_err <= MIXTURE_TOL:
            self.problems.append(f"mean mixture CRPS is off the exact value by {self.mixture_crps_abs_err:.3g}")
