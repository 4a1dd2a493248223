"""Names and units of every metric the benchmark reports."""

from __future__ import annotations

from . import inputs

# wall_norm is pass wall time in units of the calibration loop's time
# (see worker.calibration_s); raw wall_s is a per-layer metric
END_TO_END_UNITS = {"setup_s": "s", "wall_norm": "calib", "peak_rss_mb": "MB"}

# per-layer metrics: name -> unit.  A metric the workload has no calls for reads 0.
UPDATE_KERNELS = ("updating.predictive_update", "updating.inferential_update")
CALLS_AND_SELF = (
    "experiments.weighted_predictive_score",
    "experiments.generate_data",
    "measures.crps",
    "updating.inferential_update",
    "updating.predictive_update",
    "updating.general_bayes_update",
    "dominance.project_to_simplex",
    "dominance.verify_dominance",
)
SELF_ONLY = (
    "cli.dispatch",
    "experiments.run_experiment",
    "experiments.write_csv",
    "experiments.to_csv_text",
    "measures.crps_measure",
    "measures.likelihood_score",
)
COUNTS = (
    "experiments.csv_bytes",
    "updating.zeroed_total",
    "updating.reentered_total",
    "dominance.dominated_found",
    "core.wrappers_built",
)


def percentile_keys():
    """(metric name, span name, span key, percentile) of each per-size latency."""
    for name in UPDATE_KERNELS:
        for n in inputs.UPDATE_SIZES:
            for q in (50, 90):
                yield f"{name}.n{n}.p{q}_ms", name, f"n{n}", q
    for n in inputs.UPDATE_SIZES:
        yield f"dominance.project_to_simplex.n{n}.p50_ms", "dominance.project_to_simplex", f"n{n}", 50
    for kind, sizes in (("prob", inputs.PROB_SIZES), ("nonprob", inputs.NONPROB_SIZES)):
        for n in sizes:
            yield f"dominance.verify_dominance.{kind}.n{n}.p50_ms", "dominance.verify_dominance", f"{kind}.n{n}", 50


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    units["experiments.weighted_predictive_score.total_s"] = "s"
    for name in COUNTS:
        units[name] = "bytes" if name.endswith("_bytes") else "count"
    units["core.wrappers_per_step"] = "count"
    for key, *_ in percentile_keys():
        units[key] = "ms"
    units.update(
        {
            "wall_s": "s",
            "trace.pass_s": "s",
            "trace.overhead_frac": "fraction",
            "trace.glue_frac": "fraction",
            "ratio_zero_rows": "count",
            "mixture_crps_abs_err": "crps",
            "fail_frac": "fraction",
        }
    )
    return units
