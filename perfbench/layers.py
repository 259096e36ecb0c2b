"""Metric names, the layer-to-metric map and the predictions it implies.

The end-to-end metrics have one name on every workload; ``NAMED`` gives the
raw figure behind each ``adj_`` metric its workload-specific name
(``work_per_s`` on ``analytic-sweep`` is ``sweep_cells_per_s``), so claims
can cite either.  ``LAYER_MAP`` records,
before any optimisation is measured, which end-to-end metric each per-layer
metric should move and on which workload.
"""

import numpy as np

# End-to-end metric -> unit.  Every workload reports all of them.  The adj_
# metrics are work_per_s and call_p50_ms, and setup_s is the set-up time,
# scaled to a quiet host by the reference loop in run.py.
E2E_UNITS = {
    "setup_s": "s",
    "ok_share": "share",
    "peak_rss_mb": "MB",
    "adj_work_per_s": "1/s",
    "adj_call_p50_ms": "ms",
}

# The unit of work behind work_per_s, and the call behind call_p50_ms.
WORK_UNIT = {
    "analytic-sweep": "cells",
    "analytic-online": "predictions",
    "sim-conditional": "replications",
    "sim-steady": "departures",
}
CALL = {
    "analytic-sweep": "run_experiment + emit_report on one 36-cell rate point",
    "analytic-online": "one analyze call",
    "sim-conditional": "one simulate_conditional call (800 replications)",
    "sim-steady": "one simulate_steady_state call (310k departures)",
}
NAMED = {
    "analytic-sweep": {"work_per_s": "sweep_cells_per_s"},
    "analytic-online": {"work_per_s": "predict_per_s", "call_p50_ms": "predict_p50_ms"},
    "sim-conditional": {"work_per_s": "sim_reps_per_s"},
    "sim-steady": {"work_per_s": "steady_departures_per_s"},
}

# (name, unit, better): every per-layer metric of a traced run.
PER_LAYER = [
    ("primitives.race_busy_period.calls", "count", "lower"),
    ("primitives.race_busy_period.busy_s", "s", "lower"),
    ("primitives.race_busy_period.distinct_args", "count", "lower"),
    ("primitives.race_busy_period.hit_ratio", "ratio", "higher"),
    ("primitives.hitting_pdf.calls", "count", "lower"),
    ("primitives.drain_wait.calls", "count", "lower"),
    ("primitives.drain_wait.busy_s", "s", "lower"),
    ("primitives.drain_wait.hit_ratio", "ratio", "higher"),
    ("primitives.race_erlang.calls", "count", "lower"),
    ("primitives.race_erlang.busy_s", "s", "lower"),
    ("primitives.transfer_count_pmf.calls", "count", "lower"),
    ("primitives.transfer_count_pmf.busy_s", "s", "lower"),
    ("absorption.lattice_solution.builds", "count", "lower"),
    ("absorption.lattice_solution.build_s", "s", "lower"),
    ("absorption.queries", "count", "lower"),
    ("absorption.query_busy_s", "s", "lower"),
    ("scenarios.analyze.calls", "count", "higher"),
    ("scenarios.analyze.busy_s", "s", "lower"),
    ("scenarios.self_s", "s", "lower"),
    ("scenarios.leaves_per_call", "count", "lower"),
    ("scenarios.residual_max", "prob", "lower"),
    ("deterministic.calls", "count", "higher"),
    ("deterministic.busy_s", "s", "lower"),
    ("simulator.conditional.busy_s", "s", "lower"),
    ("simulator.conditional.us_per_rep", "us", "lower"),
    ("simulator.events_rep0", "count", "lower"),
    ("simulator.steady.busy_s", "s", "lower"),
    ("simulator.steady.us_per_departure", "us", "lower"),
    ("reporting.run_experiment.busy_s", "s", "lower"),
    ("reporting.self_s", "s", "lower"),
    ("reporting.emit_report.busy_s", "s", "lower"),
    ("share.primitives", "share", "lower"),
    ("share.primitives.race_busy_period", "share", "lower"),
    ("share.absorption", "share", "lower"),
    ("share.scenarios", "share", "lower"),
    ("share.deterministic", "share", "lower"),
    ("share.simulator", "share", "lower"),
    ("share.reporting", "share", "lower"),
    ("share.bench", "share", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_share", "share", "lower"),
]

# Per-layer metric group -> the end-to-end metrics it should move, by workload.
LAYER_MAP = {
    "primitives.race_busy_period.{calls,busy_s,distinct_args,hit_ratio}, primitives.hitting_pdf.calls": {
        "moves": {"analytic-sweep": ["adj_work_per_s (sweep_cells_per_s)"],
                  "analytic-online": ["adj_work_per_s (predict_per_s)"]},
        "unchanged": {"analytic-online": ["adj_call_p50_ms (predict_p50_ms)"]},
    },
    "primitives.{drain_wait,race_erlang,transfer_count_pmf}.{calls,busy_s}, primitives.drain_wait.hit_ratio": {
        "moves": {"analytic-online": ["adj_call_p50_ms (predict_p50_ms)"]},
        "note": "small share of analytic-sweep",
    },
    "absorption.lattice_solution.{builds,build_s}, absorption.{queries,query_busy_s}": {
        "moves": {"analytic-sweep": ["adj_work_per_s (sweep_cells_per_s)"]},
        "unchanged": {"analytic-online": ["all: the lattice is built once during warm-up"]},
    },
    "scenarios.analyze.{calls,busy_s}, scenarios.self_s, scenarios.leaves_per_call, scenarios.residual_max": {
        "moves": {"analytic-online": ["adj_call_p50_ms (predict_p50_ms)", "predict_p99_ms (reported, not gated)"]},
    },
    "deterministic.{calls,busy_s}": {
        "moves": {"analytic-sweep": ["adj_work_per_s (sweep_cells_per_s)"]},
        "note": "predicted effect negligible",
    },
    "simulator.conditional.{busy_s,us_per_rep}, simulator.events_rep0": {
        "moves": {"sim-conditional": ["adj_work_per_s (sim_reps_per_s)"]},
    },
    "simulator.steady.{busy_s,us_per_departure}": {
        "moves": {"sim-steady": ["adj_work_per_s (steady_departures_per_s)", "peak_rss_mb"]},
    },
    "reporting.run_experiment.busy_s, reporting.self_s, reporting.emit_report.busy_s": {
        "moves": {"analytic-sweep": ["adj_work_per_s (sweep_cells_per_s)"]},
        "note": "predicted effect small",
    },
}


def named(workload: str, metrics: dict, raw: dict, lat: list) -> dict:
    """The end-to-end metrics under their workload-specific names, with the
    raw (unadjusted) work rate and median latency.

    ``predict_p99_ms`` is reported here only: the other workloads make far
    fewer than the thousand calls a 99th percentile needs, so it cannot be
    one of the end-to-end metrics every workload reports.
    """
    out = {
        "setup_s": {"value": raw["setup_s"], "adj": metrics["setup_s"]["value"], "unit": "s"},
        "failed_share": {"value": 1.0 - metrics["ok_share"]["value"], "unit": "share"},
        "peak_rss_mb": metrics["peak_rss_mb"],
    }
    for generic, specific in NAMED[workload].items():
        out[specific] = {"value": raw[generic], "adj": metrics["adj_" + generic]["value"],
                         "unit": metrics["adj_" + generic]["unit"]}
        if generic.startswith("call_"):
            out[specific]["samples"] = len(lat)
    if workload == "analytic-online":
        p99 = 1e3 * float(np.percentile(np.asarray(lat), 99))
        out["predict_p99_ms"] = {"value": p99, "unit": "ms", "samples": len(lat)}
    out["work_unit"] = WORK_UNIT[workload]
    out["call"] = CALL[workload]
    return out


def predictions(workload: str, v: dict) -> list:
    """Check the predicted largest shares against a traced run."""
    layer_shares = {k: val for k, val in v.items() if k.startswith("share.") and k.count(".") == 1}
    out = []
    if workload == "analytic-sweep":
        rbp = v["share.primitives.race_busy_period"]
        rivals = {k: s for k, s in layer_shares.items() if k != "share.primitives"}
        out.append({
            "prediction": "primitives.race_busy_period takes the largest share (ROADMAP: ~93%)",
            "share": rbp,
            "held": rbp >= max(rivals.values()),
        })
    if workload == "analytic-online":
        sc = layer_shares["share.scenarios"]
        out.append({
            "prediction": "scenarios self time takes the largest share",
            "share": sc,
            "held": sc >= max(layer_shares.values()),
        })
    return out
