"""Span tracing around the calls into each tandempoll layer.

The tracer wraps public functions under the names their callers look up at
run time (for example ``tandempoll.scenarios.race_busy_period``, which
``analyze`` calls) and records one span per call: name, start, end and the
enclosing span.  Spans live in flat in-memory arrays and are written out
once, when the run ends.  Per-layer numbers (busy time, self time, call and
cache-hit counts) are computed from the spans afterwards.

The wrappers are swapped in only for the traced passes of a run, and record
only inside a ``request`` span, which the benchmark opens around each timed
call, so the untimed output checks leave no trace.  The quadrature
integrand ``hitting_pdf`` is called tens of thousands of times per grid; it
is counted, not spanned.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

REQUEST = "bench.request"

# (module, attribute, span name, cache probe): every place a layer boundary is
# crossed.  The cache probe names the lru_cache whose miss counter tells a
# hit from a miss (or a lattice build).
WRAPPED = [
    ("tandempoll.scenarios", "race_busy_period", "primitives.race_busy_period", "race_busy_period"),
    ("tandempoll.scenarios", "drain_wait", "primitives.drain_wait", "drain_wait"),
    ("tandempoll.scenarios", "race_erlang", "primitives.race_erlang", None),
    ("tandempoll.scenarios", "transfer_count_pmf", "primitives.transfer_count_pmf", None),
    ("tandempoll.scenarios", "absorption_probs", "absorption.absorption_probs", None),
    ("tandempoll.scenarios", "mfpt_to_empty", "absorption.mfpt_to_empty", None),
    ("tandempoll.absorption", "lattice_solution", "absorption.lattice_solution", "lattice_solution"),
    ("tandempoll.scenarios", "analyze", "scenarios.analyze", None),
    ("tandempoll.reporting", "analyze", "scenarios.analyze", None),
    ("tandempoll.reporting", "deterministic_wait", "deterministic.deterministic_wait", None),
    ("tandempoll.reporting", "simulate_conditional", "simulator.simulate_conditional", None),
    ("tandempoll.simulator", "simulate_conditional", "simulator.simulate_conditional", None),
    ("tandempoll.simulator", "simulate_steady_state", "simulator.simulate_steady_state", None),
    ("tandempoll.reporting", "run_experiment", "reporting.run_experiment", None),
    ("tandempoll.reporting", "emit_report", "reporting.emit_report", None),
]
COUNTED = [("tandempoll.primitives", "hitting_pdf", "primitives.hitting_pdf")]

LAYERS = ("primitives", "absorption", "scenarios", "deterministic", "simulator", "reporting", "bench")


class Tracer:
    """Records spans and counts while switched on; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.miss = array("b")      # 1 when the call missed its cache
        self.counts: dict[str, int] = {}
        self.rbp_args: set = set()
        self.sim_events: list[int] = []
        self.analyze_reports: list = []
        self._stack: list[int] = []
        self._saved: list = []   # (module, attribute, original, wrapper)
        for mod_name, attr, name, probe_attr in WRAPPED:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            probe = None
            if probe_attr is not None:
                probe = getattr(importlib.import_module("tandempoll"), probe_attr)
            self._saved.append((mod, attr, fn, self._wrap(fn, name, probe)))
        for mod_name, attr, name in COUNTED:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn, self._count(fn, name)))

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.miss.append(0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def request(self):
        """The root span of one timed call; spans nest only inside it."""
        i = self._open(self._id(REQUEST))
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, fn, name: str, probe):
        nid = self._id(name)
        stack = self._stack
        info = probe.cache_info if probe is not None else None
        is_rbp = name == "primitives.race_busy_period"
        is_cond = name == "simulator.simulate_conditional"
        is_analyze = name == "scenarios.analyze"

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if is_rbp:
                self.rbp_args.add(args)
            if is_cond and kwargs.get("trace") is None:
                rows = kwargs["trace"] = []
            else:
                rows = None
            misses = info().misses if info is not None else 0
            i = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if info is not None and info().misses != misses:
                self.miss[i] = 1
            if rows is not None:
                self.sim_events.append(len(rows))
            if is_analyze:
                self.analyze_reports.append((len(out.outcomes), out.residual_prob))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, name: str):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def on(self) -> None:
        for mod, attr, _, wrapper in self._saved:
            setattr(mod, attr, wrapper)

    def off(self) -> None:
        for mod, attr, fn, _ in self._saved:
            setattr(mod, attr, fn)

    # -- analysis ------------------------------------------------------------

    def arrays(self):
        """(name id, duration, self time, missed) as numpy arrays."""
        nid = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        miss = np.frombuffer(self.miss, dtype=np.int8)
        return nid, dur, dur - child, miss

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=self.span_name, parent=self.parent,
            start=self.start, end=self.end, missed=self.miss,
        )


def layer_metrics(tr: Tracer, unit: str, work: int) -> dict:
    """Per-layer metrics from the recorded spans.

    ``work`` is the traced calls' work, counted in ``unit``.
    Shares are each layer's self time over the summed request time, so they
    add up to one; ``bench`` is the benchmark's own code inside a request.
    """
    nid, dur, self_t, miss = tr.arrays()

    def sel(name):
        i = tr._ids.get(name)
        return np.zeros(len(nid), bool) if i is None else nid == i

    def calls(name):
        return int(sel(name).sum())

    def busy(name):
        return float(dur[sel(name)].sum())

    def self_s(name):
        return float(self_t[sel(name)].sum())

    def hit_ratio(name):
        m = sel(name)
        n = int(m.sum())
        return float(1.0 - miss[m].sum() / n) if n else 0.0

    out = {}
    for prim in ("race_busy_period", "drain_wait", "race_erlang", "transfer_count_pmf"):
        out[f"primitives.{prim}.calls"] = calls(f"primitives.{prim}")
        out[f"primitives.{prim}.busy_s"] = busy(f"primitives.{prim}")
    out["primitives.race_busy_period.distinct_args"] = len(tr.rbp_args)
    out["primitives.race_busy_period.hit_ratio"] = hit_ratio("primitives.race_busy_period")
    out["primitives.drain_wait.hit_ratio"] = hit_ratio("primitives.drain_wait")
    out["primitives.hitting_pdf.calls"] = tr.counts.get("primitives.hitting_pdf", 0)

    lat = sel("absorption.lattice_solution")
    out["absorption.lattice_solution.builds"] = int(miss[lat].sum())
    out["absorption.lattice_solution.build_s"] = float(dur[lat & (miss == 1)].sum())
    out["absorption.queries"] = calls("absorption.absorption_probs") + calls("absorption.mfpt_to_empty")
    out["absorption.query_busy_s"] = busy("absorption.absorption_probs") + busy("absorption.mfpt_to_empty")

    out["scenarios.analyze.calls"] = calls("scenarios.analyze")
    out["scenarios.analyze.busy_s"] = busy("scenarios.analyze")
    out["scenarios.self_s"] = self_s("scenarios.analyze")
    reps = tr.analyze_reports
    out["scenarios.leaves_per_call"] = sum(r[0] for r in reps) / len(reps) if reps else 0.0
    out["scenarios.residual_max"] = max((r[1] for r in reps), default=0.0)

    out["deterministic.calls"] = calls("deterministic.deterministic_wait")
    out["deterministic.busy_s"] = busy("deterministic.deterministic_wait")

    cond_s = busy("simulator.simulate_conditional")
    steady_s = busy("simulator.simulate_steady_state")
    out["simulator.conditional.busy_s"] = cond_s
    reps = work if unit == "replications" else 0
    departures = work if unit == "departures" else 0
    out["simulator.conditional.us_per_rep"] = 1e6 * cond_s / reps if reps else 0.0
    out["simulator.events_rep0"] = sum(tr.sim_events) / len(tr.sim_events) if tr.sim_events else 0.0
    out["simulator.steady.busy_s"] = steady_s
    out["simulator.steady.us_per_departure"] = 1e6 * steady_s / departures if departures else 0.0

    out["reporting.run_experiment.busy_s"] = busy("reporting.run_experiment")
    out["reporting.emit_report.busy_s"] = busy("reporting.emit_report")
    out["reporting.self_s"] = self_s("reporting.run_experiment") + self_s("reporting.emit_report")

    total = busy(REQUEST)
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for i, name in enumerate(tr.names):
        layer = "bench" if name == REQUEST else name.split(".")[0]
        by_layer[layer] += float(self_t[nid == i].sum())
    for layer in LAYERS:
        out[f"share.{layer}"] = by_layer[layer] / total if total else 0.0
    out["share.primitives.race_busy_period"] = (
        self_s("primitives.race_busy_period") / total if total else 0.0
    )
    out["trace.spans"] = len(nid)
    return out
