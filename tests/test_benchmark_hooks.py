"""The names the benchmark's tracer and workloads reach into must exist.

``perfbench/tracer.py`` swaps wrappers in by (module, attribute) at run
time, and ``perfbench/workloads.py`` builds configs and calls the package
by name, so a renamed function or a removed config field would only fail a
benchmark run.  These checks load both files without changing anything.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import tandempoll
from tandempoll import reporting, simulator

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave perfbench/ untouched
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = saved
    return mod


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


def test_hooked_attributes_resolve(tracer):
    for mod_name, attr, *_ in tracer.WRAPPED + tracer.COUNTED:
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)


def test_cache_probes_expose_cache_info(tracer):
    probes = [probe for *_, probe in tracer.WRAPPED if probe is not None]
    assert probes
    for probe in probes:
        assert callable(getattr(tandempoll, probe).cache_info), probe


@pytest.mark.parametrize("fn", [simulator.simulate_conditional, reporting.simulate_conditional])
def test_simulate_conditional_takes_benchmark_keywords(fn):
    params = inspect.signature(fn).parameters
    assert "n_jobs" in params and "trace" in params


WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_builds_an_input(name, tmp_path):
    WORKLOADS[name](1, str(tmp_path)).next_input()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_call_passes_its_checks(name, tmp_path):
    # one call in the order perfbench/run.py makes it, so a change that
    # breaks a workload's output check fails here, not only in a benchmark run
    wl = WORKLOADS[name](1, str(tmp_path))
    wl.setup()
    inp = wl.next_input()
    result, _ = wl.call(inp)
    wl.n_calls += 1
    wl.check(result)
    wl.finish()
    assert wl.attempted >= 1
    assert wl.problems == []
    assert wl.failed == 0


def test_traced_sim_conditional_counts_the_trace_rows(tracer, tmp_path):
    # a traced benchmark pass records the length of replication 0's trace
    # as simulator.events_rep0; it must be the trace simulate_conditional
    # writes for the same input, and tracing must leave the estimate alone
    wl = WORKLOADS["sim-conditional"](1, str(tmp_path))
    inp = wl.next_input()
    tr = tracer.Tracer()
    tr.on()
    try:
        with tr.request():
            (_, _, est), _ = wl.call(inp)
    finally:
        tr.off()
    (mu, _, _), s, cfg = inp
    rows = []
    assert est == simulator.simulate_conditional(s, wl.params[mu], cfg, trace=rows)
    assert len(rows) > 1
    assert tr.sim_events == [len(rows)]
