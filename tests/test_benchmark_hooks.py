"""The names the benchmark's tracer and workloads reach into must exist.

``perfbench/tracer.py`` swaps wrappers in by (module, attribute) at run
time, so a renamed or moved function would only fail a traced benchmark
run.  These checks read the tracer's tables without changing anything.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import tandempoll
from tandempoll import reporting, simulator

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave perfbench/ untouched
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = saved
    return mod


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
