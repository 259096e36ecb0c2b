"""Self-test of the benchmark.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py

It shows that every metric ``BENCHMARK.json`` names is emitted with its unit,
that a perturbed output fails the output checks, and that the benchmark
refuses to run without the package sources.  It takes about a minute.
"""

import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tandempoll import simulator  # noqa: E402
from tandempoll.scenarios import ScenarioReport, SubScenarioOutcome  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(workload, trace, cwd=ROOT, seconds="0.5"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == layers.PER_LAYER
    assert {m["name"] for m in SPEC["end_to_end"]} == set(layers.E2E_UNITS)
    for m in SPEC["end_to_end"]:
        assert layers.E2E_UNITS[m["name"]] == m["unit"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_emitted_with_unit(workload, trace):
    out = bench(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_steady_check_rejects_a_shifted_mean():
    wl = workloads.SimSteady(1, tempfile.gettempdir())
    p = wl.params[1]
    exact = workloads.steady_exact(p)
    assert abs(exact - 5.708) < 1e-3
    wl.check_estimate(p, exact + 0.01, 0.01)
    assert wl.problems == []
    wl.check_estimate(p, exact + 0.06, 0.01)
    assert len(wl.problems) == 1


def test_report_check_rejects_bad_cells():
    good = ScenarioReport(m=1, outcomes=(SubScenarioOutcome("a", 0.6, 2.0),
                                         SubScenarioOutcome("b", 0.4, 3.0)),
                          residual_prob=0.0, cond_wait=2.4)
    problems = []
    workloads.check_report(good, "good", problems)
    assert problems == []
    for bad in (
        ScenarioReport(m=1, outcomes=good.outcomes, residual_prob=0.0, cond_wait=float("nan")),
        ScenarioReport(m=1, outcomes=good.outcomes[:1], residual_prob=0.0, cond_wait=1.2),
        ScenarioReport(m=1, outcomes=good.outcomes, residual_prob=0.01, cond_wait=2.4),
    ):
        problems = []
        workloads.check_report(bad, "bad", problems)
        assert problems


def test_perturbed_run_fails(monkeypatch):
    """A steady-state mean shifted by 20% makes the whole run exit non-zero."""
    real = simulator.simulate_steady_state

    def shifted(p, c, *args, **kwargs):
        est = real(p, c, *args, **kwargs)
        return simulator.SteadyStateEstimate(**{**est.__dict__, "mean": est.mean * 1.2})

    monkeypatch.setattr(simulator, "simulate_steady_state", shifted)
    monkeypatch.setattr(run, "SETUP_REPEATS", 0)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", "sim-steady", "--seed", "3", "--seconds", "0.1", "--trace", "0"])
    assert code != 0
    assert json.loads(buf.getvalue().strip().splitlines()[-1])["correct"] is False


def test_refuses_to_run_without_sources():
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=out_dir)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        out = bench("analytic-sweep", 0, cwd=bare)
        assert out.returncode != 0
        assert '"correct"' not in out.stdout
    finally:
        shutil.rmtree(bare)
