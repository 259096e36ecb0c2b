"""Smoke test for the walk-through scripts in ``demos/`` and the README's
Quick start: each must run to completion against the package in ``src/``
without writing to stderr.  Also guards what a bare ``import tandempoll``
loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_single_snapshot.py",
    "02_scenario_grid.py",
    "03_steady_state_vs_conditional.py",
    "04_batch_experiment.py",
]


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
    return proc.stdout


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script, tmp_path):
    _run([str(ROOT / "demos" / script)], tmp_path)


def test_readme_quick_start_runs(tmp_path):
    # the first Python block under the README's "## Quick start" heading
    section = (ROOT / "README.md").read_text().split("\n## Quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    _run(["-c", block], tmp_path)


def test_import_leaves_scipy_special_unloaded(tmp_path):
    # only hitting_pdf needs scipy.special, and it imports it when called
    code = "import sys, tandempoll; print(sorted(m for m in sys.modules if m.startswith('scipy.special')))"
    assert _run(["-c", code], tmp_path) == "[]\n"


def test_import_loads_no_scipy(tmp_path):
    # the lattice solver is plain numpy; scipy loads only when hitting_pdf is
    # called.  Nor does a first call of each route load it: a scipy import in
    # a primitive the tree reaches would add its load time to every cold start
    code = """
import sys
import tandempoll as tp

p = tp.SystemParams(lam=(1.0, 1.0), mu=((2.86, 2.22), (2.86, 2.22)))
s = tp.ArrivalState(la=(3, 6, 3, 6), m=4)  # reaches every primitive and the lattice
tp.analyze(s, p)
tp.deterministic_wait(s, p)
tp.simulate_conditional(s, p, tp.SimConfig(replications=4))
tp.simulate_steady_state(p, tp.SimConfig(warmup_departures=10, horizon_departures=100))
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""
    assert _run(["-c", code], tmp_path) == "[]\n"


def test_import_loads_no_process_machinery(tmp_path):
    # simulate_conditional runs in the caller's process; multiprocessing and
    # concurrent.futures would add their load time to every cold start
    code = """
import sys
import tandempoll as tp

heavy = ('multiprocessing', 'concurrent.futures')
print(sorted(m for m in heavy if m in sys.modules))
p = tp.SystemParams(lam=(1.0, 1.0), mu=((2.86, 2.22), (2.86, 2.22)))
tp.simulate_conditional(tp.ArrivalState(la=(1, 1, 1, 1), m=1), p, tp.SimConfig(replications=4))
print(sorted(m for m in heavy if m in sys.modules))
"""
    assert _run(["-c", code], tmp_path) == "[]\n[]\n"


def test_import_leaves_numpy_random_unloaded(tmp_path):
    # only a simulation draws random numbers; loading numpy.random at import
    # would add its load time to every cold start, analytic ones included
    code = "import sys, tandempoll; print('numpy.random' in sys.modules)"
    assert _run(["-c", code], tmp_path) == "False\n"
