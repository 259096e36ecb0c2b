"""Smoke test for the walk-through scripts in ``demos/``: each must run to
completion against the package in ``src/`` without writing to stderr."""

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


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
