"""Smoke test for the walk-through scripts in ``demos/`` and the README's
Quick start: each must run to completion against the package in ``src/``
without writing to stderr."""

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


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script, tmp_path):
    _run([str(ROOT / "demos" / script)], tmp_path)


def test_readme_quick_start_runs(tmp_path):
    # the first Python block under the README's "## Quick start" heading
    section = (ROOT / "README.md").read_text().split("\n## Quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    _run(["-c", block], tmp_path)
