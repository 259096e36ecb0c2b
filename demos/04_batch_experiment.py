"""Drive a batch experiment through the config/report interface.

Writes a small polling-wait/v1 config, runs it through the same code path
as the ``polling-wait`` command-line tool, and prints the emitted CSV.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

from tandempoll import load_config, run_experiment

config = {
    "schema": "polling-wait/v1",
    "rates": {"lambda": [1.0, 1.0], "mu": [[2.86, 2.86], [2.86, 2.86]]},
    "cases": [[1, 1, 1, 1], [3, 3, 3, 3], [1, 1, 6, 6]],
    "scenarios": [1, 2, 3, 4],
    "modes": ["analytic", "simulate", "deterministic"],
    "sim": {"replications": 800, "seed": 2024},
}

with tempfile.TemporaryDirectory() as tmp:
    cfg_path = Path(tmp) / "experiment.json"
    cfg_path.write_text(json.dumps(config, indent=2))
    out_path = Path(tmp) / "report.csv"

    cfg = load_config(str(cfg_path))
    cfg = dataclasses.replace(cfg, output=str(out_path))
    result = run_experiment(cfg)

    print(out_path.read_text())
    s = result.summary
    print(f"rows: {s['rows']}  failed: {s['failed']}  "
          f"avg |sim-analytic|/sim: {s['avg_error_pct']:.2f}%  "
          f"share < 10%: {s['share_error_below_10pct']:.0%}")
