"""Batch experiment driver and report emission.

An experiment is described by a JSON config (schema ``polling-wait/v1``):

    {
      "schema": "polling-wait/v1",
      "rates": {"lambda": [1.0, 1.0],
                "mu": [[2.86, 2.86], [2.86, 2.86]]},
      "cases": [[1, 1, 1, 1], [3, 3, 3, 3]],
      "scenarios": [1, 2, 3, 4],
      "tagged_class": 1,
      "modes": ["analytic", "simulate", "deterministic"],
      "trunc": {"n_max": 80, "eps": 1e-3},
      "sim": {"replications": 800, "seed": 20240811},
      "output": "report.csv"
    }

``rates.mu[i][j]`` is the service rate of class i+1 at station j+1.
``trunc`` takes the two ``TruncationConfig`` fields, ``n_max`` and ``eps``;
``n_max`` caps the size of the absorbing-chain lattice, which otherwise
follows each query (here 80 in place of the default 256).  ``sim`` takes
``SimConfig`` fields.  An unknown key in either is an error.  Each
(case, scenario) pair becomes one row holding whichever of the analytic
conditional wait, the simulation estimate and the deterministic wait were
requested, plus the relative gap |sim - analytic| / sim.  A failing row is
recorded, with its error message in the report's ``error`` column, and the
batch continues.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from dataclasses import dataclass, field

from .errors import TandemPollError
from .model import (
    ArrivalState,
    SystemParams,
    TruncationConfig,
    _class_label,
    _queue_lengths,
    _scenario_index,
    validate_params,
)
from .scenarios import analyze
from .simulator import SimConfig, deterministic_wait, simulate_conditional

__all__ = [
    "SCHEMA",
    "ExperimentConfig",
    "ComparisonRow",
    "ExperimentResult",
    "load_config",
    "run_experiment",
    "emit_report",
    "parse_report",
    "ACCURATE_PCT",
    "main",
]

SCHEMA = "polling-wait/v1"
_MODES = ("analytic", "simulate", "deterministic")
_CSV_HEADER = ["la", "m", "analytic", "sim_mean", "sim_stderr", "det", "error_pct", "residual", "error"]
# A cell counts as accurate when |sim - analytic| / sim is below this, in percent.
ACCURATE_PCT = 10.0


@dataclass(frozen=True)
class ExperimentConfig:
    params: SystemParams
    cases: tuple[tuple[int, int, int, int], ...]
    scenarios: tuple[int, ...] = (1, 2, 3, 4)
    tagged_class: int = 1
    modes: tuple[str, ...] = _MODES
    trunc: TruncationConfig = TruncationConfig()
    sim: SimConfig = SimConfig()
    output: str | None = None

    def __post_init__(self):
        if not self.cases:
            raise ValueError("config needs at least one case")
        # the checks and conversion ArrivalState applies, so a bad count or
        # index fails at load and reports print integral values as ints
        object.__setattr__(self, "cases", tuple(_queue_lengths(c) for c in self.cases))
        object.__setattr__(self, "scenarios", tuple(_scenario_index(m) for m in self.scenarios))
        if not self.scenarios:
            raise ValueError("config needs at least one scenario")
        object.__setattr__(self, "tagged_class", _class_label(self.tagged_class))
        if not self.modes:
            raise ValueError("config needs at least one mode")
        bad = set(self.modes) - set(_MODES)
        if bad:
            raise ValueError(f"unknown modes: {sorted(bad)}")


@dataclass
class ComparisonRow:
    la: tuple[int, int, int, int]
    m: int
    analytic: float | None = None
    sim_mean: float | None = None
    sim_stderr: float | None = None
    det: float | None = None
    error_pct: float | None = None
    residual: float | None = None
    error: str | None = None


@dataclass
class ExperimentResult:
    rows: list[ComparisonRow]
    summary: dict = field(default_factory=dict)


def _object(raw, where: str, *required: str) -> dict:
    """``raw`` if it is a JSON object holding every ``required`` key."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(raw).__name__}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise ValueError(f"{where} lacks {', '.join(missing)}")
    return raw


def _settings(cls, section: str, raw):
    """``cls(**raw)``, with an unknown key reported by name."""
    unknown = sorted(set(_object(raw, section)) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValueError(f"unknown {section} keys: {', '.join(unknown)}")
    return cls(**raw)


def load_config(path: str) -> ExperimentConfig:
    """Read a ``polling-wait/v1`` config.  A malformed or out-of-range
    setting raises ``ValueError``, bad rates ``NonPositiveRate`` or
    ``UnstableSystem``, and an unreadable file ``OSError``."""
    with open(path) as fh:
        raw = _object(json.load(fh), "config")
    if raw.get("schema") != SCHEMA:
        raise ValueError(f"expected schema {SCHEMA!r}, got {raw.get('schema')!r}")
    _object(raw, "config", "rates", "cases")
    rates = _object(raw["rates"], "rates", "lambda", "mu")
    params = SystemParams(
        lam=tuple(rates["lambda"]),
        mu=tuple(tuple(row) for row in rates["mu"]),
    )
    kwargs = {}
    if "trunc" in raw:
        kwargs["trunc"] = _settings(TruncationConfig, "trunc", raw["trunc"])
    if "sim" in raw:
        kwargs["sim"] = _settings(SimConfig, "sim", raw["sim"])
    return ExperimentConfig(
        params=validate_params(params),
        cases=tuple(tuple(case) for case in raw["cases"]),
        scenarios=tuple(raw.get("scenarios", (1, 2, 3, 4))),
        tagged_class=raw.get("tagged_class", 1),
        modes=tuple(raw.get("modes", _MODES)),
        output=raw.get("output"),
        **kwargs,
    )


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Evaluate every (case, scenario) pair in the requested modes.

    Rows are produced in config order; a row that raises is marked failed
    and the batch continues.  If ``cfg.output`` is set the report is also
    written there as CSV.
    """
    rows: list[ComparisonRow] = []
    for la in cfg.cases:
        for m in cfg.scenarios:
            row = ComparisonRow(la=la, m=m)
            try:
                state = ArrivalState(la=la, m=m, tagged_class=cfg.tagged_class)
                if "analytic" in cfg.modes:
                    rep = analyze(state, cfg.params, cfg.trunc)
                    row.analytic = rep.cond_wait
                    row.residual = rep.residual_prob
                if "simulate" in cfg.modes:
                    est = simulate_conditional(state, cfg.params, cfg.sim)
                    row.sim_mean = est.mean
                    row.sim_stderr = est.stderr
                if "deterministic" in cfg.modes:
                    row.det = deterministic_wait(state, cfg.params)
                if row.analytic is not None and row.sim_mean is not None:
                    row.error_pct = abs((row.sim_mean - row.analytic) / row.sim_mean) * 100.0
            except Exception as exc:  # noqa: BLE001 - per-row isolation is the point
                row.error = f"{type(exc).__name__}: {exc}"
            rows.append(row)
    errors = [r.error_pct for r in rows if r.error_pct is not None]
    summary = {
        "rows": len(rows),
        "failed": sum(1 for r in rows if r.error is not None),
        "avg_error_pct": sum(errors) / len(errors) if errors else None,
        "share_error_below_10pct": (
            sum(1 for e in errors if e < ACCURATE_PCT) / len(errors) if errors else None
        ),
    }
    result = ExperimentResult(rows=rows, summary=summary)
    if cfg.output:
        emit_report(rows, cfg.output, "csv")
    return result


def _fmt(x, nd=2):
    return "" if x is None else f"{x:.{nd}f}"


def emit_report(rows, path: str, fmt: str = "csv") -> None:
    """Write rows as CSV (full precision) or an aligned text table (2
    decimals, matching the precision the reference tables are printed at).
    """
    if not rows:
        raise ValueError("no rows to emit")
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_HEADER)
            for r in rows:
                writer.writerow([
                    " ".join(str(x) for x in r.la),
                    r.m,
                    "" if r.analytic is None else repr(r.analytic),
                    "" if r.sim_mean is None else repr(r.sim_mean),
                    "" if r.sim_stderr is None else repr(r.sim_stderr),
                    "" if r.det is None else repr(r.det),
                    "" if r.error_pct is None else repr(r.error_pct),
                    "" if r.residual is None else repr(r.residual),
                    r.error or "",
                ])
        return
    if fmt == "table":
        widths = [12, 3, 9, 9, 10, 9, 10, 10, 0]
        with open(path, "w") as fh:
            fh.write("".join(h.ljust(w + 1) for h, w in zip(_CSV_HEADER, widths)) + "\n")
            for r in rows:
                cells = [
                    " ".join(str(x) for x in r.la),
                    str(r.m),
                    _fmt(r.analytic),
                    _fmt(r.sim_mean),
                    _fmt(r.sim_stderr, 3),
                    _fmt(r.det),
                    _fmt(r.error_pct),
                    "" if r.residual is None else f"{r.residual:.2e}",
                    r.error or "",
                ]
                fh.write("".join(c.ljust(w + 1) for c, w in zip(cells, widths)) + "\n")
        return
    raise ValueError(f"unknown format {fmt!r}")


def parse_report(path: str) -> list[ComparisonRow]:
    """Read back a CSV report at full precision."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            rows.append(ComparisonRow(
                la=tuple(int(x) for x in rec["la"].split()),
                m=int(rec["m"]),
                analytic=float(rec["analytic"]) if rec["analytic"] else None,
                sim_mean=float(rec["sim_mean"]) if rec["sim_mean"] else None,
                sim_stderr=float(rec["sim_stderr"]) if rec["sim_stderr"] else None,
                det=float(rec["det"]) if rec["det"] else None,
                error_pct=float(rec["error_pct"]) if rec["error_pct"] else None,
                residual=float(rec["residual"]) if rec["residual"] else None,
                error=rec.get("error") or None,  # absent from older reports
            ))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polling-wait",
        description="Conditional waiting times in a two-station tandem polling queue.",
    )
    parser.add_argument("config", help="path to a polling-wait/v1 JSON config")
    parser.add_argument("-o", "--output", help="report path (overrides config)")
    parser.add_argument("--format", choices=("csv", "table"), default="csv")
    parser.add_argument("--modes", nargs="+", choices=_MODES,
                        help="override the config's modes")
    parser.add_argument("--seed", type=int, help="override the simulation seed")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.modes:
            cfg = dataclasses.replace(cfg, modes=tuple(args.modes))
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, seed=args.seed))
        out = args.output or cfg.output
        if out:
            open(out, "a").close()  # an unwritable report path fails before the batch
    except (TandemPollError, ValueError, OSError) as exc:
        print(f"polling-wait: {exc}", file=sys.stderr)
        return 2
    cfg = dataclasses.replace(cfg, output=None)  # emission is handled here

    result = run_experiment(cfg)
    if out:
        emit_report(result.rows, out, args.format)
    s = result.summary
    avg = "n/a" if s["avg_error_pct"] is None else f"{s['avg_error_pct']:.2f}%"
    share = "n/a" if s["share_error_below_10pct"] is None else f"{s['share_error_below_10pct']:.0%}"
    print(f"rows: {s['rows']}  failed: {s['failed']}  avg error: {avg}  "
          f"share < {ACCURATE_PCT:g}%: {share}")
    for r in result.rows:
        if r.error is not None:
            print(f"  FAILED {r.la} m={r.m}: {r.error}", file=sys.stderr)
    return 0 if s["failed"] == 0 else 1
