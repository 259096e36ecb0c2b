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
``SimConfig`` fields.  An unknown key, at the top level or in ``rates``,
``trunc`` or ``sim``, is an error.  Each (case, scenario) pair becomes one
row holding whichever of the analytic conditional wait, the simulation
estimate and the deterministic wait were requested, plus the relative gap
|sim - analytic| / sim.  A failing row is recorded, with its error message
in the report's ``error`` column, and the batch continues.
``run_experiment`` returns the rows and writes nothing: only ``main``, the
``polling-wait`` command, writes a report, to ``-o`` or else the config's
``output``, with one column per ``ComparisonRow`` field.
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
    SCENARIO_SERVERS,
    ArrivalState,
    SystemParams,
    TruncationConfig,
    _member,
    _queue_lengths,
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
    output: str | None = None  # the config's report path, read only by main

    def __post_init__(self):
        for name in ("cases", "scenarios", "modes"):
            object.__setattr__(self, name, _list(getattr(self, name), name))
        # the checks and conversion ArrivalState applies, so a bad count or
        # index fails at load and reports print integral values as ints
        object.__setattr__(self, "cases", tuple(_queue_lengths(c) for c in self.cases))
        scenarios = tuple(_member(m, "scenario index m", SCENARIO_SERVERS) for m in self.scenarios)
        object.__setattr__(self, "scenarios", scenarios)
        object.__setattr__(self, "tagged_class", _member(self.tagged_class, "tagged_class", (1, 2)))
        for name in ("cases", "scenarios", "modes"):
            if not getattr(self, name):
                raise ValueError(f"config needs at least one {name[:-1]}")
        bad = [mode for mode in self.modes if mode not in _MODES]
        if bad:
            raise ValueError(f"unknown modes: {bad}")
        if self.output is not None and not isinstance(self.output, str):
            raise ValueError(f"output must be a string, got {type(self.output).__name__}")


@dataclass
class ComparisonRow:
    """One (case, scenario) row; the field order is the report's column order."""

    la: tuple[int, int, int, int]
    m: int
    analytic: float | None = None
    sim_mean: float | None = None
    sim_stderr: float | None = None
    det: float | None = None
    error_pct: float | None = None
    residual: float | None = None
    error: str | None = None


# Per report column: its text-table width and format, and its CSV cell's reader.
_COLUMNS = {
    "la": (12, "", lambda cell: tuple(int(x) for x in cell.split())),
    "m": (3, "", int),
    "analytic": (9, ".2f", float),
    "sim_mean": (9, ".2f", float),
    "sim_stderr": (10, ".3f", float),
    "det": (9, ".2f", float),
    "error_pct": (10, ".2f", float),
    "residual": (10, ".2e", float),
    "error": (0, "", str),
}


@dataclass
class ExperimentResult:
    rows: list[ComparisonRow]
    summary: dict = field(default_factory=dict)


def _object(raw, where: str, required=(), known=None) -> dict:
    """``raw`` if it is a JSON object holding every ``required`` key and,
    when ``known`` is given, no key outside it."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(raw).__name__}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise ValueError(f"{where} lacks {', '.join(missing)}")
    unknown = [] if known is None else sorted(set(raw) - set(known))
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")
    return raw


def _list(raw, where: str) -> tuple:
    """``raw`` as a tuple if it is a JSON list, or a tuple in Python."""
    if not isinstance(raw, (list, tuple)):
        raise ValueError(f"{where} must be a JSON list, got {type(raw).__name__}")
    return tuple(raw)


def load_config(path: str) -> ExperimentConfig:
    """Read a ``polling-wait/v1`` config.  A malformed or out-of-range
    setting raises ``ValueError``, bad rates ``NonPositiveRate`` or
    ``UnstableSystem``, and an unreadable file ``OSError``."""
    with open(path) as fh:
        raw = _object(json.load(fh), "config")
    if raw.get("schema") != SCHEMA:
        raise ValueError(f"expected schema {SCHEMA!r}, got {raw.get('schema')!r}")
    # the config's keys are ExperimentConfig's fields, with rates for params
    known = {"schema", "rates"} | {f.name for f in dataclasses.fields(ExperimentConfig)} - {"params"}
    _object(raw, "config", ("rates", "cases"), known)
    rates = _object(raw["rates"], "rates", ("lambda", "mu"), known=("lambda", "mu"))
    params = SystemParams(
        lam=_list(rates["lambda"], "rates.lambda"),
        mu=tuple(_list(row, "rates.mu row") for row in _list(rates["mu"], "rates.mu")),
    )
    kwargs = {}  # the keys the file holds; ExperimentConfig holds the defaults
    for key, value in raw.items():
        if key in ("trunc", "sim"):  # each a dataclass's fields
            cls = {"trunc": TruncationConfig, "sim": SimConfig}[key]
            kwargs[key] = cls(**_object(value, key, known=[f.name for f in dataclasses.fields(cls)]))
        elif key not in ("schema", "rates"):
            kwargs[key] = value
    return ExperimentConfig(params=validate_params(params), **kwargs)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Evaluate every (case, scenario) pair in the requested modes.

    Rows are produced in config order; a row that raises is marked failed
    and the batch continues.  Nothing is written: ``emit_report`` writes the
    rows, and ``cfg.output`` is read only by ``main``.
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
    return ExperimentResult(rows=rows, summary=summary)


def _cell(x, spec: str = "") -> str:
    """A report cell: blank for None, a case as its counts, else ``x``
    formatted by ``spec`` (a float's shortest round-trip form when empty)."""
    if x is None:
        return ""
    if isinstance(x, tuple):
        return " ".join(str(k) for k in x)
    return format(x, spec)


def emit_report(rows, path: str, fmt: str = "csv") -> None:
    """Write rows as CSV (full precision) or an aligned text table (2
    decimals, matching the precision the reference tables are printed at),
    one column per ``ComparisonRow`` field in field order.
    """
    if not rows:
        raise ValueError("no rows to emit")
    if fmt not in ("csv", "table"):
        raise ValueError(f"unknown format {fmt!r}")
    names = [f.name for f in dataclasses.fields(ComparisonRow)]
    with open(path, "w", newline="" if fmt == "csv" else None) as fh:
        if fmt == "csv":
            writer = csv.writer(fh)
            writer.writerow(names)
            writer.writerows([_cell(getattr(r, n)) for n in names] for r in rows)
        else:
            lines = [names] + [[_cell(getattr(r, n), _COLUMNS[n][1]) for n in names] for r in rows]
            widths = [_COLUMNS[n][0] for n in names]
            for cells in lines:
                # a space after each column, even past its width, but the
                # last, whose one-space pad shows only when the cell is empty
                head = "".join(c.ljust(w) + " " for c, w in zip(cells, widths[:-1]))
                fh.write(head + cells[-1].ljust(1) + "\n")


def parse_report(path: str) -> list[ComparisonRow]:
    """Read back a CSV report at full precision.  A blank or absent cell of a
    column that defaults to None (older reports lack ``error``) reads as None;
    a file without the others, such as a ``table`` report, raises ValueError."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields = dataclasses.fields(ComparisonRow)
        missing = ", ".join(f.name for f in fields if f.default is not None and f.name not in (reader.fieldnames or ()))
        if missing:
            raise ValueError(f"{path} is not a CSV report: it has no {missing} column")
        return [
            ComparisonRow(**{
                f.name: _COLUMNS[f.name][2](rec[f.name]) if rec.get(f.name) or f.default is not None else None
                for f in fields
            })
            for rec in reader
        ]


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
