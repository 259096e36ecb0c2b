"""The four benchmark workloads.

Each workload is a closed loop with a single caller: it sends its next call
into the package only after the previous one has returned.  Inputs come from
the workload seed alone.  A workload object

* builds its inputs in ``__init__`` and does any untimed warm-up in
  ``setup`` (both count towards ``setup_s``);
* draws the input of its next call in ``next_input`` and makes that call,
  timed, in ``call``, which returns the result and the units of work it
  completed (``work_per_s`` counts these units);
* checks each result in ``check`` and the whole run in ``finish``, outside
  the timed region, appending to ``problems``.

``attempted``/``failed`` count operations: analytic cells, predictions, or
simulation calls.  An operation fails when it raises or yields a failed row.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from tandempoll import reporting, scenarios, simulator
from tandempoll.model import ArrivalState, SystemParams, TruncationConfig, validate_params

# The nine snapshots of the paper's tables, crossed with the four scenarios.
GRID = [
    (1, 1, 1, 1), (3, 3, 3, 3), (6, 6, 6, 6),
    (1, 1, 3, 3), (1, 1, 6, 6), (3, 3, 1, 1),
    (6, 6, 1, 1), (3, 6, 3, 6), (6, 3, 6, 3),
]
SCENARIOS = (1, 2, 3, 4)
TRUNC = TruncationConfig()
LEAF_SUM_TOL = 1e-9
STEADY_SE = 5.0
SIM_GAP_MAX_PCT = 10.0


def sym(mu: float) -> SystemParams:
    return validate_params(SystemParams(lam=(1.0, 1.0), mu=((mu, mu), (mu, mu))))


def check_report(rep, where: str, problems: list) -> None:
    """The analytic invariants every cell must satisfy."""
    if not (math.isfinite(rep.cond_wait) and rep.cond_wait > 0.0):
        problems.append(f"{where}: cond_wait {rep.cond_wait!r} not finite and positive")
    if not rep.residual_prob <= TRUNC.eps:
        problems.append(f"{where}: residual {rep.residual_prob!r} above eps {TRUNC.eps}")
    mass = sum(o.prob for o in rep.outcomes) + rep.residual_prob
    if not abs(mass - 1.0) <= LEAF_SUM_TOL:
        problems.append(f"{where}: leaf mass plus residual is {mass!r}, not 1")


def own_services(p: SystemParams, tagged_class: int) -> float:
    """The tagged customer's two mean service times: a floor on its wait."""
    mu = p.mu[tagged_class - 1]
    return 1.0 / mu[0] + 1.0 / mu[1]


def steady_exact(p: SystemParams) -> float:
    """Exact mean system time of a class-symmetric setting: each station is
    an M/M/1 workload (Burke), so its mean sojourn is tau / (1 - rho)."""
    return sum((1.0 / m) / (1.0 - p.rho_station(j + 1)) for j, m in enumerate(p.mu[0]))


class Workload:
    name = ""
    # Calls in one pass over the inputs.  A run stops, a work-rate block ends
    # and tracing switches on or off only between passes.
    whole = 1

    def __init__(self, seed: int, scratch: str):
        self.rng = np.random.default_rng(seed)
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.n_calls = 0

    def setup(self) -> None:
        pass

    def next_input(self):
        raise NotImplementedError

    def call(self, inp):
        raise NotImplementedError

    def check(self, result) -> None:
        pass

    def finish(self) -> None:
        pass

    def info(self) -> dict:
        return {}


class AnalyticSweep(Workload):
    """Cold analytic route: fresh class-asymmetric rate points, each through
    the 36-cell grid via ``run_experiment`` (analytic + deterministic) and
    ``emit_report``, as the ``polling-wait`` CLI does.  Every point has new
    rates, so every primitive and lattice cache starts cold.

    The rate points cycle through a fixed Latin-hypercube design of seven
    points over the two arrival rates, the two station loads and class 1's
    share of each load.  The seed places each point at random inside the
    middle fifth of its stratum, so the rates are new on every point (and
    every cache starts cold) while every cycle does a comparable amount of
    work, whatever the seed.  The cycle length is odd so that a traced run,
    which alternates traced and untraced calls, traces every design point.
    """

    name = "analytic-sweep"
    # Stratum (of seven) of lam1, lam2, rho1, rho2, share1, share2 per point;
    # each column is a permutation.
    DESIGN = np.array([
        [0, 3, 5, 1, 2, 4],
        [1, 6, 0, 6, 6, 3],
        [2, 2, 2, 4, 3, 2],
        [3, 5, 4, 2, 0, 1],
        [4, 1, 6, 0, 4, 0],
        [5, 4, 1, 5, 1, 6],
        [6, 0, 3, 3, 5, 5],
    ])
    LO = np.array([0.5, 0.5, 0.5, 0.5, 0.3, 0.3])
    HI = np.array([1.5, 1.5, 0.9, 0.9, 0.7, 0.7])

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self._points: list = []

    def _design_cycle(self) -> list:
        u = 0.4 + 0.2 * self.rng.uniform(size=self.DESIGN.shape)
        x = self.LO + (self.HI - self.LO) * (self.DESIGN + u) / len(self.DESIGN)
        points = []
        for lam1, lam2, rho1, rho2, share1, share2 in x.tolist():
            mu1 = (lam1 / (share1 * rho1), lam1 / (share2 * rho2))
            mu2 = (lam2 / ((1.0 - share1) * rho1), lam2 / ((1.0 - share2) * rho2))
            points.append(validate_params(SystemParams(lam=(lam1, lam2), mu=(mu1, mu2))))
        return points

    def _point(self) -> SystemParams:
        if not self._points:
            self._points = self._design_cycle()[::-1]
        return self._points.pop()

    def next_input(self):
        cfg = reporting.ExperimentConfig(
            params=self._point(), cases=tuple(GRID), scenarios=SCENARIOS,
            modes=("analytic", "deterministic"), trunc=TRUNC,
        )
        return cfg, os.path.join(self.scratch, f"sweep-{self.n_calls}.csv")

    def call(self, inp):
        cfg, path = inp
        result = reporting.run_experiment(cfg)
        reporting.emit_report(result.rows, path, "csv")
        return (cfg.params, result.rows, path), len(result.rows)

    def check(self, result) -> None:
        params, rows, path = result
        self.attempted += len(rows)
        self.failed += sum(1 for r in rows if r.error is not None)
        floor = own_services(params, 1)
        for r in rows:
            if r.error is not None:
                continue
            where = f"{self.name} {params} {r.la} m={r.m}"
            rep = scenarios.analyze(ArrivalState(la=r.la, m=r.m), params, TRUNC)
            if rep.cond_wait != r.analytic or rep.residual_prob != r.residual:
                self.problems.append(f"{where}: re-analysis differs from the row")
            check_report(rep, where, self.problems)
            if not r.det >= floor:
                self.problems.append(f"{where}: deterministic wait {r.det} below {floor}")
        back = reporting.parse_report(path)
        os.remove(path)
        keys = ("la", "m", "analytic", "det", "residual")
        if [[getattr(r, k) for k in keys] for r in back] != [[getattr(r, k) for k in keys] for r in rows]:
            self.problems.append(f"{self.name} {params}: CSV report does not read back")


class AnalyticOnline(Workload):
    """Warm analytic route: a predictor for one system answering a stream of
    arriving snapshots, after an untimed prefix has filled the caches."""

    name = "analytic-online"
    WARMUP = 2000
    CHUNK = 4096
    whole = 500

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.params = sym(2.86)
        # Per-queue lengths are geometric with the mean class-queue length of
        # the system, half the M/M/1 mean rho / (1 - rho) at each station.
        rho = self.params.rho_station(1)
        mean = 0.5 * rho / (1.0 - rho)
        self.q_success = 1.0 / (1.0 + mean)
        self._buf: list = []

    def next_input(self) -> ArrivalState:
        if not self._buf:
            r = self.rng
            la = r.geometric(self.q_success, size=(self.CHUNK, 4)) - 1
            m = r.integers(1, 5, size=self.CHUNK)
            cls = r.integers(1, 3, size=self.CHUNK)
            self._buf = [
                ArrivalState(la=tuple(int(x) for x in la[i]), m=int(m[i]), tagged_class=int(cls[i]))
                for i in range(self.CHUNK - 1, -1, -1)
            ]
        return self._buf.pop()

    def _predict(self, s: ArrivalState):
        try:
            return s, scenarios.analyze(s, self.params, TRUNC)
        except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
            return s, exc

    def setup(self) -> None:
        for _ in range(self.WARMUP):
            self.check(self._predict(self.next_input()))

    def call(self, inp):
        return self._predict(inp), 1

    def check(self, result) -> None:
        s, rep = result
        self.attempted += 1
        if isinstance(rep, Exception):
            self.failed += 1
            return
        check_report(rep, f"{self.name} {s}", self.problems)


class SimConditional(Workload):
    """``simulate_conditional`` at 800 replications per cell on three
    snapshots x four scenarios at two loads, serially (n_jobs = 1)."""

    name = "sim-conditional"
    REPS = 800
    CELLS = [
        (mu, la, m)
        for mu in (2.86, 2.22)
        for la in ((1, 1, 1, 1), (3, 3, 3, 3), (6, 6, 6, 6))
        for m in SCENARIOS
    ]
    whole = len(CELLS)

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.params = {mu: sym(mu) for mu in (2.86, 2.22)}
        self.means: dict = {}
        self.replay = None   # (cell, config, mean) of the first good call
        self.gap_pct: dict = {}

    def next_input(self):
        mu, la, m = self.CELLS[self.n_calls % len(self.CELLS)]
        cfg = simulator.SimConfig(replications=self.REPS, seed=int(self.rng.integers(2**31)))
        return (mu, la, m), ArrivalState(la=la, m=m), cfg

    def call(self, inp):
        (mu, la, m), s, cfg = inp
        try:
            est = simulator.simulate_conditional(s, self.params[mu], cfg, n_jobs=1)
        except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
            est = exc
        return ((mu, la, m), cfg, est), self.REPS

    def check(self, result) -> None:
        cell, cfg, est = result
        self.attempted += 1
        if isinstance(est, Exception):
            self.failed += 1
            return
        if not (math.isfinite(est.mean) and est.mean > 0.0 and math.isfinite(est.stderr)):
            self.problems.append(f"{self.name} {cell}: estimate {est} not finite and positive")
        self.means.setdefault(cell, []).append(est.mean)
        if self.replay is None:
            self.replay = (cell, cfg, est.mean)

    def finish(self) -> None:
        # Replay contract: a result depends on (seed, replication) only.
        if self.replay is not None:
            (mu, la, m), cfg, mean = self.replay
            again = simulator.simulate_conditional(ArrivalState(la=la, m=m), self.params[mu], cfg, n_jobs=1)
            if again.mean != mean:
                self.problems.append(
                    f"{self.name} {self.replay[0]} seed {cfg.seed}: replay gave {again.mean!r}, not {mean!r}"
                )
        for mu in self.params:
            gaps = []
            for (cmu, la, m), means in self.means.items():
                if cmu != mu:
                    continue
                a = scenarios.analyze(ArrivalState(la=la, m=m), self.params[mu], TRUNC).cond_wait
                s = float(np.mean(means))
                gaps.append(abs((s - a) / s) * 100.0)
            if gaps:
                self.gap_pct[mu] = sum(gaps) / len(gaps)
                if self.gap_pct[mu] > SIM_GAP_MAX_PCT:
                    self.problems.append(
                        f"{self.name} mu={mu}: average simulation-analytic gap "
                        f"{self.gap_pct[mu]:.2f}% above {SIM_GAP_MAX_PCT}%"
                    )

    def info(self) -> dict:
        return {"sim_analytic_gap_pct": {str(k): v for k, v in self.gap_pct.items()}}


class SimSteady(Workload):
    """``simulate_steady_state`` on two class-symmetric settings: one long
    run per call that keeps every measured sojourn in memory."""

    name = "sim-steady"
    WARMUP = 10_000
    HORIZON = 300_000
    SETTINGS = (((2.86, 2.86), (2.86, 2.86)), ((2.22, 2.86), (2.22, 2.86)))
    whole = len(SETTINGS)

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.params = [validate_params(SystemParams(lam=(1.0, 1.0), mu=mu)) for mu in self.SETTINGS]

    def next_input(self):
        p = self.params[self.n_calls % len(self.params)]
        cfg = simulator.SimConfig(
            seed=int(self.rng.integers(2**31)),
            warmup_departures=self.WARMUP, horizon_departures=self.HORIZON,
        )
        return p, cfg

    def call(self, inp):
        p, cfg = inp
        try:
            est = simulator.simulate_steady_state(p, cfg)
        except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
            est = exc
        return (p, est), self.WARMUP + self.HORIZON

    def check(self, result) -> None:
        p, est = result
        self.attempted += 1
        if isinstance(est, Exception):
            self.failed += 1
            return
        self.check_estimate(p, est.mean, est.stderr)

    def check_estimate(self, p: SystemParams, mean: float, stderr: float) -> None:
        exact = steady_exact(p)
        if not abs(mean - exact) <= STEADY_SE * stderr:
            self.problems.append(
                f"{self.name} mu={p.mu[0]}: mean {mean:.4f} is more than "
                f"{STEADY_SE} SE ({stderr:.4f}) from the exact {exact:.4f}"
            )


WORKLOADS = {w.name: w for w in (AnalyticSweep, AnalyticOnline, SimConditional, SimSteady)}


def make(name: str, seed: int, root: str) -> Workload:
    out = os.path.join(root, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    return WORKLOADS[name](seed, tempfile.mkdtemp(prefix="run-", dir=out))
