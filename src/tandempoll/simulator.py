"""Discrete-event simulation of the tandem polling network.

``_Polling`` is the package's one implementation of the network, and three
routes share its event loop:

* ``simulate_conditional`` starts from the snapshot a tagged customer sees
  (queue lengths plus server positions), runs until the tagged customer
  leaves station 2, and averages the tagged system time over replications;
* ``simulate_steady_state`` runs one long run and estimates the long-run
  mean system time (waiting inclusive of service) of a class via batch
  means, discarding a warm-up prefix;
* ``deterministic.deterministic_wait`` runs the tagged customer once with
  constant clocks, every duration equal to its mean.

Events at the same instant: a step advances to the earliest clock and
applies every event due within ``_TIE`` of it, in the order station-2
completion, station-1 hand-off, class-1 arrival, class-2 arrival; only then
does each freed or idle server pick its next job, station 2 first.  Under
constant clocks this makes a hand-off that lands exactly when the downstream
server finishes count as available work, as zero switchover requires.  The
rule cannot change a stochastic result: two exponential clocks land within
``_TIE`` of each other with negligible probability, so in practice each step
applies one event, drawing in the order of a one-event-per-step loop.

Each replication draws from its own stream derived from (seed, replication
index) through numpy's SeedSequence spawning, so results do not depend on
execution order and parallel runs reproduce serial ones bit for bit.  A
stream fetches its draws in blocks that grow from 64 to 8,192, so a
replication that uses tens of draws pays for no more; the block size cannot
change a result (see ``_ExpStream``).
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NonTermination
from .model import ArrivalState, SystemParams, relabel_for_class2, validate_params

__all__ = [
    "SimConfig",
    "SimEstimate",
    "SteadyStateEstimate",
    "simulate_conditional",
    "simulate_steady_state",
    "write_trace",
]

_INF = math.inf
_TIE = 1e-12
# Steps a tagged-customer run may take before it raises NonTermination.
_STEP_BUDGET = 1_000_000
# Unit-exponential draws in _ExpStream's first block and its largest block.
_FIRST_BLOCK = 64
_MAX_BLOCK = 8192


@dataclass(frozen=True)
class SimConfig:
    """Replication and horizon settings.

    Steady-state warm-up and horizon are counted in departures (system
    exits), not clock time: the loads of interest need long runs and a
    departure count is the natural unit for batch means.
    """

    replications: int = 800
    seed: int = 20240811
    warmup_departures: int = 10_000
    horizon_departures: int = 1_000_000
    batches: int = 20

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.batches < 2:
            raise ValueError("batches must be >= 2")
        if self.warmup_departures < 0:
            raise ValueError("warmup_departures must be >= 0")
        if self.horizon_departures < self.batches:
            raise ValueError("horizon_departures must be >= batches")


@dataclass(frozen=True)
class SimEstimate:
    mean: float
    stderr: float
    n: int
    seed: int


@dataclass(frozen=True)
class SteadyStateEstimate:
    mean: float
    stderr: float
    n: int
    seed: int
    # Little's-law diagnostics over the measurement window (all classes).
    time_avg_in_system: float
    throughput_mean_system_time: float


class _ExpStream:
    """Unit-exponential draws from one Generator, fetched in Python-list
    blocks of ``_FIRST_BLOCK`` draws, doubling at each refill up to
    ``_MAX_BLOCK``.

    The block size cannot change a result: ``Generator.exponential`` fills
    an array one value at a time from the bit stream, so 64 draws and then
    128 give the same numbers as 192 at once.
    """

    __slots__ = ("rng", "buf", "i")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.buf = rng.exponential(size=_FIRST_BLOCK).tolist()
        self.i = 0

    def draw(self) -> float:
        i = self.i
        buf = self.buf
        if i == len(buf):
            buf = self.buf = self.rng.exponential(size=min(2 * i, _MAX_BLOCK)).tolist()
            i = 0
        self.i = i + 1
        return buf[i]


class _Polling:
    """One realisation of the two-station exhaustive polling network.

    Each duration is ``draw()`` divided by its rate: a unit exponential
    (``_ExpStream.draw``) for simulation, or 1.0 for the constant-rate
    timeline.
    """

    def __init__(self, p: SystemParams, draw, trace=None):
        self.lam = p.lam
        self.mu = p.mu
        self.draw = draw
        # queues[j][c]: deque of (customer id, arrival time), j in {0,1} for
        # station 1/2 and c in {0,1} for class 1/2
        self.queues = [[deque(), deque()], [deque(), deque()]]
        self.in_service = [None, None]   # (cid, arrival time), None = idle
        self.end = [_INF, _INF]          # completion times
        self.position = [0, 0]           # queue the server is polled at
        self.next_arrival = [_INF, _INF]
        self.t = 0.0
        self.next_cid = 0
        self.trace = trace
        # Little's-law accounting
        self.n_in_system = 0
        self.area = 0.0

    # -- helpers -----------------------------------------------------------

    def _new_cid(self) -> int:
        self.next_cid += 1
        return self.next_cid

    def _start(self, j: int, c: int) -> None:
        cust = self.queues[j][c].popleft()
        self.in_service[j] = cust
        self.position[j] = c
        self.end[j] = self.t + self.draw() / self.mu[c][j]
        if self.trace is not None:
            self._emit("start", j, c, cust[0])

    def _pick_next(self, j: int) -> None:
        """Exhaustive polling: stay on the current queue while it has work,
        otherwise switch (zero switchover); idle at the last-served queue."""
        pos = self.position[j]
        if self.queues[j][pos]:
            self._start(j, pos)
        elif self.queues[j][1 - pos]:
            self._start(j, 1 - pos)
        else:
            self.in_service[j] = None
            self.end[j] = _INF

    def _emit(self, kind: str, station: int, c: int, cid: int) -> None:
        if self.trace is not None:
            q = self.queues
            # class index in service at each station, -1 = idle
            s1, s2 = (-1 if self.in_service[j] is None else self.position[j] for j in (0, 1))
            self.trace.append((
                self.t, kind, station + 1, c + 1, cid,
                len(q[0][0]) + (1 if s1 == 0 else 0),
                len(q[0][1]) + (1 if s1 == 1 else 0),
                len(q[1][0]) + (1 if s2 == 0 else 0),
                len(q[1][1]) + (1 if s2 == 1 else 0),
                s1 + 1,
                s2 + 1,
            ))

    # -- initialisation ----------------------------------------------------

    def seed_snapshot(self, s: ArrivalState) -> int:
        """Populate queues per the snapshot, with the tagged customer at the
        tail of the class-1 queue at station 1; returns the tagged id.

        Customers present at t = 0 carry arrival time 0.  Whoever is at the
        head of the queue indicated by the scenario starts a full fresh
        service (exponential services carry no age).
        """
        l11, l21, l12, l22 = s.la
        for j, c, n in ((1, 0, l12), (1, 1, l22), (0, 0, l11), (0, 1, l21)):
            for _ in range(n):
                self.queues[j][c].append((self._new_cid(), 0.0))
        tagged_id = self._new_cid()
        self.queues[0][0].append((tagged_id, 0.0))
        self.n_in_system = l11 + l21 + l12 + l22 + 1
        s1, s2 = s.servers
        self.position = [s1 - 1, s2 - 1]
        trace, self.trace = self.trace, None
        for j in (1, 0):
            self._pick_next(j)
        self.trace = trace
        self.schedule_arrivals()
        self._emit("init", 0, 0, tagged_id)
        return tagged_id

    def schedule_arrivals(self) -> None:
        for c in (0, 1):
            self.next_arrival[c] = self.t + self.draw() / self.lam[c]

    # -- event loop --------------------------------------------------------

    def step(self):
        """Apply the events at the earliest clock (see the module docstring);
        returns (cid, class index, system time) when a customer leaves
        station 2, else None.  Trace rows are emitted after the picks, so
        each row is a consistent post-step snapshot."""
        end, arrival = self.end, self.next_arrival
        t = end[1]  # explicit compares: several times cheaper than min()
        if end[0] < t:
            t = end[0]
        if arrival[0] < t:
            t = arrival[0]
        if arrival[1] < t:
            t = arrival[1]
        self.area += self.n_in_system * (t - self.t)
        self.t = t
        due = t + _TIE
        rows = None if self.trace is None else []
        out = None
        done2 = end[1] <= due
        if done2:
            cid, arr = self.in_service[1]
            c = self.position[1]
            self.n_in_system -= 1
            out = cid, c, t - arr
            if rows is not None:
                rows.append(("depart", 1, c, cid))
        done1 = end[0] <= due
        if done1:
            cust = self.in_service[0]
            c = self.position[0]
            self.queues[1][c].append(cust)
            if rows is not None:
                rows.append(("transfer", 0, c, cust[0]))
        for c in (0, 1):
            if arrival[c] <= due:
                cid = self._new_cid()
                self.queues[0][c].append((cid, t))
                self.n_in_system += 1
                arrival[c] += self.draw() / self.lam[c]
                if rows is not None:
                    rows.append(("arrival", 0, c, cid))
        if done2 or self.in_service[1] is None:
            self._pick_next(1)
        if done1 or self.in_service[0] is None:
            self._pick_next(0)
        if rows:
            for row in rows:
                self._emit(*row)
        return out


def _tagged_sojourn(s: ArrivalState, p: SystemParams, draw, trace=None) -> float:
    """System time of the tagged customer from snapshot ``s`` (relabelled,
    validated parameters); raises ``NonTermination`` past the step budget."""
    net = _Polling(p, draw, trace)
    tagged_id = net.seed_snapshot(s)
    for _ in range(_STEP_BUDGET):
        out = net.step()
        if out is not None and out[0] == tagged_id:
            return out[2]
    raise NonTermination(f"tagged customer still in system after {_STEP_BUDGET} steps")


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))


def _one_conditional(job, trace=None) -> float:
    s, p, seed, rep = job
    return _tagged_sojourn(s, p, _ExpStream(_rep_rng(seed, rep)).draw, trace)


def simulate_conditional(
    s: ArrivalState,
    p: SystemParams,
    c: SimConfig = SimConfig(),
    n_jobs: int = 1,
    trace=None,
) -> SimEstimate:
    """Tagged-customer mean system time from snapshot ``s``.

    Each replication re-creates the snapshot, injects the tagged customer at
    the tail of its class queue at station 1, and runs until that customer
    departs station 2.  ``n_jobs`` is the number of worker processes; at 1
    the replications run in this process, and any count gives the same
    result bit for bit.  ``trace``, if a list is supplied, collects event
    rows from replication 0 (see ``write_trace``).
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs!r}")
    p = validate_params(p)
    s, p = relabel_for_class2(s, p)
    waits = np.empty(c.replications)
    first = 0
    if trace is not None:
        waits[0] = _one_conditional((s, p, c.seed, 0), trace)
        first = 1
    jobs = [(s, p, c.seed, rep) for rep in range(first, c.replications)]
    if n_jobs > 1 and jobs:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            for (rep, w) in zip(range(first, c.replications), pool.map(_one_conditional, jobs, chunksize=64)):
                waits[rep] = w
    else:
        for rep, job in zip(range(first, c.replications), jobs):
            waits[rep] = _one_conditional(job)
    mean = float(waits.mean())
    stderr = float(waits.std(ddof=1) / math.sqrt(c.replications)) if c.replications > 1 else 0.0
    return SimEstimate(mean=mean, stderr=stderr, n=c.replications, seed=c.seed)


def simulate_steady_state(
    p: SystemParams,
    c: SimConfig = SimConfig(),
    measured_class: int = 1,
) -> SteadyStateEstimate:
    """Long-run mean system time of ``measured_class`` customers.

    One long replication started empty: the first ``warmup_departures``
    system exits are discarded, the next ``horizon_departures`` are kept,
    and the kept ones are split into ``batches`` batches for the standard
    error.  Little's-law quantities are accumulated over the kept window
    across both classes.
    """
    if measured_class not in (1, 2):
        raise ValueError(f"measured_class must be 1 or 2, got {measured_class!r}")
    p = validate_params(p)
    net = _Polling(p, _ExpStream(_rep_rng(c.seed, 0)).draw)
    net.schedule_arrivals()
    measured = measured_class - 1
    kept = []
    pooled_sum = 0.0
    pooled_n = 0
    departures = 0
    target = c.warmup_departures + c.horizon_departures
    area0 = time0 = 0.0
    while departures < target:
        out = net.step()
        if out is None:
            continue
        departures += 1
        if departures == c.warmup_departures:
            area0, time0 = net.area, net.t
        if departures > c.warmup_departures:
            pooled_sum += out[2]
            pooled_n += 1
            if out[1] == measured:
                kept.append(out[2])
    kept_arr = np.asarray(kept)
    nb = c.batches
    usable = (kept_arr.shape[0] // nb) * nb
    batches = kept_arr[:usable].reshape(nb, -1).mean(axis=1)
    mean = float(kept_arr.mean())
    stderr = float(batches.std(ddof=1) / math.sqrt(nb))
    window = net.t - time0
    time_avg_n = (net.area - area0) / window if window > 0 else float("nan")
    lam_total = p.lam[0] + p.lam[1]
    return SteadyStateEstimate(
        mean=mean,
        stderr=stderr,
        n=kept_arr.shape[0],
        seed=c.seed,
        time_avg_in_system=time_avg_n,
        throughput_mean_system_time=lam_total * (pooled_sum / pooled_n if pooled_n else float("nan")),
    )


_TRACE_HEADER = "time|kind|station|class|cid|L11|L21|L12|L22|S1|S2"


def write_trace(rows, path) -> None:
    """Write trace rows collected by ``simulate_conditional`` as pipe-
    delimited text, one event per line."""
    with open(path, "w") as fh:
        fh.write(_TRACE_HEADER + "\n")
        for r in rows:
            fh.write("|".join(str(x) for x in r) + "\n")
