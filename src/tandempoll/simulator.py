"""Discrete-event simulation of the tandem polling network.

``_Polling`` is the package's one implementation of the network, and three
routes share its event loop:

* ``simulate_conditional`` starts from the snapshot a tagged customer sees
  (queue lengths plus server positions), runs until the tagged customer
  leaves station 2, and averages the tagged system time over replications;
* ``simulate_steady_state`` runs one long run and estimates the long-run
  mean system time (waiting inclusive of service) of a class via batch
  means, discarding a warm-up prefix;
* ``deterministic_wait`` runs the tagged customer once with constant
  clocks, every duration equal to its mean.

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
from dataclasses import dataclass, fields

import numpy as np

from .errors import NonTermination
from .model import ArrivalState, SystemParams, _count, relabel_for_class2, validate_params

__all__ = [
    "SimConfig",
    "SimEstimate",
    "SteadyStateEstimate",
    "deterministic_wait",
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
    departure count is the natural unit for batch means.  Every field is a
    count, kept as a Python int by the rule ``ArrivalState`` applies to queue
    lengths: ``800.0`` becomes 800; ``True``, ``1.5``, ``"8"`` or -1 raise.
    """

    replications: int = 800
    seed: int = 20240811
    warmup_departures: int = 10_000
    horizon_departures: int = 1_000_000
    batches: int = 20

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            k = _count(value)
            if k < 0:
                raise ValueError(f"{f.name} must be a non-negative integer, got {value!r}")
            object.__setattr__(self, f.name, k)
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.batches < 2:
            raise ValueError("batches must be >= 2")
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

    The state is ``n[j][c]``, the number of class-c customers at station j
    (indices from 0) counting the one in service, and one FIFO of (customer
    id, arrival time) per class.  Both stations serve a class first come,
    first served, so station 2's class-c customers are always the oldest
    ``n[1][c]`` of the class: a hand-off moves one count, and the customer
    leaving station 2 is the head of its class's FIFO.  A server is idle
    exactly when its completion time ``end[j]`` is infinite.  The head count
    is ``len(fifo[0]) + len(fifo[1])``; the engine keeps no time averages,
    which ``simulate_steady_state`` accumulates itself.

    Each duration is ``draw()`` divided by its rate: a unit exponential
    (``_ExpStream.draw``) for simulation, or 1.0 for the constant-rate
    timeline.
    """

    def __init__(self, p: SystemParams, draw, trace=None):
        self.lam = p.lam
        self.mu = p.mu
        self.draw = draw
        self.n = [[0, 0], [0, 0]]
        self.fifo = (deque(), deque())
        self.end = [_INF, _INF]          # completion times, _INF = idle
        self.position = [0, 0]           # class the server is polled at
        self.next_arrival = [_INF, _INF]
        self.t = 0.0
        self.next_cid = 0
        self.trace = trace

    def _pick(self, j: int) -> bool:
        """Exhaustive polling: stay on the current class while station j has
        work of it, otherwise switch (zero switchover); idle at the
        last-served class.  Returns whether a service started."""
        n = self.n[j]
        c = self.position[j]
        if not n[c]:
            c = 1 - c
            if not n[c]:
                self.end[j] = _INF
                return False
            self.position[j] = c
        self.end[j] = self.t + self.draw() / self.mu[c][j]
        return True

    def _in_service(self, j: int) -> int:
        """Id of the customer in service at busy station j."""
        c = self.position[j]
        return self.fifo[c][self.n[1][c] if j == 0 else 0][0]

    def _write(self, rows) -> None:
        """Append trace rows (kind, station, class, id), each carrying the
        network's snapshot at the current time; S = 0 marks an idle server."""
        (l11, l21), (l12, l22) = self.n
        s1, s2 = (0 if e == _INF else c + 1 for e, c in zip(self.end, self.position))
        for kind, j, c, cid in rows:
            self.trace.append((self.t, kind, j + 1, c + 1, cid, l11, l21, l12, l22, s1, s2))

    def seed_snapshot(self, s: ArrivalState) -> int:
        """Populate the network per the snapshot, with the tagged customer
        last among the class-1 customers at station 1; returns the tagged id.

        Customers present at t = 0 carry arrival time 0.  Whoever heads the
        class each server is polled at starts a full fresh service
        (exponential services carry no age).
        """
        l11, l21, l12, l22 = s.la
        for c, k in ((0, l12), (1, l22), (0, l11), (1, l21), (0, 1)):
            for _ in range(k):
                self.next_cid += 1
                self.fifo[c].append((self.next_cid, 0.0))
        self.n = [[l11 + 1, l21], [l12, l22]]
        s1, s2 = s.servers
        self.position = [s1 - 1, s2 - 1]
        self._pick(1)
        self._pick(0)
        self.schedule_arrivals()
        if self.trace is not None:
            self._write([("init", 0, 0, self.next_cid)])
        return self.next_cid

    def schedule_arrivals(self) -> None:
        for c in (0, 1):
            self.next_arrival[c] = self.t + self.draw() / self.lam[c]

    def step(self):
        """Apply the events at the earliest clock (see the module docstring);
        returns (cid, class index, system time) when a customer leaves
        station 2, else None.  Trace rows are written once, after both
        picks, so every row of a step shows the same post-step snapshot."""
        end, arrival = self.end, self.next_arrival
        t = end[1]  # explicit compares: several times cheaper than min()
        if end[0] < t:
            t = end[0]
        if arrival[0] < t:
            t = arrival[0]
        if arrival[1] < t:
            t = arrival[1]
        self.t = t
        due = t + _TIE
        n, pos = self.n, self.position
        rows = None if self.trace is None else []
        out = None
        done2 = end[1] <= due
        if done2:
            c = pos[1]
            cid, arr = self.fifo[c].popleft()
            n[1][c] -= 1
            out = cid, c, t - arr
            if rows is not None:
                rows.append(("depart", 1, c, cid))
        done1 = end[0] <= due
        if done1:
            c = pos[0]
            if rows is not None:
                rows.append(("transfer", 0, c, self._in_service(0)))
            n[0][c] -= 1
            n[1][c] += 1
        for c in (0, 1):
            if arrival[c] <= due:
                self.next_cid += 1
                self.fifo[c].append((self.next_cid, t))
                n[0][c] += 1
                arrival[c] += self.draw() / self.lam[c]
                if rows is not None:
                    rows.append(("arrival", 0, c, self.next_cid))
        started2 = (done2 or end[1] == _INF) and self._pick(1)
        started1 = (done1 or end[0] == _INF) and self._pick(0)
        if rows is not None:
            if started2:
                rows.append(("start", 1, pos[1], self._in_service(1)))
            if started1:
                rows.append(("start", 0, pos[0], self._in_service(0)))
            self._write(rows)
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


def deterministic_wait(s: ArrivalState, p: SystemParams) -> float:
    """Exact system time of the tagged customer when every class-i
    interarrival time is 1/lam_i (the first arrival at 1/lam_i) and every
    class-i service at station j takes 1/mu_ij, a full one for a customer in
    service at t = 0.  Raises ``NonTermination`` past the step budget."""
    p = validate_params(p)
    s, p = relabel_for_class2(s, p)
    return _tagged_sojourn(s, p, lambda: 1.0)


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
    waits = [_one_conditional((s, p, c.seed, 0), trace)]
    jobs = [(s, p, c.seed, rep) for rep in range(1, c.replications)]
    if n_jobs > 1 and jobs:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            waits.extend(pool.map(_one_conditional, jobs, chunksize=64))
    else:
        waits.extend(map(_one_conditional, jobs))
    waits = np.asarray(waits)
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
    departures = 0
    target = c.warmup_departures + c.horizon_departures
    fifo0, fifo1 = net.fifo
    area = area0 = time0 = 0.0  # time integral of the head count
    while departures < target:
        t, in_system = net.t, len(fifo0) + len(fifo1)
        out = net.step()
        area += in_system * (net.t - t)
        if out is None:
            continue
        departures += 1
        if departures == c.warmup_departures:
            area0, time0 = area, net.t
        if departures > c.warmup_departures:
            pooled_sum += out[2]
            if out[1] == measured:
                kept.append(out[2])
    kept_arr = np.asarray(kept)
    nb = c.batches
    usable = (kept_arr.shape[0] // nb) * nb
    batches = kept_arr[:usable].reshape(nb, -1).mean(axis=1)
    mean = float(kept_arr.mean())
    stderr = float(batches.std(ddof=1) / math.sqrt(nb))
    return SteadyStateEstimate(
        mean=mean,
        stderr=stderr,
        n=kept_arr.shape[0],
        seed=c.seed,
        time_avg_in_system=(area - area0) / (net.t - time0),
        throughput_mean_system_time=(p.lam[0] + p.lam[1]) * (pooled_sum / c.horizon_departures),
    )


def write_trace(rows, path) -> None:
    """Write trace rows collected by ``simulate_conditional`` as pipe-
    delimited text, one event per line (see the README's "Traces")."""
    with open(path, "w") as fh:
        fh.write("time|kind|station|class|cid|L11|L21|L12|L22|S1|S2\n")
        for r in rows:
            fh.write("|".join(str(x) for x in r) + "\n")
