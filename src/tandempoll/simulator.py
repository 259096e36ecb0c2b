"""Discrete-event simulation of the tandem polling network.

``_Polling`` is the package's scalar implementation of the network.  Three
routes use its rules:

* ``simulate_conditional`` starts from the snapshot a tagged customer sees
  (queue lengths plus server positions), runs until the tagged customer
  leaves station 2, and averages the tagged system time over replications.
  Its replications run as one lockstep numpy batch (``_conditional_batch``)
  that applies the same rules in the same order to the same streams, so
  each replication's wait equals ``_Polling``'s bit for bit; a requested
  trace replays replication 0 through ``_Polling``;
* ``simulate_steady_state`` runs one long ``_Polling`` run and estimates the
  long-run mean system time (waiting inclusive of service) of a class via
  batch means, discarding a warm-up prefix;
* ``deterministic_wait`` runs the tagged customer once through ``_Polling``
  with constant clocks, every duration equal to its mean.

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
execution order or batching, and parallel runs reproduce serial ones bit for
bit.  Both engines fetch draws ``_DRAW_BLOCK`` at a time: ``_unit_draws``
for a scalar run, and one buffer row per replication in the batch.  The
block size cannot change a result (see ``_unit_draws``).
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .errors import NonTermination
from .model import ArrivalState, SystemParams, _count, _member, relabel_for_class2, validate_params

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
# Unit-exponential draws fetched from a Generator at once.
_DRAW_BLOCK = 128
# Replications one lockstep batch runs at most, which bounds its memory.
_BATCH_ROWS = 8192
# Batch means behind a steady-state standard error.
_BATCHES = 20


@dataclass(frozen=True)
class SimConfig:
    """Replication and horizon settings.

    Steady-state warm-up and horizon are counted in departures (system
    exits), not clock time: the loads of interest need long runs and a
    departure count is the natural unit for the ``_BATCHES`` (20) batch
    means.  Every field is a count, kept as a Python int by the rule
    ``ArrivalState`` applies to queue lengths: ``800.0`` becomes 800;
    ``True``, ``1.5``, ``"8"`` or -1 raise.
    """

    replications: int = 800
    seed: int = 20240811
    warmup_departures: int = 10_000
    horizon_departures: int = 1_000_000

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            k = _count(value)
            if k < 0:
                raise ValueError(f"{f.name} must be a non-negative integer, got {value!r}")
            object.__setattr__(self, f.name, k)
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.horizon_departures < _BATCHES:
            raise ValueError(f"horizon_departures must be >= {_BATCHES}, the number of batches")


@dataclass(frozen=True)
class SimEstimate:
    mean: float
    stderr: float
    n: int
    seed: int


@dataclass(frozen=True)
class SteadyStateEstimate(SimEstimate):
    # Little's-law diagnostics over the measurement window (all classes).
    time_avg_in_system: float
    throughput_mean_system_time: float


def _unit_draws(rng: np.random.Generator):
    """Unit-exponential draws from one Generator, fetched ``_DRAW_BLOCK`` at
    a time.

    The block size cannot change a result: numpy fills an array one value at
    a time from the bit stream, so two blocks of 128 give the same numbers
    as 256 at once.
    """
    while True:
        yield from rng.standard_exponential(_DRAW_BLOCK).tolist()


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
    (the ``__next__`` of ``_unit_draws``) for simulation, or 1.0 for the
    constant-rate timeline.
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


def _as_class2(row):
    """A trace row of the relabelled class-1 problem in the caller's class-2
    labels: classes, queue lengths and server classes swap; S = 0 stays."""
    t, kind, j, c, cid, l11, l21, l12, l22, s1, s2 = row
    return (t, kind, j, 3 - c, cid, l21, l11, l22, l12, s1 and 3 - s1, s2 and 3 - s2)


def _conditional_batch(job) -> np.ndarray:
    """Tagged system times of replications ``lo .. hi - 1``, run in lockstep
    on numpy arrays; entry r equals ``_tagged_sojourn`` on the stream
    ``_unit_draws(_rep_rng(seed, lo + r))`` bit for bit.

    Each array holds one quantity of ``_Polling`` across the live rows
    (``n``, ``end``, ``next_arrival`` as ``arrival``, and ``position`` as a
    flag "polled at class 2"), and a step applies the same events, picks and IEEE operations as
    ``_Polling.step``.  Every row keeps its own stream: a ``_DRAW_BLOCK``-wide
    buffer row filled from its own Generator, read in the scalar order
    (arrival class 1, arrival class 2, station-2 start, station-1 start).
    Finished rows leave the arrays; the buffer stays indexed by batch row.
    """
    s, p, seed, lo, hi = job
    width = _DRAW_BLOCK
    rngs = [_rep_rng(seed, rep) for rep in range(lo, hi)]
    draws = np.empty((len(rngs), width))
    for rng, buf in zip(rngs, draws):
        rng.standard_exponential(out=buf)
    flat = draws.reshape(-1)
    # Every row starts from the same snapshot, so the scalar seeding, run
    # once on unit draws, says which servers start and at which class;
    # its draws come in the order station 2, station 1, arrivals.
    net = _Polling(p, lambda: 1.0)
    net.seed_snapshot(s)
    end = [np.full(len(rngs), _INF), np.full(len(rngs), _INF)]
    k = 0
    for j in (1, 0):
        if net.end[j] != _INF:
            end[j] = draws[:, k] / p.mu[net.position[j]][j]
            k += 1
    arrival = [draws[:, k + c] / p.lam[c] for c in (0, 1)]
    n = [[np.full(len(rngs), x) for x in nj] for nj in net.n]
    position = [np.full(len(rngs), c == 1) for c in net.position]
    rows = np.arange(len(rngs))
    nxt = rows * width + (k + 2)        # flat index of each row's next draw
    last = rows * width + (width - 4)   # past it, a step could run off the row
    # Class-1 customers leave station 2 in arrival order, so the tagged one
    # (behind l12 + l11 others) leaves at this many class-1 departures.
    ahead = np.full(len(rngs), s.la[2] + s.la[0] + 1)
    waits = np.empty(len(rngs))
    for _ in range(_STEP_BUDGET):
        for r in np.flatnonzero(nxt > last):
            i = rows[r]
            buf = draws[i]
            used = nxt[r] - i * width
            buf[: width - used] = buf[used:]
            rngs[i].standard_exponential(out=buf[width - used:])
            nxt[r] = i * width
        t = np.minimum(np.minimum(end[1], end[0]), np.minimum(arrival[0], arrival[1]))
        due = t + _TIE
        done = [end[0] <= due, end[1] <= due]
        came = [arrival[0] <= due, arrival[1] <= due]
        # station-2 departures, then hand-offs, then arrivals
        for j in (1, 0):
            cls2 = done[j] & position[j]
            cls1 = done[j] ^ cls2
            n[j][1] -= cls2
            n[j][0] -= cls1
            if j:
                ahead -= cls1
            else:
                n[1][1] += cls2
                n[1][0] += cls1
        n[0][0] += came[0]
        n[0][1] += came[1]
        # exhaustive picks, station 2 first: a free server stays at its
        # class while that class has work, else switches, else idles; so
        # it moves only when exactly one class has work, not its own
        started = []
        for j in (1, 0):
            free = done[j] | (end[j] == _INF)
            has1, has2 = n[j][0] > 0, n[j][1] > 0
            position[j] ^= free & (has1 ^ has2) & (has2 ^ position[j])
            started.append(free & (has1 | has2))
            np.putmask(end[j], free, _INF)
        at = nxt
        for c in (0, 1):
            np.putmask(arrival[c], came[c], arrival[c] + flat[at] / p.lam[c])
            at = at + came[c]
        for j, go in zip((1, 0), started):
            rate = np.where(position[j], p.mu[1][j], p.mu[0][j])
            np.putmask(end[j], go, t + flat[at] / rate)
            at = at + go
        nxt = at
        out = ahead == 0
        if out.any():
            waits[rows[out]] = t[out]  # the scalar's t - 0.0, the same float
            live = ~out
            if not live.any():
                return waits
            rows, nxt, last, ahead = rows[live], nxt[live], last[live], ahead[live]
            n = [[x[live] for x in nj] for nj in n]
            position, end, arrival = ([x[live] for x in v] for v in (position, end, arrival))
    raise NonTermination(f"tagged customer still in system after {_STEP_BUDGET} steps")


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
    departs station 2.  The replications run in lockstep batches of at most
    ``_BATCH_ROWS``.  ``n_jobs`` is the number of worker processes; above 1,
    each takes a contiguous range of replications, and any count gives the
    same result bit for bit.  ``trace``, if a list is supplied, collects the
    event rows of replication 0, run once more through ``_Polling``, in the
    caller's class labels (see ``write_trace``).
    """
    workers = _count(n_jobs)
    if workers < 1:
        raise ValueError(f"n_jobs must be a positive integer, got {n_jobs!r}")
    p = validate_params(p)
    tagged_class = s.tagged_class
    s, p = relabel_for_class2(s, p)
    if trace is not None:
        start = len(trace)
        _tagged_sojourn(s, p, _unit_draws(_rep_rng(c.seed, 0)).__next__, trace)
        if tagged_class == 2:
            trace[start:] = map(_as_class2, trace[start:])
    reps = c.replications
    size = min(_BATCH_ROWS, -(-reps // workers))
    jobs = [(s, p, c.seed, lo, min(lo + size, reps)) for lo in range(0, reps, size)]
    if len(jobs) > 1 and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            waits = np.concatenate(list(pool.map(_conditional_batch, jobs)))
    else:
        waits = np.concatenate([_conditional_batch(job) for job in jobs])
    mean = float(waits.mean())
    stderr = float(waits.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return SimEstimate(mean=mean, stderr=stderr, n=reps, seed=c.seed)


def simulate_steady_state(
    p: SystemParams,
    c: SimConfig = SimConfig(),
    measured_class: int = 1,
) -> SteadyStateEstimate:
    """Long-run mean system time of ``measured_class`` customers.

    One long replication started empty: the first ``warmup_departures``
    system exits are discarded, the next ``horizon_departures`` are kept,
    and the kept ones are split into ``_BATCHES`` (20) batches for the
    standard error.  Little's-law quantities are accumulated over the kept
    window across both classes.
    """
    measured = _member(measured_class, "measured_class", (1, 2)) - 1
    p = validate_params(p)
    net = _Polling(p, _unit_draws(_rep_rng(c.seed, 0)).__next__)
    net.schedule_arrivals()
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
    if kept_arr.shape[0] < _BATCHES:
        raise ValueError(
            f"class {measured + 1} kept {kept_arr.shape[0]} departures, fewer than "
            f"batches = {_BATCHES}; raise horizon_departures"
        )
    usable = (kept_arr.shape[0] // _BATCHES) * _BATCHES
    batches = kept_arr[:usable].reshape(_BATCHES, -1).mean(axis=1)
    mean = float(kept_arr.mean())
    stderr = float(batches.std(ddof=1) / math.sqrt(_BATCHES))
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
