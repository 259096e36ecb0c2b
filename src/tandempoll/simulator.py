"""Discrete-event simulation of the tandem polling network.

``_Polling`` is the package's scalar implementation of the network.  Three
routes use its rules:

* ``simulate_conditional`` starts from the snapshot a tagged customer sees
  (queue lengths plus server positions), runs until the tagged customer's
  last leg is fixed (it sits at station 2, polled at class 1), finishes
  with the mean of what is left, and averages the tagged system time over
  replications (``_run_tagged``).  Its replications run as one lockstep
  numpy batch (``_conditional_batch``) that applies the same rules in the
  same order to each row's first block of draws.  A row leaves it one way:
  resumed from its lockstep state, it finishes alone on ``_Polling``
  itself, once its next step could run past that block or at most
  ``_TAIL_ROWS`` rows are left.  So each
  replication's wait equals ``_Polling``'s bit for bit; a requested trace
  replays replication 0 through ``_Traced`` to its departure, in the
  caller's labels;
* ``simulate_steady_state`` runs one long ``_Polling`` run and estimates the
  long-run mean system time (waiting inclusive of service) of a class via
  batch means, discarding a warm-up prefix; it holds each kept sojourn as
  one packed double, 8 bytes;
* ``deterministic_wait`` runs the tagged customer once through ``_Polling``
  with constant clocks, every duration equal to its mean.

Every route runs on the caller's rates times the power of two that brings
their sum into [8, 16) (``_scaled_rates``) and scales its times back, which
is exact; so the results are scale-free, and the absolute ``_TIE`` window
means the same at any scale.  Events at the same instant: a step advances to
the earliest clock and applies every event due within ``_TIE`` of it, in the
order station-2 completion, station-1 hand-off, class-1 arrival, class-2
arrival; only then
does each freed or idle server pick its next job, station 2 first.  Under
constant clocks this makes a hand-off that lands exactly when the downstream
server finishes count as available work, as zero switchover requires.  The
rule cannot change a stochastic result: two exponential clocks land within
``_TIE`` of each other with negligible probability, so in practice each step
applies one event, drawing in the order of a one-event-per-step loop.

Replication r of ``simulate_conditional`` takes its first ``_DRAW_BLOCK``
unit-exponential draws from one stream per call, ``default_rng(seed)``
(``_blocks``): draws ``r * _DRAW_BLOCK`` on, row r of a block each batch
draws at once.  From its ``_DRAW_BLOCK + 1``-th draw on it reads its own
stream, numpy's ``SeedSequence(seed, spawn_key=(r,))``, distinct from the
block stream, whose SeedSequence has no spawn key.  So a result depends on
(seed, replication) alone, whatever the batching.  One builder, ``_rngs``,
makes every per-replication stream from numpy's own SeedSequence, hashing
none by hand, and only when it is first read: a resumed row builds its own
only if it reads past its block row, about 3 rows of an 800-replication
call.  The steady-state run and the traced replay, after its block row, take
replication 0's.  The scalar engine fetches draws ``_DRAW_BLOCK`` at a time
(``_unit_draws``), which cannot change a result.
A tagged run whose clock passes the largest float raises
``NonPositiveRate``, as do rates too far apart for one float scale.

``_Polling.run`` is the one scalar event loop, about three steps per
steady-state departure: each steady-state run, timeline and resumed row is
one call, which keeps the clocks, the time, the id counter and the rates in
locals and writes the state back once.  It applies both exhaustive picks
inline rather than through ``_pick``; ``step`` is its one-step form.
"""

from __future__ import annotations

import logging
import math
import sys
from array import array
from collections import Counter, deque
from dataclasses import dataclass, fields
from itertools import chain, repeat

import numpy as np

from .errors import NonPositiveRate, NonTermination
from .model import ArrivalState, SystemParams, _count, _member, _shown, relabel_for_class2, validate_params

__all__ = [
    "SimConfig",
    "SimEstimate",
    "SteadyStateEstimate",
    "deterministic_wait",
    "simulate_conditional",
    "simulate_steady_state",
    "write_trace",
]

_log = logging.getLogger(__name__)
_INF = math.inf
_TIE = 1e-12
# Steps a tagged-customer run may take before it raises NonTermination.
_STEP_BUDGET = 1_000_000
# Unit-exponential draws fetched from a Generator at once.
_DRAW_BLOCK = 128
# Replications one lockstep batch runs at most, which bounds its memory.
_BATCH_ROWS = 8192
# Live rows at or below which a lockstep batch finishes them one by one on
# the scalar engine.  A lockstep step costs about 55 us plus 0.3 us per live
# row, a scalar step about 1 us; a sim-conditional pass is about as fast
# anywhere from 32 to 96 rows (ROADMAP item 3 gives the sweep).
_TAIL_ROWS = 40
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
                raise ValueError(f"{f.name} must be a non-negative integer, got {_shown(value)}")
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
    """An endless iterator of unit-exponential draws (Python floats) from one
    Generator, fetched ``_DRAW_BLOCK`` at a time.

    The block size cannot change a result: numpy fills an array one value at
    a time from the bit stream, so two blocks of 128 give the same numbers
    as 256 at once.  The iterator is built of ``itertools`` and ``map``
    objects, so its ``__next__`` runs in C and resumes no Python frame, which
    a generator would on every draw.
    """
    return chain.from_iterable(map(np.ndarray.tolist, map(rng.standard_exponential, repeat(_DRAW_BLOCK))))


class _Polling:
    """One realisation of the two-station exhaustive polling network.

    The state is ``n[j][c]``, the number of class-c customers at station j
    (indices from 0) counting the one in service, and one FIFO of (customer
    id, arrival time) per class.  Both stations serve a class first come,
    first served, so station 2's class-c customers are always the oldest
    ``n[1][c]`` of the class: a hand-off moves one count, and the customer
    leaving station 2 is the head of its class's FIFO.  A server is idle
    exactly when its completion time ``end[j]`` is infinite.  Customers
    take the ids 1, 2, ... in order of entry, so the head count is
    ``next_cid`` less ``departures``, as ``len(fifo[0]) + len(fifo[1])``
    also gives.  ``run`` also totals the ``steps``, the head count's time
    integral ``area`` and the departures' system times ``waited``.

    Each duration is ``draw()`` divided by its rate: a unit exponential
    (the ``__next__`` of the C-level iterator ``_unit_draws`` returns) for
    simulation, or 1.0 for the constant-rate timeline.  Tracing lives in
    the subclass ``_Traced``.
    """

    def __init__(self, p: SystemParams, draw):
        self.lam = p.lam
        self.mu = p.mu
        self.draw = draw
        self.n = [[0, 0], [0, 0]]
        self.fifo = (deque(), deque())
        self.end = [_INF, _INF]          # completion times, _INF = idle
        self.position = [0, 0]           # class the server is polled at
        self.next_arrival = [_INF, _INF]
        self.t = 0.0
        self.next_cid = self.steps = self.departures = 0
        self.area = self.waited = 0.0

    def _pick(self, j: int) -> None:
        """Exhaustive polling: stay on the current class while station j has
        work of it, else switch (zero switchover), else idle where it is.

        Only ``seed_snapshot`` calls it; ``run`` inlines the same rule with
        the same operations and draw order."""
        n = self.n[j]
        c = self.position[j]
        if not n[c]:
            c = 1 - c
            if not n[c]:
                self.end[j] = _INF
                return
            self.position[j] = c
        self.end[j] = self.t + self.draw() / self.mu[c][j]

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
        return self.next_cid

    def resume(self, n, end, arrival, position, ahead: int) -> int:
        """Take up a run mid-way, in a lockstep row's state (``n``, ``end``,
        ``arrival`` as ``next_arrival`` and ``position``), with the tagged
        customer ``ahead`` class-1 departures from leaving; returns its id, 0.

        Only the tagged customer's departure is read, so the FIFOs hold
        placeholders for everyone else: ``ahead - 1`` class-1 ones before the
        tagged customer, and one per class-2 customer present.  Its arrival
        time is 0.0, so its system time is the clock at which it leaves.
        """
        self.n, self.end, self.next_arrival, self.position = n, end, arrival, position
        other = (None, 0.0)
        self.fifo = (deque([other] * (ahead - 1) + [(0, 0.0)]), deque([other] * (n[0][1] + n[1][1])))
        return 0

    def schedule_arrivals(self) -> None:
        for c in (0, 1):
            self.next_arrival[c] = self.t + self.draw() / self.lam[c]

    def step(self):
        """``run``'s one-step form: (cid, class index, system time) when a
        customer leaves station 2, else None."""
        return self.run(1, target=self.departures + 1)

    def run(self, steps: int, *, tagged_id=-1, cut=False, target=-1, measured=None, keep=None):
        """Apply up to ``steps`` steps of events; returns None if they pass,
        else what ends the run first: the departure (cid, class index, system
        time) of ``tagged_id``, of anyone at an infinite clock, or the one
        that brings ``departures`` to ``target``; or, given ``cut``, a step
        after which the tagged customer, ``ahead`` class-1 departures from
        leaving, sits at station 2 polled at class 1 (``_run_tagged``):
        (``tagged_id``, None, the clock plus ``ahead / mu12``).  A departure
        of class ``measured`` passes its system time to ``keep``.  The state
        is written back once, also when a step raises (it pops an empty queue
        only at an infinite clock)."""
        (lam1, lam2), ((mu11, mu12), (mu21, mu22)) = self.lam, self.mu
        (e1, e2), (a1, a2) = self.end, self.next_arrival
        (n1, n2), pos, fifo, draw = self.n, self.position, self.fifo, self.draw
        push1, push2 = fifo[0].append, fifo[1].append
        t, cid, departed, area, waited = self.t, self.next_cid, self.departures, self.area, self.waited
        ahead, out, k = len(fifo[0]), None, -1  # the tagged customer is the class-1 FIFO's last
        try:
            for k in range(steps):
                now = e2  # explicit compares: several times cheaper than min()
                if e1 < now:
                    now = e1
                if a1 < now:
                    now = a1
                if a2 < now:
                    now = a2
                area += (cid - departed) * (now - t)
                t = now
                due = t + _TIE
                done2 = e2 <= due
                if done2:
                    gone = pos[1]
                    who, arrived = fifo[gone].popleft()
                    n2[gone] -= 1
                    w = t - arrived
                    departed += 1
                    waited += w
                    ahead -= not gone
                    if gone == measured:
                        keep(w)
                done1 = e1 <= due
                if done1:
                    c = pos[0]
                    n1[c] -= 1
                    n2[c] += 1
                if a1 <= due:
                    cid += 1
                    push1((cid, t))
                    n1[0] += 1
                    a1 += draw() / lam1
                if a2 <= due:
                    cid += 1
                    push2((cid, t))
                    n1[1] += 1
                    a2 += draw() / lam2
                if done2 or e2 == _INF:
                    c = pos[1]
                    if not n2[c] and n2[1 - c]:
                        c = pos[1] = 1 - c
                    e2 = t + draw() / (mu22 if c else mu12) if n2[c] else _INF
                if done1 or e1 == _INF:
                    c = pos[0]
                    if not n1[c] and n1[1 - c]:
                        c = pos[0] = 1 - c
                    e1 = t + draw() / (mu21 if c else mu11) if n1[c] else _INF
                if done2 and (departed == target or who == tagged_id or t == _INF):
                    out = who, gone, w
                    break
                if cut and ahead <= n2[0] and not pos[1]:
                    out = tagged_id, None, t + ahead / mu12
                    break
        finally:
            self.end[:], self.next_arrival[:] = (e1, e2), (a1, a2)
            self.t, self.next_cid, self.departures, self.area, self.waited = t, cid, departed, area, waited
            self.steps += k + 1
        return out


class _Traced(_Polling):
    """``_Polling`` that appends trace rows (see ``write_trace``) to ``trace``
    in the caller's class labels; ``swap`` is 1 for a class-2 caller, whose
    problem was relabelled.  It runs ``_Polling.run`` one step at a time and
    reads each step's rows off the state around it, so each shows the
    post-step snapshot (S = 0: idle server), in the order depart, transfer,
    arrivals, starts."""

    def __init__(self, p: SystemParams, draw, trace, swap: int):
        super().__init__(p, draw)
        self.trace = trace
        self.swap = swap

    def _in_service(self, j: int) -> int:
        """Id of the customer in service at busy station j."""
        c = self.position[j]
        return self.fifo[c][self.n[1][c] if j == 0 else 0][0]

    def _write(self, rows) -> None:
        x = self.swap
        n1, n2 = self.n
        s1, s2 = (0 if e == _INF else (c ^ x) + 1 for e, c in zip(self.end, self.position))
        for kind, j, c, cid in rows:
            self.trace.append((self.t, kind, j + 1, (c ^ x) + 1, cid, n1[x], n1[1 - x], n2[x], n2[1 - x], s1, s2))

    def seed_snapshot(self, s: ArrivalState) -> int:
        tagged_id = super().seed_snapshot(s)
        self._write([("init", 0, 0, tagged_id)])
        return tagged_id

    def run(self, steps: int, **stop):
        for _ in range(steps):
            end, arrival, cid = self.end[:], self.next_arrival[:], self.next_cid
            held = [(self.position[j], self._in_service(j)) if end[j] != _INF else None for j in (0, 1)]
            out = super().run(1, **stop)
            if self.t != _INF:  # else held may be None, and _run_tagged raises
                due = self.t + _TIE
                rows = [(kind, j, *held[j]) for kind, j in (("depart", 1), ("transfer", 0)) if end[j] <= due]
                for c in (0, 1):
                    if arrival[c] <= due:
                        cid += 1
                        rows.append(("arrival", 0, c, cid))
                rows += [("start", j, self.position[j], self._in_service(j)) for j in (1, 0)
                         if (end[j] <= due or end[j] == _INF) and self.end[j] != _INF]
                self._write(rows)
            if out is not None:
                return out
        return None


def _run_tagged(net: _Polling, tagged_id: int, steps: int, cut: bool = False) -> tuple[float, bool]:
    """Run ``net`` until customer ``tagged_id`` leaves station 2; returns
    its system time and whether it was finished in expectation.

    Given ``cut``, the run ends as soon as a step leaves the tagged customer
    at station 2 with station 2 polled at class 1: service is exhaustive and
    first come, first served, and services are memoryless, so from there it
    leaves after ``ahead`` fresh Exp(mu12) services, ``ahead`` counting the
    class-1 departures left, its own included.  The clock plus their mean,
    ``ahead / mu12``, is an unbiased wait of no larger variance (conditional
    Monte Carlo).  Constant clocks have memory, and a trace shows the whole
    path, so ``deterministic_wait`` and the traced replay run to the
    departure.

    Raises ``NonTermination`` if ``steps`` steps do not end the run (a
    resumed lockstep row gets what is left of ``_STEP_BUDGET``), and
    ``NonPositiveRate`` if the clock passes the largest float first: from
    there every event is due at once, so a step departs, pops an empty
    queue, or reaches the cut and returns inf, which
    ``simulate_conditional`` refuses."""
    try:
        out = net.run(steps, tagged_id=tagged_id, cut=cut)
    except IndexError:  # a step pops an empty queue only at an inf clock
        if net.t != _INF:
            raise
    else:
        if out is None:
            raise NonTermination(f"tagged customer still in system after {_STEP_BUDGET} steps")
        if out[1] is None or net.t != _INF:
            return out[2], out[1] is None
    raise NonPositiveRate("the clock passed the largest float, 1.8e308, before the tagged customer left")


def _scaled_rates(p: SystemParams) -> tuple[SystemParams, int]:
    """(``p`` on its rates times 2**k, k): the power of two that brings the
    rates' sum into [8, 16), where the paper's rate sets (lam = 1, mu from
    2.22 to 2.86) already lie.  Every route runs on these rates, so ``_TIE``
    means the same at any scale, and every time comes out divided by 2**k
    exactly (``_unscaled`` takes it back).  Raises ``NonPositiveRate`` for
    rates more than about 2**1025 apart, whose smallest would fall below the
    normal float range there and lose its precision or become 0."""
    (lam1, lam2), ((mu11, mu12), (mu21, mu22)) = p.lam, p.mu
    rates = (lam1, lam2, mu11, mu12, mu21, mu22)
    k = 4 - math.frexp(sum(rates))[1]
    c = 2.0**k
    if min(rates) * c < sys.float_info.min:
        raise NonPositiveRate(f"rates from {min(rates)!r} to {max(rates)!r} lie too far apart to simulate: scaled to "
                              f"sum into [8, 16), the smallest falls below {sys.float_info.min!r}")
    return SystemParams(lam=(lam1 * c, lam2 * c), mu=((mu11 * c, mu12 * c), (mu21 * c, mu22 * c))), k


def _unscaled(t: float, k: int) -> float:
    """A tagged run's time on ``_scaled_rates`` in the caller's units: ``t``
    times 2**k, exact as ``math.ldexp``; raises ``NonPositiveRate`` past the
    largest float."""
    t *= 2.0**k
    if t == _INF:
        raise NonPositiveRate("the clock passed the largest float, 1.8e308, before the tagged customer left")
    return t


def deterministic_wait(s: ArrivalState, p: SystemParams) -> float:
    """Exact system time of the tagged customer when every class-i
    interarrival time is 1/lam_i (the first arrival at 1/lam_i) and every
    class-i service at station j takes 1/mu_ij, a full one for a customer in
    service at t = 0.  Raises ``NonTermination`` past the step budget."""
    p = validate_params(p)
    s, p = relabel_for_class2(s, p)
    p, k = _scaled_rates(p)
    net = _Polling(p, lambda: 1.0)
    wait = _unscaled(_run_tagged(net, net.seed_snapshot(s), _STEP_BUDGET)[0], k)
    _log.debug("deterministic steps=%d", net.steps)
    return wait


def _rngs(seed: int, rep: int):
    """Replication ``rep``'s own stream, built when first asked for: a
    generator that, on its first resume, builds numpy's
    ``Generator(PCG64(SeedSequence(seed, spawn_key=(rep,))))`` and yields its
    ``_unit_draws`` once.  The one builder of per-replication streams, and
    none is hashed by hand.  Under ``chain.from_iterable`` a conditional
    replication, which reads its own stream only after its first
    ``_DRAW_BLOCK`` draws, builds it only if it reads that far; the
    steady-state run and the traced replay take replication 0's."""
    yield _unit_draws(np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(rep,)))))


def _blocks(seed: int, lo: int = 0) -> np.random.Generator:
    """The call's block stream, ``default_rng(seed)``, past the first blocks
    of replications below ``lo``: its draws ``r * _DRAW_BLOCK`` on are
    replication r's first ``_DRAW_BLOCK``.  ``SeedSequence(seed)`` has no
    spawn key, so this stream is none of ``_rngs``'."""
    blocks = np.random.default_rng(seed)
    blocks.standard_exponential((lo, _DRAW_BLOCK))
    return blocks


def _draws(first: np.ndarray, seed: int, rep: int):
    """Replication ``rep``'s draw function: the rest of its first block
    ``first``, then its own stream (``_rngs``), built only once ``first``
    runs out.  Each draw is the ``__next__`` of C-level iterators, which
    resume no Python frame."""
    return chain(first.tolist(), chain.from_iterable(_rngs(seed, rep))).__next__


def _conditional_batch(s: ArrivalState, p: SystemParams, seed: int, lo: int, hi: int, tally=None,
                       blocks=None) -> np.ndarray:
    """Tagged system times of replications ``lo .. hi - 1``, run in lockstep
    on numpy arrays and finished on the scalar engine; entry r equals
    ``_run_tagged`` with the cut from the snapshot on replication
    ``lo + r``'s draws bit for bit, whatever batch holds it: its row of the
    block stream ``blocks`` (by default ``_blocks(seed, lo)``, which must
    stand at replication ``lo``'s row), then its own stream (``_rngs``).
    A ``tally`` Counter gains the lockstep steps, the rows resumed and the
    rows finished in expectation.

    Each array holds one quantity of ``_Polling`` across the live rows
    (``n``, ``end``, ``next_arrival`` as ``arrival``, and ``position`` as a
    flag "polled at class 2"), and a step applies ``_Polling.run``'s events,
    picks and IEEE operations to each row's first ``_DRAW_BLOCK`` draws: a
    buffer of ``hi - lo`` rows, drawn from ``blocks`` in one call, read in
    the scalar order (arrival class 1, arrival class 2, station-2 start,
    station-1 start).  A row ends where ``_run_tagged`` would finish it in
    expectation, with the same operations.  Rows that leave drop out of the
    arrays, not out of the buffer.

    A row that has not finished leaves the lockstep one way, ``finish``: it
    goes on alone on a ``_Polling`` in its state (``resume``), drawing the
    rest of its buffer row, then its own stream, built by ``_rngs`` only if
    the row reads past its buffer row (``_draws``), through ``_run_tagged``
    with what is left of the step budget.  Live rows are compacted with one
    integer index, taken once per step that drops rows.  So
    goes a row whose next step could run past its buffer row, and every live
    row once at most ``_TAIL_ROWS`` are live or the budget is spent.
    """
    width, size = _DRAW_BLOCK, hi - lo
    if blocks is None:
        blocks = _blocks(seed, lo)
    draws = blocks.standard_exponential((size, width))
    flat = draws.reshape(-1)
    # Every row starts from the same snapshot, so the scalar seeding runs
    # once on whole columns of draws: each clock it sets is a per-row array
    # (or _INF for an idle server), and ``taken`` ends at the first unread
    # column.
    taken = iter(range(width))
    net = _Polling(p, lambda: draws[:, next(taken)])
    net.seed_snapshot(s)
    end, arrival = ([np.full(size, x) for x in v] for v in (net.end, net.next_arrival))
    n = [[np.full(size, x) for x in nj] for nj in net.n]
    position = [np.full(size, c == 1) for c in net.position]
    rows = np.arange(size)
    nxt = rows * width + next(taken)    # flat index of each row's next draw
    last = rows * width + (width - 4)   # past it, a step could run off the row
    # Class-1 customers leave station 2 in arrival order, so the tagged one
    # (behind l12 + l11 others) leaves at this many class-1 departures.
    ahead = np.full(size, s.la[2] + s.la[0] + 1)
    mu12 = p.mu[0][1]
    waits = np.empty(size)
    resumed = expected = 0

    def finish(go):
        """Run the rows ``go`` flags to their end on the scalar engine."""
        nonlocal resumed, expected
        state = [v[go].tolist() for v in (rows, nxt, ahead, *n[0], *n[1], *end, *arrival, *position)]
        for i, at, k, *x in zip(*state):
            net = _Polling(p, _draws(draws[i, at - i * width:], seed, lo + i))
            tagged_id = net.resume([x[0:2], x[2:4]], x[4:6], x[6:8], [int(c) for c in x[8:]], k)
            waits[i], cut = _run_tagged(net, tagged_id, _STEP_BUDGET - steps, True)
            resumed += 1
            expected += cut

    steps = 0
    while len(rows) > _TAIL_ROWS and steps < _STEP_BUDGET:
        steps += 1
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
        out = (ahead <= n[1][0]) & ~position[1]  # finished in expectation
        gone = out | (nxt > last)
        if gone.any():
            waits[rows[out]] = t[out] + ahead[out] / mu12
            expected += np.count_nonzero(out)
            far = gone ^ out
            if far.any():
                finish(far)
            live = np.flatnonzero(~gone)
            rows, nxt, last, ahead = rows[live], nxt[live], last[live], ahead[live]
            n = [[x[live] for x in nj] for nj in n]
            position, end, arrival = ([x[live] for x in v] for v in (position, end, arrival))
    finish(np.full(len(rows), True))
    if tally is not None:
        tally.update(steps=steps, resumed=resumed, expected=expected)
    return waits


def _scale_down(x: np.ndarray) -> int:
    """Multiply ``x`` in place by 2**-e and return e, the ``math.frexp``
    exponent of its largest entry.  The scaled entries lie below 1, so their
    squares cannot overflow, and since the scale is a power of two, a mean
    or standard error of them times 2**e (``math.ldexp``) is the unscaled
    one bit for bit, as long as no scaled entry falls below the normal range."""
    e = math.frexp(x.max())[1]
    np.ldexp(x, -e, out=x)
    return e


def simulate_conditional(
    s: ArrivalState,
    p: SystemParams,
    c: SimConfig = SimConfig(),
    n_jobs: int = 1,
    trace=None,
) -> SimEstimate:
    """Tagged-customer mean system time from snapshot ``s``.

    Each replication re-creates the snapshot, injects the tagged customer at
    the tail of its class queue at station 1, and runs until that customer's
    last leg is fixed, which it finishes in expectation (``_run_tagged``).
    The replications run in the caller's process, in lockstep batches of at
    most ``_BATCH_ROWS``, which take their rows' first ``_DRAW_BLOCK`` draws
    in turn from the call's one block stream (``_blocks``); a row whose next
    step could run past them, and each batch's last ``_TAIL_ROWS`` rows,
    finish on the scalar engine.  A clock that passes the largest float, or
    rates too far apart to scale (``_scaled_rates``), raise
    ``NonPositiveRate``.
    ``n_jobs`` must be a positive integer and is otherwise ignored, as
    results never depended on it; it stays only for ``perfbench/``, until
    ROADMAP item 13 removes it.
    ``trace``, if a list is supplied, collects the event rows of replication
    0, run once more on its draws through ``_Traced`` to its departure, past
    the step at which its wait was finished in expectation, which writes
    them in the caller's class labels (see ``write_trace``).  Each call logs
    one ``DEBUG`` record: the seed, the replications, the lockstep steps,
    the rows resumed on the scalar engine and the share of replications
    finished in expectation.
    """
    if _count(n_jobs) < 1:
        raise ValueError(f"n_jobs must be a positive integer, got {_shown(n_jobs)}")
    p = validate_params(p)
    tagged_class = s.tagged_class
    s, p = relabel_for_class2(s, p)
    p, k = _scaled_rates(p)
    if trace is not None:
        start = len(trace)
        draw = _draws(_blocks(c.seed).standard_exponential(_DRAW_BLOCK), c.seed, 0)
        net = _Traced(p, draw, trace, tagged_class - 1)
        _run_tagged(net, net.seed_snapshot(s), _STEP_BUDGET)
        trace[start:] = [(_unscaled(t, k), *row) for t, *row in trace[start:]]
    reps = c.replications
    # A lockstep clock overflows to inf as the scalar's does, so each row
    # still matches the scalar engine.  At an inf clock every event is due at
    # once: the row leaves with an inf wait, which raises below, or within
    # _DRAW_BLOCK / 2 steps goes on alone, where _run_tagged raises or
    # finishes it with an inf wait.
    tally = Counter()
    blocks = _blocks(c.seed)
    with np.errstate(over="ignore"):
        waits = np.concatenate([
            _conditional_batch(s, p, c.seed, lo, min(lo + _BATCH_ROWS, reps), tally, blocks)
            for lo in range(0, reps, _BATCH_ROWS)
        ])
    _unscaled(float(waits.max()), k)
    _log.debug("conditional seed=%d replications=%d lockstep steps=%d resumed=%d finished in expectation %.4f",
               c.seed, reps, tally["steps"], tally["resumed"], tally["expected"] / reps)
    e = _scale_down(waits) + k
    mean = math.ldexp(float(waits.mean()), e)
    stderr = math.ldexp(float(waits.std(ddof=1) / math.sqrt(reps)), e) if reps > 1 else 0.0
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
    standard error.  A kept sojourn of the measured class costs 8 bytes: the
    run packs them into one ``array('d')``, which numpy reads in place.
    Little's-law quantities are accumulated over the kept window across
    both classes.

    The run takes the rates times 2**k (``_scaled_rates``): the mean and
    standard error are scaled back by 2**k, and the two diagnostics, which
    have no time unit, stay finite where the unscaled head-count area and
    sojourn sum would pass the float range.
    """
    measured = _member(measured_class, "measured_class", (1, 2)) - 1
    p, k = _scaled_rates(validate_params(p))
    net = _Polling(p, next(_rngs(c.seed, 0)).__next__)
    net.schedule_arrivals()
    kept, area0, time0 = array("d"), 0.0, 0.0
    target = c.warmup_departures + c.horizon_departures
    try:
        if c.warmup_departures:
            net.run(sys.maxsize, target=c.warmup_departures)
            # the window's area is a difference of totals; its system times are summed afresh
            area0, time0, net.waited = net.area, net.t, 0.0
        net.run(sys.maxsize, target=target, measured=measured, keep=kept.append)
    except IndexError:  # a step pops an empty queue only once the clock is inf
        pass
    if net.t * 2.0**k == _INF:
        raise NonPositiveRate(f"the clock passed the largest float, 1.8e308, before {target} departures")
    kept_arr = np.frombuffer(kept)
    if kept_arr.shape[0] < _BATCHES:
        raise ValueError(
            f"class {measured + 1} kept {kept_arr.shape[0]} departures, fewer than "
            f"batches = {_BATCHES}; raise horizon_departures"
        )
    e = _scale_down(kept_arr) + k
    usable = (kept_arr.shape[0] // _BATCHES) * _BATCHES
    batches = kept_arr[:usable].reshape(_BATCHES, -1).mean(axis=1)
    mean = math.ldexp(float(kept_arr.mean()), e)
    stderr = math.ldexp(float(batches.std(ddof=1) / math.sqrt(_BATCHES)), e)
    _log.debug("steady seed=%d steps=%d warm-up=%d kept=%d measured class=%d",
               c.seed, net.steps, c.warmup_departures, kept_arr.shape[0], measured + 1)
    return SteadyStateEstimate(
        mean=mean,
        stderr=stderr,
        n=kept_arr.shape[0],
        seed=c.seed,
        time_avg_in_system=(net.area - area0) / (net.t - time0),
        throughput_mean_system_time=(p.lam[0] + p.lam[1]) * (net.waited / c.horizon_departures),
    )


def write_trace(rows, path) -> None:
    """Write trace rows collected by ``simulate_conditional`` as pipe-
    delimited text, one event per line (see the README's "Traces")."""
    with open(path, "w") as fh:
        fh.write("time|kind|station|class|cid|L11|L21|L12|L22|S1|S2\n")
        for r in rows:
            fh.write("|".join(str(x) for x in r) + "\n")
