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
  batch means, discarding a warm-up prefix;
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
makes every per-replication stream: those of the rows the batch resumes,
and replication 0's for the steady-state run and, after its block row, for
the traced replay.  It seeds numpy's PCG64 from the words ``_stream_words``
hashes, and builds no SeedSequence.  The scalar engine fetches draws
``_DRAW_BLOCK`` at a time (``_unit_draws``), which cannot change a result.
A tagged run whose clock passes the largest float raises
``NonPositiveRate``, as do rates too far apart for one float scale.

``_Polling.step`` is the scalar hot loop: it runs about three times per
departure of a steady-state run and once per event of every timeline and
trace.  It applies both exhaustive picks inline rather than through
``_pick``, and draws through the ``__next__`` of a C-level iterator.
"""

from __future__ import annotations

import logging
import math
import sys
from collections import Counter, deque
from dataclasses import dataclass, fields
from itertools import chain, permutations, repeat

import numpy as np

from .errors import NonPositiveRate, NonTermination
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
    ``next_cid`` less the departures so far, as ``len(fifo[0]) +
    len(fifo[1])`` also gives; the engine keeps no time averages, which
    ``simulate_steady_state`` accumulates itself from that difference.

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
        self.next_cid = 0

    def _pick(self, j: int) -> None:
        """Exhaustive polling: stay on the current class while station j has
        work of it, else switch (zero switchover), else idle where it is.

        Only ``seed_snapshot`` calls it; ``step`` inlines the same rule with
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
        """Apply the events at the earliest clock (see the module docstring);
        returns (cid, class index, system time) when a customer leaves
        station 2, else None.

        The clocks are read once into locals, and each freed or idle server
        picks by ``_pick``'s rule written out inline, station 2 first: the
        step is the simulation's hot loop, where a method call per pick is
        a large share of the cost.
        """
        end, arrival = self.end, self.next_arrival
        e1, e2 = end
        a1, a2 = arrival
        t = e2  # explicit compares: several times cheaper than min()
        if e1 < t:
            t = e1
        if a1 < t:
            t = a1
        if a2 < t:
            t = a2
        self.t = t
        due = t + _TIE
        n1, n2 = self.n
        pos = self.position
        draw = self.draw
        out = None
        done2 = e2 <= due
        if done2:
            c = pos[1]
            cid, arr = self.fifo[c].popleft()
            n2[c] -= 1
            out = cid, c, t - arr
        done1 = e1 <= due
        if done1:
            c = pos[0]
            n1[c] -= 1
            n2[c] += 1
        if a1 <= due:
            self.next_cid += 1
            self.fifo[0].append((self.next_cid, t))
            n1[0] += 1
            arrival[0] = a1 + draw() / self.lam[0]
        if a2 <= due:
            self.next_cid += 1
            self.fifo[1].append((self.next_cid, t))
            n1[1] += 1
            arrival[1] = a2 + draw() / self.lam[1]
        if done2 or e2 == _INF:
            c = pos[1]
            if not n2[c] and n2[1 - c]:
                c = pos[1] = 1 - c
            end[1] = t + draw() / self.mu[c][1] if n2[c] else _INF
        if done1 or e1 == _INF:
            c = pos[0]
            if not n1[c] and n1[1 - c]:
                c = pos[0] = 1 - c
            end[0] = t + draw() / self.mu[c][0] if n1[c] else _INF
        return out


class _Traced(_Polling):
    """``_Polling`` that appends trace rows (see ``write_trace``) to ``trace``
    in the caller's class labels; ``swap`` is 1 for a class-2 caller, whose
    problem was relabelled.  A step's rows are read off the clocks around the
    unchanged ``_Polling.step``, so each shows the post-step snapshot (S = 0:
    idle server), in the order depart, transfer, arrivals, starts."""

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

    def step(self):
        end, arrival, cid = self.end[:], self.next_arrival[:], self.next_cid
        held = (self.position[0], self._in_service(0)) if end[0] != _INF else None
        out = super().step()
        if self.t == _INF:  # held may be None; _run_tagged raises
            return out
        due = self.t + _TIE
        rows = [] if out is None else [("depart", 1, out[1], out[0])]
        if end[0] <= due:
            rows.append(("transfer", 0, *held))
        for c in (0, 1):
            if arrival[c] <= due:
                cid += 1
                rows.append(("arrival", 0, c, cid))
        for j in (1, 0):
            if (end[j] <= due or end[j] == _INF) and self.end[j] != _INF:
                rows.append(("start", j, self.position[j], self._in_service(j)))
        self._write(rows)
        return out


def _tagged_sojourn(s: ArrivalState, p: SystemParams, draw, trace=None, swap: int = 0) -> float:
    """System time of the tagged customer from snapshot ``s`` (relabelled,
    validated parameters), run to its departure; raises ``NonTermination``
    past the step budget."""
    net = _Polling(p, draw) if trace is None else _Traced(p, draw, trace, swap)
    return _run_tagged(net, net.seed_snapshot(s), _STEP_BUDGET)[0]


def _run_tagged(net: _Polling, tagged_id: int, steps: int, mu12=None) -> tuple[float, bool]:
    """Step ``net`` until customer ``tagged_id`` leaves station 2; returns
    its system time and whether it was finished in expectation.

    Given ``mu12``, the run ends as soon as a step leaves the tagged customer
    at station 2 with station 2 polled at class 1: service is exhaustive and
    first come, first served, and services are memoryless, so from there it
    leaves after ``ahead`` fresh Exp(mu12) services, ``ahead`` counting the
    class-1 departures left, its own included.  The clock plus their mean,
    ``ahead / mu12``, is an unbiased wait of no larger variance (conditional
    Monte Carlo).  ``ahead`` starts at the class-1 FIFO's length, as the
    tagged customer is its last; constant clocks have memory, and a trace
    shows the whole path, so ``deterministic_wait`` and the traced replay
    pass None and run to the departure.

    Raises ``NonTermination`` if ``steps`` steps do not end the run (a row
    resumed from the lockstep gets what its lockstep steps left of
    ``_STEP_BUDGET``), and ``NonPositiveRate`` if the clock passes the
    largest float first.  From there every event is due at once, so each
    step has a departure or pops an empty queue, or reaches the cut and
    returns inf, which ``simulate_conditional`` refuses."""
    ahead = len(net.fifo[0])
    n2, position = net.n[1], net.position
    try:
        for _ in range(steps):
            out = net.step()
            if out is not None:
                if out[0] == tagged_id or net.t == _INF:
                    break
                ahead -= not out[1]
            if mu12 is not None and ahead <= n2[0] and not position[1]:
                return net.t + ahead / mu12, True
        else:
            raise NonTermination(f"tagged customer still in system after {_STEP_BUDGET} steps")
    except IndexError:  # a step pops an empty queue only at an inf clock
        if net.t != _INF:
            raise
    if net.t == _INF:
        raise NonPositiveRate("the clock passed the largest float, 1.8e308, before the tagged customer left")
    return out[2], False


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
    return _unscaled(_tagged_sojourn(s, p, lambda: 1.0), k)


def _hash(h: int, mult: int):
    """SeedSequence's hash step on ``uint32`` arrays; its constant ``h``
    advances on every call whatever the data."""
    def step(v):
        nonlocal h
        v = v ^ h
        h = h * mult & 0xFFFFFFFF
        v = v * h
        return v ^ v >> 16
    return step


def _mix(x, y):
    r = 0xCA01F9DD * x - 0x4973F715 * y
    return r ^ r >> 16


def _stream_words(seed: int, reps) -> np.ndarray:
    """Row r holds ``SeedSequence(seed, spawn_key=(reps[r],)).generate_state(4,
    np.uint64)`` for replication indices ``reps`` below 2**64, in any order.
    SeedSequence mixes its entropy (the seed's 32-bit words, low first and
    zero-padded to 4, then the index: one word below 2**32, two from there)
    into a pool of 4 words and hashes the pool into 8 output words, with
    constants that never depend on the data; so the same steps on ``uint32``
    columns hash every row at once, mixing in a high word only where there is
    one.  Rows are C-contiguous, as PCG64 reads the words through the data
    pointer."""
    words = [seed >> k & 0xFFFFFFFF for k in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.array([w], np.uint32) for w in words + [0] * (4 - len(words))]
    reps = np.array(reps, dtype=np.uint64)
    entropy.append(reps.astype(np.uint32))
    hashmix = _hash(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in entropy[:4]]
    for i, j in permutations(range(4), 2):
        pool[j] = _mix(pool[j], hashmix(pool[i]))
    for w in entropy[4:]:
        pool = [_mix(x, hashmix(w)) for x in pool]
    high = reps >> 32
    if high.any():  # indices below 2**32 skip this
        pool = [np.where(high > 0, _mix(x, hashmix(high.astype(np.uint32))), x) for x in pool]
    out = _hash(0x8B51F9DD, 0x58F38DED)
    return np.stack([out(pool[i % 4]) for i in range(8)], axis=1).astype("<u4").view("<u8").astype(np.uint64)


def _rngs(seed: int, reps) -> list:
    """The Generators of replications ``reps``, a sequence of indices: numpy's
    PCG64 seeded from ``_stream_words``, so each draws the stream
    ``SeedSequence(seed, spawn_key=(rep,))`` gives it, with none built.  The
    one builder of per-replication streams.  A conditional replication reads
    its own only after its first ``_DRAW_BLOCK`` draws, so the lockstep batch
    builds those of the rows it resumes alone; the steady-state run and the
    traced replay take replication 0's."""
    class Words(np.random.bit_generator.ISeedSequence):  # here, as it loads numpy.random
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for (4, np.uint64) alone
    return [np.random.Generator(np.random.PCG64(Words(w))) for w in _stream_words(seed, reps)]


def _blocks(seed: int, lo: int = 0) -> np.random.Generator:
    """The call's block stream, ``default_rng(seed)``, past the first blocks
    of replications below ``lo``: its draws ``r * _DRAW_BLOCK`` on are
    replication r's first ``_DRAW_BLOCK``.  ``SeedSequence(seed)`` has no
    spawn key, so this stream is none of ``_rngs``'."""
    blocks = np.random.default_rng(seed)
    blocks.standard_exponential((lo, _DRAW_BLOCK))
    return blocks


def _draws(first: np.ndarray, rng: np.random.Generator):
    """A replication's draw function: the rest of its first block ``first``,
    then its own stream ``rng``, ``_DRAW_BLOCK`` at a time."""
    return chain(first.tolist(), _unit_draws(rng)).__next__


def _conditional_batch(s: ArrivalState, p: SystemParams, seed: int, lo: int, hi: int, tally=None,
                       blocks=None) -> np.ndarray:
    """Tagged system times of replications ``lo .. hi - 1``, run in lockstep
    on numpy arrays and finished on the scalar engine; entry r equals
    ``_run_tagged`` with ``mu12`` from the snapshot on replication
    ``lo + r``'s draws bit for bit, whatever batch holds it: its row of the
    block stream ``blocks`` (by default ``_blocks(seed, lo)``, which must
    stand at replication ``lo``'s row), then its own stream (``_rngs``).
    A ``tally`` Counter gains the lockstep steps, the rows resumed and the
    rows finished in expectation.

    Each array holds one quantity of ``_Polling`` across the live rows
    (``n``, ``end``, ``next_arrival`` as ``arrival``, and ``position`` as a
    flag "polled at class 2"), and a step applies ``_Polling.step``'s events,
    picks and IEEE operations to each row's first ``_DRAW_BLOCK`` draws: a
    buffer of ``hi - lo`` rows, drawn from ``blocks`` in one call, read in
    the scalar order (arrival class 1, arrival class 2, station-2 start,
    station-1 start).  A row ends where ``_run_tagged`` would finish it in
    expectation, with the same operations.  Rows that leave drop out of the
    arrays, not out of the buffer.

    A row that has not finished leaves the lockstep one way, ``finish``: it
    goes on alone on a ``_Polling`` in its state (``resume``), drawing the
    rest of its buffer row, then its own stream, built for the rows resumed
    alone, through ``_run_tagged`` with what is left of the step budget.  So
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
        rngs = _rngs(seed, [lo + i for i in state[0]])
        for rng, (i, at, k, *x) in zip(rngs, zip(*state)):
            net = _Polling(p, _draws(draws[i, at - i * width:], rng))
            tagged_id = net.resume([x[0:2], x[2:4]], x[4:6], x[6:8], [int(c) for c in x[8:]], k)
            waits[i], cut = _run_tagged(net, tagged_id, _STEP_BUDGET - steps, mu12)
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
            live = ~gone
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
    ROADMAP item 1 removes it.
    ``trace``, if a list is supplied, collects the event rows of replication
    0, run once more on its draws through ``_Traced`` to its departure, past
    the step at which its wait was finished in expectation, which writes
    them in the caller's class labels (see ``write_trace``).  Each call logs
    one ``DEBUG`` record: the seed, the replications, the lockstep steps,
    the rows resumed on the scalar engine and the share of replications
    finished in expectation.
    """
    if _count(n_jobs) < 1:
        raise ValueError(f"n_jobs must be a positive integer, got {n_jobs!r}")
    p = validate_params(p)
    tagged_class = s.tagged_class
    s, p = relabel_for_class2(s, p)
    p, k = _scaled_rates(p)
    if trace is not None:
        start = len(trace)
        draw = _draws(_blocks(c.seed).standard_exponential(_DRAW_BLOCK), _rngs(c.seed, [0])[0])
        _tagged_sojourn(s, p, draw, trace, tagged_class - 1)
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
    standard error.  Little's-law quantities are accumulated over the kept
    window across both classes.

    The run takes the rates times 2**k (``_scaled_rates``): the mean and
    standard error are scaled back by 2**k, and the two diagnostics, which
    have no time unit, stay finite where the unscaled head-count area and
    sojourn sum would pass the float range.
    """
    measured = _member(measured_class, "measured_class", (1, 2)) - 1
    p, k = _scaled_rates(validate_params(p))
    net = _Polling(p, _unit_draws(_rngs(c.seed, [0])[0]).__next__)
    net.schedule_arrivals()
    kept = []
    pooled_sum = 0.0
    departures = 0
    target = c.warmup_departures + c.horizon_departures
    step = net.step
    # time integral of the head count, which is the ids handed out less the
    # departures: the run starts empty and every arrival takes the next id
    area = area0 = time0 = 0.0
    while departures < target:
        t, in_system = net.t, net.next_cid - departures
        try:
            out = step()
        except IndexError:  # a step pops an empty queue only once the clock is inf
            break
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
    if net.t * 2.0**k == _INF:
        raise NonPositiveRate(f"the clock passed the largest float, 1.8e308, before {target} departures")
    kept_arr = np.asarray(kept)
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
