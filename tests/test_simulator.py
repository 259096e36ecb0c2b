
import itertools
import logging
import math
import re
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import full_run_waits, rep_draws, rep_rng

from tandempoll import simulator
from tandempoll.errors import NonPositiveRate, NonTermination, UnstableSystem
from tandempoll.model import ArrivalState, SystemParams, relabel_for_class2, validate_params
from tandempoll.simulator import (
    SimConfig,
    deterministic_wait,
    simulate_conditional,
    simulate_steady_state,
    write_trace,
)


def sym(mu):
    return validate_params(SystemParams(lam=(1.0, 1.0), mu=((mu, mu), (mu, mu))))


class TestConditional:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_empty_system(self, m):
        p = sym(2.86)
        est = simulate_conditional(ArrivalState(la=(0, 0, 0, 0), m=m), p,
                                   SimConfig(replications=2000, seed=1))
        assert abs(est.mean - 2 / 2.86) < 3 * est.stderr

    def test_first_cycle_cells_match_reference(self):
        # cells where the tagged customer's path stays on the first station-2
        # cycle reproduce the reference simulation numbers
        p = sym(2.86)
        for m, ref in [(1, 1.48), (2, 1.66)]:
            est = simulate_conditional(ArrivalState(la=(1, 1, 1, 1), m=m), p,
                                       SimConfig(replications=3200, seed=8))
            assert abs(est.mean - ref) < max(3 * est.stderr, 0.05 * ref)

    def test_reproducible(self):
        p = sym(2.86)
        s = ArrivalState(la=(2, 1, 1, 2), m=3)
        a = simulate_conditional(s, p, SimConfig(replications=200, seed=99))
        b = simulate_conditional(s, p, SimConfig(replications=200, seed=99))
        assert a == b
        c = simulate_conditional(s, p, SimConfig(replications=200, seed=100))
        assert c.mean != a.mean

    def test_batching_leaves_results_unchanged(self, monkeypatch):
        # a replication's wait depends on (seed, replication) alone, not on
        # the batch that runs it
        p = sym(2.22)
        s = ArrivalState(la=(1, 2, 2, 1), m=2)
        whole = simulator._conditional_batch(s, p, 7, 0, 96)
        split = np.concatenate([simulator._conditional_batch(s, p, 7, 0, 40),
                                simulator._conditional_batch(s, p, 7, 40, 96)])
        assert np.array_equal(whole, split)
        cfg = SimConfig(replications=96, seed=7)
        default = simulate_conditional(s, p, cfg)
        monkeypatch.setattr(simulator, "_BATCH_ROWS", 7)
        assert simulate_conditional(s, p, cfg) == default

    @pytest.mark.parametrize("n_jobs", [0, -3, True, 1.5, "2"])
    def test_rejects_bad_n_jobs(self, n_jobs):
        with pytest.raises(ValueError, match="n_jobs"):
            simulate_conditional(ArrivalState(la=(1, 1, 1, 1), m=1), sym(2.86),
                                 SimConfig(replications=2, seed=1), n_jobs=n_jobs)

    def test_integral_n_jobs(self):
        s, cfg = ArrivalState(la=(1, 2, 2, 1), m=2), SimConfig(replications=96, seed=7)
        assert (simulate_conditional(s, sym(2.22), cfg, n_jobs=2.0)
                == simulate_conditional(s, sym(2.22), cfg, n_jobs=2))

    def test_tagged_class2_relabels(self):
        p = sym(2.86)
        a = simulate_conditional(ArrivalState(la=(1, 2, 3, 1), m=2, tagged_class=2), p,
                                 SimConfig(replications=400, seed=5))
        b = simulate_conditional(ArrivalState(la=(2, 1, 1, 3), m=3, tagged_class=1), p,
                                 SimConfig(replications=400, seed=5))
        assert a == b


class TestReplayPinned:
    """Results pinned for fixed seeds, so that a change to the draws, the
    stream layout or the event order fails here, not only between two runs
    of one version."""

    def test_conditional(self):
        a = simulate_conditional(ArrivalState(la=(2, 1, 1, 2), m=1), sym(2.86),
                                 SimConfig(replications=100, seed=2024))
        assert repr(a) == ("SimEstimate(mean=2.1005140666875066, stderr=0.07695327826953378, "
                           "n=100, seed=2024)")
        # no replication here reads past its first block (the most take 114
        # draws); of the 1,000 below, 6 go on to their own streams, one to
        # its 160th draw
        b = simulate_conditional(ArrivalState(la=(20, 20, 20, 20), m=4, tagged_class=2), sym(2.22),
                                 SimConfig(replications=100, seed=2025))
        assert repr(b) == ("SimEstimate(mean=18.422453373101824, stderr=0.22032765233382157, "
                           "n=100, seed=2025)")
        c = simulate_conditional(ArrivalState(la=(20, 20, 20, 20), m=4, tagged_class=2), sym(2.22),
                                 SimConfig(replications=1000, seed=2025))
        assert repr(c) == ("SimEstimate(mean=18.526615274032533, stderr=0.06795920619131711, "
                           "n=1000, seed=2025)")

    def test_steady_state(self):
        cfg = SimConfig(seed=5, warmup_departures=500, horizon_departures=20_000)
        est = simulate_steady_state(sym(2.86), cfg, measured_class=2)
        assert repr(est) == (
            "SteadyStateEstimate(mean=2.338653443234456, stderr=0.08228611241174995, n=9987, "
            "seed=5, time_avg_in_system=4.6271215865608495, "
            "throughput_mean_system_time=4.6232793779403885)"
        )

    def test_steady_state_asymmetric_class1(self):
        # the per-class rates of the benchmark's second setting, so both
        # servers switch between unequal service rates
        p = validate_params(SystemParams(lam=(1.0, 1.0), mu=((2.22, 2.86), (2.22, 2.86))))
        cfg = SimConfig(seed=7, warmup_departures=500, horizon_departures=20_000)
        est = simulate_steady_state(p, cfg, measured_class=1)
        assert repr(est) == (
            "SteadyStateEstimate(mean=5.1959798336132215, stderr=0.41992016145055966, n=9970, "
            "seed=7, time_avg_in_system=10.320833786305919, "
            "throughput_mean_system_time=10.331688242864447)"
        )

    # stable rate sets drawn from random.Random(20261020): lam from
    # U(0.2, 1.2), mu from U(1.5, 4.0), times a scale 10**U(-2, 2), each to 3
    # significant digits, kept when both loads are below 0.9; most take a
    # power-of-two scale other than 1
    GENERATED = [
        ((0.0204, 0.0158), ((0.0827, 0.0675), (0.0804, 0.124)), 100, 1,
         "SteadyStateEstimate(mean=48.58910205738356, stderr=2.0223392395415525, n=1686, seed=100, "
         "time_avg_in_system=1.693549770388857, throughput_mean_system_time=1.6890534448844428)"),
        ((0.0179, 0.0256), ((0.28, 0.24), (0.156, 0.18)), 101, 2,
         "SteadyStateEstimate(mean=14.686709058971468, stderr=0.3966549207080512, n=1759, seed=101, "
         "time_avg_in_system=0.568794728700131, throughput_mean_system_time=0.5802024376446528)"),
        ((113.0, 39.1), ((310.0, 366.0), (320.0, 383.0)), 102, 1,
         "SteadyStateEstimate(mean=0.01073035054614503, stderr=0.000511861385913108, n=2229, seed=102, "
         "time_avg_in_system=1.732041973952653, throughput_mean_system_time=1.7122079443769789)"),
        ((15.4, 4.54), ((45.8, 25.2), (61.9, 61.8)), 103, 2,
         "SteadyStateEstimate(mean=0.2343376705893543, stderr=0.03130860189187738, n=667, seed=103, "
         "time_avg_in_system=3.3064783722363957, throughput_mean_system_time=3.2779471801667053)"),
        ((0.0842, 0.027), ((0.213, 0.282), (0.126, 0.118)), 104, 1,
         "SteadyStateEstimate(mean=25.48142455608355, stderr=1.6270689754485919, n=2271, seed=104, "
         "time_avg_in_system=2.980246279153937, throughput_mean_system_time=2.989862049632513)"),
        ((0.0094, 0.007), ((0.0775, 0.0474), (0.069, 0.0601)), 105, 2,
         "SteadyStateEstimate(mean=45.570668764125664, stderr=1.7150356062838812, n=1277, seed=105, "
         "time_avg_in_system=0.7685492346236169, throughput_mean_system_time=0.7563831621171914)"),
        ((1.01, 1.17), ((4.58, 3.6), (2.91, 4.51)), 106, 1,
         "SteadyStateEstimate(mean=1.4157212802242922, stderr=0.11936272435244248, n=1372, seed=106, "
         "time_avg_in_system=2.772029069853298, throughput_mean_system_time=2.8264087487834795)"),
        ((0.0908, 0.0875), ((0.354, 0.349), (0.273, 0.487)), 107, 2,
         "SteadyStateEstimate(mean=11.335690273158674, stderr=0.5344322694905849, n=1476, seed=107, "
         "time_avg_in_system=2.2499061131863125, throughput_mean_system_time=2.198308047722975)"),
    ]

    @pytest.mark.parametrize("lam,mu,seed,measured,expected", GENERATED)
    def test_steady_state_generated(self, lam, mu, seed, measured, expected):
        p = validate_params(SystemParams(lam=lam, mu=mu))
        cfg = SimConfig(seed=seed, warmup_departures=200, horizon_departures=3000)
        assert repr(simulate_steady_state(p, cfg, measured)) == expected

    def test_deterministic(self):
        p = validate_params(SystemParams(lam=(1.0, 0.5), mu=((2.86, 2.22), (3.0, 4.0))))
        w = deterministic_wait(ArrivalState(la=(3, 2, 1, 2), m=3, tagged_class=2), p)
        assert repr(w) == "1.7004504504504503"


def test_exp_stream_matches_one_block():
    # numpy fills exponentials one at a time from the bit stream, so the
    # fixed blocks must reproduce a single draw of the same length
    drawn = list(itertools.islice(simulator._unit_draws(np.random.default_rng(123)), 20_000))
    assert drawn == np.random.default_rng(123).exponential(size=20_000).tolist()
    # numpy fills a 2-D block row after row, so the block stream gives a
    # replication the same first block whatever rows each batch draws
    rng = np.random.default_rng(123)
    rows = [rng.standard_exponential((k, simulator._DRAW_BLOCK)) for k in (1, 7, 32, 116)]
    assert np.concatenate(rows).reshape(-1).tolist() == drawn[:156 * simulator._DRAW_BLOCK]


def scalar_run(s, p, seed, rep, stream=None):
    """Replication ``rep`` (relabelled, validated ``s`` and ``p``) on the
    scalar loop with the cut, ``_run_tagged``, on its draws ``stream`` (by
    default ``rep_draws``): its wait, and the draws taken by the end of each
    of its steps.  The loop runs every step at once, so the draws per step
    come from a replay on the same draws, one ``step`` at a time with the
    cut applied after each; the replay must reach the same wait in as many
    steps and draws as the loop."""
    stream = rep_draws(seed, rep) if stream is None else stream
    ours, theirs = itertools.tee(stream)
    taken = Counter()

    def draws(name, it):
        def draw():
            taken[name] += 1
            return next(it)
        return draw

    net = simulator._Polling(p, draws("loop", ours))
    wait, _ = simulator._run_tagged(net, net.seed_snapshot(s), simulator._STEP_BUDGET, True)
    replay = simulator._Polling(p, draws("replay", theirs))
    tagged_id = replay.seed_snapshot(s)
    ahead, after = len(replay.fifo[0]), []
    while True:
        out = replay.step()
        after.append(taken["replay"])
        if out is not None:
            if out[0] == tagged_id:
                replayed = out[2]
                break
            ahead -= not out[1]
        if ahead <= replay.n[1][0] and not replay.position[1]:
            replayed = replay.t + ahead / p.mu[0][1]
            break
    assert (replayed, len(after), taken["replay"]) == (wait, net.steps, taken["loop"])
    return wait, after


def generated_cells(count, seed):
    """Stable random rates with random snapshots: counts 0-9, m 1-4, and
    the tagged class alternating between 1 and 2."""
    rng = np.random.default_rng(seed)
    cells = []
    while len(cells) < count:
        p = SystemParams(lam=tuple(rng.uniform(0.2, 1.5, 2)),
                         mu=tuple(tuple(rng.uniform(1.0, 4.0, 2)) for _ in range(2)))
        try:
            p = validate_params(p)
        except UnstableSystem:
            continue
        la = tuple(int(x) for x in rng.integers(0, 10, 4))
        cells.append((ArrivalState(la=la, m=int(rng.integers(1, 5)), tagged_class=1 + len(cells) % 2), p))
    return cells


class TestBatchMatchesScalar:
    """``simulate_conditional`` runs its replications as a lockstep batch, a
    second copy of ``_Polling``'s rules and of ``_run_tagged``'s finish in
    expectation, and finishes on ``_Polling`` itself every row a step could
    run past its first block of draws and its last ``_TAIL_ROWS`` rows; each
    replication must give the scalar loop's wait with the cut bit for bit,
    on the same draws (``oracles.rep_draws``).
    The subclasses below run the same cases with no tail handoff and with
    every row handed off right after seeding; here ``_TAIL_ROWS`` keeps its
    default."""

    TAIL_ROWS = None

    @pytest.fixture(autouse=True)
    def tail_rows(self, monkeypatch):
        if self.TAIL_ROWS is not None:
            monkeypatch.setattr(simulator, "_TAIL_ROWS", self.TAIL_ROWS)

    @staticmethod
    def scalar(s, p, seed, reps):
        s, p = relabel_for_class2(s, validate_params(p))
        return np.array([scalar_run(s, p, seed, rep)[0] for rep in reps])

    @staticmethod
    def batch(s, p, seed, lo, hi):
        s, p = relabel_for_class2(s, validate_params(p))
        return simulator._conditional_batch(s, p, seed, lo, hi)

    @staticmethod
    def draws_taken(s, p, seed, rep):
        s, p = relabel_for_class2(s, validate_params(p))
        return scalar_run(s, p, seed, rep)[1][-1]

    @pytest.mark.parametrize("s,p", generated_cells(16, seed=2024))
    def test_generated_cells(self, s, p):
        assert np.array_equal(self.batch(s, p, 9, 0, 60), self.scalar(s, p, 9, range(60)))

    def test_rows_refill_their_draws(self):
        s, p = ArrivalState(la=(20, 20, 20, 20), m=4, tagged_class=2), sym(2.22)
        used = max(self.draws_taken(s, p, 2025, rep) for rep in range(1280, 1300))
        # so some row reads past its first block and its own stream's first
        assert used > 2 * simulator._DRAW_BLOCK
        assert np.array_equal(self.batch(s, p, 2025, 1280, 1300), self.scalar(s, p, 2025, range(1280, 1300)))

    def test_window_straddling_2_32(self):
        # numpy reads an index from 2**32 up as two words, one below as one.
        # The first blocks of these rows lie 2**39 draws into the block
        # stream, so the batch and the oracle take them from another stream;
        # past them, each row here reads its own
        s, p = ArrivalState(la=(60, 60, 60, 60), m=4, tagged_class=2), sym(2.22)
        lo, hi = 2**32 - 3, 2**32 + 3
        first = np.random.default_rng(13).standard_exponential((hi - lo, simulator._DRAW_BLOCK))
        s, p = relabel_for_class2(s, validate_params(p))
        runs = [scalar_run(s, p, 13, rep, itertools.chain(row.tolist(), simulator._unit_draws(rep_rng(13, rep))))
                for rep, row in zip(range(lo, hi), first)]
        assert min(after[-1] for _, after in runs) > simulator._DRAW_BLOCK
        batch = simulator._conditional_batch(s, p, 13, lo, hi, blocks=np.random.default_rng(13))
        assert np.array_equal(batch, [wait for wait, _ in runs])

    @pytest.mark.parametrize("rows", [1, 7])
    def test_replications_cross_blocks(self, monkeypatch, rows):
        monkeypatch.setattr(simulator, "_BATCH_ROWS", rows)
        s, p = ArrivalState(la=(2, 3, 1, 2), m=3, tagged_class=2), sym(2.22)
        est = simulate_conditional(s, p, SimConfig(replications=30, seed=11))
        waits = self.scalar(s, p, 11, range(30))
        assert (est.mean, est.stderr) == (float(waits.mean()), float(waits.std(ddof=1) / math.sqrt(30)))


class TestBatchMatchesScalarLockstep(TestBatchMatchesScalar):
    """The cases above with no tail handoff: a row leaves the lockstep only
    when a step could run it past its first block of draws."""

    TAIL_ROWS = 0


class TestBatchMatchesScalarHandoffAtOnce(TestBatchMatchesScalar):
    """The cases above with every row of every batch (none holds more than
    ``_BATCH_ROWS``) handed to ``_Polling`` right after seeding."""

    TAIL_ROWS = simulator._BATCH_ROWS


class TestTailHandoff:
    """A row that does not leave in the lockstep finishes on a resumed
    ``_Polling``: a row whose next step could run past its first block of
    draws, and the last ``_TAIL_ROWS`` live rows.  Counted with a spy on
    ``_Polling.resume`` against the scalar engine's step and draw counts, so
    a change that silently turns either way out off fails here."""

    @staticmethod
    def resumed(monkeypatch, s, p, cfg):
        calls = []
        resume = simulator._Polling.resume

        def spy(net, *args):
            calls.append(args)
            return resume(net, *args)

        monkeypatch.setattr(simulator._Polling, "resume", spy)
        est = simulate_conditional(s, p, cfg)
        return est, len(calls)

    @staticmethod
    def exits(s, p, seed, rep):
        """The step at which the scalar loop with the cut ends the run, and
        the first one before that after which a step could run past the
        first block of draws (None if there is none)."""
        after = scalar_run(s, p, seed, rep)[1]
        # a step draws at most 4
        outrun = next((k for k, taken in enumerate(after[:-1], 1) if taken > simulator._DRAW_BLOCK - 4), None)
        return len(after), outrun

    @staticmethod
    def expected(s, p, cfg):
        """The rows still live once at most ``_TAIL_ROWS`` are, the rows
        resumed before that because a step could run them past their block,
        and the lockstep steps run until then."""
        exits = [TestTailHandoff.exits(s, p, cfg.seed, rep) for rep in range(cfg.replications)]
        leave = np.array([outrun or k for k, outrun in exits])
        outran = np.array([outrun is not None for _, outrun in exits])
        stop = next(k for k in itertools.count() if np.count_nonzero(leave > k) <= simulator._TAIL_ROWS)
        return np.count_nonzero(leave > stop), np.count_nonzero(outran & (leave <= stop)), stop

    @pytest.mark.parametrize("reps", [2, 800])
    def test_last_rows_finish_on_the_scalar_engine(self, monkeypatch, reps):
        s, p = ArrivalState(la=(6, 6, 6, 6), m=3), sym(2.86)
        cfg = SimConfig(replications=reps, seed=20240811)
        # rows that leave in one step can take the live count past
        # _TAIL_ROWS at once, which this seed's 800 rows do not
        tail, outran, _ = self.expected(s, p, cfg)
        assert tail == min(reps, simulator._TAIL_ROWS)
        est, resumed = self.resumed(monkeypatch, s, p, cfg)
        assert resumed == tail + outran
        monkeypatch.setattr(simulator, "_TAIL_ROWS", 0)
        assert self.resumed(monkeypatch, s, p, cfg) == (est, self.expected(s, p, cfg)[1])

    @pytest.mark.parametrize("tail_rows", [None, 0])
    def test_streams_built_only_past_the_block(self, monkeypatch, tail_rows):
        # a replication reads its own stream only past its first block, so
        # the batch builds the streams of exactly the rows that read that
        # far, and none for a resumed row that never does
        if tail_rows is not None:
            monkeypatch.setattr(simulator, "_TAIL_ROWS", tail_rows)
        s, p = relabel_for_class2(ArrivalState(la=(20, 20, 20, 20), m=4, tagged_class=2), sym(2.22))
        reps = range(1280, 1300)
        built, rngs = [], simulator._rngs

        def spy(seed, rep):
            for draws in rngs(seed, rep):  # recorded once built
                built.append(rep)
                yield draws

        monkeypatch.setattr(simulator, "_rngs", spy)
        tally = Counter()
        waits = simulator._conditional_batch(s, p, 2025, reps.start, reps.stop, tally)
        runs = [scalar_run(s, p, 2025, rep) for rep in reps]
        assert waits.tolist() == [wait for wait, _ in runs]
        past = [rep for rep, (_, after) in zip(reps, runs) if after[-1] > simulator._DRAW_BLOCK]
        assert sorted(built) == past
        assert 0 < len(built) <= tally["resumed"]
        if tail_rows is None:  # 20 rows are the tail: all resume, most build nothing
            assert len(built) < tally["resumed"] == len(reps)


class TestFinishInExpectation:
    """Once the tagged customer sits at station 2 with station 2 polled at
    class 1, ``simulate_conditional`` ends the replication with the clock
    plus the mean of the class-1 services left there.  Checked against the
    estimator that runs every replication to the departure
    (``oracles.full_run_waits``), on the same draws."""

    GRID = [(1, 1, 1, 1), (3, 3, 3, 3), (6, 6, 6, 6), (1, 1, 3, 3), (1, 1, 6, 6),
            (3, 3, 1, 1), (6, 6, 1, 1), (3, 6, 3, 6), (6, 3, 6, 3)]

    @staticmethod
    def both(s, p, seed, reps):
        est = simulate_conditional(s, p, SimConfig(replications=reps, seed=seed))
        full = full_run_waits(s, p, seed, reps)
        return est, full.mean(), full.std(ddof=1) / math.sqrt(reps)

    def test_agrees_with_full_runs(self):
        # the 72 cells of criterion 4, at its seed
        far = []
        for mu in (2.86, 2.22):
            for la in self.GRID:
                for m in (1, 2, 3, 4):
                    est, mean, se = self.both(ArrivalState(la=la, m=m), sym(mu), 271828, 800)
                    if abs(est.mean - mean) > 3 * math.hypot(est.stderr, se):
                        far.append((mu, la, m, est.mean, mean))
        assert not far

    # a long station-2 class-1 queue leaves many services to their mean
    @pytest.mark.parametrize("la,m", [((1, 1, 6, 6), 1), ((6, 6, 6, 6), 2)])
    @pytest.mark.parametrize("mu", [2.86, 2.22])
    def test_lower_variance(self, la, m, mu):
        est, _, se = self.both(ArrivalState(la=la, m=m), sym(mu), 271828, 800)
        assert est.stderr < se

    def test_empty_system_is_exact(self):
        # the tagged customer's station-1 service takes its first draw, the
        # first of its block row; at station 2 it waits one class-1 service,
        # 1 / mu12
        p = validate_params(SystemParams(lam=(1.0, 0.5), mu=((2.86, 2.22), (3.0, 4.0))))
        s = ArrivalState(la=(0, 0, 0, 0), m=1)
        waits = simulator._conditional_batch(s, p, 3, 0, 500)
        first = np.array([next(rep_draws(3, rep)) for rep in range(500)])
        assert waits.tolist() == (first / 2.86 + 1 / 2.22).tolist()
        est = simulate_conditional(s, p, SimConfig(replications=500, seed=3))
        assert (est.mean, est.stderr) == (float(waits.mean()), float(waits.std(ddof=1) / math.sqrt(500)))

    def test_logs_one_record(self, caplog):
        s, p = ArrivalState(la=(6, 6, 6, 6), m=3), sym(2.86)
        cfg = SimConfig(replications=800, seed=20240811)
        tail, outran, steps = TestTailHandoff.expected(s, p, cfg)
        with caplog.at_level(logging.DEBUG, logger="tandempoll"):
            simulate_conditional(s, p, cfg)
        records = [r for r in caplog.records if r.name.startswith("tandempoll")]
        assert [(r.name, r.levelno) for r in records] == [("tandempoll.simulator", logging.DEBUG)]
        # every replication reaches the cut before it could leave
        assert records[0].args == (20240811, 800, steps, tail + outran, 1.0)
        assert "finished in expectation 1.0000" in records[0].getMessage()


class TestBatchStreams:
    """Every per-replication stream comes from ``_rngs``, which builds it
    from numpy's ``SeedSequence(seed, spawn_key=(rep,))``.  Its draws must
    stay numpy's own (``oracles.rep_rng``) for every index, 2**32 and up
    included, so that a change in how the builder seeds fails here."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        seed=st.sampled_from([0, 2**32 - 1, 2**32, 10**40]) | st.integers(0, 2**160),
        lo=st.sampled_from([0, 1000, 2**31, 2**32 - 3, 2**32 + 5]),
        width=st.integers(1, 6),
    )
    @example(seed=10**40, lo=2**32 - 3, width=6)  # straddles 2**32
    def test_words_and_streams_match_numpy(self, seed, lo, width):
        # a run of consecutive indices: each stream is seeded by numpy's own
        # SeedSequence words, so its draws are rep_rng's, one row after another
        for rep in range(lo, lo + width):
            stream = simulator._rngs(seed, rep)
            drawn = list(itertools.islice(next(stream), 300))
            assert drawn == rep_rng(seed, rep).standard_exponential(300).tolist()
            assert next(stream, None) is None  # one stream per replication

    def test_scattered_indices_straddling_2_32(self):
        # a batch builds the streams of the rows that read past their block,
        # a scattered set in any order, from either side of 2**32
        reps = [2**32 + 7, 5, 2**32 - 1, 2**33 + 1, 2**32, 900, 2**64 - 1, 0, 2**31]
        for seed in (0, 2**32, 10**40):
            for rep in reps:
                drawn = list(itertools.islice(next(simulator._rngs(seed, rep)), 300))
                assert drawn == rep_rng(seed, rep).standard_exponential(300).tolist()


def test_rates_far_apart():
    # scaled to sum into [8, 16), 2**-1018 beside 1e30 falls below the
    # normal floats; every simulated route refuses such rates and names
    # them.  Before, lam = 1e-300 beside mu = 1e300 read 1.994e-300 on
    # (1,1,1,1) m=1, against a limit of about 4.23e-300
    s = ArrivalState(la=(1, 1, 1, 1), m=1)
    for lam, mu in ((2.0**-1018, 1e30), (1e-300, 1e300)):
        p = validate_params(SystemParams(lam=(lam, lam), mu=((mu, mu), (mu, mu))))
        routes = (lambda: deterministic_wait(s, p),
                  lambda: simulate_conditional(s, p, SimConfig(replications=50, seed=1)),
                  lambda: simulate_steady_state(p, SimConfig(seed=1, warmup_departures=10, horizon_departures=100)))
        for route in routes:
            with pytest.raises(NonPositiveRate, match=re.escape(f"rates from {lam!r} to {mu!r} lie too far apart")):
                route()
    # the edge: beside four mu = 32 the rates sum into [128, 256) and scale
    # by 2**-4, which takes 2**-1018 to the smallest normal float; beside
    # mu = 64 it would fall to 2**-1023
    for mu in (32.0, 64.0):
        p = validate_params(SystemParams(lam=(2.0**-1018,) * 2, mu=((mu, mu), (mu, mu))))
        if mu == 32:
            assert deterministic_wait(s, p) == 3 / 32
        else:
            with pytest.raises(NonPositiveRate, match="too far apart"):
                deterministic_wait(s, p)


class TestSmallRates:
    """At rates s = 2**-532 the system times are near 1e160 and their squares
    pass the float range.  Every route runs on its rates scaled by a power of
    two into one range, so each estimate must be the s = 1 one over s, bit
    for bit: the tie window is absolute, but the scaled clocks it compares
    are the same at every s."""

    routes = {
        "conditional": lambda p: simulate_conditional(ArrivalState(la=(2, 2, 2, 2), m=3), p,
                                                      SimConfig(replications=200, seed=1)),
        "steady": lambda p: simulate_steady_state(p, SimConfig(seed=5, warmup_departures=200,
                                                               horizon_departures=2000)),
    }

    @pytest.mark.parametrize("route", sorted(routes))
    def test_finite_and_scaled(self, route):
        def run(s):
            return self.routes[route](validate_params(SystemParams(lam=(s, s), mu=((3 * s, 3 * s),) * 2)))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            small = run(2.0**-532)
        unit = run(1.0)
        assert math.isfinite(small.stderr) and small.stderr > 0
        assert math.ldexp(small.mean, -532) == unit.mean
        assert math.ldexp(small.stderr, -532) == unit.stderr

    # the simulator once compared clocks within an absolute 1e-12 at the
    # caller's scale: at 2**60 the (2,2,2,2) m=3 mean read 2.275 against
    # 3.777 and the steady run and 2**400 raised NonTermination
    @pytest.mark.parametrize("route", sorted(routes))
    @pytest.mark.parametrize("k", [40, -40, 60, 400, -400])
    def test_power_of_two_scales(self, route, k):
        def run(s):
            return self.routes[route](validate_params(SystemParams(lam=(s, s), mu=((3 * s, 3 * s),) * 2)))

        scaled, unit = run(2.0**k), run(1.0)
        assert (math.ldexp(scaled.mean, k), math.ldexp(scaled.stderr, k)) == (unit.mean, unit.stderr)


def test_empty_queue_at_an_infinite_clock():
    # station 1 holds the tagged customer and its completion passed 1.8e308,
    # station 2 idles at class 2 with no class-2 customer, and both arrival
    # clocks passed 1.8e308: the step at the infinite clock pops an empty queue
    net = simulator._Polling(sym(2.86), lambda: 1.0)
    tagged_id = net.resume([[1, 0], [0, 0]], [math.inf, math.inf], [math.inf, math.inf], [0, 1], 1)
    with pytest.raises(NonPositiveRate, match="before the tagged customer left"):
        simulator._run_tagged(net, tagged_id, 10)


class TestStepBudget:
    # from (6,6,6,6) with servers (1,1) the tagged customer leaves after at
    # least 7 station-1 hand-offs, one per step, so 5 steps cannot reach it
    def test_deterministic_raises(self, monkeypatch):
        monkeypatch.setattr(simulator, "_STEP_BUDGET", 5)
        with pytest.raises(NonTermination):
            deterministic_wait(ArrivalState(la=(6, 6, 6, 6), m=1), sym(2.86))

    def test_conditional_raises(self, monkeypatch):
        monkeypatch.setattr(simulator, "_STEP_BUDGET", 5)
        with pytest.raises(NonTermination):
            simulate_conditional(ArrivalState(la=(6, 6, 6, 6), m=1), sym(2.86),
                                 SimConfig(replications=2, seed=1))

    def test_budget_ends_inside_the_lockstep(self, monkeypatch):
        # every one of 800 rows needs at least 7 steps, so more than
        # _TAIL_ROWS are live when 5 are used up; they leave the lockstep
        # the one way, and _run_tagged raises for the first
        monkeypatch.setattr(simulator, "_STEP_BUDGET", 5)
        with pytest.raises(NonTermination, match=r"still in system after 5 steps$") as info:
            simulate_conditional(ArrivalState(la=(6, 6, 6, 6), m=1), sym(2.86),
                                 SimConfig(replications=800, seed=1))
        assert info.traceback[-1].name == "_run_tagged"

    @staticmethod
    def steps_taken(s, p, seed, rep):
        return len(scalar_run(s, p, seed, rep)[1])

    # a budget counts every step of a row, lockstep and scalar alike: the
    # longest of 60 rows is handed off mid-run at 20 rows and right after
    # seeding at 60, and needs as many steps as on the scalar engine alone
    @pytest.mark.parametrize("tail_rows", [0, 20, 60])
    def test_budget_across_the_handoff(self, monkeypatch, tail_rows):
        s, p = ArrivalState(la=(3, 2, 1, 2), m=3), sym(2.22)
        longest = max(self.steps_taken(s, p, 4, rep) for rep in range(60))
        monkeypatch.setattr(simulator, "_TAIL_ROWS", tail_rows)
        waits = TestBatchMatchesScalar.scalar(s, p, 4, range(60))
        monkeypatch.setattr(simulator, "_STEP_BUDGET", longest)
        assert np.array_equal(simulator._conditional_batch(s, p, 4, 0, 60), waits)
        monkeypatch.setattr(simulator, "_STEP_BUDGET", longest - 1)
        with pytest.raises(NonTermination):
            simulator._conditional_batch(s, p, 4, 0, 60)
        with pytest.raises(NonTermination):
            TestBatchMatchesScalar.scalar(s, p, 4, range(60))


class TestHeadCount:
    """``simulate_steady_state`` reads the head count as ``next_cid`` minus
    the departures: every customer takes the next id, so the ids handed out
    less those that left are the customers present."""

    @staticmethod
    def run(net, steps):
        departures = 0
        for _ in range(steps):
            departures += net.step() is not None
            assert net.next_cid - departures == len(net.fifo[0]) + len(net.fifo[1]) == sum(map(sum, net.n))
        return departures

    def test_from_empty(self):
        p = validate_params(SystemParams(lam=(1.0, 1.0), mu=((2.22, 2.86), (2.22, 2.86))))
        net = simulator._Polling(p, simulator._unit_draws(rep_rng(3, 0)).__next__)
        net.schedule_arrivals()
        assert self.run(net, 5000) > 1000

    def test_from_snapshot(self):
        s = ArrivalState(la=(4, 2, 3, 1), m=2)
        net = simulator._Polling(sym(2.22), simulator._unit_draws(rep_rng(4, 0)).__next__)
        net.seed_snapshot(s)
        present = sum(s.la) + 1  # the tagged customer too
        assert net.next_cid == present == sum(map(sum, net.n))
        assert self.run(net, 5000) > 1000


@pytest.fixture(scope="module", params=[((3, 2, 1, 2), 3, 12), ((6, 6, 6, 6), 4, 99), ((1, 1, 1, 1), 2, 5)])
def rows(request):
    la, m, seed = request.param
    p = sym(2.22)
    out = []
    simulate_conditional(ArrivalState(la=la, m=m), p,
                         SimConfig(replications=1, seed=seed), trace=out)
    assert len(out) > 10
    return out


class TestTraceInvariants:

    def test_times_nondecreasing(self, rows):
        times = [r[0] for r in rows]
        assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))

    def test_work_conservation(self, rows):
        # a server is idle only when both its queues are empty
        for r in rows:
            _, _, _, _, _, l11, l21, l12, l22, s1, s2 = r
            if s1 == 0:
                assert l11 == 0 and l21 == 0
            if s2 == 0:
                assert l12 == 0 and l22 == 0

    def test_exhaustive_discipline(self, rows):
        # at a start that switches class, the queue just left must be empty
        last_class = {1: None, 2: None}
        for r in rows:
            t, kind, station, cls, cid, l11, l21, l12, l22, s1, s2 = r
            if kind != "start":
                continue
            prev = last_class[station]
            if prev is not None and prev != cls:
                lengths = {(1, 1): l11, (1, 2): l21, (2, 1): l12, (2, 2): l22}
                assert lengths[(station, prev)] == 0, f"switched away from backlog at t={t}"
            last_class[station] = cls

    def test_one_snapshot_per_step(self, rows):
        # every row of a step shows the network after the step, so from one
        # step to the next the head count moves by arrivals minus departures
        before = None
        for t, group in itertools.groupby(rows, key=lambda r: r[0]):
            step = list(group)
            assert len({r[5:] for r in step}) == 1, f"two snapshots at t={t}"
            heads = sum(step[0][5:9])
            if before is not None:
                kinds = [r[1] for r in step]
                assert heads - before == kinds.count("arrival") - kinds.count("depart"), f"t={t}"
            before = heads

    def test_fcfs_departures(self, rows):
        seen = {1: -1, 2: -1}
        for r in rows:
            _, kind, _, cls, cid = r[:5]
            if kind == "depart":
                assert cid > seen[cls]
                seen[cls] = cid

    def test_class2_rows_use_caller_labels(self):
        # a class-2 trace is its class-1 twin's with the labels swapped back
        def swapped(r):
            t, kind, station, cls, cid, l11, l21, l12, l22, s1, s2 = r
            other = {0: 0, 1: 2, 2: 1}
            return (t, kind, station, 3 - cls, cid, l21, l11, l22, l12, other[s1], other[s2])

        cfg = SimConfig(replications=5, seed=3)
        out = [("earlier row",)]
        simulate_conditional(ArrivalState(la=(1, 2, 0, 1), m=2, tagged_class=2), sym(2.86), cfg, trace=out)
        assert out[:2] == [("earlier row",), (0.0, "init", 1, 2, 5, 1, 3, 0, 1, 1, 2)]
        twin = []
        simulate_conditional(ArrivalState(la=(2, 1, 1, 0), m=3), sym(2.86), cfg, trace=twin)
        assert len(twin) > 10
        assert out[1:] == [swapped(r) for r in twin]

    @pytest.mark.parametrize("la,m,seed", [((3, 2, 1, 2), 3, 12), ((6, 6, 6, 6), 4, 99), ((1, 1, 1, 1), 2, 5)])
    def test_cut_reads_replication_0s_wait(self, la, m, seed):
        # the traced replay is replication 0 on its draws, run on to its
        # departure: at its first step that satisfies the cut, the clock plus
        # the mean of the class-1 services left is the wait the estimate
        # includes, bit for bit
        s, p = ArrivalState(la=la, m=m), sym(2.22)
        out = []
        simulate_conditional(s, p, SimConfig(replications=1, seed=seed), trace=out)
        ahead = la[0] + la[2] + 1
        for t, group in itertools.groupby(out[1:], key=lambda r: r[0]):
            step = list(group)
            ahead -= sum(r[1] == "depart" and r[3] == 1 for r in step)
            if ahead <= step[0][7] and step[0][10] == 1:  # L12, S2
                break
        else:
            raise AssertionError("the trace never reached the cut")
        assert t + ahead / 2.22 == simulator._conditional_batch(s, p, seed, 0, 200)[0]

    def test_write_trace(self, rows, tmp_path):
        path = tmp_path / "trace.txt"
        write_trace(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("time|kind|station")
        assert len(lines) == len(rows) + 1


class TestTracePinned:
    """Every row of two short traces, pinned, so that a change to a row's
    kind, order, id, snapshot or class labels fails here.  Station 2 goes
    idle twice, and both servers start in one step.  The class-2 run is the
    class-1 run's twin (same draws, classes and positions swapped)."""

    CLASS1 = [
        (0.0, "init", 1, 1, 4, 2, 1, 0, 1, 1, 2),
        (0.07003947834186743, "transfer", 1, 1, 2, 1, 1, 1, 1, 1, 2),
        (0.07003947834186743, "start", 1, 1, 4, 1, 1, 1, 1, 1, 2),
        (0.09207173888130354, "arrival", 1, 1, 5, 2, 1, 1, 1, 1, 2),
        (0.17202651430532978, "arrival", 1, 2, 6, 2, 2, 1, 1, 1, 2),
        (0.23388703486840876, "arrival", 1, 2, 7, 2, 3, 1, 1, 1, 2),
        (0.29933410149292633, "depart", 2, 2, 1, 2, 3, 1, 0, 1, 1),
        (0.29933410149292633, "start", 2, 1, 2, 2, 3, 1, 0, 1, 1),
        (0.5016233037183058, "depart", 2, 1, 2, 2, 3, 0, 0, 1, 0),
        (0.5330732463052328, "arrival", 1, 1, 8, 3, 3, 0, 0, 1, 0),
        (0.5817119599597659, "transfer", 1, 1, 4, 2, 3, 1, 0, 1, 1),
        (0.5817119599597659, "start", 2, 1, 4, 2, 3, 1, 0, 1, 1),
        (0.5817119599597659, "start", 1, 1, 5, 2, 3, 1, 0, 1, 1),
        (0.5828881209925451, "arrival", 1, 2, 9, 2, 4, 1, 0, 1, 1),
        (0.8485508694254973, "arrival", 1, 1, 10, 3, 4, 1, 0, 1, 1),
        (1.317163719683815, "depart", 2, 1, 4, 3, 4, 0, 0, 1, 0),
    ]
    CLASS2 = [
        (0.0, "init", 1, 2, 4, 1, 2, 1, 0, 2, 1),
        (0.07003947834186743, "transfer", 1, 2, 2, 1, 1, 1, 1, 2, 1),
        (0.07003947834186743, "start", 1, 2, 4, 1, 1, 1, 1, 2, 1),
        (0.09207173888130354, "arrival", 1, 2, 5, 1, 2, 1, 1, 2, 1),
        (0.17202651430532978, "arrival", 1, 1, 6, 2, 2, 1, 1, 2, 1),
        (0.23388703486840876, "arrival", 1, 1, 7, 3, 2, 1, 1, 2, 1),
        (0.29933410149292633, "depart", 2, 1, 1, 3, 2, 0, 1, 2, 2),
        (0.29933410149292633, "start", 2, 2, 2, 3, 2, 0, 1, 2, 2),
        (0.5016233037183058, "depart", 2, 2, 2, 3, 2, 0, 0, 2, 0),
        (0.5330732463052328, "arrival", 1, 2, 8, 3, 3, 0, 0, 2, 0),
        (0.5817119599597659, "transfer", 1, 2, 4, 3, 2, 0, 1, 2, 2),
        (0.5817119599597659, "start", 2, 2, 4, 3, 2, 0, 1, 2, 2),
        (0.5817119599597659, "start", 1, 2, 5, 3, 2, 0, 1, 2, 2),
        (0.5828881209925451, "arrival", 1, 1, 9, 4, 2, 0, 1, 2, 2),
        (0.8485508694254973, "arrival", 1, 2, 10, 4, 3, 0, 1, 2, 2),
        (1.317163719683815, "depart", 2, 2, 4, 4, 3, 0, 0, 2, 0),
    ]

    @pytest.mark.parametrize("s,expected", [
        (ArrivalState(la=(1, 1, 0, 1), m=2), CLASS1),
        (ArrivalState(la=(1, 1, 1, 0), m=3, tagged_class=2), CLASS2),
    ], ids=["class1", "class2"])
    def test_rows(self, s, expected):
        out = []
        simulate_conditional(s, sym(2.22), SimConfig(replications=1, seed=57), trace=out)
        assert out == expected


@pytest.fixture(scope="module")
def estimate():
    cfg = SimConfig(seed=2, warmup_departures=2000, horizon_departures=150_000)
    return simulate_steady_state(sym(2.86), cfg)


class TestSteadyState:

    def test_moderate_load_mean(self, estimate):
        assert estimate.mean == pytest.approx(2.33, rel=0.05)

    def test_exact_total_benchmark(self, estimate):
        # station 1's count process is M/M/1 for any work-conserving order
        # of service, so its output is Poisson (Burke) and both stations
        # carry exact M/M/1 workloads; Brumelle's formula plus class
        # symmetry then pins each station's mean system time to tau/(1-rho)
        exact = 2 * ((1 / 2.86) / (1 - 2 / 2.86))
        assert abs(estimate.mean - exact) < 4 * estimate.stderr

    def test_littles_law(self, estimate):
        assert estimate.time_avg_in_system == pytest.approx(
            estimate.throughput_mean_system_time, rel=0.03
        )

    def test_reproducible(self):
        cfg = SimConfig(seed=5, warmup_departures=500, horizon_departures=20_000)
        a = simulate_steady_state(sym(2.86), cfg)
        b = simulate_steady_state(sym(2.86), cfg)
        assert a == b

    def test_logs_one_record(self, caplog):
        p, cfg = sym(2.86), SimConfig(seed=5, warmup_departures=500, horizon_departures=2000)
        with caplog.at_level(logging.DEBUG, logger="tandempoll"):
            est = simulate_steady_state(p, cfg, measured_class=2)
        records = [r for r in caplog.records if r.name.startswith("tandempoll")]
        assert [(r.name, r.levelno) for r in records] == [("tandempoll.simulator", logging.DEBUG)]
        # the loop counts its own steps; a replay one step at a time on the
        # same draws (rates already in [8, 16)) takes as many
        net = simulator._Polling(p, next(simulator._rngs(5, 0)).__next__)
        net.schedule_arrivals()
        steps = departures = 0
        while departures < 2500:
            departures += net.step() is not None
            steps += 1
        assert records[0].args == (5, steps, 500, est.n, 2)
        assert "kept=%d measured class=2" % est.n in records[0].getMessage()


class TestSettingsRejected:
    @pytest.mark.parametrize("kwargs", [
        dict(replications=0),
        dict(warmup_departures=-1),
        dict(horizon_departures=10, warmup_departures=10),
        dict(horizon_departures=0),
        dict(replications=True),
        dict(replications=1.5),
        dict(replications="8"),
        dict(horizon_departures=19),  # fewer departures than the 20 batch means
        dict(seed=-1),
    ])
    def test_config(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_integral_counts_become_ints(self):
        cfg = SimConfig(replications=800.0, seed=np.int64(3))
        assert (cfg.replications, cfg.seed) == (800, 3)
        assert type(cfg.replications) is int and type(cfg.seed) is int

    def test_integral_fraction_becomes_int(self):
        cfg = SimConfig(replications=Fraction(4))
        assert cfg.replications == 4 and type(cfg.replications) is int

    def test_count_beyond_the_float_range(self):
        with pytest.raises(ValueError, match="replications must be a non-negative integer"):
            SimConfig(replications=Fraction(10**400))

    def test_too_few_kept_departures(self):
        # 40 departures of both classes leave class 1 only 17 for 20 batches
        p = validate_params(SystemParams(lam=(1.0, 1.0), mu=((2.22, 2.22), (2.22, 2.5))))
        cfg = SimConfig(warmup_departures=3, horizon_departures=40, seed=7)
        with pytest.raises(ValueError, match="class 1 kept 17 departures, fewer than batches = 20"):
            simulate_steady_state(p, cfg, measured_class=1)

    def test_integral_measured_class(self):
        cfg = SimConfig(seed=1, warmup_departures=10, horizon_departures=100)
        assert (simulate_steady_state(sym(2.86), cfg, measured_class=2.0)
                == simulate_steady_state(sym(2.86), cfg, measured_class=2))

    @pytest.mark.parametrize("measured_class", [0, 3, True, 1.5, "2"])
    def test_measured_class(self, measured_class):
        cfg = SimConfig(seed=1, warmup_departures=10, horizon_departures=100)
        with pytest.raises(ValueError, match="measured_class"):
            simulate_steady_state(sym(2.86), cfg, measured_class=measured_class)
