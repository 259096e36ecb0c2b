
import itertools
import math

import numpy as np
import pytest

from tandempoll import simulator
from tandempoll.errors import NonTermination, UnstableSystem
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

    def test_parallel_matches_serial(self):
        p = sym(2.22)
        s = ArrivalState(la=(1, 2, 2, 1), m=2)
        serial = simulate_conditional(s, p, SimConfig(replications=96, seed=7), n_jobs=1)
        parallel = simulate_conditional(s, p, SimConfig(replications=96, seed=7), n_jobs=2)
        assert serial == parallel

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
        assert repr(a) == ("SimEstimate(mean=2.113478224284256, stderr=0.12073775760034593, "
                           "n=100, seed=2024)")
        # one replication here takes 329 draws and reaches the third draw block
        b = simulate_conditional(ArrivalState(la=(20, 20, 20, 20), m=4, tagged_class=2), sym(2.22),
                                 SimConfig(replications=100, seed=2025))
        assert repr(b) == ("SimEstimate(mean=19.13093481947116, stderr=0.4269184751585436, "
                           "n=100, seed=2025)")

    def test_steady_state(self):
        cfg = SimConfig(seed=5, warmup_departures=500, horizon_departures=20_000)
        est = simulate_steady_state(sym(2.86), cfg, measured_class=2)
        assert repr(est) == (
            "SteadyStateEstimate(mean=2.338653443234456, stderr=0.08228611241174995, n=9987, "
            "seed=5, time_avg_in_system=4.6271215865608495, "
            "throughput_mean_system_time=4.6232793779403885)"
        )

    def test_deterministic(self):
        p = validate_params(SystemParams(lam=(1.0, 0.5), mu=((2.86, 2.22), (3.0, 4.0))))
        w = deterministic_wait(ArrivalState(la=(3, 2, 1, 2), m=3, tagged_class=2), p)
        assert repr(w) == "1.7004504504504503"


def test_exp_stream_matches_one_block():
    # numpy fills exponentials one at a time from the bit stream, so the
    # fixed blocks must reproduce a single draw of the same length
    drawn = list(itertools.islice(simulator._unit_draws(np.random.default_rng(123)), 20_000))
    assert drawn == np.random.default_rng(123).exponential(size=20_000).tolist()
    # the lockstep batch fills its buffer rows in place, in pieces
    rng = np.random.default_rng(123)
    out = np.empty(20_000)
    rng.standard_exponential(out=out[:128])
    rng.standard_exponential(out=out[128:])
    assert out.tolist() == drawn


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
    second copy of ``_Polling``'s rules; each replication must give the
    scalar engine's wait bit for bit."""

    @staticmethod
    def scalar(s, p, seed, reps):
        s, p = relabel_for_class2(s, validate_params(p))
        return np.array([
            simulator._tagged_sojourn(s, p, simulator._unit_draws(simulator._rep_rng(seed, rep)).__next__)
            for rep in reps
        ])

    @staticmethod
    def batch(s, p, seed, lo, hi):
        s, p = relabel_for_class2(s, validate_params(p))
        return simulator._conditional_batch((s, p, seed, lo, hi))

    @staticmethod
    def draws_taken(s, p, seed, rep):
        s, p = relabel_for_class2(s, validate_params(p))
        stream = simulator._unit_draws(simulator._rep_rng(seed, rep))
        count = 0

        def draw():
            nonlocal count
            count += 1
            return next(stream)

        simulator._tagged_sojourn(s, p, draw)
        return count

    @pytest.mark.parametrize("s,p", generated_cells(16, seed=2024))
    def test_generated_cells(self, s, p):
        assert np.array_equal(self.batch(s, p, 9, 0, 60), self.scalar(s, p, 9, range(60)))

    def test_rows_refill_their_draws(self):
        s, p = ArrivalState(la=(20, 20, 20, 20), m=4, tagged_class=2), sym(2.22)
        used = max(self.draws_taken(s, p, 2025, rep) for rep in range(10, 30))
        assert used > 2 * simulator._DRAW_BLOCK  # so some row refills twice
        assert np.array_equal(self.batch(s, p, 2025, 10, 30), self.scalar(s, p, 2025, range(10, 30)))

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_replications_cross_blocks(self, monkeypatch, n_jobs):
        monkeypatch.setattr(simulator, "_BATCH_ROWS", 7)
        s, p = ArrivalState(la=(2, 3, 1, 2), m=3, tagged_class=2), sym(2.22)
        est = simulate_conditional(s, p, SimConfig(replications=30, seed=11), n_jobs=n_jobs)
        waits = self.scalar(s, p, 11, range(30))
        assert (est.mean, est.stderr) == (float(waits.mean()), float(waits.std(ddof=1) / math.sqrt(30)))


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

    def test_write_trace(self, rows, tmp_path):
        path = tmp_path / "trace.txt"
        write_trace(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("time|kind|station")
        assert len(lines) == len(rows) + 1


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
