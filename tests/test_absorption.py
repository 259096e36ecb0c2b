import logging
import math

import numpy as np
import pytest

from tandempoll import absorption
from tandempoll.absorption import absorption_probs, lattice_solution, mfpt_to_empty
from tandempoll.errors import SingularSystem, TruncationTooTight
from tandempoll.model import TruncationConfig

from oracles import (
    absorption_p2_value_iteration,
    drain_time_samples,
    lattice_race_samples,
    lattice_reference,
)

RATES = [(1.0, 2.86, 2.86), (1.0, 2.22, 2.22), (1.0, 2.22, 2.86), (1.0, 2.86, 2.22)]


def doubled_rung(u, w, lam, mu1, mu2):
    """The lattice at twice the size the ladder picks for the start (u, w)."""
    n = absorption._read_start(u, w, lam, mu1, mu2, TruncationConfig().n_max)[0]
    return lattice_solution(lam, mu1, mu2, 2 * n)


def clear_caches():
    absorption._read_start.cache_clear()
    lattice_solution.cache_clear()


class TestAbsorptionProbs:
    def test_boundary_starts(self):
        assert absorption_probs(3, 0, 1.0, 2.86, 2.22) == (0.0, 1.0)
        assert absorption_probs(0, 3, 1.0, 2.86, 2.22) == (1.0, 0.0)

    @pytest.mark.parametrize("lam,mu1,mu2", RATES)
    def test_complementary_by_construction(self, lam, mu1, mu2):
        p1, p2 = absorption_probs(2, 2, lam, mu1, mu2)
        assert p1 + p2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("lam,mu1,mu2", RATES)
    def test_independent_solve_consistent(self, lam, mu1, mu2):
        # the separately solved station-1 probability plus p2 plus the
        # overflow mass must exhaust the row of the fundamental matrix
        sol = lattice_solution(lam, mu1, mu2, 80)
        for u, w in [(1, 1), (2, 3), (3, 2)]:
            s = (u - 1, w - 1)
            assert sol.p1[s] + sol.p2[s] + sol.overflow[u, w - 1] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("u,w", [(1, 1), (2, 2), (3, 3), (1, 3), (3, 1)])
    def test_matches_first_step_value_iteration(self, u, w):
        lam, mu1, mu2 = 1.0, 2.86, 2.22
        trunc = TruncationConfig(n_max=30)
        _, p2 = absorption_probs(u, w, lam, mu1, mu2, trunc)
        ref = absorption_p2_value_iteration(u, w, lam, mu1, mu2, 30)
        assert p2 == pytest.approx(ref, abs=1e-9)

    def test_matches_monte_carlo(self):
        lam, mu1, mu2 = 1.0, 2.86, 2.22
        r2, _ = lattice_race_samples(2, 2, lam, mu1, mu2, 200_000, seed=9)
        se = r2.std(ddof=1) / math.sqrt(r2.size)
        _, p2 = absorption_probs(2, 2, lam, mu1, mu2)
        assert abs(r2.mean() - p2) < 3 * se

    def test_truncation_convergence(self):
        for lam, mu1, mu2 in RATES:
            for u, w in [(2, 2), (6, 6)]:
                _, a = absorption_probs(u, w, lam, mu1, mu2)
                big = doubled_rung(u, w, lam, mu1, mu2)
                assert abs(a - big.p2[u - 1, w - 1]) < 1e-6

    def test_headroom_guard(self):
        with pytest.raises(TruncationTooTight):
            absorption_probs(30, 30, 1.0, 2.86, 2.22, TruncationConfig(n_max=40))


class TestLevelElimination:
    """The level-by-level elimination against the whole box's sparse LU."""

    @pytest.mark.parametrize("n", [10, 20, 40, 80])
    @pytest.mark.parametrize("lam,mu1,mu2", [
        (1.0, 2.86, 2.86), (1.0, 2.86, 1.2), (0.72, 2.03, 1.67), (1.43, 8.27, 3.30),
    ])
    def test_matches_sparse_reference(self, lam, mu1, mu2, n):
        sol = lattice_solution(lam, mu1, mu2, n)
        ref = lattice_reference(lam, mu1, mu2, n)
        for name in ("p1", "p2", "time"):
            np.testing.assert_allclose(getattr(sol, name), ref[name], rtol=1e-12, atol=0, err_msg=name)
        np.testing.assert_allclose(sol.overflow, ref["overflow"], rtol=0, atol=1e-14, err_msg="overflow")


class TestMfpt:
    def test_already_at_target(self):
        assert mfpt_to_empty(3, 0, 1.0, 2.86, 2.22) == 0.0

    def test_pure_drain_without_arrivals(self):
        # station 1 empty and no arrivals: station 2 drains w jobs at mu2
        v = mfpt_to_empty(0, 4, 1e-12, 2.86, 2.22)
        assert v == pytest.approx(4 / 2.22, rel=1e-6)

    @pytest.mark.parametrize("lam,mu1,mu2", [(1.0, 2.86, 2.22), (1.3, 1.6, 2.0)])
    @pytest.mark.parametrize("w", [1, 3, 6])
    def test_drain_matches_monte_carlo(self, lam, mu1, mu2, w):
        t = drain_time_samples(w, lam, mu1, mu2, 100_000, seed=410 + w)
        se = t.std(ddof=1) / math.sqrt(t.size)
        assert abs(t.mean() - mfpt_to_empty(0, w, lam, mu1, mu2)) < 3 * se

    def test_drain_start_overflow_guard(self):
        # from (0, 10) a 20-box loses about 1e-3 of its mass through the
        # top, as does the interior start next to it
        trunc = TruncationConfig(n_max=20)
        with pytest.raises(TruncationTooTight, match=r"overflow mass [0-9.]+e-0[34] from \(0, 10\)"):
            mfpt_to_empty(0, 10, 1.3, 1.6, 2.0, trunc)
        with pytest.raises(TruncationTooTight, match=r"overflow mass [0-9.]+e-0[34] from \(1, 10\)"):
            mfpt_to_empty(1, 10, 1.3, 1.6, 2.0, trunc)

    def test_rates_lost_in_rounding_raise(self):
        # beside mu1 = 1e17 the arrival rate 1 is lost in the diagonal
        # lam + mu1 + mu2, and the tables come out with negative entries;
        # at mu1 = 1e16 they are sound: station 2 drains as an M/M/1(1, 3)
        with pytest.raises(SingularSystem, match=r"mu1=1e\+17, mu2=3\.0, n=20"):
            mfpt_to_empty(0, 2, 1.0, 1e17, 3.0)
        assert mfpt_to_empty(0, 2, 1.0, 1e16, 3.0) == pytest.approx(1.0, rel=1e-12)

    def test_drain_and_race_fail_alike(self):
        # neither start fits the 20-box, so each loses all of its mass
        trunc = TruncationConfig(n_max=20)
        with pytest.raises(TruncationTooTight) as drain:
            mfpt_to_empty(0, 21, 1.0, 2.86, 2.22, trunc)
        with pytest.raises(TruncationTooTight) as race:
            mfpt_to_empty(1, 21, 1.0, 2.86, 2.22, trunc)
        assert str(drain.value) == str(race.value).replace("(1, 21)", "(0, 21)")
        assert "overflow mass 1.000e+00 from (0, 21)" in str(drain.value)
        assert "at n_max = 20" in str(drain.value)

    @pytest.mark.parametrize("u,w", [(1, 1), (2, 2), (3, 1)])
    def test_matches_conditioned_monte_carlo(self, u, w):
        lam, mu1, mu2 = 1.0, 2.86, 2.22
        r2, t = lattice_race_samples(u, w, lam, mu1, mu2, 200_000, seed=31 + u + 10 * w)
        cond = t[r2]
        se = cond.std(ddof=1) / math.sqrt(cond.size)
        phi = mfpt_to_empty(u, w, lam, mu1, mu2)
        assert abs(cond.mean() - phi) < 3 * se

    def test_truncation_convergence(self):
        for lam, mu1, mu2 in RATES:
            a = mfpt_to_empty(3, 3, lam, mu1, mu2)
            big = doubled_rung(3, 3, lam, mu1, mu2)
            assert abs(a - big.time[3, 2]) < 1e-6

    def test_scale_covariance(self):
        c = 2.0
        base = mfpt_to_empty(2, 2, 1.0, 2.86, 2.22)
        scaled = mfpt_to_empty(2, 2, c * 1.0, c * 2.86, c * 2.22)
        assert scaled == pytest.approx(base / c, rel=1e-9)


class TestConvergedLevels:
    """Every level i >= 1 below the first two bit-equal inverses shares one
    inverse; the tables are those of an inverse per level.  Literals printed
    before that change, at (lam, mu1, mu2) = (1, 2.22, 2.22), whose
    elimination converges 115 levels below the top at n = 160 and 148 at 256."""

    RATES = (1.0, 2.22, 2.22)

    @pytest.mark.parametrize("n,u,w,p2,t,ovf", [
        (160, 0, 1, None, 0.5950843775136379, 7.012030720546145e-58),
        (160, 0, 100, None, 81.29535071217771, 7.202937973470922e-23),
        (160, 1, 1, 0.5299552401507791, 0.2741409757246726, 4.1678568968401925e-60),
        (160, 2, 150, 1.725792844356176e-17, 99.28675217967861, 1.1944058079173765e-05),
        (160, 80, 80, 0.0001331167987441243, 93.67825431883386, 9.378214095516524e-10),
        (160, 159, 1, 0.915212940384034, 4.118226642484964, 0.053765445190201634),
        (256, 0, 1, None, 0.5950843775136379, 3.110330780179923e-91),
        (256, 0, 100, None, 81.29535071217772, 2.5385731915106595e-56),
        (256, 1, 1, 0.5299552401507791, 0.2741409757246726, 1.150506925889915e-93),
        (256, 2, 150, 1.7257949907596034e-17, 99.28677353358093, 2.466462700460032e-40),
        (256, 80, 80, 0.00013311679874412457, 93.67825431883391, 7.550507093137926e-39),
        (256, 255, 1, 0.9217932432432107, 5.252389648073734, 0.05376544519020162),
    ])
    def test_tables_pinned(self, n, u, w, p2, t, ovf):
        sol = lattice_solution(*self.RATES, n)
        assert (sol.p2[u - 1, w - 1] if u else None, sol.time[u, w - 1], sol.overflow[u, w - 1]) == (p2, t, ovf)

    def test_build_keeps_fewer_inverses(self, caplog):
        lattice_solution.cache_clear()
        with caplog.at_level(logging.DEBUG, logger="tandempoll"):
            lattice_solution(*self.RATES, 160)
        [build] = [r for r in caplog.records if r.name.startswith("tandempoll")]
        assert build.args[3] == 160 and 1 < build.args[4] < 161


class TestLadder:
    RATES = (1.3, 1.6, 2.0)

    def test_answer_independent_of_cache_order(self):
        def ask(order):
            clear_caches()
            return {q: (absorption_probs(*q, *self.RATES), mfpt_to_empty(*q, *self.RATES))
                    for q in order}

        a, b = (2, 2), (1, 10)   # b needs a larger lattice than a
        assert ask([a, b]) == ask([b, a])

    def test_overflow_at_20_reads_40(self):
        lam, mu1, mu2 = 1.0, 2.86, 2.86
        tol = absorption._OVERFLOW_TOL
        small, big = lattice_solution(lam, mu1, mu2, 20), lattice_solution(lam, mu1, mu2, 40)
        assert small.overflow[3, 2] > tol >= big.overflow[3, 2]
        assert absorption_probs(3, 3, lam, mu1, mu2)[1] == big.p2[2, 2]
        assert mfpt_to_empty(3, 3, lam, mu1, mu2) == big.time[3, 2]

    def test_start_outside_cap_box_raises_without_build(self):
        clear_caches()
        misses = lattice_solution.cache_info().misses
        with pytest.raises(TruncationTooTight, match=r"mass 1\.000e\+00 from \(257, 1\) .* n_max = 256;"):
            absorption_probs(257, 1, *self.RATES)
        with pytest.raises(TruncationTooTight, match=r"mass 1\.000e\+00 from \(0, 31\) .* n_max = 30;"):
            mfpt_to_empty(0, 31, *self.RATES, TruncationConfig(n_max=30))
        assert lattice_solution.cache_info().misses == misses

    @staticmethod
    def spy_on_builds(monkeypatch):
        """The sizes of the lattices the ladder reads, in order, first time each."""
        clear_caches()
        tried = []

        def spy(lam, mu1, mu2, n):
            tried.append(n)
            return lattice_solution(lam, mu1, mu2, n)

        monkeypatch.setattr(absorption, "lattice_solution", spy)
        return tried

    def test_tall_start_skips_boxes_that_cannot_hold_it(self, monkeypatch):
        # (129, 1) fits no box below 160, and loses too much mass from 160
        tried = self.spy_on_builds(monkeypatch)
        p1, p2 = absorption_probs(129, 1, *self.RATES)
        assert list(dict.fromkeys(tried)) == [160, 256]
        assert p2 == pytest.approx(0.9999865, abs=1e-7) and p1 + p2 == 1.0
        assert mfpt_to_empty(129, 1, *self.RATES) == pytest.approx(2.4967, abs=1e-4)

    def test_drain_start_skips_the_first_rung(self, monkeypatch):
        tried = self.spy_on_builds(monkeypatch)
        t = mfpt_to_empty(0, 30, *self.RATES)
        assert 20 not in tried and tried[0] == 40
        assert t == lattice_solution(*self.RATES, tried[-1]).time[0, 29]

    @pytest.mark.parametrize("cap,sizes", [(30, [20, 30]), (60, [20, 40, 60])])
    def test_off_ladder_cap_is_last_size(self, monkeypatch, cap, sizes):
        # from (0, 10) the drain overflows every box below 60 (about 3e-8 at 40)
        tried = self.spy_on_builds(monkeypatch)
        trunc = TruncationConfig(n_max=cap)
        if cap == 60:
            assert mfpt_to_empty(0, 10, *self.RATES, trunc) == lattice_solution(*self.RATES, 60).time[0, 9]
        else:
            with pytest.raises(TruncationTooTight, match=rf"from \(0, 10\) exceeds .* at n_max = {cap}"):
                mfpt_to_empty(0, 10, *self.RATES, trunc)
        assert list(dict.fromkeys(tried)) == sizes   # the answer reads the last size again

    def test_cached_tables_are_read_only(self):
        before = absorption_probs(2, 2, *self.RATES), mfpt_to_empty(0, 2, *self.RATES)
        sol = lattice_solution(*self.RATES, absorption._read_start(2, 2, *self.RATES, TruncationConfig().n_max)[0])
        for name in ("p1", "p2", "time", "overflow"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(sol, name)[:] = 0.5
        assert (absorption_probs(2, 2, *self.RATES), mfpt_to_empty(0, 2, *self.RATES)) == before

    def test_build_logs_its_size(self, caplog):
        clear_caches()
        with caplog.at_level(logging.DEBUG, logger="tandempoll"):
            mfpt_to_empty(1, 10, *self.RATES)
            builds = [r for r in caplog.records if r.name.startswith("tandempoll")]
            mfpt_to_empty(1, 10, *self.RATES)   # cached: no record
            absorption_probs(1, 10, *self.RATES)
        assert [r.args[:4] for r in builds] == [(*self.RATES, n) for n in (20, 40, 80)]
        assert all(r.levelno == logging.DEBUG and r.args[5] > 0 for r in builds)
        # no pair of inverses converges this low: one inverse per level
        assert [r.args[4] for r in builds] == [21, 41, 81]
        assert "n=80 inverses=81" in builds[-1].getMessage()
        assert len([r for r in caplog.records if r.name.startswith("tandempoll")]) == 3
