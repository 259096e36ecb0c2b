import collections
import json
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tandempoll import absorption, primitives, reporting
from tandempoll.absorption import mfpt_to_empty
from tandempoll.errors import NonPositiveRate, SingularSystem, TandemPollError
from tandempoll.simulator import SimConfig, deterministic_wait, simulate_conditional, simulate_steady_state
from tandempoll.model import ArrivalState, SystemParams, TruncationConfig, swap_class_labels, validate_params
from tandempoll.primitives import transfer_count_pmf
from tandempoll.scenarios import analyze

GRID = [
    (1, 1, 1, 1), (3, 3, 3, 3), (6, 6, 6, 6),
    (1, 1, 3, 3), (1, 1, 6, 6), (3, 3, 1, 1),
    (6, 6, 1, 1), (3, 6, 3, 6), (6, 3, 6, 3),
]
# every memo the analytic route reads through
MEMOS = (
    primitives.race_erlang, primitives.transfer_count_pmf, primitives.drain_wait, primitives._drain_rows,
    primitives.race_busy_period, absorption._read_start, absorption.lattice_solution,
)


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def sym(mu):
    return validate_params(SystemParams(lam=(1.0, 1.0), mu=((mu, mu), (mu, mu))))


def asym(mu1, mu2):
    return validate_params(SystemParams(lam=(1.0, 1.0), mu=((mu1, mu2), (mu1, mu2))))


class TestEmptySystem:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_wait_is_two_own_services(self, m):
        p = sym(2.86)
        rep = analyze(ArrivalState(la=(0, 0, 0, 0), m=m), p)
        assert rep.cond_wait == pytest.approx(1 / 2.86 + 1 / 2.86, abs=1e-9)
        assert sum(o.prob for o in rep.outcomes) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_asymmetric_rates(self, m):
        p = asym(2.22, 2.86)
        rep = analyze(ArrivalState(la=(0, 0, 0, 0), m=m), p)
        assert rep.cond_wait == pytest.approx(1 / 2.22 + 1 / 2.86, abs=1e-9)


class TestMassConservation:
    @pytest.mark.parametrize("mu", [2.86, 2.22])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_leaves_plus_residual(self, mu, m):
        p = sym(mu)
        for la in GRID:
            rep = analyze(ArrivalState(la=la, m=m), p)
            total = sum(o.prob for o in rep.outcomes) + rep.residual_prob
            assert total == pytest.approx(1.0, abs=1e-9), (la, m)
            assert rep.residual_prob < TruncationConfig().eps

    def test_asymmetric_rates_too(self):
        for p in (asym(2.22, 2.86), asym(2.86, 2.22)):
            for la in GRID[:4]:
                for m in (1, 2, 3, 4):
                    rep = analyze(ArrivalState(la=la, m=m), p)
                    total = sum(o.prob for o in rep.outcomes) + rep.residual_prob
                    assert total == pytest.approx(1.0, abs=1e-9)


class TestLargeSnapshots:
    """Snapshots whose starts need more than an 80-box; the lattice grows to fit."""

    @pytest.mark.parametrize("la,m,p", [
        ((60, 60, 60, 60), 1, sym(2.86)),
        ((3, 45, 3, 45), 4, sym(2.86)),
        # a class-asymmetric point at station loads 0.53 and 0.86
        ((12, 12, 12, 12), 1, validate_params(SystemParams(lam=(0.72, 1.43), mu=((2.03, 1.67), (8.27, 3.30))))),
        # its lattice start (159, 2) loses too much mass from the 160 box: one n = 256 build
        ((60, 60, 60, 60), 1, sym(2.22)),
    ])
    def test_answers(self, la, m, p):
        rep = analyze(ArrivalState(la=la, m=m), p)
        assert math.isfinite(rep.cond_wait) and rep.cond_wait > 0
        assert rep.residual_prob <= TruncationConfig().eps
        assert sum(o.prob for o in rep.outcomes) + rep.residual_prob == pytest.approx(1.0, abs=1e-9)

    def test_tall_station_one_answers_quickly(self):
        # 401 drain_wait queries of one rate pair extend one kept table; a
        # fresh table per query took 1.8 s on a shared 2-core Xeon, cubic in
        # the height
        clear_memos()
        t0 = time.perf_counter()
        rep = analyze(ArrivalState(la=(400, 0, 1, 0), m=1), sym(2.22))
        assert time.perf_counter() - t0 < 0.5
        assert repr(rep.cond_wait) == "190.81842263199889"

    def test_sixty_each_matches_timeline(self):
        s, p = ArrivalState(la=(60, 60, 60, 60), m=1), sym(2.86)
        assert analyze(s, p).cond_wait == pytest.approx(42.308, abs=5e-4)
        assert deterministic_wait(s, p) == pytest.approx(42.308, abs=5e-4)


class TestAnalyzePinned:
    """Results pinned as literals, so that a change to any step of the tree
    (a bound, a window, the order of a sum) fails here, not only against an
    oracle's tolerance."""

    # ids are explicit, so that a case keeps its id when a literal is re-pinned
    @pytest.mark.parametrize("la,m,c,p,cond_wait,residual,leaves", [
        # stage C runs two repeating levels in each of these four
        pytest.param((6, 6, 6, 6), 1, 1, sym(2.22), "6.428152359668232", "2.564971252546525e-09", 6,
                     id="la0-1-1-p0-6.428152359668232-2.56497125254653e-09-6"),
        pytest.param((6, 6, 6, 6), 2, 1, sym(2.22), "9.410175548854216", "5.106162535423154e-07", 5,
                     id="la1-2-1-p1-9.410175548854216-5.106162535423134e-07-5"),
        pytest.param((6, 6, 6, 6), 3, 1, sym(2.22), "14.398370492191402", "5.858485257802654e-06", 11,
                     id="la2-3-1-p2-14.398370492191402-5.85848525780264e-06-11"),
        pytest.param((6, 6, 6, 6), 4, 1, sym(2.22), "13.842468718160017", "0.0006001904089916074", 12,
                     id="la3-4-1-p3-13.842468718160017-0.0006001904089916067-12"),
        pytest.param((3, 6, 3, 6), 2, 2, sym(2.22), "10.018722133855922", "2.1669160104891656e-06", 11,
                     id="la4-2-2-p4-10.018722133855922-2.1669160104891605e-06-11"),
        pytest.param((0, 0, 0, 0), 4, 1, sym(2.86), "0.6993006993006994", "0.0", 1,
                     id="la5-4-1-p5-0.6993006993006994-0.0-1"),
        pytest.param((12, 12, 12, 12), 1, 1,
                     validate_params(SystemParams(lam=(0.72, 1.43), mu=((2.03, 1.67), (8.27, 3.30)))),
                     "15.020467552346298", "1.8503001121192903e-06", 6,
                     id="la6-1-1-p6-15.020467552346298-1.85030011211929e-06-6"),
    ])
    def test_analyze(self, la, m, c, p, cond_wait, residual, leaves):
        rep = analyze(ArrivalState(la=la, m=m, tagged_class=c), p)
        assert (repr(rep.cond_wait), repr(rep.residual_prob), len(rep.outcomes)) == (cond_wait, residual, leaves)


class TestWarmMemos:
    def test_report_independent_of_memo_contents(self):
        # every cell from cleared memos, then every cell after other systems
        # (and a tall snapshot) have filled and evicted every memo
        p = asym(2.22, 2.86)
        cells = [ArrivalState(la=la, m=m, tagged_class=c) for la in GRID for m in (1, 2, 3, 4) for c in (1, 2)]
        cold = []
        for s in cells:
            clear_memos()
            cold.append(analyze(s, p))
        for other in (sym(2.86), sym(2.22), asym(2.86, 2.22), asym(2.22, 2.5), asym(2.5, 2.22)):
            analyze(ArrivalState(la=(60, 0, 2, 1), m=1), other)
            for s in cells:
                analyze(s, other)
        assert [analyze(s, p) for s in cells] == cold
        assert [analyze(s, p) for s in cells] == cold


class TestFirstCycleLeaf:
    def test_prob_is_transfer_tail(self):
        p = sym(2.86)
        la = (1, 1, 1, 1)
        outcomes = analyze(ArrivalState(la=la, m=1), p).outcomes
        ride = next(o for o in outcomes if o.label == "A≺B")
        tail = 1.0 - sum(transfer_count_pmf(k, la[2], 2.86, 2.86) for k in range(la[0] + 1))
        assert ride.prob == pytest.approx(tail, abs=1e-12)
        assert ride.wait == pytest.approx((la[0] + la[2] + 1) / 2.86, abs=1e-12)

    def test_zero_upstream_tail_with_empty_station2(self):
        # empty class-1 queue at station 2 forces an immediate switch there
        p = sym(2.86)
        outcomes = analyze(ArrivalState(la=(2, 1, 0, 1), m=1), p).outcomes
        assert all(o.label != "A≺B" or o.prob == 0 for o in outcomes)


class TestReferenceValues:
    # spot values from the symmetric-load study, generous band: the method
    # collapses event durations to unconditional means, so a one-to-one
    # match is not expected
    CASES_70 = [((1, 1, 1, 1), 1, 1.60), ((1, 1, 1, 1), 2, 1.76),
                ((1, 1, 1, 1), 3, 2.81), ((1, 1, 1, 1), 4, 2.91),
                ((1, 1, 6, 6), 2, 6.04), ((6, 6, 6, 6), 3, 11.37)]
    CASES_90 = [((6, 6, 6, 6), 3, 16.07), ((3, 3, 3, 3), 3, 8.73),
                ((6, 3, 6, 3), 4, 10.03)]

    @pytest.mark.parametrize("la,m,ref", CASES_70)
    def test_low_load(self, la, m, ref):
        rep = analyze(ArrivalState(la=la, m=m), sym(2.86))
        assert rep.cond_wait == pytest.approx(ref, rel=0.15)

    @pytest.mark.parametrize("la,m,ref", CASES_90)
    def test_high_load(self, la, m, ref):
        rep = analyze(ArrivalState(la=la, m=m), sym(2.22))
        assert rep.cond_wait == pytest.approx(ref, rel=0.15)


class TestProperties:
    def test_scale_covariance(self):
        c = 2.0
        base = sym(2.86)
        scaled = validate_params(SystemParams(
            lam=(c, c), mu=((c * 2.86, c * 2.86), (c * 2.86, c * 2.86))
        ))
        for la in [(1, 1, 1, 1), (3, 6, 3, 6), (6, 3, 6, 3)]:
            for m in (1, 2, 3, 4):
                a = analyze(ArrivalState(la=la, m=m), base)
                b = analyze(ArrivalState(la=la, m=m), scaled)
                assert b.cond_wait == pytest.approx(a.cond_wait / c, rel=1e-7), (la, m)
                for oa, ob in zip(a.outcomes, b.outcomes):
                    assert ob.prob == pytest.approx(oa.prob, abs=1e-9)

    def test_leaf_waits_exceed_own_services(self):
        for p in (sym(2.86), sym(2.22), asym(2.22, 2.86), asym(2.86, 2.22)):
            own = 1 / p.mu[0][0] + 1 / p.mu[0][1]
            for la in GRID:
                for m in (1, 2, 3, 4):
                    rep = analyze(ArrivalState(la=la, m=m), p)
                    for o in rep.outcomes:
                        assert o.wait >= own - 1e-9, (la, m, o.label)

    def test_class2_tagged_via_relabel(self):
        p = asym(2.22, 2.86)
        s = ArrivalState(la=(2, 1, 3, 1), m=2, tagged_class=2)
        rep = analyze(s, p)
        # hand-relabelled equivalent
        from tandempoll.model import swap_class_labels

        s1, p1 = swap_class_labels(s, p)
        ref = analyze(s1, p1)
        assert rep.cond_wait == pytest.approx(ref.cond_wait, abs=1e-12)

    @pytest.mark.parametrize("tagged_class", [1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_report_carries_callers_m(self, m, tagged_class):
        # a class-2 caller is analysed in the relabelled frame, where m is 5 - m
        s = ArrivalState(la=(1, 2, 3, 4), m=m, tagged_class=tagged_class)
        assert analyze(s, asym(2.22, 2.86)).m == s.m

    def test_monotone_in_station2_backlog(self):
        p = sym(2.86)
        w1 = analyze(ArrivalState(la=(1, 1, 1, 1), m=1), p).cond_wait
        w2 = analyze(ArrivalState(la=(1, 1, 3, 3), m=1), p).cond_wait
        w3 = analyze(ArrivalState(la=(1, 1, 6, 6), m=1), p).cond_wait
        assert w1 < w2 < w3

    def test_depth_limit_raises(self, monkeypatch):
        from tandempoll import scenarios
        from tandempoll.errors import ThresholdUnreached

        monkeypatch.setattr(scenarios, "_MAX_DEPTH", 1)
        with pytest.raises(ThresholdUnreached):
            analyze(ArrivalState(la=(6, 6, 6, 6), m=1), sym(2.22), TruncationConfig(eps=1e-12))


class TestFirstPrinciplesRecomputation:
    """Recompute the first scenario's leaf table by direct arithmetic.

    This spells out the event recipe leaf by leaf with its own rounding and
    truncated-Poisson helpers, so a plumbing regression in the tree builder
    (a wrong bound, window or argument) cannot hide inside the method's
    accuracy envelope.
    """

    @staticmethod
    def _half_up(x):
        import math
        return max(0, math.floor(x + 0.5))

    @staticmethod
    def _tpois_mean(mean, bound):
        import math
        if bound <= 0 or mean <= 0:
            return 0.0
        probs = [math.exp(-mean) * mean ** k / math.factorial(k) for k in range(bound + 1)]
        return sum(k * pk for k, pk in enumerate(probs)) / sum(probs)

    def test_leaves_match_direct_arithmetic(self):
        from tandempoll.absorption import absorption_probs, mfpt_to_empty
        from tandempoll.primitives import drain_wait, race_busy_period, race_erlang

        lam, mu = 1.0, 2.86
        tau = 1 / mu
        la = (2, 1, 1, 2)
        l11, l21, l12, l22 = la
        p = sym(mu)
        outcomes = analyze(ArrivalState(la=la, m=1), p).outcomes
        got = {o.label: o for o in outcomes}

        pmf = {k: transfer_count_pmf(k, l12, mu, mu) for k in range(l11 + 1)}
        ride = 1.0 - sum(pmf.values())
        assert got["A≺B"].prob == pytest.approx(ride, abs=1e-12)
        assert got["A≺B"].wait == pytest.approx((l11 + l12 + 1) * tau, abs=1e-12)

        acc = {lbl: [0.0, 0.0] for lbl in
               ("A′≺C≺D≺E1", "A′≺C′≺F1≺E2", "A′≺C′≺F′1≺G≺H")}
        for k, pk in pmf.items():
            t_a = (l12 + k) * tau
            u_ahead = l11 - k
            p_c = race_erlang(l22, mu, u_ahead + 1, mu)
            t_c = l22 * tau
            v1 = self._tpois_mean(mu * t_c, u_ahead)
            w_drain = t_a + t_c + drain_wait(
                u_ahead - self._half_up(v1), self._half_up(v1), mu, mu)
            acc["A′≺C≺D≺E1"][0] += pk * p_c
            acc["A′≺C≺D≺E1"][1] += pk * p_c * w_drain

            p_cp = 1.0 - p_c
            t_cp = (u_ahead + 1) * tau
            final = (u_ahead + 1) * tau
            elapsed = t_a + t_cp
            a1 = lam * elapsed
            v2 = self._tpois_mean(mu * t_cp, l22 - 1)
            b1 = l22 - v2
            p_f = race_busy_period(self._half_up(a1), lam, mu, self._half_up(b1), mu)
            acc["A′≺C′≺F1≺E2"][0] += pk * p_cp * p_f
            acc["A′≺C′≺F1≺E2"][1] += pk * p_cp * p_f * (elapsed + b1 * tau + final)

            t_fp = a1 / (mu - lam)
            v3 = self._tpois_mean(mu * (t_cp + t_fp), l22 - 1)
            b_g = self._half_up(l22 - v3)
            c_g = self._half_up(l21 + lam * (elapsed + t_fp))
            p_g = absorption_probs(c_g, b_g, lam, mu, mu)[1]
            phi = mfpt_to_empty(c_g, b_g, lam, mu, mu)
            w_h = elapsed + t_fp + phi + final
            acc["A′≺C′≺F′1≺G≺H"][0] += pk * p_cp * (1 - p_f) * p_g
            acc["A′≺C′≺F′1≺G≺H"][1] += pk * p_cp * (1 - p_f) * p_g * w_h

        for lbl, (prob, wsum) in acc.items():
            assert got[lbl].prob == pytest.approx(prob, abs=1e-12), lbl
            assert got[lbl].wait == pytest.approx(wsum / prob, abs=1e-10), lbl

    def test_m3_branch_masses(self):
        from tandempoll.primitives import race_busy_period

        lam, mu = 1.0, 2.22
        la = (2, 3, 2, 1)
        p = sym(mu)
        rep = analyze(ArrivalState(la=la, m=3), p)
        outcomes, residual = rep.outcomes, rep.residual_prob
        p_jp = race_busy_period(la[1], lam, mu, la[2], mu)
        mass_j = sum(o.prob for o in outcomes if o.label.startswith("J≺"))
        mass_jp = sum(o.prob for o in outcomes if o.label.startswith("J′≺K≺"))
        assert abs(mass_j - (1 - p_jp)) <= residual + 1e-12
        assert abs(mass_jp - p_jp) <= residual + 1e-12

    def test_m4_branch_masses(self):
        from tandempoll.absorption import absorption_probs

        lam, mu = 1.0, 2.86
        la = (1, 2, 3, 2)
        p = sym(mu)
        rep = analyze(ArrivalState(la=la, m=4), p)
        outcomes, residual = rep.outcomes, rep.residual_prob
        p1, p2 = absorption_probs(la[1], la[3], lam, mu, mu)
        mass_l = sum(o.prob for o in outcomes if o.label.startswith("L≺"))
        mass_lp = sum(o.prob for o in outcomes if o.label.startswith("L′≺"))
        assert abs(mass_l - p2) <= residual + 1e-12
        assert abs(mass_lp - p1) <= residual + 1e-12


def _one_rate_at(i, j, rate):
    """lam = (1, 1) and every service rate 3.0 except mu[i][j] = rate."""
    mu = [[3.0, 3.0], [3.0, 3.0]]
    mu[i][j] = rate
    return validate_params(SystemParams(lam=(1.0, 1.0), mu=tuple(map(tuple, mu))))


class TestExtremeRates:
    """One service rate far beyond the others: each answer is its limit's,
    or a ``TandemPollError``."""

    @pytest.mark.parametrize("i,j,tagged_class", [(0, 0, 1), (1, 1, 1), (1, 1, 2)])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_split_that_rounds_answers(self, i, j, tagged_class, m):
        # beside 1e20 a rate of 3.0 is lost, so a race's split rounds to 0 or 1
        rep = analyze(ArrivalState(la=(2, 2, 2, 2), m=m, tagged_class=tagged_class), _one_rate_at(i, j, 1e20))
        assert math.isfinite(rep.cond_wait) and rep.cond_wait > 0
        assert rep.residual_prob <= TruncationConfig().eps
        assert sum(o.prob for o in rep.outcomes) + rep.residual_prob == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_lattice_that_loses_lam_raises(self, m):
        # a class-2 customer's tree reads the lattice at mu1 = mu11 = 1e20,
        # beside which the arrival rate 1 is lost in rounding
        with pytest.raises(SingularSystem, match="mu1=1e\\+20"):
            analyze(ArrivalState(la=(2, 2, 2, 2), m=m, tagged_class=2), _one_rate_at(0, 0, 1e20))

    @pytest.mark.parametrize("i,j,tagged_class", [(0, 0, 1), (1, 0, 2)])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_busy_period_past_the_square_range(self, i, j, tagged_class, m):
        # the busy-period race's s * s overflows at 1e200, not at 1e100;
        # at both rates the answer has long reached its limit
        s = ArrivalState(la=(2, 2, 2, 2), m=m, tagged_class=tagged_class)
        near, far = (analyze(s, _one_rate_at(i, j, rate)).cond_wait for rate in (1e100, 1e200))
        assert far == pytest.approx(near, rel=1e-12)

    @pytest.mark.parametrize("mu", [
        ((1.5e308, 1.5e308), (3.0, 3.0)),
        ((1.5e308, 3.0), (1.5e308, 3.0)),
        ((1.5e308, 1.5e308), (1.5e308, 1.5e308)),
    ], ids=["class-1-pair", "station-1-pair", "all-four"])
    def test_rates_whose_sum_overflows_raise(self, mu, tmp_path, monkeypatch, capsys):
        # each rate is finite but two of them already sum to inf, where a
        # race's split would read 0 instead of 1/2: every route refuses
        p = SystemParams(lam=(1.0, 1.0), mu=mu)
        sim = SimConfig(replications=2, seed=1, warmup_departures=10, horizon_departures=100)
        routes = (
            analyze,
            deterministic_wait,
            lambda s, p: simulate_conditional(s, p, sim),
            lambda s, p: simulate_steady_state(p, sim),
        )
        for route in routes:
            for tagged_class in (1, 2):
                with pytest.raises(NonPositiveRate, match=r"sum to at most 1\.7976931348623157e\+308"):
                    route(ArrivalState(la=(2, 2, 2, 2), m=1, tagged_class=tagged_class), p)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "schema": reporting.SCHEMA, "rates": {"lambda": [1.0, 1.0], "mu": mu},
            "cases": [[1, 1, 1, 1]], "scenarios": [1], "modes": ["analytic", "deterministic"],
        }))
        monkeypatch.chdir(tmp_path)
        assert reporting.main([str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("polling-wait: ") and "sum to at most" in err and "Traceback" not in err


class TestSubnormalRates:
    """A subnormal rate has lost precision and 1 / 1e-310 is inf, so every
    route and the CLI refuse one, naming the bound, even a lone one beside
    ordinary rates."""

    @pytest.mark.parametrize("lam,mu", [
        ((1e-310, 1e-310), ((3e-310, 3e-310), (3e-310, 3e-310))),
        ((1e-310, 1.0), ((3.0, 3.0), (3.0, 3.0))),
    ], ids=["all-six", "lone-lam1"])
    def test_every_route_refuses(self, lam, mu, tmp_path, monkeypatch, capsys):
        p = SystemParams(lam=lam, mu=mu)
        sim = SimConfig(replications=2, seed=1, warmup_departures=10, horizon_departures=100)
        routes = (
            analyze,
            deterministic_wait,
            lambda s, p: simulate_conditional(s, p, sim),
            lambda s, p: simulate_steady_state(p, sim),
        )
        for route in routes:
            for tagged_class in (1, 2):
                with pytest.raises(NonPositiveRate, match=r"at least 2\.2250738585072014e-308"):
                    route(ArrivalState(la=(2, 2, 2, 2), m=1, tagged_class=tagged_class), p)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "schema": reporting.SCHEMA, "rates": {"lambda": lam, "mu": mu},
            "cases": [[1, 1, 1, 1]], "scenarios": [1], "modes": ["analytic", "deterministic"],
        }))
        monkeypatch.chdir(tmp_path)
        assert reporting.main([str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("polling-wait: ") and "at least 2.2250738585072014e-308" in err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestTinyRates:
    """lam = (s, s) and every mu = 3s.  A duration is a unit time below 64
    over a rate, so below s = 2**-1018 it could overflow: there every route
    refuses the rates, naming the bound, where analyze raised OverflowError,
    deterministic_wait returned inf and the simulations warned of overflow
    or raised untyped errors.  From 1e-306 every route answers as before."""

    sim = SimConfig(replications=200, seed=1, warmup_departures=10, horizon_departures=100)
    routes = {
        "analyze": lambda s, p: analyze(s, p).cond_wait,
        "deterministic": deterministic_wait,
        "conditional": lambda s, p: simulate_conditional(s, p, TestTinyRates.sim).mean,
        "steady": lambda s, p: simulate_steady_state(p, TestTinyRates.sim).mean,
    }

    @staticmethod
    def run(route, s):
        return TestTinyRates.routes[route](ArrivalState(la=(6, 6, 6, 6), m=3),
                                           SystemParams(lam=(s, s), mu=((3 * s, 3 * s),) * 2))

    @pytest.mark.parametrize("route", sorted(routes))
    @pytest.mark.parametrize("s", [3e-308, 1e-307, 3.56e-307])
    def test_refused_below_the_bound(self, route, s):
        with pytest.raises(NonPositiveRate, match=r"at least 2\.2250738585072014e-308 \* 16 = 3\.5601181736115222e-307"):
            self.run(route, s)

    def test_answers_above_the_bound(self):
        assert [repr(self.run(route, 1e-306)) for route in sorted(self.routes)] == [
            "9.992958115328147e+306", "9.389869569500183e+306", "8.999999999999995e+306", "2.1076474788879637e+306",
        ]
        assert repr(self.run("analyze", 3.6e-307)) == "2.7758216987022623e+307"

    def test_times_past_the_float_range_inside_the_tree(self):
        # at s = 2**-1018 a branch of (40, 40, 40, 40) m=1 waits 109 times
        # its unit-rate length, past 1.8e308, and the far corners of its
        # lattices do too; the cell's mean does not, and equals the s = 1
        # one scaled, as at 2**-1017
        cell = ArrivalState(la=(40, 40, 40, 40), m=1)
        for e in (1017, 1018):
            s = 2.0**-e
            answer = analyze(cell, SystemParams(lam=(s, s), mu=((3 * s, 3 * s),) * 2)).cond_wait
            assert answer == math.ldexp(27.0044643335251, e)

    def test_lattice_corners_past_the_float_range(self):
        # the drain time from (0, w) is about w / (2s): (0, 128) still
        # answers at s = 2**-1018, and (0, 130) refuses, typed
        s = 2.0**-1018
        assert mfpt_to_empty(0, 128, s, 3 * s, 3 * s) == pytest.approx(1.7906708960542109e308, rel=1e-12)
        with pytest.raises(NonPositiveRate, match=r"mean time to empty from \(0, 130\).* passes the largest float"):
            mfpt_to_empty(0, 130, s, 3 * s, 3 * s)

    def test_mean_past_the_float_range(self):
        # (30, 30, 30, 30) m=3 waits 73.4 at s = 1, past 64 = 1.8e308 * 2**-1018
        s = 2.0**-1018
        with pytest.raises(NonPositiveRate, match="mean wait passes the largest float"):
            analyze(ArrivalState(la=(30, 30, 30, 30), m=3), SystemParams(lam=(s, s), mu=((2.05 * s, 2.05 * s),) * 2))

    def test_steady_diagnostics_stay_finite(self):
        # the steady route runs these rates scaled into [0.5, 1): the mean is
        # the unscaled run's bit for bit, and the Little's-law diagnostics,
        # which read inf unscaled, are those of every other s
        est = simulate_steady_state(SystemParams(lam=(1e-306, 1e-306), mu=((3e-306, 3e-306),) * 2), self.sim)
        assert repr(est.mean) == "2.1076474788879637e+306"
        assert (repr(est.time_avg_in_system), repr(est.throughput_mean_system_time)) == (
            "4.023727121861487", "4.3750099137684435",
        )
        unit = simulate_steady_state(SystemParams(lam=(1.0, 1.0), mu=((3.0, 3.0),) * 2), self.sim)
        assert est.time_avg_in_system == pytest.approx(unit.time_avg_in_system, rel=1e-12)
        assert est.throughput_mean_system_time == pytest.approx(unit.throughput_mean_system_time, rel=1e-12)

    # the cell above: every simulator clock passes 1.8e308 before the tagged
    # customer leaves, where deterministic_wait returned inf, 50 lockstep
    # rows warned of overflow (or, warnings ignored, ran 10**6 steps to
    # NonTermination), 40 rows on the scalar engine did the latter, two
    # rows warned in the standard error and a trace raised TypeError
    past = {
        "deterministic": deterministic_wait,
        "lockstep": lambda s, p: simulate_conditional(s, p, SimConfig(replications=50, seed=1)),
        "scalar": lambda s, p: simulate_conditional(s, p, SimConfig(replications=40, seed=1)),
        "two_rows": lambda s, p: simulate_conditional(s, p, SimConfig(replications=2, seed=1)),
        "traced": lambda s, p: simulate_conditional(s, p, SimConfig(replications=2, seed=1), trace=[]),
    }

    @pytest.mark.parametrize("warn", ["error", "ignore"])
    @pytest.mark.parametrize("route", sorted(past))
    def test_simulators_past_the_float_range(self, route, warn):
        s = 2.0**-1018
        p = SystemParams(lam=(s, s), mu=((2.05 * s, 2.05 * s),) * 2)
        with warnings.catch_warnings():
            warnings.simplefilter(warn)
            with pytest.raises(NonPositiveRate, match=r"clock passed the largest float, 1\.8e308, before the tagged"):
                self.past[route](ArrivalState(la=(30, 30, 30, 30), m=3), p)

    # 5e-307 empties a queue at an infinite clock; 1e-306 runs on to the
    # last departure with an infinite clock
    @pytest.mark.parametrize("s", [5e-307, 1e-306])
    def test_steady_clock_past_the_float_range(self, s):
        p = SystemParams(lam=(s, s), mu=((3 * s, 3 * s),) * 2)
        with pytest.raises(NonPositiveRate, match=r"clock passed the largest float, 1\.8e308, before 2000 departures"):
            simulate_steady_state(p, SimConfig(seed=5, warmup_departures=0, horizon_departures=2000))


class TestRandomizedSweep:
    """Seeded random states and stable rates; structural invariants only."""

    def _random_setup(self, rng):
        while True:
            lam = (rng.uniform(0.2, 1.2), rng.uniform(0.2, 1.2))
            mu = tuple(tuple(rng.uniform(1.5, 4.0) for _ in range(2)) for _ in range(2))
            p = SystemParams(lam=lam, mu=mu)
            if p.rho_station(1) < 0.92 and p.rho_station(2) < 0.92:
                return validate_params(p)

    def test_invariants_hold(self):
        import random

        rng = random.Random(20240808)
        for _ in range(30):
            p = self._random_setup(rng)
            la = tuple(rng.randint(0, 5) for _ in range(4))
            m = rng.randint(1, 4)
            tc = rng.randint(1, 2)
            rep = analyze(ArrivalState(la=la, m=m, tagged_class=tc), p)
            total = sum(o.prob for o in rep.outcomes) + rep.residual_prob
            assert total == pytest.approx(1.0, abs=1e-9), (la, m, tc, p)
            assert rep.residual_prob < TruncationConfig().eps
            assert all(o.wait > 0 and 0 <= o.prob <= 1 for o in rep.outcomes)
            assert rep.cond_wait > 0

    @staticmethod
    def _answer(route, s, p):
        """``route(s, p)``, checked to be a finite positive Python float, or
        the name of the ``TandemPollError`` it raised."""
        try:
            x = route(s, p)
        except TandemPollError as exc:
            return type(exc).__name__
        assert type(x) is float and math.isfinite(x) and x > 0, x
        return x

    @staticmethod
    def _outcome(route, s, p):
        """``route(s, p)``, or the name of the ``TandemPollError`` it raised."""
        try:
            return route(s, p)
        except TandemPollError as exc:
            return type(exc).__name__

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        lam=st.tuples(st.floats(0.2, 1.5), st.floats(0.2, 1.5)),
        loads=st.tuples(st.floats(0.3, 0.9), st.floats(0.3, 0.9)),
        shares=st.tuples(st.floats(0.2, 0.8), st.floats(0.2, 0.8)),
        kind=st.sampled_from([float, np.float64, np.float32]),
        la=st.tuples(*[st.integers(0, 12)] * 4),
        m=st.integers(1, 4),
        tagged_class=st.sampled_from([1, 2]),
    )
    def test_generated_inputs(self, lam, loads, shares, kind, la, m, tagged_class):
        # station j carries load loads[j], a share shares[j] of it class 1's,
        # so every draw is stable; the rates come in the drawn type
        mu = [[lam[0] / (sh * rho), lam[1] / ((1.0 - sh) * rho)] for rho, sh in zip(loads, shares)]
        typed = SystemParams(lam=tuple(map(kind, lam)), mu=tuple(tuple(map(kind, col)) for col in zip(*mu)))
        floats = SystemParams(lam=tuple(map(float, typed.lam)), mu=tuple(tuple(map(float, r)) for r in typed.mu))
        doubled = SystemParams(
            lam=tuple(2 * x for x in floats.lam), mu=tuple(tuple(2 * x for x in r) for r in floats.mu)
        )
        s = ArrivalState(la=la, m=m, tagged_class=tagged_class)
        eps = TruncationConfig().eps

        def analytic(s, p):
            rep = analyze(s, p)
            assert rep.residual_prob <= eps
            assert sum(o.prob for o in rep.outcomes) + rep.residual_prob == pytest.approx(1.0, abs=1e-9)
            return rep.cond_wait

        cfg = SimConfig(replications=16, seed=1)
        for route in (analytic, deterministic_wait, lambda s, p: simulate_conditional(s, p, cfg).mean):
            answer = self._answer(route, s, floats)
            assert self._answer(route, s, typed) == answer
            # doubling every rate halves every time, and scaling by a power
            # of two is exact in IEEE arithmetic
            assert self._answer(route, s, doubled) == (answer / 2 if type(answer) is float else answer)
        # the empty snapshot leaves the tagged customer its own two services
        empty = ArrivalState(la=(0, 0, 0, 0), m=m, tagged_class=tagged_class)
        own = 1.0 / floats.mu[tagged_class - 1][0] + 1.0 / floats.mu[tagged_class - 1][1]
        for route in (analytic, deterministic_wait):
            assert route(empty, floats) == pytest.approx(own, rel=1e-12)
        # swapping the class labels everywhere poses the same question: every
        # route answers it bit for bit alike, the tree down to its leaves
        def leaves(s, p):
            rep = analyze(s, p)
            return rep.outcomes, rep.residual_prob, rep.cond_wait

        sim20 = SimConfig(replications=20, seed=7)
        swapped = swap_class_labels(s, floats)
        for route in (leaves, deterministic_wait, lambda s, p: simulate_conditional(s, p, sim20)):
            assert self._outcome(route, *swapped) == self._outcome(route, s, floats)

    @pytest.mark.parametrize("k", [400, -400, 520, -520, 540, -540, 600, -600, 1000, -1000])
    def test_common_scale(self, k):
        # every rate times 2**k divides every answer by 2**k bit for bit, as
        # doubling does: the solvers run on the rates scaled to a common
        # power of two, so that no product of two rates over- or underflows
        c = math.ldexp(1.0, k)
        base = validate_params(SystemParams(lam=(1.0, 0.8), mu=((2.86, 3.1), (2.22, 2.9))))
        scaled = validate_params(SystemParams(
            lam=tuple(c * x for x in base.lam), mu=tuple(tuple(c * x for x in r) for r in base.mu)
        ))
        for la in GRID:
            for m in (1, 2, 3, 4):
                for tagged_class in (1, 2):
                    s = ArrivalState(la=la, m=m, tagged_class=tagged_class)
                    assert analyze(s, scaled).cond_wait == analyze(s, base).cond_wait / c, (la, m, tagged_class)

    @pytest.mark.parametrize("i,j", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_extreme_rates(self, i, j):
        # mu[i][j] = 10^k beside three rates of 3.0: every route answers or
        # raises a TandemPollError, and for each (m, class) the analytic
        # answers that exist agree across k, all near the limit
        sim20 = SimConfig(replications=20, seed=3)
        routes = (deterministic_wait, lambda s, p: simulate_conditional(s, p, sim20).mean)
        answers = collections.defaultdict(list)
        for k in (12, 16, 17, 20, 100, 200):
            p = _one_rate_at(i, j, 10.0 ** k)
            for m in range(1, 5):
                for tagged_class in (1, 2):
                    s = ArrivalState(la=(2, 2, 2, 2), m=m, tagged_class=tagged_class)
                    for route in routes:
                        self._answer(route, s, p)
                    x = self._answer(lambda s, p: analyze(s, p).cond_wait, s, p)
                    if type(x) is float:
                        answers[m, tagged_class].append(x)
        for key, xs in answers.items():
            assert max(xs) - min(xs) <= 1e-9 * min(xs), (key, xs)
