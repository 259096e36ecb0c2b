import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tandempoll.errors import TandemPollError
from tandempoll.simulator import SimConfig, deterministic_wait, simulate_conditional
from tandempoll.model import ArrivalState, SystemParams, TruncationConfig, validate_params
from tandempoll.primitives import transfer_count_pmf
from tandempoll.scenarios import analyze

GRID = [
    (1, 1, 1, 1), (3, 3, 3, 3), (6, 6, 6, 6),
    (1, 1, 3, 3), (1, 1, 6, 6), (3, 3, 1, 1),
    (6, 6, 1, 1), (3, 6, 3, 6), (6, 3, 6, 3),
]


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
    ])
    def test_answers(self, la, m, p):
        rep = analyze(ArrivalState(la=la, m=m), p)
        assert math.isfinite(rep.cond_wait) and rep.cond_wait > 0
        assert rep.residual_prob <= TruncationConfig().eps
        assert sum(o.prob for o in rep.outcomes) + rep.residual_prob == pytest.approx(1.0, abs=1e-9)

    def test_sixty_each_matches_timeline(self):
        s, p = ArrivalState(la=(60, 60, 60, 60), m=1), sym(2.86)
        assert analyze(s, p).cond_wait == pytest.approx(42.308, abs=5e-4)
        assert deterministic_wait(s, p) == pytest.approx(42.308, abs=5e-4)


class TestAnalyzePinned:
    """Results pinned as literals, so that a change to any step of the tree
    (a bound, a window, the order of a sum) fails here, not only against an
    oracle's tolerance."""

    @pytest.mark.parametrize("la,m,c,p,cond_wait,residual,leaves", [
        # stage C runs two repeating levels in each of these four
        ((6, 6, 6, 6), 1, 1, sym(2.22), "6.428152359668232", "2.56497125254653e-09", 6),
        ((6, 6, 6, 6), 2, 1, sym(2.22), "9.410175548854216", "5.106162535423134e-07", 5),
        ((6, 6, 6, 6), 3, 1, sym(2.22), "14.398370492191402", "5.85848525780264e-06", 11),
        ((6, 6, 6, 6), 4, 1, sym(2.22), "13.842468718160017", "0.0006001904089916067", 12),
        ((3, 6, 3, 6), 2, 2, sym(2.22), "10.018722133855922", "2.1669160104891605e-06", 11),
        ((0, 0, 0, 0), 4, 1, sym(2.86), "0.6993006993006994", "0.0", 1),
        ((12, 12, 12, 12), 1, 1,
         validate_params(SystemParams(lam=(0.72, 1.43), mu=((2.03, 1.67), (8.27, 3.30)))),
         "15.020467552346298", "1.85030011211929e-06", 6),
    ])
    def test_analyze(self, la, m, c, p, cond_wait, residual, leaves):
        rep = analyze(ArrivalState(la=la, m=m, tagged_class=c), p)
        assert (repr(rep.cond_wait), repr(rep.residual_prob), len(rep.outcomes)) == (cond_wait, residual, leaves)


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
    def _answer(route, p):
        """``route(p)``, checked to be a finite positive Python float, or the
        name of the ``TandemPollError`` it raised."""
        try:
            x = route(p)
        except TandemPollError as exc:
            return type(exc).__name__
        assert type(x) is float and math.isfinite(x) and x > 0, x
        return x

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
        s = ArrivalState(la=la, m=m, tagged_class=tagged_class)
        eps = TruncationConfig().eps

        def analytic(p):
            rep = analyze(s, p)
            assert rep.residual_prob <= eps
            assert sum(o.prob for o in rep.outcomes) + rep.residual_prob == pytest.approx(1.0, abs=1e-9)
            return rep.cond_wait

        cfg = SimConfig(replications=16, seed=1)
        for route in (analytic, lambda p: deterministic_wait(s, p), lambda p: simulate_conditional(s, p, cfg).mean):
            assert self._answer(route, typed) == self._answer(route, floats)
