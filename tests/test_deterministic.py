import logging
import math
from fractions import Fraction as F

import pytest

from tandempoll import simulator
from tandempoll.simulator import deterministic_wait
from tandempoll.model import ArrivalState, SystemParams
from tandempoll.scenarios import analyze

from oracles import exact_timeline_wait

# The reference constant-rate comparison uses tau in {0.35, 0.45}; the
# service rates are printed as their 2-decimal reciprocals (2.86, 2.22).
TAU35 = SystemParams(lam=(1.0, 1.0), mu=((1 / 0.35, 1 / 0.35), (1 / 0.35, 1 / 0.35)))
TAU45 = SystemParams(lam=(1.0, 1.0), mu=((1 / 0.45, 1 / 0.45), (1 / 0.45, 1 / 0.45)))

GRID = [
    (1, 1, 1, 1), (3, 3, 3, 3), (6, 6, 6, 6),
    (1, 1, 3, 3), (1, 1, 6, 6), (3, 3, 1, 1),
    (6, 6, 1, 1), (3, 6, 3, 6), (6, 3, 6, 3),
]


class TestSpotValues:
    @pytest.mark.parametrize("m,ref", [(1, 1.05), (2, 1.40), (3, 1.75), (4, 1.75)])
    def test_unit_row_low_load(self, m, ref):
        assert deterministic_wait(ArrivalState(la=(1, 1, 1, 1), m=m), TAU35) == pytest.approx(
            ref, abs=1e-9
        )

    @pytest.mark.parametrize("m,ref", [(1, 1.35), (2, 1.80), (3, 2.25), (4, 2.25)])
    def test_unit_row_high_load(self, m, ref):
        assert deterministic_wait(ArrivalState(la=(1, 1, 1, 1), m=m), TAU45) == pytest.approx(
            ref, abs=1e-9
        )

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_empty_system(self, m):
        assert deterministic_wait(ArrivalState(la=(0, 0, 0, 0), m=m), TAU35) == pytest.approx(
            0.70, abs=1e-12
        )


class TestProperties:
    def test_deterministic_and_exact(self):
        s = ArrivalState(la=(3, 6, 3, 6), m=4)
        assert deterministic_wait(s, TAU35) == deterministic_wait(s, TAU35)

    def test_scale_covariance(self):
        c = 2.0
        scaled = SystemParams(
            lam=(c, c),
            mu=tuple(tuple(c * m for m in row) for row in TAU35.mu),
        )
        for la in GRID[:4]:
            for m in (1, 2, 3, 4):
                a = deterministic_wait(ArrivalState(la=la, m=m), TAU35)
                b = deterministic_wait(ArrivalState(la=la, m=m), scaled)
                assert b == pytest.approx(a / c, rel=1e-12)

    @pytest.mark.parametrize("k", [40, -40, 60, 400, -400])
    def test_power_of_two_scales(self, k):
        # the timeline once compared clocks within an absolute 1e-12 at the
        # caller's scale: at 2**40 it missed 18 of these 36 cells, and at
        # 2**60 it raised NonTermination
        for mu in (2.05, 2.22, 2.5, 2.86, 3.5):
            p = SystemParams(lam=(1.0, 1.0), mu=((mu, mu), (mu, mu)))
            scaled = SystemParams(lam=(2.0**k, 2.0**k), mu=((mu * 2.0**k, mu * 2.0**k),) * 2)
            for la in GRID:
                for m in (1, 2, 3, 4):
                    for c in (1, 2):
                        s = ArrivalState(la=la, m=m, tagged_class=c)
                        assert math.ldexp(deterministic_wait(s, scaled), k) == deterministic_wait(s, p), (mu, s)

    def test_on_service_time_lattice(self):
        # every event time is an integer number of arrivals plus services
        for la in GRID:
            for m in (1, 2, 3, 4):
                v = deterministic_wait(ArrivalState(la=la, m=m), TAU35)
                scaled = round(v * 100, 6)
                assert scaled == pytest.approx(round(scaled), abs=1e-6)
                assert round(scaled) % 5 == 0  # 100*(i + 0.35 j) is divisible by 5

    def test_variability_premium_vs_analytic(self):
        # stochastic conditional waits exceed the deterministic ones by a
        # margin in the low-tens of percent on average at moderate load
        mu = 2.86
        p = SystemParams(lam=(1.0, 1.0), mu=((mu, mu), (mu, mu)))
        rel = []
        for la in GRID:
            for m in (1, 2, 3, 4):
                det = deterministic_wait(ArrivalState(la=la, m=m), TAU35)
                stoch = analyze(ArrivalState(la=la, m=m), p).cond_wait
                rel.append((stoch - det) / det)
        avg = sum(rel) / len(rel)
        assert 0.11 <= avg <= 0.31
        assert sum(1 for r in rel if r > 0) > len(rel) / 2


def test_logs_one_record(caplog):
    s, p = ArrivalState(la=(3, 2, 1, 2), m=3), TAU35
    with caplog.at_level(logging.DEBUG, logger="tandempoll"):
        deterministic_wait(s, p)
    records = [r for r in caplog.records if r.name.startswith("tandempoll")]
    assert [(r.name, r.levelno) for r in records] == [("tandempoll.simulator", logging.DEBUG)]
    # the loop counts its own steps; a replay one step at a time to the
    # tagged customer's departure (rates already in [8, 16)) takes as many
    net = simulator._Polling(p, lambda: 1.0)
    tagged_id, out, steps = net.seed_snapshot(s), None, 0
    while out is None or out[0] != tagged_id:
        out = net.step()
        steps += 1
    assert records[0].args == (steps,) and steps > 10


class TestExactTimeline:
    """Long constant-clock timelines against exact rational event times.

    The float timeline schedules each arrival and service end by repeated
    addition and applies events within 1e-12 of each other together, so
    accumulated rounding could in principle move an event across that tie
    window and change the event order.  These rate sets put exact ties on
    the timeline (mu = 20/7 and 20/9 are tau = 0.35 and 0.45), and the
    snapshots need hundreds of events before the tagged customer leaves.
    """

    RATES = [
        ((F(1), F(1)), ((F(20, 7), F(20, 7)), (F(20, 7), F(20, 7)))),
        ((F(1), F(1)), ((F(20, 9), F(20, 9)), (F(20, 9), F(20, 9)))),
        ((F(1), F(1, 2)), ((F(3), F(5, 2)), (F(4), F(7, 2)))),
        ((F(3, 4), F(5, 4)), ((F(5, 2), F(20, 9)), (F(10, 3), F(20, 7)))),
    ]

    @pytest.mark.parametrize("lam,mu", RATES)
    def test_float_timeline_matches_exact(self, lam, mu):
        exact = SystemParams(lam=lam, mu=mu)
        p = SystemParams(lam=tuple(map(float, lam)), mu=tuple(tuple(map(float, row)) for row in mu))
        for la in [(60, 60, 60, 60), (100, 3, 100, 3), (30, 5, 30, 5)]:
            for m in (1, 2, 3, 4):
                for c in (1, 2):
                    s = ArrivalState(la=la, m=m, tagged_class=c)
                    assert deterministic_wait(s, p) == pytest.approx(exact_timeline_wait(s, exact), rel=1e-9), s
