from fractions import Fraction

import numpy as np
import pytest

from tandempoll.errors import NonPositiveRate, UnstableSystem
from tandempoll.model import (
    ArrivalState,
    SystemParams,
    TruncationConfig,
    relabel_for_class2,
    swap_class_labels,
    validate_params,
)
from tandempoll.scenarios import analyze
from tandempoll.simulator import SimConfig, deterministic_wait, simulate_conditional


def sym(mu):
    return SystemParams(lam=(1.0, 1.0), mu=((mu, mu), (mu, mu)))


class TestValidate:
    def test_accepts_moderate_load(self):
        p = validate_params(sym(2.86))
        assert p.rho_station(1) == pytest.approx(2 / 2.86)
        assert p.rho_station(2) == pytest.approx(2 / 2.86)

    def test_rejects_critical_load(self):
        with pytest.raises(UnstableSystem):
            validate_params(sym(2.0))

    def test_accepts_station_asymmetry(self):
        p = validate_params(SystemParams(lam=(1.0, 1.0), mu=((2.22, 2.86), (2.22, 2.86))))
        assert p.rho_station(1) == pytest.approx(2 / 2.22)
        assert p.rho_station(2) == pytest.approx(2 / 2.86)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_bad_rates(self, bad):
        with pytest.raises(NonPositiveRate):
            validate_params(SystemParams(lam=(1.0, bad), mu=((3.0, 3.0), (3.0, 3.0))))

    @pytest.mark.parametrize("bad", [10**400, Fraction(10**400, 3), Fraction(1, 10**400)],
                             ids=["huge-int", "huge-fraction", "tiny-fraction"])
    def test_rejects_rates_outside_the_float_range(self, bad):
        # every route computes with the rates as floats, where these are
        # infinite or zero
        with pytest.raises(NonPositiveRate, match="positive and finite"):
            validate_params(SystemParams(lam=(bad, 1.0), mu=((3.0, 3.0), (3.0, 3.0))))

    @pytest.mark.parametrize("bad", [10**400, -10**5000, Fraction(10**400, 3)],
                             ids=["401-digit", "5001-digit", "huge-fraction"])
    def test_long_values_echoed_short(self, bad):
        # str() of an int past 4,300 digits raises, so the echo names its size
        with pytest.raises(NonPositiveRate, match="positive and finite") as err:
            validate_params(SystemParams(lam=(bad, 1.0), mu=((3.0, 3.0), (3.0, 3.0))))
        assert len(str(err.value)) < 150

    def test_idempotent(self):
        p = sym(2.86)
        assert validate_params(validate_params(p)) == p

    @pytest.mark.parametrize("rate", [np.int64(1), np.float32(1.0)])
    def test_accepts_numpy_rates(self, rate):
        p = SystemParams(lam=(rate, 1.0), mu=((3.0, 3.0), (3.0, 3.0)))
        assert validate_params(p) == p

    def test_rejects_bool_rate(self):
        with pytest.raises(NonPositiveRate):
            validate_params(SystemParams(lam=(True, 1.0), mu=((3.0, 3.0), (3.0, 3.0))))

    @pytest.mark.parametrize("lam,mu", [
        ((1.0, 1.0), (2.0, 2.0)),
        ((1.0, 1.0), None),
        ((1.0, 1.0), ((3.0, 3.0),)),
        ((1.0, 1.0), ((3.0, 3.0, 3.0), (3.0, 3.0))),
        ((1.0,), ((3.0, 3.0), (3.0, 3.0))),
        (1.0, ((3.0, 3.0), (3.0, 3.0))),
    ])
    def test_rejects_wrong_shape(self, lam, mu):
        with pytest.raises(ValueError, match="expected 2 arrival rates and a 2x2 service rate matrix"):
            validate_params(SystemParams(lam=lam, mu=mu))

    def test_rates_become_python_floats(self):
        p = validate_params(SystemParams(lam=(np.float32(1.0), 1), mu=((3.0, np.float64(3.0)), (3, 3.0))))
        assert p == sym(3.0)
        assert all(type(r) is float for r in (*p.lam, *p.mu[0], *p.mu[1]))

    def test_float_rates_pass_through(self):
        p = sym(2.86)
        assert validate_params(p) is p


class TestRateTypes:
    # lam = 1 and mu = 2.86 everywhere, held in a numpy type, against the
    # Python floats of the same values
    @pytest.mark.parametrize("kind", [np.float32, np.float16])
    def test_routes_answer_as_the_floats_do(self, kind):
        s = ArrivalState(la=(3, 3, 3, 3), m=1)
        typed = SystemParams(lam=(kind(1.0), kind(1.0)), mu=((kind(2.86), kind(2.86)),) * 2)
        floats = sym(float(kind(2.86)))
        cfg = SimConfig(replications=50, seed=3)
        for route in (
            lambda p: analyze(s, p).cond_wait,
            lambda p: deterministic_wait(s, p),
            lambda p: simulate_conditional(s, p, cfg).mean,
        ):
            got = route(typed)
            assert type(got) is float
            assert got == route(floats)


class TestArrivalState:
    def test_scenario_encoding(self):
        assert ArrivalState(la=(0, 0, 0, 0), m=1).servers == (1, 1)
        assert ArrivalState(la=(0, 0, 0, 0), m=2).servers == (1, 2)
        assert ArrivalState(la=(0, 0, 0, 0), m=3).servers == (2, 1)
        assert ArrivalState(la=(0, 0, 0, 0), m=4).servers == (2, 2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ArrivalState(la=(1, 1, 1, 1), m=5)
        with pytest.raises(ValueError):
            ArrivalState(la=(1, -1, 1, 1), m=1)
        with pytest.raises(ValueError):
            ArrivalState(la=(1, 1, 1, 1), m=1, tagged_class=3)

    @pytest.mark.parametrize("count", [2, 2.0, np.int64(2), np.float64(2.0)])
    def test_integral_counts_become_ints(self, count):
        s = ArrivalState(la=(count, 1, 1, 1), m=1)
        assert s.la == (2, 1, 1, 1)
        assert all(type(x) is int for x in s.la)

    def test_integral_fraction_count_becomes_int(self):
        s = ArrivalState(la=(Fraction(4), 1, 1, 1), m=Fraction(2))
        assert (s.la, s.m) == ((4, 1, 1, 1), 2)
        assert type(s.la[0]) is int and type(s.m) is int

    def test_rejects_count_beyond_the_float_range(self):
        with pytest.raises(ValueError, match="la must be four non-negative integers"):
            ArrivalState(la=(Fraction(10**400), 0, 0, 0), m=1)

    @pytest.mark.parametrize("la", [
        (1.5, 1, 1, 1), (True, 1, 1, 1), ("1", 1, 1, 1), (float("inf"), 1, 1, 1),
        (float("nan"), 1, 1, 1), (1, 1, 1), 4,
    ])
    def test_rejects_non_integral_counts(self, la):
        with pytest.raises(ValueError):
            ArrivalState(la=la, m=1)

    @pytest.mark.parametrize("index", [2, 2.0, np.int64(2), np.float64(2.0)])
    def test_integral_indices_become_ints(self, index):
        s = ArrivalState(la=(1, 1, 1, 1), m=index, tagged_class=index)
        assert (s.m, s.tagged_class) == (2, 2)
        assert type(s.m) is int and type(s.tagged_class) is int

    @pytest.mark.parametrize("index", [True, 1.5, "2"])
    def test_rejects_non_integral_scenario(self, index):
        with pytest.raises(ValueError, match="scenario index"):
            ArrivalState(la=(1, 1, 1, 1), m=index)

    @pytest.mark.parametrize("index", [True, 1.5, "2"])
    def test_rejects_non_integral_tagged_class(self, index):
        with pytest.raises(ValueError, match="tagged_class"):
            ArrivalState(la=(1, 1, 1, 1), m=1, tagged_class=index)


class TestRelabel:
    def test_swaps_queues_and_scenario(self):
        s = ArrivalState(la=(1, 2, 3, 4), m=1, tagged_class=2)
        s2, _ = relabel_for_class2(s, sym(2.86))
        assert s2.la == (2, 1, 4, 3)
        assert s2.m == 4
        assert s2.tagged_class == 1

    def test_m2_maps_to_m3(self):
        s = ArrivalState(la=(0, 5, 0, 5), m=2, tagged_class=2)
        s2, _ = relabel_for_class2(s, sym(2.86))
        assert s2.la == (5, 0, 5, 0)
        assert s2.m == 3

    def test_symmetric_params_unchanged(self):
        _, p2 = relabel_for_class2(ArrivalState(la=(1, 1, 1, 1), m=1, tagged_class=2), sym(2.86))
        assert p2 == sym(2.86)

    def test_class1_passthrough(self):
        s = ArrivalState(la=(1, 2, 3, 4), m=2)
        assert relabel_for_class2(s, sym(2.86)) == (s, sym(2.86))

    def test_swap_is_involution(self):
        p = SystemParams(lam=(1.0, 0.5), mu=((2.86, 2.22), (3.0, 4.0)))
        for m in (1, 2, 3, 4):
            s = ArrivalState(la=(1, 2, 3, 4), m=m, tagged_class=2)
            assert swap_class_labels(*swap_class_labels(s, p)) == (s, p)


class TestTruncationConfig:
    def test_defaults_valid(self):
        TruncationConfig()

    @pytest.mark.parametrize("kwargs", [
        {"n_max": 5}, {"eps": 0.0}, {"eps": 1.0},
        {"n_max": "80"}, {"n_max": True}, {"n_max": 150.5}, {"eps": "0.1"}, {"eps": None},
    ])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            TruncationConfig(**kwargs)

    @pytest.mark.parametrize("eps", [Fraction(1, 10**400), Fraction(10**400)],
                             ids=["tiny-fraction", "huge-fraction"])
    def test_rejects_eps_outside_the_float_range(self, eps):
        # as floats these are 0.0 and out of range
        with pytest.raises(ValueError, match=r"eps must be a real number in \(0, 1\)"):
            TruncationConfig(eps=eps)

    @pytest.mark.parametrize("n_max", [150.0, np.int64(150)])
    def test_integral_n_max_becomes_int(self, n_max):
        assert TruncationConfig(n_max=n_max) == TruncationConfig(n_max=150)
        assert type(TruncationConfig(n_max=n_max).n_max) is int
