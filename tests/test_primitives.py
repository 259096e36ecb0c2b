import math

import numpy as np
import pytest
from scipy import integrate, stats

from tandempoll.errors import InvalidSupport, UnstableQueue
from tandempoll.primitives import (
    drain_wait,
    hitting_mean,
    hitting_pdf,
    race_busy_period,
    race_erlang,
    transfer_count_pmf,
)

from oracles import (
    erlang_race_exact,
    lattice_race_prob,
    mm1_hitting_samples,
    tandem_drain_samples,
    transfer_count_exact,
)

RATE_PAIRS = [(2.86, 2.86), (2.22, 2.22), (2.22, 2.86), (2.86, 2.22)]


# ---------------------------------------------------------------------------
# hitting time (Result-1 style quantities)
# ---------------------------------------------------------------------------

class TestHittingTime:
    def test_mean_formula(self):
        assert hitting_mean(2, 1.0, 2.0) == pytest.approx(2.0)
        assert hitting_mean(0, 1.0, 2.0) == 0.0
        assert hitting_mean(3, 1.0, 2.22) == pytest.approx(3 / 1.22)

    def test_mean_unstable_rejected(self):
        with pytest.raises(UnstableQueue):
            hitting_mean(2, 2.0, 2.0)

    def test_mean_vs_monte_carlo(self):
        samples = mm1_hitting_samples(3, 1.0, 2.22, 200_000, seed=11)
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - hitting_mean(3, 1.0, 2.22)) < 3 * se

    @pytest.mark.parametrize("L", [1, 2, 5])
    @pytest.mark.parametrize("lam,mu", [(1.0, 2.22), (1.0, 2.86)])
    def test_pdf_mass_and_mean(self, L, lam, mu):
        hi = 60 * hitting_mean(max(L, 1), lam, mu) + 60.0
        mass, _ = integrate.quad(lambda t: hitting_pdf(L, lam, mu, t), 0, hi, limit=300)
        mean, _ = integrate.quad(lambda t: t * hitting_pdf(L, lam, mu, t), 0, hi, limit=300)
        assert mass == pytest.approx(1.0, abs=1e-6)
        assert mean == pytest.approx(hitting_mean(L, lam, mu), abs=1e-6)

    def test_pdf_matches_scaled_bessel(self):
        # independent special-function route for the same density
        from scipy.special import ive

        for t in (0.1, 0.5, 2.0, 10.0, 40.0):
            for L, lam, mu in [(1, 1.0, 2.0), (4, 1.0, 2.86)]:
                x = 2 * t * math.sqrt(lam * mu)
                ref = (L / t) * (mu / lam) ** (L / 2) * ive(L, x) * math.exp(x - (lam + mu) * t)
                assert hitting_pdf(L, lam, mu, t) == pytest.approx(ref, rel=1e-10)

    def test_pdf_vs_busy_period_histogram(self):
        samples = mm1_hitting_samples(1, 1.0, 2.0, 400_000, seed=5)
        lo, hi = 0.45, 0.55
        est = np.mean((samples >= lo) & (samples < hi)) / (hi - lo)
        ref = integrate.quad(lambda t: hitting_pdf(1, 1.0, 2.0, t), lo, hi)[0] / (hi - lo)
        assert est == pytest.approx(ref, rel=0.02)

    def test_pdf_rejects_empty_start(self):
        with pytest.raises(InvalidSupport):
            hitting_pdf(0, 1.0, 2.0, 1.0)


# ---------------------------------------------------------------------------
# transfer count (Result-4 style pmf)
# ---------------------------------------------------------------------------

class TestTransferCount:
    def test_first_completion_race(self):
        assert transfer_count_pmf(0, 1, 2.0, 2.0) == pytest.approx(0.5)

    def test_exact_enumeration_small(self):
        # frozen from the rational enumeration oracle: k=1, w=1, equal rates
        assert transfer_count_exact(1, 1, 2.0, 2.0) == pytest.approx(0.125)
        assert transfer_count_pmf(1, 1, 2.0, 2.0) == pytest.approx(0.125, abs=1e-12)

    @pytest.mark.parametrize("k,w", [(0, 2), (2, 1), (3, 2), (1, 4)])
    @pytest.mark.parametrize("mu1,mu2", [(2.22, 2.86), (2.86, 2.86)])
    def test_matches_exact_enumeration(self, k, w, mu1, mu2):
        assert transfer_count_pmf(k, w, mu1, mu2) == pytest.approx(
            transfer_count_exact(k, w, mu1, mu2), abs=1e-9
        )

    @pytest.mark.parametrize("w", [1, 3, 10])
    def test_normalisation_subcritical(self, w):
        # mu1 < mu2: terms decay geometrically (ratio -> 4pq < 1)
        mu1, mu2 = 2.22, 2.86
        total = sum(transfer_count_pmf(k, w, mu1, mu2) for k in range(4000))
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("w", [1, 2, 5, 10])
    def test_normalisation_critical_via_reflection(self, w):
        # equal rates: the tail is only O(k^-1/2), so close the sum with the
        # exact reflection-principle complement P(K >= k0).
        mu = 2.86
        k0 = 1500
        partial = sum(transfer_count_pmf(k, w, mu, mu) for k in range(k0))
        n = 2 * (k0 - 1) + w
        tail = 1.0 - stats.binom.cdf((n - w) // 2, n, 0.5) - stats.binom.cdf((n - w - 2) // 2, n, 0.5)
        assert partial + tail == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("w", [1, 4, 10])
    def test_total_mass_supercritical_is_ruin_probability(self, w):
        # mu1 > mu2: the feeding race can fail to end, and the total mass is
        # the gambler's-ruin value (q/p)^w < 1.  The complement is exactly
        # the mass the first-cycle event absorbs.
        mu1, mu2 = 2.86, 2.22
        p = mu1 / (mu1 + mu2)
        q = 1 - p
        total = sum(transfer_count_pmf(k, w, mu1, mu2) for k in range(8000))
        assert total == pytest.approx((q / p) ** w, abs=1e-10)

    def test_rejects_empty_downstream(self):
        with pytest.raises(InvalidSupport):
            transfer_count_pmf(0, 0, 2.0, 2.0)


# ---------------------------------------------------------------------------
# drain recursion (Result-5 style)
# ---------------------------------------------------------------------------

class TestDrainWait:
    def test_boundary_cases(self):
        # anchored values: one customer somewhere plus the tagged one
        assert drain_wait(0, 1, 1.0, 1.0) == pytest.approx(2.5)
        assert drain_wait(1, 0, 1.0, 1.0) == pytest.approx(3.5)
        assert drain_wait(0, 0, 1.0, 1.0) == pytest.approx(2.0)

    def test_empty_system_is_two_services(self):
        assert drain_wait(0, 0, 2.86, 2.22) == pytest.approx(1 / 2.86 + 1 / 2.22)

    @pytest.mark.parametrize("u,w", [(2, 2), (1, 3), (4, 0), (0, 4), (3, 2)])
    def test_vs_monte_carlo(self, u, w):
        mu1, mu2 = 2.86, 2.22
        samples = tandem_drain_samples(u, w, mu1, mu2, 200_000, seed=100 + u * 10 + w)
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - drain_wait(u, w, mu1, mu2)) < 3 * se

    def test_monotone_in_both_arguments(self):
        for u in range(4):
            for w in range(4):
                assert drain_wait(u + 1, w, 2.0, 3.0) > drain_wait(u, w, 2.0, 3.0)
                assert drain_wait(u, w + 1, 2.0, 3.0) > drain_wait(u, w, 2.0, 3.0)

    def test_cache_entry_depends_on_values_alone(self):
        # float32 rates and their floats are one cache key, so the entry a
        # float32 call leaves must be the float computation
        mu1, mu2 = np.float32(2.86), np.float32(2.22)
        drain_wait.cache_clear()
        drain_wait(3, 2, mu1, mu2)
        got = drain_wait(3, 2, float(mu1), float(mu2))
        assert type(got) is float
        assert got == drain_wait.__wrapped__(3, 2, float(mu1), float(mu2))


# ---------------------------------------------------------------------------
# Erlang race (Result-6 style)
# ---------------------------------------------------------------------------

class TestRaceErlang:
    def test_symmetric_single(self):
        assert race_erlang(1, 2.0, 1, 2.0) == pytest.approx(0.5)

    def test_degenerate_counts(self):
        assert race_erlang(0, 2.0, 3, 1.0) == 1.0
        assert race_erlang(3, 2.0, 0, 1.0) == 0.0

    @pytest.mark.parametrize("u,w", [(2, 3), (1, 1), (4, 2)])
    @pytest.mark.parametrize("mu1,mu2", [(2.22, 2.86), (2.86, 2.22)])
    def test_matches_exact_enumeration(self, u, w, mu1, mu2):
        assert race_erlang(u, mu1, w, mu2) == pytest.approx(
            erlang_race_exact(u, mu1, w, mu2), abs=1e-12
        )

    @pytest.mark.parametrize("mu1,mu2", RATE_PAIRS)
    def test_no_tie_complementarity(self, mu1, mu2):
        for u in range(1, 11):
            for w in range(1, 11):
                s = race_erlang(u, mu1, w, mu2) + race_erlang(w, mu2, u, mu1)
                assert s == pytest.approx(1.0, abs=1e-12)

    def test_matches_scipy_negative_binomial(self):
        u, w, mu1, mu2 = 3, 5, 2.22, 2.86
        q = mu2 / (mu1 + mu2)
        assert race_erlang(u, mu1, w, mu2) == pytest.approx(
            float(stats.nbinom.sf(u - 1, w, q)), abs=1e-12
        )


# ---------------------------------------------------------------------------
# busy-period race (Result-7 style)
# ---------------------------------------------------------------------------

class TestRaceBusyPeriod:
    def test_degenerate_counts(self):
        assert race_busy_period(2, 1.0, 2.86, 0, 2.22) == 1.0
        assert race_busy_period(0, 1.0, 2.86, 2, 2.22) == 0.0

    def test_no_arrival_limit_matches_erlang_race(self):
        for u, w in [(1, 1), (2, 3), (3, 2)]:
            lim = race_busy_period(u, 1e-9, 2.86, w, 2.22)
            ref = 1.0 - race_erlang(u, 2.86, w, 2.22)
            assert abs(lim - ref) < 1e-4

    @pytest.mark.parametrize("lam1,mu1,mu2", [
        (1.0, 2.86, 2.22), (1.0, 2.22, 2.86), (1.3, 1.6, 2.0), (1.8, 2.22, 0.9),
    ])
    def test_matches_lattice_solve(self, lam1, mu1, mu2):
        # class loads up to 0.81; (1, 1.3, 1.6, 5, 2.0) is the point where a
        # time-truncated integral loses 4e-4 of mass
        counts = (1, 2, 3, 5, 8, 12, 20)
        for u in counts:
            for w in counts:
                assert race_busy_period(u, lam1, mu1, w, mu2) == pytest.approx(
                    lattice_race_prob(u, lam1, mu1, w, mu2), abs=1e-12
                ), (u, w)

    def test_no_arrivals_is_exact_erlang_race(self):
        for u in (1, 2, 5, 12):
            for w in (1, 3, 8, 20):
                assert race_busy_period(u, 0.0, 2.86, w, 2.22) == pytest.approx(
                    1.0 - race_erlang(u, 2.86, w, 2.22), abs=1e-14
                )

    def test_vs_paired_monte_carlo(self):
        u, lam1, mu1, w, mu2 = 2, 1.0, 2.86, 2, 2.22
        n = 400_000
        g = mm1_hitting_samples(u, lam1, mu1, n, seed=21)
        h = np.random.default_rng(22).gamma(w, 1.0 / mu2, size=n)
        wins = (h < g).astype(float)
        se = wins.std(ddof=1) / math.sqrt(n)
        assert abs(wins.mean() - race_busy_period(u, lam1, mu1, w, mu2)) < 3 * se

    def test_reverse_direction_integral_is_complement(self):
        # integrate the hitting density against the Erlang pdf: the two
        # orderings must split the mass (ties have probability zero)
        u, lam1, mu1, w, mu2 = 2, 1.0, 2.22, 3, 2.86
        fwd = race_busy_period(u, lam1, mu1, w, mu2)

        def integrand(t):
            g_cdf = integrate.quad(lambda s: hitting_pdf(u, lam1, mu1, s), 0, t, limit=200)[0]
            pdf_h = mu2 * math.exp(
                (w - 1) * math.log(mu2 * t) - mu2 * t - math.lgamma(w)
            )
            return g_cdf * pdf_h

        rev, _ = integrate.quad(integrand, 0, 80.0, limit=200)
        assert fwd + rev == pytest.approx(1.0, abs=1e-5)


# ---------------------------------------------------------------------------
# scale covariance across primitives
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c", [2.0])
def test_scale_covariance(c):
    lam, mu1, mu2 = 1.0, 2.86, 2.22
    assert hitting_mean(3, c * lam, c * mu1) == pytest.approx(hitting_mean(3, lam, mu1) / c)
    assert drain_wait(2, 2, c * mu1, c * mu2) == pytest.approx(drain_wait(2, 2, mu1, mu2) / c)
    assert race_erlang(2, c * mu1, 3, c * mu2) == pytest.approx(race_erlang(2, mu1, 3, mu2), abs=1e-12)
    assert transfer_count_pmf(2, 3, c * mu1, c * mu2) == pytest.approx(
        transfer_count_pmf(2, 3, mu1, mu2), abs=1e-12
    )
    assert race_busy_period(2, c * lam, c * mu1, 2, c * mu2) == pytest.approx(
        race_busy_period(2, lam, mu1, 2, mu2), abs=1e-7
    )
    # density transforms as f_c(t) = c f(ct)
    for t in (0.3, 1.0, 3.0):
        assert hitting_pdf(2, c * lam, c * mu1, t) == pytest.approx(
            c * hitting_pdf(2, lam, mu1, c * t), rel=1e-9
        )
