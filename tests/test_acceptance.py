"""Acceptance suite: one test per exit criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.

Three criteria compare against external reference numbers that, per the
analysis summarised in the README (Known red criteria), cannot all be
reproduced by the system as specified: two independent implementations of
the exhaustive zero-switchover polling network agree with each other and
with hand-traceable deterministic timelines, but not with those reference
cells.  Those assertions are kept faithful to the stated criterion and
allowed to fail red rather than being loosened; the verdict line carries
the per-cell breakdown.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from tandempoll import absorption, simulator
from tandempoll.absorption import absorption_probs, lattice_solution, mfpt_to_empty
from tandempoll.simulator import deterministic_wait
from tandempoll.model import ArrivalState, SystemParams, TruncationConfig, validate_params
from tandempoll.primitives import (
    drain_wait,
    hitting_mean,
    hitting_pdf,
    race_busy_period,
    race_erlang,
    transfer_count_pmf,
)
from tandempoll.scenarios import analyze
from tandempoll.simulator import SimConfig, simulate_conditional, simulate_steady_state

from oracles import lattice_race_samples, tandem_drain_samples

GRID = [
    (1, 1, 1, 1), (3, 3, 3, 3), (6, 6, 6, 6),
    (1, 1, 3, 3), (1, 1, 6, 6), (3, 3, 1, 1),
    (6, 6, 1, 1), (3, 6, 3, 6), (6, 3, 6, 3),
]

# external reference values (analytic, simulation and constant-rate
# comparison tables and the long-run means beneath them)
REF_SIM = {
    2.86: {(1, 1, 1, 1): (1.48, 1.66, 2.93, 2.98), (3, 3, 3, 3): (3.27, 4.02, 6.26, 6.21),
           (6, 6, 6, 6): (5.36, 7.70, 11.53, 11.18), (1, 1, 3, 3): (2.19, 3.44, 3.74, 4.21),
           (1, 1, 6, 6): (2.91, 6.42, 4.36, 6.77), (3, 3, 1, 1): (2.40, 2.49, 5.21, 5.21),
           (6, 6, 1, 1): (3.65, 3.69, 8.22, 8.19), (3, 6, 3, 6): (4.46, 6.78, 9.78, 9.44),
           (6, 3, 6, 3): (4.96, 5.79, 7.71, 7.96)},
    2.22: {(1, 1, 1, 1): (1.94, 2.19, 4.15, 4.21), (3, 3, 3, 3): (4.22, 5.25, 8.89, 8.74),
           (6, 6, 6, 6): (7.08, 10.06, 17.02, 15.96), (1, 1, 3, 3): (2.83, 4.65, 5.36, 5.96),
           (1, 1, 6, 6): (3.82, 8.80, 6.28, 9.39), (3, 3, 1, 1): (3.10, 3.23, 7.36, 7.32),
           (6, 6, 1, 1): (4.62, 4.68, 11.68, 11.62), (3, 6, 3, 6): (5.95, 9.32, 14.42, 13.75),
           (6, 3, 6, 3): (6.40, 7.42, 10.95, 11.04)},
}
REF_STOCH_70 = {
    (1, 1, 1, 1): (1.60, 1.76, 2.81, 2.91), (3, 3, 3, 3): (3.07, 4.14, 6.13, 5.76),
    (6, 6, 6, 6): (5.01, 7.31, 11.37, 10.42), (1, 1, 3, 3): (2.20, 3.73, 3.46, 4.11),
    (1, 1, 6, 6): (2.94, 6.04, 4.11, 6.18), (3, 3, 1, 1): (2.37, 2.47, 4.73, 4.79),
    (6, 6, 1, 1): (3.54, 3.64, 7.58, 7.39), (3, 6, 3, 6): (4.05, 6.21, 8.93, 8.74),
    (6, 3, 6, 3): (4.79, 5.81, 7.38, 7.43),
}
REF_DET_70 = {
    (1, 1, 1, 1): (1.05, 1.40, 1.75, 1.75), (3, 3, 3, 3): (2.45, 3.50, 5.60, 4.90),
    (6, 6, 6, 6): (4.55, 6.65, 11.53, 9.45), (1, 1, 3, 3): (1.75, 3.50, 1.75, 3.50),
    (1, 1, 6, 6): (2.80, 5.95, 2.80, 5.95), (3, 3, 1, 1): (1.75, 2.10, 3.50, 3.50),
    (6, 6, 1, 1): (2.80, 3.15, 5.95, 5.95), (3, 6, 3, 6): (2.45, 8.40, 8.75, 8.40),
    (6, 3, 6, 3): (4.55, 5.60, 4.55, 7.00),
}
STEADY_TARGETS = [
    (((2.86, 2.86), (2.86, 2.86)), 2.33),
    (((2.22, 2.22), (2.22, 2.22)), 8.32),
    (((2.22, 2.86), (2.22, 2.86)), 5.32),
    (((2.86, 2.22), (2.86, 2.22)), 5.32),
]
LATTICE_RATES = [(1.0, 2.86, 2.86), (1.0, 2.22, 2.22), (1.0, 2.22, 2.86), (1.0, 2.86, 2.22)]


def sym(mu):
    return validate_params(SystemParams(lam=(1.0, 1.0), mu=((mu, mu), (mu, mu))))


def _verdict(n, ok, detail):
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def sim_grid_70():
    p = sym(2.86)
    cfg = SimConfig(replications=800, seed=271828)
    return {
        (la, m): simulate_conditional(ArrivalState(la=la, m=m), p, cfg)
        for la in GRID for m in (1, 2, 3, 4)
    }


@pytest.fixture(scope="module")
def sim_grid_90():
    p = sym(2.22)
    cfg = SimConfig(replications=800, seed=271828)
    return {
        (la, m): simulate_conditional(ArrivalState(la=la, m=m), p, cfg)
        for la in GRID for m in (1, 2, 3, 4)
    }


def test_criterion_1_primitive_oracles():
    problems = []

    # transfer-count normalisation, w <= 10, on rate pairs where the pmf is
    # a proper distribution (downstream at least as fast as upstream); the
    # equal-rate pairs need the exact reflection complement because the tail
    # decays like k^(-1/2)
    for mu1, mu2 in [(2.86, 2.86), (2.22, 2.22), (2.22, 2.86)]:
        for w in range(1, 11):
            if mu1 == mu2:
                k0 = 1500
                partial = sum(transfer_count_pmf(k, w, mu1, mu2) for k in range(k0))
                n = 2 * (k0 - 1) + w
                tail = (1.0 - stats.binom.cdf((n - w) // 2, n, 0.5)
                        - stats.binom.cdf((n - w - 2) // 2, n, 0.5))
                total = partial + tail
            else:
                total = sum(transfer_count_pmf(k, w, mu1, mu2) for k in range(4000))
            if abs(total - 1.0) > 1e-10:
                problems.append(f"pmf sum w={w} rates=({mu1},{mu2}): {total!r}")
    # the reversed asymmetric pair is defective by gambler's ruin; its total
    # mass is (q/p)^w and the missing mass is exactly the first-cycle event
    for w in (1, 5, 10):
        p_, q_ = 2.86 / 5.08, 2.22 / 5.08
        total = sum(transfer_count_pmf(k, w, 2.86, 2.22) for k in range(8000))
        if abs(total - (q_ / p_) ** w) > 1e-10:
            problems.append(f"defective-pair mass w={w}: {total!r}")

    # Erlang-race complementarity (continuous race, no ties)
    for mu1, mu2 in [(2.86, 2.86), (2.22, 2.22), (2.22, 2.86), (2.86, 2.22)]:
        for u in range(1, 11):
            for w in range(1, 11):
                s = race_erlang(u, mu1, w, mu2) + race_erlang(w, mu2, u, mu1)
                if abs(s - 1.0) > 1e-12:
                    problems.append(f"race complement u={u} w={w}: {s!r}")

    # hitting density: unit mass and the closed-form mean
    for L in range(1, 6):
        for lam, mu in [(1.0, 2.22), (1.0, 2.86)]:
            hi = 60 * hitting_mean(L, lam, mu) + 60.0
            mass = integrate.quad(lambda t: hitting_pdf(L, lam, mu, t), 0, hi, limit=300)[0]
            mean = integrate.quad(lambda t: t * hitting_pdf(L, lam, mu, t), 0, hi, limit=300)[0]
            if abs(mass - 1.0) > 1e-6:
                problems.append(f"pdf mass L={L} mu={mu}: {mass!r}")
            if abs(mean - hitting_mean(L, lam, mu)) > 1e-6:
                problems.append(f"pdf mean L={L} mu={mu}: {mean!r}")

    # busy-period race degenerates to the Erlang race without arrivals
    for u, w in [(1, 1), (2, 3), (3, 2), (4, 1)]:
        lim = race_busy_period(u, 1e-9, 2.86, w, 2.22)
        ref = 1.0 - race_erlang(u, 2.86, w, 2.22)
        if abs(lim - ref) > 1e-4:
            problems.append(f"race_busy limit u={u} w={w}: {lim} vs {ref}")

    # drain recursion against paired Monte Carlo
    for u in range(5):
        for w in range(5):
            samples = tandem_drain_samples(u, w, 2.86, 2.22, 1_000_000, seed=900 + 10 * u + w)
            se = samples.std(ddof=1) / math.sqrt(samples.size)
            if abs(samples.mean() - drain_wait(u, w, 2.86, 2.22)) > 3 * se:
                problems.append(f"drain ({u},{w}): mc {samples.mean():.5f} vs {drain_wait(u, w, 2.86, 2.22):.5f}")

    _verdict(1, not problems, problems or "pmf normalisation, race complement, "
             "density mass/mean, no-arrival limit, drain vs MC all within tolerance")


def test_criterion_2_markov_suite():
    problems = []
    trunc = TruncationConfig()

    for lam, mu1, mu2 in LATTICE_RATES:
        for u in range(1, 7):
            for w in range(1, 7):
                # the lattice the ladder picks for this start, and one twice its size
                n = absorption._read_start(u, w, lam, mu1, mu2, trunc.n_max)[0]
                sol, big = lattice_solution(lam, mu1, mu2, n), lattice_solution(lam, mu1, mu2, 2 * n)
                s = (u - 1, w - 1)
                gap = abs(sol.p1[s] + sol.p2[s] + sol.overflow[u, w - 1] - 1.0)
                if gap > 1e-10:
                    problems.append(f"row mass ({u},{w}) rates {mu1},{mu2}: off by {gap:.2e}")
                a = absorption_probs(u, w, lam, mu1, mu2, trunc)[1]
                f = mfpt_to_empty(u, w, lam, mu1, mu2, trunc)
                if abs(a - big.p2[s]) > 1e-6 or abs(f - big.time[u, w - 1]) > 1e-6:
                    problems.append(f"truncation drift at ({u},{w}) rates {mu1},{mu2}")

    seed = 5000
    for lam, mu1, mu2 in LATTICE_RATES:
        for u in range(1, 4):
            for w in range(1, 4):
                seed += 1
                r2, t = lattice_race_samples(u, w, lam, mu1, mu2, 1_000_000, seed=seed)
                p2_hat = r2.mean()
                p2_se = r2.std(ddof=1) / math.sqrt(r2.size)
                p2 = absorption_probs(u, w, lam, mu1, mu2, trunc)[1]
                if abs(p2_hat - p2) > 3 * p2_se:
                    problems.append(
                        f"absorption ({u},{w}) rates ({mu1},{mu2}): mc {p2_hat:.5f} vs {p2:.5f}"
                    )
                cond = t[r2]
                phi_hat = cond.mean()
                phi_se = cond.std(ddof=1) / math.sqrt(cond.size)
                phi = mfpt_to_empty(u, w, lam, mu1, mu2, trunc)
                if abs(phi_hat - phi) > 3 * phi_se:
                    problems.append(
                        f"mfpt ({u},{w}) rates ({mu1},{mu2}): mc {phi_hat:.5f} vs {phi:.5f}"
                    )

    _verdict(2, not problems, problems or "row masses exact, truncation converged, "
             "absorption and conditional first-passage times match conditioned MC (3 SE)")


def test_criterion_3_deterministic_block():
    # service rates printed as 2.86 denote a mean service time of exactly
    # 0.35 (load 0.70 at unit arrival rates)
    p = SystemParams(lam=(1.0, 1.0), mu=((1 / 0.35, 1 / 0.35), (1 / 0.35, 1 / 0.35)))
    mismatches = []
    for la in GRID:
        for m in (1, 2, 3, 4):
            v = deterministic_wait(ArrivalState(la=la, m=m), p)
            ref = REF_DET_70[la][m - 1]
            if abs(v - ref) > 1e-9:
                mismatches.append(f"{la} m={m}: timeline {v:.4f} vs table {ref}")
    detail = (f"{36 - len(mismatches)}/36 cells exact; mismatching cells "
              f"(reference-table inconsistency, see README): {mismatches}")
    _verdict(3, not mismatches, detail if mismatches else "all 36 cells exact at 1e-9")


def test_criterion_4_simulation_vs_reference(sim_grid_70, sim_grid_90):
    fails = []
    for mu, grid in [(2.86, sim_grid_70), (2.22, sim_grid_90)]:
        for la in GRID:
            for m in (1, 2, 3, 4):
                est = grid[(la, m)]
                ref = REF_SIM[mu][la][m - 1]
                tol = max(3 * est.stderr, 0.05 * ref)
                if abs(est.mean - ref) > tol:
                    fails.append(f"mu={mu} {la} m={m}: {est.mean:.2f} vs {ref}")
    detail = (f"{72 - len(fails)}/72 cells within max(3*stderr, 5%); "
              f"failing cells (reference-table inconsistency, see README): {fails}")
    _verdict(4, not fails, detail if fails else "all 72 cells reproduced")


def test_criterion_5_analytic_vs_simulation(sim_grid_70):
    p = sym(2.86)
    deltas = []
    band = []
    for la in GRID:
        for m in (1, 2, 3, 4):
            a = analyze(ArrivalState(la=la, m=m), p).cond_wait
            s = sim_grid_70[(la, m)].mean
            deltas.append(abs((s - a) / s) * 100.0)
            ref = REF_STOCH_70[la][m - 1]
            band.append(abs(a - ref) / ref * 100.0)
    avg = sum(deltas) / len(deltas)
    share = sum(1 for d in deltas if d < 10.0) / len(deltas)
    worst_band = max(band)
    ok = avg <= 8.0 and share >= 0.70 and worst_band <= 15.0
    _verdict(5, ok, f"avg delta {avg:.2f}% (<=8), share<10% {share:.0%} (>=70%), "
             f"worst reference-column deviation {worst_band:.1f}% (<=15%)")


def test_criterion_6_steady_state():
    # Exact benchmark for each setting: the head-count process at station 1
    # is M/M/1 under any work-conserving service order, so its output is
    # Poisson (Burke) and both stations carry exact M/M/1 workloads;
    # Brumelle's formula with class symmetry pins each station's mean
    # system time to tau/(1-rho).  The estimator must agree with that value
    # within Monte Carlo noise whatever the reference says.
    fails = []
    lines = []
    for mu, ref in STEADY_TARGETS:
        p = validate_params(SystemParams(lam=(1.0, 1.0), mu=mu))
        est = simulate_steady_state(p, SimConfig(seed=314159))
        exact = sum((1 / m) / (1 - 2 / m) for m in mu[0])
        assert abs(est.mean - exact) < 5 * est.stderr, (
            f"estimator off the exact benchmark at mu={mu[0]}: "
            f"{est.mean:.4f} vs {exact:.4f} (se {est.stderr:.4f})"
        )
        dev = abs(est.mean - ref) / ref
        lines.append(f"mu={mu[0]}: {est.mean:.3f} vs {ref} ({dev:.1%}; exact value {exact:.3f})")
        if dev > 0.05:
            fails.append(lines[-1])
    detail = ("; ".join(lines) + (" - failing settings sit 7-9% below the exactly "
              "computable totals, see README" if fails else ""))
    _verdict(6, not fails, detail)


def test_criterion_7_property_suite(monkeypatch):
    problems = []

    # scale covariance of the public operations (rates x2 -> times x0.5,
    # probabilities unchanged)
    c = 2.0
    if abs(hitting_mean(3, c, c * 2.86) - hitting_mean(3, 1.0, 2.86) / c) > 1e-12:
        problems.append("hitting_mean scale")
    if abs(drain_wait(2, 2, c * 2.86, c * 2.22) - drain_wait(2, 2, 2.86, 2.22) / c) > 1e-12:
        problems.append("drain_wait scale")
    if abs(race_erlang(2, c * 2.86, 3, c * 2.22) - race_erlang(2, 2.86, 3, 2.22)) > 1e-12:
        problems.append("race_erlang scale")
    if abs(race_busy_period(2, c, c * 2.86, 2, c * 2.22)
           - race_busy_period(2, 1.0, 2.86, 2, 2.22)) > 1e-7:
        problems.append("race_busy_period scale")
    if abs(mfpt_to_empty(2, 2, c, c * 2.86, c * 2.22)
           - mfpt_to_empty(2, 2, 1.0, 2.86, 2.22) / c) > 1e-9:
        problems.append("mfpt scale")
    base = sym(2.86)
    scaled = validate_params(SystemParams(
        lam=(c, c), mu=((c * 2.86, c * 2.86), (c * 2.86, c * 2.86))))
    for la, m in [((1, 1, 1, 1), 1), ((3, 6, 3, 6), 3), ((6, 3, 6, 3), 4)]:
        a = analyze(ArrivalState(la=la, m=m), base).cond_wait
        b = analyze(ArrivalState(la=la, m=m), scaled).cond_wait
        if abs(b - a / c) > 1e-7 * a:
            problems.append(f"analyze scale at {la} m={m}")
        da = deterministic_wait(ArrivalState(la=la, m=m), base)
        db = deterministic_wait(ArrivalState(la=la, m=m), scaled)
        if abs(db - da / c) > 1e-12:
            problems.append(f"deterministic scale at {la} m={m}")

    # empty-system wait equals the two own services, every scenario, all routes
    for m in (1, 2, 3, 4):
        s0 = ArrivalState(la=(0, 0, 0, 0), m=m)
        if abs(analyze(s0, base).cond_wait - 2 / 2.86) > 1e-9:
            problems.append(f"analytic empty-system m={m}")
        if abs(deterministic_wait(s0, base) - 2 / 2.86) > 1e-12:
            problems.append(f"deterministic empty-system m={m}")
        est = simulate_conditional(s0, base, SimConfig(replications=2000, seed=m))
        if abs(est.mean - 2 / 2.86) > 3 * est.stderr:
            problems.append(f"simulated empty-system m={m}")

    # leaf mass + residual on every grid cell at every parameter set
    eps = TruncationConfig().eps
    for mu_pair in [((2.86, 2.86), (2.86, 2.86)), ((2.22, 2.22), (2.22, 2.22)),
                    ((2.22, 2.86), (2.22, 2.86)), ((2.86, 2.22), (2.86, 2.22))]:
        p = validate_params(SystemParams(lam=(1.0, 1.0), mu=mu_pair))
        for la in GRID:
            for m in (1, 2, 3, 4):
                rep = analyze(ArrivalState(la=la, m=m), p)
                total = sum(o.prob for o in rep.outcomes) + rep.residual_prob
                if abs(total - 1.0) > 1e-9:
                    problems.append(f"mass {mu_pair[0]} {la} m={m}: {total!r}")
                if rep.residual_prob >= eps:
                    problems.append(f"residual {mu_pair[0]} {la} m={m}: {rep.residual_prob!r}")

    # simulator reproducibility: a replication's wait depends on (seed,
    # replication) alone, not on the batch that runs it
    s = ArrivalState(la=(2, 1, 1, 2), m=3)
    whole = simulator._conditional_batch(s, base, 7, 0, 96)
    split = np.concatenate([simulator._conditional_batch(s, base, 7, 0, 40),
                            simulator._conditional_batch(s, base, 7, 40, 96)])
    if not np.array_equal(whole, split):
        problems.append("batching mismatch")
    est = simulate_conditional(s, base, SimConfig(replications=96, seed=7))
    with monkeypatch.context() as patch:
        patch.setattr(simulator, "_BATCH_ROWS", 7)
        if est != simulate_conditional(s, base, SimConfig(replications=96, seed=7)):
            problems.append("batch-size mismatch")
    if est != simulate_conditional(s, base, SimConfig(replications=96, seed=7)):
        problems.append("rerun mismatch")

    _verdict(7, not problems, problems or "scale covariance, empty-system waits, "
             "tree mass, residuals and simulator reproducibility all hold")
