"""Independent oracles the tests check the analytic code against.

Everything here is deliberately written from first principles (plain Monte
Carlo on the raw dynamics, exact rational enumeration, value iteration) and
shares no code with the package internals it validates.  Two exceptions
reuse the simulator's event rules on purpose: ``exact_timeline_wait``, which
checks the floating-point clock arithmetic, not the rules, and
``full_run_waits``, which checks the finish in expectation, not the rules.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain

import numpy as np
from scipy.linalg import solve_banded
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from tandempoll import simulator
from tandempoll.model import relabel_for_class2


def mm1_hitting_samples(L, lam, mu, n, seed):
    """Hitting times to 0 of an M/M/1 queue started at L, by direct walk.

    It steps only the live paths, in their original order, and drops each
    path as it finishes, as the race and drain-time samplers below do.
    """
    rng = np.random.default_rng(seed)
    total = lam + mu
    p_up = lam / total
    t = np.zeros(n)
    live = np.arange(n if L > 0 else 0)
    level = np.full(live.size, L, dtype=np.int64)
    clock = np.zeros(live.size)
    while live.size:
        k = live.size
        clock += rng.exponential(1.0 / total, size=k)
        level += np.where(rng.random(k) < p_up, 1, -1)
        done = level == 0
        t[live[done]] = clock[done]
        keep = ~done
        live, level, clock = live[keep], level[keep], clock[keep]
    return t


def tandem_drain_samples(u, w, mu1, mu2, n, seed):
    """Tagged system times in the no-arrival two-station drain.

    u customers ahead of the tagged one at station 1, w at station 2; the
    tagged customer leaves at station 2's (w + u + 1)-th completion.
    """
    rng = np.random.default_rng(seed)
    r1 = np.full(n, u + 1, dtype=np.int64)         # station-1 services left
    left2 = np.full(n, w + u + 1, dtype=np.int64)  # station-2 services left
    t = np.zeros(n)
    # every step completes one of the 2u + w + 2 services, so all paths
    # finish together
    for _ in range(2 * u + w + 2):
        q2 = left2 - r1  # station-2 queue: everyone not yet served there minus those still upstream
        s1 = (r1 > 0).astype(float)
        s2 = (q2 > 0).astype(float)
        rate = mu1 * s1 + mu2 * s2
        t += rng.exponential(1.0, size=n) / rate
        first1 = rng.random(n) * rate < mu1 * s1
        r1 -= first1.astype(np.int64)
        left2 -= (~first1).astype(np.int64)
    return t


def lattice_race_samples(u, w, lam, mu1, mu2, n, seed):
    """Paths of the station-fed tandem race from (u, w).

    Returns (station2_emptied_first: bool array, absorption times).
    """
    rng = np.random.default_rng(seed)
    rate = lam + mu1 + mu2
    t = np.zeros(n)
    r2_first = np.full(n, w == 0)
    live = np.arange(n if u > 0 and w > 0 else 0)
    i = np.full(live.size, u, dtype=np.int64)
    j = np.full(live.size, w, dtype=np.int64)
    clock = np.zeros(live.size)
    while live.size:
        k = live.size
        clock += rng.exponential(1.0 / rate, size=k)
        x = rng.random(k) * rate
        arr = x < lam
        srv1 = (~arr) & (x < lam + mu1)
        i += arr.astype(np.int64) - srv1.astype(np.int64)
        j += srv1.astype(np.int64) - ((~arr) & (~srv1)).astype(np.int64)
        done = (i == 0) | (j == 0)
        r2_first[live[done]] = j[done] == 0
        t[live[done]] = clock[done]
        keep = ~done
        live, i, j, clock = live[keep], i[keep], j[keep], clock[keep]
    return r2_first, t


def drain_time_samples(w, lam, mu1, mu2, n, seed):
    """Times until station 2 of the station-fed tandem first empties, from
    station 1 empty and w customers at station 2.

    Paths run on the raw dynamics (arrivals at lam, station-1 services at
    mu1 while it is busy, station-2 services at mu2) and pass freely
    through station 1 emptying; only station 2 emptying stops them.
    """
    rng = np.random.default_rng(seed)
    t = np.zeros(n)
    live = np.arange(n if w > 0 else 0)
    i = np.zeros(live.size, dtype=np.int64)
    j = np.full(live.size, w, dtype=np.int64)
    clock = np.zeros(live.size)
    while live.size:
        busy1 = i > 0
        rate = lam + mu2 + mu1 * busy1
        clock += rng.exponential(1.0, size=live.size) / rate
        x = rng.random(live.size) * rate
        arr = x < lam
        srv1 = busy1 & ~arr & (x < lam + mu1)
        srv2 = ~arr & ~srv1
        i += arr.astype(np.int64) - srv1.astype(np.int64)
        j += srv1.astype(np.int64) - srv2.astype(np.int64)
        done = j == 0
        t[live[done]] = clock[done]
        keep = ~done
        live, i, j, clock = live[keep], i[keep], j[keep], clock[keep]
    return t


def lattice_race_prob(u, lam, mu1, w, mu2):
    """P(w rate-mu2 phases complete before an M/M/1 queue from u empties),
    by solving the absorbing chain on (queue level i, phases left r):

        (lam+mu1+mu2) f(i,r) - lam f(i+1,r) - mu1 f(i-1,r) = mu2 f(i,r-1),
        f(0,r) = 0,  f(i,0) = 1,

    truncated at u + 500 levels, where arrivals are reflected."""
    n = u + 500
    total = lam + mu1 + mu2
    bands = np.zeros((3, n))  # levels 1..n, in solve_banded's layout
    bands[0, 1:] = -lam
    bands[1, :] = total
    bands[1, -1] = total - lam
    bands[2, :-1] = -mu1
    f = np.ones(n)
    for _ in range(w):
        f = solve_banded((1, 1), bands, mu2 * f)
    return float(f[u - 1])


def erlang_race_exact(u, mu1, w, mu2):
    """P(u rate-mu1 completions precede w rate-mu2 completions), by exact
    rational recursion over the completion orderings."""
    p = Fraction(mu1).limit_denominator(10**12) / (
        Fraction(mu1).limit_denominator(10**12) + Fraction(mu2).limit_denominator(10**12)
    )
    q = 1 - p

    @lru_cache(maxsize=None)
    def rec(a, b):
        if a == 0:
            return Fraction(1)
        if b == 0:
            return Fraction(0)
        return p * rec(a - 1, b) + q * rec(a, b - 1)

    return float(rec(u, w))


def transfer_count_exact(k_target, w, mu1, mu2):
    """Exact P(exactly k upstream services before the downstream queue,
    started at w and fed by them, hits 0), by rational state recursion."""
    p = Fraction(mu1).limit_denominator(10**12) / (
        Fraction(mu1).limit_denominator(10**12) + Fraction(mu2).limit_denominator(10**12)
    )
    q = 1 - p

    @lru_cache(maxsize=None)
    def rec(done, level):
        if level == 0:
            return Fraction(1) if done == k_target else Fraction(0)
        if done > k_target:
            return Fraction(0)
        return p * rec(done + 1, level + 1) + q * rec(done, level - 1)

    return float(rec(0, w))


def absorption_p2_value_iteration(u, w, lam, mu1, mu2, n_max, sweeps=60000, tol=1e-13):
    """First-step-analysis fixed point for P(station 2 empties first),
    iterated to convergence on the truncated box (overflow mass counts as
    neither class, matching the sentinel-overflow convention)."""
    total = lam + mu1 + mu2
    # p padded so that i = n_max + 1 (arrival overflow) and j = n_max + 1
    # (transfer overflow) read as zero, matching the sentinel convention.
    p = np.zeros((n_max + 2, n_max + 2))
    for _ in range(sweeps):
        inner = (
            lam * p[2:n_max + 2, 1:n_max + 1]
            + mu1 * np.vstack([np.zeros((1, n_max)), p[1:n_max, 2:n_max + 2]])
            + mu2 * np.hstack([np.ones((n_max, 1)), p[1:n_max + 1, 1:n_max]])
        ) / total
        delta = np.max(np.abs(inner - p[1:n_max + 1, 1:n_max + 1]))
        p[1:n_max + 1, 1:n_max + 1] = inner
        if delta < tol:
            break
    return float(p[u, w])


def lattice_reference(lam, mu1, mu2, n):
    """Every array of ``absorption.lattice_solution(lam, mu1, mu2, n)``,
    from the whole box's sparse generator and two LU factorisations.

    The box is 0 <= i <= n, 1 <= j <= n, state i * n + j - 1; the race
    chain is its i >= 1 block.  Returns a dict keyed by the
    ``LatticeSolution`` field names, in its by-start shapes.
    """
    s = np.arange((n + 1) * n)
    i, j = np.divmod(s, n)
    j += 1
    up, xfer, down = i < n, (i > 0) & (j < n), j > 1
    rows = np.concatenate([s, s[up], s[xfer], s[down]])
    cols = np.concatenate([s, s[up] + n, s[xfer] - n + 1, s[down] - 1])
    vals = np.concatenate([
        np.where(i > 0, lam + mu1 + mu2, lam + mu2),
        np.full(up.sum(), -lam),
        np.full(xfer.sum(), -mu1),
        np.full(down.sum(), -mu2),
    ])
    A = csc_matrix((vals, (rows, cols)), shape=(s.size, s.size))  # -G
    overflow = lam * ~up + mu1 * ((i > 0) & ~xfer)
    i, j = i[n:], j[n:]
    b1 = mu1 * (i == 1)
    b2 = mu2 * (j == 1)
    # a transfer from (1, n) reaches i = 0, which ends the race: not overflow
    b_ovf = overflow[n:] - b1 * (j == n)
    race = splu(A[n:, n:])
    p1, p2, p_ovf = race.solve(np.column_stack([b1, b2, b_ovf])).T
    psi2 = race.solve(p2)  # E[T 1{absorb in R2}]
    drain, drain_ovf = splu(A).solve(np.column_stack([np.ones(A.shape[0]), overflow])).T
    return {
        "p1": p1.reshape(n, n), "p2": p2.reshape(n, n),
        "time": np.concatenate([drain[:n], psi2 / p2]).reshape(n + 1, n),
        "overflow": np.concatenate([drain_ovf[:n], p_ovf]).reshape(n + 1, n),
    }


def exact_timeline_wait(s, p):
    """The deterministic timeline in exact rational arithmetic.

    ``p`` holds ``Fraction`` rates.  The simulator's event loop runs with
    unit draws from a ``Fraction(0)`` clock, so every event time is exact
    and two events tie only when their times are equal: no accumulated
    rounding can move an event across the simulator's tie window.  (The
    window itself is still added in floating point, ``t + 1e-12``, which
    keeps equal times together while ``t`` stays far below 1e3.)  Returns
    the tagged system time rounded once to a float.
    """
    s, p = relabel_for_class2(s, p)
    net = simulator._Polling(p, lambda: 1)
    net.t = Fraction(0)
    tagged_id = net.seed_snapshot(s)
    for _ in range(simulator._STEP_BUDGET):
        out = net.step()
        if out is not None and out[0] == tagged_id:
            assert type(net.t) is Fraction, "the timeline left its exact clock"
            return float(out[2])
    raise RuntimeError("tagged customer did not leave within the step budget")


def full_run_waits(s, p, seed, reps):
    """Tagged system times of replications 0 .. reps - 1 from snapshot ``s``
    (validated ``p``), each run on the scalar engine to the tagged customer's
    departure: the plain Monte Carlo estimator that ``simulate_conditional``
    replaced by finishing each replication in expectation.  Same draws
    (``rep_draws``), same rules, so the two differ only by that finish."""
    s, p = relabel_for_class2(s, p)
    nets = (simulator._Polling(p, rep_draws(seed, rep).__next__) for rep in range(reps))
    return np.array([simulator._run_tagged(net, net.seed_snapshot(s), simulator._STEP_BUDGET)[0] for net in nets])


def rep_rng(seed, rep):
    """Replication ``rep``'s Generator as numpy itself builds it: PCG64 seeded
    by ``SeedSequence(seed, spawn_key=(rep,))``.  The simulator's ``_rngs``
    builds the same stream; the tests hold the two equal."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))


@lru_cache(maxsize=4)
def _first_blocks(seed, rows):
    return np.random.default_rng(seed).standard_exponential((rows, simulator._DRAW_BLOCK))


def rep_draws(seed, rep):
    """Replication ``rep``'s unit-exponential draws in ``simulate_conditional``,
    as numpy gives them: row ``rep`` of the block of 128-draw rows that
    ``default_rng(seed)`` draws, then the stream of ``rep_rng(seed, rep)``
    from its first draw.  The block is drawn once per seed for the first
    1,024 replications (numpy fills it row after row, so a taller block has
    the same rows)."""
    block = _first_blocks(seed, max(1024, 1 << rep.bit_length()))[rep]
    return chain(block.tolist(), simulator._unit_draws(rep_rng(seed, rep)))
