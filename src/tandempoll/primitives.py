"""Closed-form and series-based probabilistic primitives.

These are the building blocks the scenario analysis is assembled from:

* the M/M/1 hitting time to zero (mean, and a density on scipy's scaled
  Bessel function),
* the number of upstream services completed before a downstream queue with
  replenishment first empties (a ballot pmf: one negative-binomial term),
* the tagged-customer drain time through two stations with no external
  arrivals (a two-index recursion),
* the race between two independent Erlang clocks (a sum of those terms),
* the race between an Erlang clock and an M/M/1 busy period (an exact
  series from the busy-period generating function).

Everything here is a pure function of its arguments.  Every primitive
the scenario tree calls is memoised in a bounded ``lru_cache`` keyed by
values (rates are converted to float first): ``race_erlang`` and
``transfer_count_pmf`` keep 1,024 entries, ``drain_wait`` and
``race_busy_period`` 4,096, and ``drain_wait`` also keeps its table of
the last four rate pairs.  One tree asks for at most a few hundred
entries of each, and a sweep over fresh rates never hits an older one,
so a larger memo would only hold memory.
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache

import numpy as np

from .errors import InvalidSupport, UnstableQueue

__all__ = [
    "hitting_mean",
    "hitting_pdf",
    "transfer_count_pmf",
    "drain_wait",
    "race_erlang",
    "race_busy_period",
]


def _unit_scale(*rates: float) -> tuple[float, list[float]]:
    """(c, the rates times c) for c = 2**-e, e the ``math.frexp`` exponent of
    the rates' sum: the scaled rates sum to [0.5, 1), so no product of two of
    them over- or underflows, and the scaling is exact (probabilities stay,
    times come out divided by c)."""
    c = math.ldexp(1.0, -math.frexp(sum(rates))[1])
    return c, [x * c for x in rates]


# ---------------------------------------------------------------------------
# M/M/1 hitting time to zero
# ---------------------------------------------------------------------------

def hitting_mean(L: int, lam: float, mu: float) -> float:
    """Mean time for an M/M/1 queue holding L customers to first empty.

    Equals L / (mu - lam); requires lam < mu for the hitting time to be
    proper.
    """
    if L < 0:
        raise InvalidSupport(f"queue length must be >= 0, got {L}")
    if lam >= mu:
        raise UnstableQueue(f"need lam < mu for a finite hitting time, got {lam} >= {mu}")
    return L / (mu - lam)


def hitting_pdf(L: int, lam: float, mu: float, t):
    """Density of the M/M/1 hitting time to zero from L customers.

    f(t) = (L/t) exp(-(lam+mu) t) (mu/lam)^{L/2} I_L(2 t sqrt(lam mu))
    evaluated in the log domain through scipy's exponentially scaled Bessel
    function, log I_L(x) = log ive(L, x) + x.  The exponent combines to
    -t (sqrt(mu) - sqrt(lam))^2, which decays, so the evaluation is stable
    at large t.  Accepts scalar or array t; the density is zero for t <= 0,
    and reads 0 where it falls below about 1e-200, where ive underflows.
    """
    from scipy.special import ive

    if L < 1:
        raise InvalidSupport(f"need L >= 1 for a non-degenerate hitting time, got {L}")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(t_arr)
    pos = t_arr > 0
    if np.any(pos):
        tp = t_arr[pos]
        x = 2.0 * tp * math.sqrt(lam * mu)
        with np.errstate(divide="ignore"):  # log 0 where ive underflows; the density reads 0
            log_f = (
                math.log(L)
                - np.log(tp)
                - (lam + mu) * tp
                + 0.5 * L * (math.log(mu) - math.log(lam))
                + np.log(ive(L, x)) + x
            )
        out[pos] = np.exp(log_f)
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(out[0])
    return out


# ---------------------------------------------------------------------------
# Transfer count before the downstream queue empties
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def transfer_count_pmf(k: int, w: int, mu1: float, mu2: float) -> float:
    """P(exactly k upstream services complete before the downstream queue,
    started at w and fed by those completions, first empties).

    With p = mu1/(mu1+mu2) and q = 1-p this is
    p^k q^{w+k} [C(2k+w-1, k) - C(2k+w-1, k-1)], a ballot-type count of the
    completion orderings in which the downstream queue stays busy, that is
    exp(``_nb_log_term``(k, k + w)) w/(k + w).  Derived for w >= 1;
    callers must treat an empty downstream queue as k = 0 for certain.
    Memoised (1,024 entries).
    """
    if w <= 0:
        raise InvalidSupport(f"the pmf is derived for w >= 1, got w = {w}")
    if k < 0:
        return 0.0
    mu1, mu2 = float(mu1), float(mu2)  # a cached value depends on values alone
    return math.exp(_nb_log_term(k, k + w, mu1, mu2) + math.log(w) - math.log(k + w))


# ---------------------------------------------------------------------------
# Tagged-customer drain through two stations (no external arrivals)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _drain_rows(mu1: float, mu2: float) -> list[array]:
    """The drain table of one rate pair: row u holds E[W(u, w)] for
    w = 0, 1, ..., as far as queries have needed it.  ``drain_wait`` grows
    the rows in place; the memo keeps the last four rate pairs."""
    return []


@lru_cache(maxsize=4096)
def drain_wait(u: int, w: int, mu1: float, mu2: float) -> float:
    """Expected time for a tagged customer queued behind u customers at
    station 1, with w customers at station 2, to leave the system.

    No external arrivals; completions at station 1 feed station 2.  With
    p = mu1/(mu1+mu2), q = 1-p the expectation satisfies

        E[W(u,0)] = 1/mu1 + E[W(u-1,1)]                      u > 0
        E[W(0,w)] = p (1/mu1 + (w+1)/mu2) + q E[W(0,w-1)]    w > 0
        E[W(u,w)] = p (1/mu1 + E[W(u-1,w+1)]) + q E[W(u,w-1)]

    anchored at E[W(0,0)] = 1/mu1 + 1/mu2 (the tagged customer's own two
    services, consistent with the displayed boundary cases).  Solved
    bottom-up, so no recursion depth issues.

    Row uu needs entries up to w + (u - uu): the (u-1, w+1) dependency
    walks one step down in u and one up in w.  The rows of one rate pair
    are kept (``_drain_rows``) and only extended, so a query costs the
    entries no earlier query of its rates has computed.  The first query
    with u + w = N computes and keeps about N**2 / 2 entries, 8 bytes
    each: 0.7 MB and about 20 ms at N = 400, 17 MB and about 0.5 s at
    N = 2,000, for each of the last four rate pairs.  Each entry is
    computed by the same expression from the same neighbours whatever the
    order of the queries, so the value never depends on what the tables
    already hold.
    """
    if u < 0 or w < 0:
        raise InvalidSupport(f"counts must be non-negative, got ({u}, {w})")
    mu1, mu2 = float(mu1), float(mu2)  # a cached value depends on values alone
    rows = _drain_rows(mu1, mu2)
    # Row uu is kept at least one entry longer than row uu + 1, so every
    # row below the highest one already long enough is long enough too.
    lo = min(u, len(rows) - 1)
    while lo >= 0 and len(rows[lo]) <= w + (u - lo):
        lo -= 1
    p = mu1 / (mu1 + mu2)
    q = 1.0 - p
    t1 = 1.0 / mu1
    t2 = 1.0 / mu2
    for uu in range(lo + 1, u + 1):
        if uu == len(rows):
            rows.append(array("d"))
        row = rows[uu]
        prev = rows[uu - 1] if uu else None
        for ww in range(len(row), w + (u - uu) + 1):
            if uu == 0 and ww == 0:
                row.append(t1 + t2)
            elif uu == 0:
                row.append(p * (t1 + (ww + 1) * t2) + q * row[ww - 1])
            elif ww == 0:
                row.append(t1 + prev[1])
            else:
                row.append(p * (t1 + prev[ww + 1]) + q * row[ww - 1])
    return rows[u][w]


# ---------------------------------------------------------------------------
# Erlang vs Erlang race
# ---------------------------------------------------------------------------

def _nb_log_term(r: int, s: int, mu1: float, mu2: float) -> float:
    """log[C(r + s - 1, r) p^r q^s], p = mu1/(mu1+mu2), q = 1-p, s >= 1: the
    log-chance that the s-th rate-mu2 completion comes after exactly r
    rate-mu1 ones.  A split that rounds to 0 or 1 is handled here: log 0 is
    -inf, and a zero count adds 0, never 0 * (-inf)."""
    p = mu1 / (mu1 + mu2)
    log_p = math.log(p) if p > 0.0 else -math.inf
    log_q = math.log(1.0 - p) if p < 1.0 else -math.inf
    log_pr = r * log_p if r else 0.0
    return log_pr + s * log_q + math.lgamma(r + s) - math.lgamma(r + 1) - math.lgamma(s)


@lru_cache(maxsize=1024)
def race_erlang(u: int, mu1: float, w: int, mu2: float) -> float:
    """P(u services at rate mu1 all finish before w services at rate mu2).

    The completion sequence is Bernoulli with success probability
    p = mu1/(mu1+mu2); the event is a negative-binomial tail
    P(Z >= u) with Z ~ NB(w; p), computed as one minus the finite
    complementary sum of ``_nb_log_term`` at (r, w), r < u.  Only rounding
    can take that sum of positive terms past 1; the result is floored at 0.
    Degenerate counts follow the convention that an empty Erlang clock
    rings at time zero: u = 0 gives 1.0, w = 0 gives 0.0.  Memoised
    (1,024 entries).
    """
    if u < 0 or w < 0:
        raise InvalidSupport(f"counts must be non-negative, got ({u}, {w})")
    if u == 0:
        return 1.0
    if w == 0:
        return 0.0
    mu1, mu2 = float(mu1), float(mu2)  # a cached value depends on values alone
    acc = 0.0
    for r in range(u):
        acc += math.exp(_nb_log_term(r, w, mu1, mu2))
    return max(0.0, 1.0 - acc)


# ---------------------------------------------------------------------------
# Erlang vs M/M/1 busy period race
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def race_busy_period(u: int, lam1: float, mu1: float, w: int, mu2: float) -> float:
    """P(an Erlang(w, mu2) clock rings before an M/M/1 queue with arrival
    rate lam1, service rate mu1 and u initial customers first empties).

    The hitting time from u is the sum of u independent busy periods, so
    the number of rate-mu2 ticks before it is the u-fold convolution of a,
    the tick count during one busy period.  Its generating function solves
    A = (mu1 + lam1 A^2 + mu2 x A) / s with s = lam1 + mu1 + mu2, whence,
    with r = sqrt(s^2 - 4 lam1 mu1) (on rates scaled by ``_unit_scale``;
    each a_k is a ratio of rates, so no rate magnitude is out of reach),

        a_0 = 2 mu1 / (s + r),
        a_k = (mu2 a_{k-1} + lam1 sum_{j=1}^{k-1} a_j a_{k-j}) / r.

    The clock wins iff at least w ticks occur, so the result is
    1 - sum_{k<w} (a^{*u})_k: a finite sum of positive terms, with no
    truncation of the time axis.  Degenerate counts: w = 0 wins instantly
    (returns 1.0) and u = 0 empties instantly (returns 0.0), with the
    w = 0 convention taking precedence.
    """
    if u < 0 or w < 0:
        raise InvalidSupport(f"counts must be non-negative, got ({u}, {w})")
    if w == 0:
        return 1.0
    if u == 0:
        return 0.0
    lam1, mu1, mu2 = float(lam1), float(mu1), float(mu2)  # a cached value depends on values alone
    hitting_mean(u, lam1, mu1)  # raises UnstableQueue unless lam1 < mu1
    _, (lam1, mu1, mu2) = _unit_scale(lam1, mu1, mu2)
    s = lam1 + mu1 + mu2
    r = math.sqrt(s * s - 4.0 * lam1 * mu1)
    a = np.empty(w)
    a[0] = 2.0 * mu1 / (s + r)
    for k in range(1, w):
        a[k] = (mu2 * a[k - 1] + lam1 * np.dot(a[1:k], a[k - 1:0:-1])) / r
    ticks = a
    for _ in range(u - 1):
        ticks = np.convolve(ticks, a)[:w]
    return min(1.0, max(0.0, 1.0 - float(ticks.sum())))
