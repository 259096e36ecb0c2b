"""Closed-form and series-based probabilistic primitives.

These are the building blocks the scenario analysis is assembled from:

* the M/M/1 hitting time to zero (mean and Bessel-series density),
* the number of upstream services completed before a downstream queue with
  replenishment first empties (a ballot-type pmf),
* the tagged-customer drain time through two stations with no external
  arrivals (a two-index recursion),
* the race between two independent Erlang clocks (negative-binomial tail),
* the race between an Erlang clock and an M/M/1 busy period (an exact
  series from the busy-period generating function).

Everything here is a pure function of its arguments; results that are
expensive to evaluate are memoised.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import InvalidSupport, SeriesOverflow, UnstableQueue

__all__ = [
    "hitting_mean",
    "hitting_pdf",
    "transfer_count_pmf",
    "drain_wait",
    "race_erlang",
    "race_busy_period",
]


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


def _log_bessel_i(order: int, x: np.ndarray, series_tol: float) -> np.ndarray:
    """log I_order(x) by direct summation of the ascending series.

    Terms are accumulated in the log domain, so the sum stays finite for
    arguments far beyond the overflow point of the plain series.  The series
    has positive terms with a single peak near k ~ x/2, so summing to a fixed
    horizon past the peak bounds the relative tail below ``series_tol``.
    """
    x = np.asarray(x, dtype=float)
    xmax = float(np.max(x, initial=0.0))
    half = xmax / 2.0
    # Horizon: past the peak the term ratio is half^2 / ((k+1)(k+order+1)); a
    # generous buffer of sqrt terms drives the tail below any practical tol.
    k_peak = int(math.sqrt(half * half + 1.0))
    buffer = int(60 + 12 * math.sqrt(k_peak + order + 1) - 2.0 * math.log10(series_tol))
    kmax = k_peak + buffer
    k = np.arange(kmax + 1, dtype=float)
    with np.errstate(divide="ignore"):
        logx2 = np.log(x / 2.0)
    # shape (kmax+1, nt)
    log_terms = (
        (2.0 * k[:, None] + order) * logx2[None, :]
        - special.gammaln(k + 1.0)[:, None]
        - special.gammaln(k + order + 1.0)[:, None]
    )
    m = np.max(log_terms, axis=0)
    out = m + np.log(np.sum(np.exp(log_terms - m[None, :]), axis=0))
    if not np.all(np.isfinite(out[np.asarray(x) > 0])):
        raise SeriesOverflow("Bessel series failed to converge in the log domain")
    return out


def hitting_pdf(L: int, lam: float, mu: float, t, series_tol: float = 1e-10):
    """Density of the M/M/1 hitting time to zero from L customers.

    f(t) = (L/t) exp(-(lam+mu) t) (mu/lam)^{L/2} I_L(2 t sqrt(lam mu))
    evaluated in the log domain.  The exponent combines to
    -t (sqrt(mu) - sqrt(lam))^2, which decays, so the evaluation is stable
    at large t.  Accepts scalar or array t; the density is zero for t <= 0.
    """
    if L < 1:
        raise InvalidSupport(f"need L >= 1 for a non-degenerate hitting time, got {L}")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(t_arr)
    pos = t_arr > 0
    if np.any(pos):
        tp = t_arr[pos]
        x = 2.0 * tp * math.sqrt(lam * mu)
        log_f = (
            math.log(L)
            - np.log(tp)
            - (lam + mu) * tp
            + 0.5 * L * (math.log(mu) - math.log(lam))
            + _log_bessel_i(L, x, series_tol)
        )
        out[pos] = np.exp(log_f)
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(out[0])
    return out


# ---------------------------------------------------------------------------
# Transfer count before the downstream queue empties
# ---------------------------------------------------------------------------

def transfer_count_pmf(k: int, w: int, mu1: float, mu2: float) -> float:
    """P(exactly k upstream services complete before the downstream queue,
    started at w and fed by those completions, first empties).

    With p = mu1/(mu1+mu2) and q = 1-p this is
    p^k q^{w+k} [C(2k+w-1, k) - C(2k+w-1, k-1)], a ballot-type count of the
    completion orderings in which the downstream queue stays busy.  Derived
    for w >= 1; callers must treat an initially empty downstream queue as
    k = 0 with probability one.
    """
    if w <= 0:
        raise InvalidSupport(f"the pmf is derived for w >= 1, got w = {w}")
    if k < 0:
        return 0.0
    p = mu1 / (mu1 + mu2)
    q = 1.0 - p
    # C(2k+w-1,k) - C(2k+w-1,k-1) = C(2k+w-1,k) * w/(k+w), evaluated via lgamma.
    log_val = (
        k * math.log(p)
        + (w + k) * math.log(q)
        + math.lgamma(2 * k + w)
        - math.lgamma(k + 1)
        - math.lgamma(k + w)
        + math.log(w)
        - math.log(k + w)
    )
    return math.exp(log_val)


# ---------------------------------------------------------------------------
# Tagged-customer drain through two stations (no external arrivals)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=65536)
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
    """
    if u < 0 or w < 0:
        raise InvalidSupport(f"counts must be non-negative, got ({u}, {w})")
    mu1, mu2 = float(mu1), float(mu2)  # a cached value depends on values alone
    p = mu1 / (mu1 + mu2)
    q = 1.0 - p
    t1 = 1.0 / mu1
    t2 = 1.0 / mu2
    # Row uu needs ww up to w + (u - uu): the (u-1, w+1) dependency walks
    # one step down in u and one up in w.
    prev: list[float] = []
    for uu in range(u + 1):
        width = w + (u - uu)
        row = [0.0] * (width + 1)
        for ww in range(width + 1):
            if uu == 0 and ww == 0:
                row[ww] = t1 + t2
            elif uu == 0:
                row[ww] = p * (t1 + (ww + 1) * t2) + q * row[ww - 1]
            elif ww == 0:
                row[ww] = t1 + prev[1]
            else:
                row[ww] = p * (t1 + prev[ww + 1]) + q * row[ww - 1]
        prev = row
    return prev[w]


# ---------------------------------------------------------------------------
# Erlang vs Erlang race
# ---------------------------------------------------------------------------

def race_erlang(u: int, mu1: float, w: int, mu2: float) -> float:
    """P(u services at rate mu1 all finish before w services at rate mu2).

    The completion sequence is Bernoulli with success probability
    p = mu1/(mu1+mu2); the event is a negative-binomial tail
    P(Z >= u) with Z ~ NB(w; p), computed as one minus the finite
    complementary sum so no infinite series is truncated.  Degenerate
    counts follow the convention that an empty Erlang clock rings at
    time zero: u = 0 gives 1.0, w = 0 gives 0.0.
    """
    if u < 0 or w < 0:
        raise InvalidSupport(f"counts must be non-negative, got ({u}, {w})")
    if u == 0:
        return 1.0
    if w == 0:
        return 0.0
    p = mu1 / (mu1 + mu2)
    q = 1.0 - p
    log_p, log_q = math.log(p), math.log(q)
    acc = 0.0
    for r in range(u):
        acc += math.exp(
            r * log_p + w * log_q
            + math.lgamma(r + w) - math.lgamma(r + 1) - math.lgamma(w)
        )
    return 1.0 - acc


# ---------------------------------------------------------------------------
# Erlang vs M/M/1 busy period race
# ---------------------------------------------------------------------------

@lru_cache(maxsize=65536)
def race_busy_period(u: int, lam1: float, mu1: float, w: int, mu2: float) -> float:
    """P(an Erlang(w, mu2) clock rings before an M/M/1 queue with arrival
    rate lam1, service rate mu1 and u initial customers first empties).

    The hitting time from u is the sum of u independent busy periods, so
    the number of rate-mu2 ticks before it is the u-fold convolution of a,
    the tick count during one busy period.  Its generating function solves
    A = (mu1 + lam1 A^2 + mu2 x A) / s with s = lam1 + mu1 + mu2, whence,
    with r = sqrt(s^2 - 4 lam1 mu1),

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
