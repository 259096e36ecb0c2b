"""Absorption analysis of the station-fed tandem lattice.

The underlying chain tracks (i, j) = (customers at station 1, customers at
station 2) for a tandem pair in which station 1 receives Poisson arrivals at
rate ``lam``, serves at rate ``mu1`` and feeds station 2, which serves at
rate ``mu2``.  Two questions are asked of it: which station empties first
(the race), and how long station 2 takes to empty.

Both are answered on one truncated lattice, the box 0 <= i <= n,
1 <= j <= n.  Station 2 emptying (j = 0) absorbs; every other exit from
the box (an arrival at i = n, a transfer at j = n) goes to one overflow
vector.

* The drain chain is the whole box, read from starts (0, w): the mean
  time for station 2 to empty, with paths that continue through i = 0.
* The race chain is the box's i >= 1 block, since reaching i = 0 there
  means station 1 emptied first.  From it come ``p1`` and ``p2``, the
  probabilities that station 1 (resp. 2) empties first, and the mean time
  to absorption given station 2 empties first, computed exactly as
  E[T 1{R2}] / P(R2).  ``p1`` is solved independently of ``p2`` only so
  that p1 + p2 + overflow = 1 can be checked; no conditional time is kept
  for station 1.

A ``LatticeSolution`` keeps each quantity once, as a read-only table
indexed by the start: ``p1`` and ``p2`` at [u - 1, w - 1], ``time`` and
``overflow`` at [u, w - 1], whose row u = 0 is the drain chain's.

The box is a finite quasi-birth-death chain: level i holds the n
station-2 counts, and every level has the same three n x n blocks, the
diagonal D_i (out-rate lam + mu1 + mu2, or lam + mu2 at i = 0, with -mu2
below it), the up block -lam I and the transfer block -mu1 U, U the
superdiagonal shift.  It is solved by linear level reduction, a
block-tridiagonal elimination (Gaver, Jacobs & Latouche 1984; Latouche &
Ramaswami 1999, ch. 10).  Eliminating levels from i = n down gives the
Schur complements S_n = D_n, S_i = D_i - lam mu1 S_{i+1}^{-1} U.  Each
S_i with i >= 1 depends on S_{i+1} alone, and the sequence converges
with the distance from the top: once the inverses of two consecutive
levels i >= 1 are equal bit for bit, every lower level i >= 1 holds that
same matrix, so the elimination stops inverting there and those levels
share one array; level 0 keeps its own.  On five rate sets at station
loads 0.35 to 0.95 a build keeps 102-116 inverses at n = 160 and 131-149
at n = 256, against n + 1; at n <= 40 no pair converges.  The race
chain's complements are the drain chain's on levels 1..n, so one sweep
serves both: the race is solved by forward and back substitution over
levels 1..n, the drain by the forward sweep down to level 0.  A build
takes O(n^3) time per inverse it computes, O(n^4) at most, and n^2
floats per inverse it keeps, and is cached per (rates, n).  Every table
holds probabilities or times, so a build with an
entry below -1e-12 raises ``SingularSystem`` naming the rates and n: at
lam = 1 beside mu1 = 1e17 the diagonal lam + mu1 + mu2 loses lam in
rounding, and the tables come out with negative times.

The size n follows the query by one rule: it is the first rung of the
ladder 20, 40, 80, ... on which the chain the query reads (drain starts
included) loses at most ``_OVERFLOW_TOL``, a fixed 1e-10, of the start's
mass through the box's edges.  A box that cannot hold the start
(max(u, w) > n) would lose all of it, so it is skipped without a build.
``TruncationConfig.n_max`` caps the ladder and is its last rung; a start
that loses too much there raises ``TruncationTooTight``.  The walk always
starts at the bottom, so the size, and with it the answer, depends on
(rates, u, w, trunc) alone, never on what the caches hold.  The size and
the start's entries at that size are memoised together for the last
1,024 starts, so a warm query is one lookup.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidSupport, NonPositiveRate, SingularSystem, TruncationTooTight
from .model import TruncationConfig
from .primitives import _unit_scale

__all__ = ["absorption_probs", "mfpt_to_empty", "lattice_solution"]

_DEFAULT_TRUNC = TruncationConfig()
_FIRST_RUNG = 20
# Largest overflow mass a query's start may lose through the box's edges.
_OVERFLOW_TOL = 1e-10
# Every table holds probabilities or times; one below this is rounding gone wrong.
_NEGATIVE_TOL = -1e-12
_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LatticeSolution:
    """Cached absorption quantities for one (lam, mu1, mu2, n) set, as
    read-only tables indexed by the start (u, w)."""

    p1: np.ndarray        # [u - 1, w - 1]; independent solve, for consistency checks
    p2: np.ndarray        # [u - 1, w - 1]
    time: np.ndarray      # [u, w - 1]; the drain time at u = 0, else given R2
    overflow: np.ndarray  # [u, w - 1]; the overflow mass of the chain read


@lru_cache(maxsize=8)
def lattice_solution(lam: float, mu1: float, mu2: float, n_max: int) -> LatticeSolution:
    t0 = time.perf_counter()
    rates = float(lam), float(mu1), float(mu2)  # a cached value depends on values alone
    c, (lam, mu1, mu2) = _unit_scale(*rates)  # the solve's rates; its times come out divided by c
    n = n_max
    # the diagonal block of every level i >= 1; the up block is -lam I and
    # the transfer block -mu1 times the superdiagonal shift
    D = np.diag(np.full(n, lam + mu1 + mu2)) - mu2 * np.eye(n, k=-1)

    def complement(above):
        """S_i = D - lam mu1 S_{i+1}^{-1} U, from the inverse of the level above."""
        S = D.copy()
        S[:, 1:] -= lam * mu1 * above[:, :-1]
        return S

    try:
        # the distinct inverses of levels n, n - 1, ..., down to level 1 or to
        # the first one equal bit for bit to the one above it: its complement,
        # and so every lower one with i >= 1, is then the same matrix again
        distinct = [np.linalg.inv(D)]
        i = n - 1
        while i:
            X = np.linalg.inv(complement(distinct[-1]))
            # the top-right entry is the one that differs before convergence
            if X[0, -1] == distinct[-1][0, -1] and np.array_equal(X, distinct[-1]):
                break
            distinct.append(X)
            i -= 1
        S = complement(distinct[-1])
        S.flat[::n + 1] -= mu1  # no transfer out of level 0
        # inv[i]: the inverse of level i's Schur complement; levels 1..i share one
        inv = [np.linalg.inv(S)] + distinct[-1:] * i + distinct[::-1]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - a transient chain is regular
        raise SingularSystem(str(exc)) from exc

    def forward(y):
        """Fold each level's right-hand side into the level below, in place."""
        for i in range(n, 0, -1):
            y[i - 1] += lam * (inv[i] @ y[i])

    def back(y):
        """The race chain's solution from forward-swept right-hand sides on levels 1..n."""
        x = np.empty_like(y)
        x[1] = inv[1] @ y[1]
        for i in range(2, n + 1):
            y[i, :-1] += mu1 * x[i - 1, 1:]
            x[i] = inv[i] @ y[i]
        return x[1:]

    # columns: p1, p2 and the race overflow on levels 1..n; the drain time
    # and its overflow on levels 0..n
    y = np.zeros((n + 1, n, 5))
    y[1, :, 0] = mu1                 # a transfer from level 1 ends the race
    y[1:, 0, 1] = mu2
    y[n, :, 2] = y[n, :, 4] = lam    # arrivals at i = n leave the box
    y[2:, -1, 2] += mu1              # so do transfers at j = n, except from
    y[1:, -1, 4] += mu1              # level 1 in the race, where i = 0 absorbs
    y[:, :, 3] = 1.0
    forward(y)
    p1, p2, p_ovf = np.moveaxis(back(y[:, :, :3]), -1, 0)
    drain, drain_ovf = (inv[0] @ y[0, :, 3:]).T
    # E[T 1{absorb in R2}] satisfies (-G) psi = p2.
    y = np.zeros((n + 1, n, 1))
    y[1:, :, 0] = p2
    forward(y)
    psi2 = back(y)[:, :, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        phi2 = np.where(p2 > 0, psi2 / np.maximum(p2, 1e-300), 0.0)
    # a start with u = 0 reads the drain chain: row 0 of the by-start tables.
    # Near the smallest accepted rates a far corner's time may pass the float
    # range and read inf; mfpt_to_empty refuses a start whose own entry does.
    with np.errstate(over="ignore"):
        times = np.vstack([drain, phi2]) * c
    sol = LatticeSolution(p1=p1, p2=p2, time=times, overflow=np.vstack([drain_ovf, p_ovf]))
    low = min(float(a.min()) for a in (sol.p1, sol.p2, sol.time, sol.overflow))
    if not low >= _NEGATIVE_TOL:
        raise SingularSystem(
            "lattice at lam={!r}, mu1={!r}, mu2={!r}, n={} holds the entry {:.3e}:"
            " rates this far apart are lost in its rounding".format(*rates, n, low)
        )
    for a in (sol.p1, sol.p2, sol.time, sol.overflow):
        a.setflags(write=False)
    _log.debug("lattice build lam=%r mu1=%r mu2=%r n=%d inverses=%d in %.4f s",
               *rates, n, len(distinct) + 1, time.perf_counter() - t0)
    return sol


@lru_cache(maxsize=1024)
def _read_start(u: int, w: int, lam: float, mu1: float, mu2: float, cap: int) -> tuple[int, float, float]:
    """(n, p2, time) for the start (u, w): the smallest ladder rung whose
    start passes the overflow check, and the start's entries of that
    rung's tables (p2 reads 0.0 at u = 0, where no race is left).

    Memoised, so that a warm query is one lookup, not a walk over every
    rung below its own; the result depends on the arguments alone.
    """
    n = _FIRST_RUNG
    while True:
        n = min(n, cap)
        if max(u, w) > n:  # a box that cannot hold the start loses all its mass
            ovf = 1.0
        else:
            # the module-global name, so that a wrapper installed on it sees every build
            sol = lattice_solution(lam, mu1, mu2, n)
            ovf = sol.overflow[u, w - 1]
        if ovf <= _OVERFLOW_TOL:
            return n, float(sol.p2[u - 1, w - 1]) if u else 0.0, float(sol.time[u, w - 1])
        if n == cap:
            raise TruncationTooTight(
                f"overflow mass {ovf:.3e} from ({u}, {w}) exceeds {_OVERFLOW_TOL:.1e}"
                f" at n_max = {cap}; increase n_max"
            )
        n *= 2


def absorption_probs(
    u: int,
    w: int,
    lam: float,
    mu1: float,
    mu2: float,
    trunc: TruncationConfig = _DEFAULT_TRUNC,
) -> tuple[float, float]:
    """(p1, p2): probability that station 1 (resp. 2) empties first.

    Boundary starts are decided: w = 0 means station 2 is already empty
    (p2 = 1) and u = 0 with w > 0 means station 1 already is (p1 = 1).
    Interior starts are read off the race chain's solve; p1 is returned as
    1 - p2 so the pair is complementary by construction, while the
    independently solved p1 is kept for consistency checks.
    """
    if u < 0 or w < 0:
        raise InvalidSupport(f"counts must be non-negative, got ({u}, {w})")
    if w == 0:
        return 0.0, 1.0
    if u == 0:
        return 1.0, 0.0
    p2 = _read_start(u, w, lam, mu1, mu2, trunc.n_max)[1]
    return 1.0 - p2, p2


def mfpt_to_empty(
    u: int,
    w: int,
    lam: float,
    mu1: float,
    mu2: float,
    trunc: TruncationConfig = _DEFAULT_TRUNC,
) -> float:
    """Mean time for station 2 to empty from (u, w).

    For u > 0 this is conditioned on station 2 emptying first, computed
    exactly on the race chain as E[T 1{station 2 first}] / P(station 2
    first), the quantity a conditioned path simulation estimates.  For
    u = 0 there is no race left to condition on, and the unconditional mean
    drain time on the whole box is returned.  w = 0 returns 0.  Both kinds
    of start are checked for overflow mass.  A time past the largest float
    (rates near ``validate_params``'s bound) raises ``NonPositiveRate``.
    """
    if u < 0 or w < 0:
        raise InvalidSupport(f"counts must be non-negative, got ({u}, {w})")
    if w == 0:
        return 0.0
    t = _read_start(u, w, lam, mu1, mu2, trunc.n_max)[2]
    if t == math.inf:
        raise NonPositiveRate(
            f"the mean time to empty from ({u}, {w}) at lam={lam!r}, mu1={mu1!r}, mu2={mu2!r}"
            " passes the largest float, 1.8e308"
        )
    return t
