"""Absorption analysis of the station-fed tandem lattice.

The underlying chain tracks (i, j) = (customers at station 1, customers at
station 2) for a tandem pair in which station 1 receives Poisson arrivals at
rate ``lam``, serves at rate ``mu1`` and feeds station 2, which serves at
rate ``mu2``.  Two questions are asked of it: which station empties first
(the race), and how long station 2 takes to empty.

Both are answered on one truncated lattice, the box 0 <= i <= n,
1 <= j <= n, whose generator is assembled from numpy index arrays.
Station 2 emptying (j = 0) absorbs; every other exit from the box (an
arrival at i = n, a transfer at j = n) goes to one overflow vector.

* The drain chain is the whole box: ``drain2`` is the mean time for
  station 2 to empty from (0, w), with paths that continue through i = 0.
* The race chain is the box's i >= 1 block, since reaching i = 0 there
  means station 1 emptied first.  From it come ``p1`` and ``p2``, the
  probabilities that station 1 (resp. 2) empties first, and ``phi2``, the
  mean time to absorption given station 2 empties first, computed exactly
  as E[T 1{R2}] / P(R2).  ``p1`` is solved independently of ``p2`` only so
  that p1 + p2 + overflow = 1 can be checked; no conditional time is kept
  for station 1.

Each chain is factorised once per (rates, n), solved with stacked
right-hand sides, and cached.  The size n follows the query: it starts at
the smallest rung of the ladder 20, 40, 80, ... that gives the start (u, w)
the headroom 2 max(u, w) <= n, and doubles while the overflow mass of the
chain the query reads (drain starts included) exceeds ``_OVERFLOW_TOL``,
a fixed 1e-10.
``TruncationConfig.n_max`` caps the ladder and is its last rung; a start
without headroom at the cap, or with too much overflow mass there, raises
``TruncationTooTight``.  The walk always starts at the bottom, so the size,
and with it the answer, depends on (rates, u, w, trunc) alone, never on
what the caches hold.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .errors import SingularSystem, TruncationTooTight
from .model import TruncationConfig

__all__ = ["absorption_probs", "mfpt_to_empty", "lattice_solution"]

_DEFAULT_TRUNC = TruncationConfig()
_FIRST_RUNG = 20
# Largest overflow mass a query's start may lose through the box's edges.
_OVERFLOW_TOL = 1e-10
_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LatticeSolution:
    """Cached absorption quantities for one (lam, mu1, mu2, n_max) set.

    The race arrays are indexed by ``_idx(u, w)``, the drain arrays by w - 1.
    """

    n_max: int
    p1: np.ndarray              # independent solve, for consistency checks
    p2: np.ndarray
    p_overflow: np.ndarray
    phi2: np.ndarray            # conditional MFPT given absorption in R2
    drain2: np.ndarray          # E[time to station-2 empty] from (0, w)
    drain_overflow: np.ndarray  # overflow mass of the drain from (0, w)

    def _idx(self, u: int, w: int) -> int:
        return (u - 1) * self.n_max + (w - 1)


def _box_generator(lam: float, mu1: float, mu2: float, n: int):
    """Sparse (-G) on the box 0 <= i <= n, 1 <= j <= n, state i * n + j - 1.

    Returns the matrix, the coordinates i and j of each state, and the rate
    at which each state leaves the box other than through j = 0.
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
    A = csc_matrix((vals, (rows, cols)), shape=(s.size, s.size))
    overflow = lam * ~up + mu1 * ((i > 0) & ~xfer)
    return A, i, j, overflow


@lru_cache(maxsize=8)
def lattice_solution(lam: float, mu1: float, mu2: float, n_max: int) -> LatticeSolution:
    t0 = time.perf_counter()
    lam, mu1, mu2 = float(lam), float(mu1), float(mu2)  # a cached value depends on values alone
    n = n_max
    A, i, j, overflow = _box_generator(lam, mu1, mu2, n)
    i, j = i[n:], j[n:]  # the race chain's states, i >= 1
    b1 = mu1 * (i == 1)
    b2 = mu2 * (j == 1)
    # a transfer from (1, n) reaches i = 0, which ends the race: not overflow
    b_ovf = overflow[n:] - b1 * (j == n)
    try:
        race = splu(A[n:, n:])
        p1, p2, p_ovf = race.solve(np.column_stack([b1, b2, b_ovf])).T
        # E[T 1{absorb in R2}] satisfies (-G) psi = p2.
        psi2 = race.solve(p2)
        drain, drain_ovf = splu(A).solve(np.column_stack([np.ones(A.shape[0]), overflow])).T
    except RuntimeError as exc:  # pragma: no cover - splu failure
        raise SingularSystem(str(exc)) from exc
    with np.errstate(divide="ignore", invalid="ignore"):
        phi2 = np.where(p2 > 0, psi2 / np.maximum(p2, 1e-300), 0.0)
    sol = LatticeSolution(
        n_max=n, p1=p1, p2=p2, p_overflow=p_ovf, phi2=phi2,
        drain2=drain[:n], drain_overflow=drain_ovf[:n],  # row i = 0
    )
    _log.debug("lattice build lam=%r mu1=%r mu2=%r n=%d in %.4f s",
               lam, mu1, mu2, n, time.perf_counter() - t0)
    return sol


@lru_cache(maxsize=1024)
def _size_for(u: int, w: int, lam: float, mu1: float, mu2: float, cap: int) -> int:
    """The smallest ladder rung whose start (u, w) passes the overflow check.

    Memoised, so that a warm query looks up one lattice, not every rung
    below its own; the size depends on the arguments alone.
    """
    if 2 * max(u, w) > cap:
        raise TruncationTooTight(
            f"start ({u}, {w}) needs headroom beyond n_max = {cap}; increase n_max"
        )
    n = _FIRST_RUNG
    while n < 2 * max(u, w):
        n *= 2
    while True:
        n = min(n, cap)
        # the module-global name, so that a wrapper installed on it sees every build
        sol = lattice_solution(lam, mu1, mu2, n)
        # the overflow mass of the chain the query reads
        ovf = sol.drain_overflow[w - 1] if u == 0 else sol.p_overflow[sol._idx(u, w)]
        if ovf <= _OVERFLOW_TOL:
            return n
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
        raise ValueError(f"counts must be non-negative, got ({u}, {w})")
    if w == 0:
        return 0.0, 1.0
    if u == 0:
        return 1.0, 0.0
    n = _size_for(u, w, lam, mu1, mu2, trunc.n_max)
    sol = lattice_solution(lam, mu1, mu2, n)
    p2 = float(sol.p2[sol._idx(u, w)])
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
    of start are checked for headroom and overflow mass.
    """
    if u < 0 or w < 0:
        raise ValueError(f"counts must be non-negative, got ({u}, {w})")
    if w == 0:
        return 0.0
    n = _size_for(u, w, lam, mu1, mu2, trunc.n_max)
    sol = lattice_solution(lam, mu1, mu2, n)
    return float(sol.drain2[w - 1] if u == 0 else sol.phi2[sol._idx(u, w)])
