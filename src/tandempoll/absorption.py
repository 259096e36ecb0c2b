"""Absorption analysis of the station-fed tandem lattice.

The underlying chain tracks (i, j) = (customers at station 1, customers at
station 2) for a tandem pair in which station 1 receives Poisson arrivals at
rate ``lam``, serves at rate ``mu1`` and feeds station 2, which serves at
rate ``mu2``.  States (0, k) with k > 0 form the recurrent class R1 (station
1 emptied first) and (k, 0) with k > 0 form R2 (station 2 emptied first);
interior states are transient.

The lattice is truncated at ``n_max`` per coordinate.  Transitions that would
leave the box are routed to a sentinel overflow state whose absorbed mass is
monitored; queries whose overflow mass exceeds the series tolerance raise
``TruncationTooTight``.

Solved per parameter set (one sparse factorisation, several right-hand
sides) and cached:

* ``p2``        absorption probability into R2 from each interior state,
* ``phi2``      mean absorption time into R2 *given* absorption in R2
                (and symmetrically ``p1``/``phi1``), computed exactly as
                E[T 1{R2}] / P(R2) on the truncated chain,
* ``drain2``    unconditional mean time for station 2 to empty, from states
                with station 1 empty, used for boundary starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .errors import SingularSystem, TruncationTooTight
from .model import TruncationConfig
from .primitives import hitting_mean

__all__ = ["absorption_probs", "mfpt_to_empty", "lattice_solution"]

_DEFAULT_TRUNC = TruncationConfig()


@dataclass(frozen=True)
class LatticeSolution:
    """Cached absorption quantities for one (lam, mu1, mu2, n_max) set."""

    lam: float
    mu1: float
    mu2: float
    n_max: int
    p1: np.ndarray        # independent solve, for consistency checks
    p2: np.ndarray
    p_overflow: np.ndarray
    phi1: np.ndarray      # conditional MFPT given absorption in R1
    phi2: np.ndarray      # conditional MFPT given absorption in R2
    drain2: np.ndarray    # unconditional E[time to station-2 empty] from (0, w)

    def _idx(self, u: int, w: int) -> int:
        return (u - 1) * self.n_max + (w - 1)


def _interior_system(lam: float, mu1: float, mu2: float, n: int):
    """Sparse (-G_TT) for the interior states plus absorption-rate vectors."""
    size = n * n
    rows, cols, vals = [], [], []
    b1 = np.zeros(size)
    b2 = np.zeros(size)
    b_ovf = np.zeros(size)
    total = lam + mu1 + mu2

    def idx(i, j):
        return (i - 1) * n + (j - 1)

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            s = idx(i, j)
            rows.append(s)
            cols.append(s)
            vals.append(total)
            # arrival
            if i + 1 <= n:
                rows.append(s)
                cols.append(idx(i + 1, j))
                vals.append(-lam)
            else:
                b_ovf[s] += lam
            # station-1 completion feeds station 2
            if i - 1 == 0:
                b1[s] += mu1
            elif j + 1 <= n:
                rows.append(s)
                cols.append(idx(i - 1, j + 1))
                vals.append(-mu1)
            else:
                b_ovf[s] += mu1
            # station-2 completion
            if j - 1 == 0:
                b2[s] += mu2
            else:
                rows.append(s)
                cols.append(idx(i, j - 1))
                vals.append(-mu2)
    A = csc_matrix((vals, (rows, cols)), shape=(size, size))
    return A, b1, b2, b_ovf


def _drain_system(lam: float, mu1: float, mu2: float, n: int):
    """Sparse (-G) for unconditional hitting of {station 2 empty}.

    States (i, j) with 0 <= i <= n, 1 <= j <= n; {j = 0} is absorbing.
    Transitions that would leave the box are reflected (the rate is dropped
    for arrivals at i = n; transfers at j = n keep j pinned), which is the
    usual truncation for a time solve.
    """
    size = (n + 1) * n
    rows, cols, vals = [], [], []

    def idx(i, j):
        return i * n + (j - 1)

    for i in range(n + 1):
        for j in range(1, n + 1):
            s = idx(i, j)
            diag = mu2
            if i < n:
                rows.append(s)
                cols.append(idx(i + 1, j))
                vals.append(-lam)
                diag += lam
            if i > 0:
                jj = min(j + 1, n)
                rows.append(s)
                cols.append(idx(i - 1, jj))
                vals.append(-mu1)
                diag += mu1
            if j > 1:
                rows.append(s)
                cols.append(idx(i, j - 1))
                vals.append(-mu2)
            rows.append(s)
            cols.append(s)
            vals.append(diag)
    A = csc_matrix((vals, (rows, cols)), shape=(size, size))
    return A


@lru_cache(maxsize=8)
def lattice_solution(lam: float, mu1: float, mu2: float, n_max: int) -> LatticeSolution:
    n = n_max
    A, b1, b2, b_ovf = _interior_system(lam, mu1, mu2, n)
    try:
        lu = splu(A)
        p1 = lu.solve(b1)
        p2 = lu.solve(b2)
        p_ovf = lu.solve(b_ovf)
        # E[T 1{absorb in R_x}] satisfies (-G) psi = p_x.
        psi1 = lu.solve(p1)
        psi2 = lu.solve(p2)
        drain = splu(_drain_system(lam, mu1, mu2, n)).solve(
            np.ones((n + 1) * n)
        )
    except RuntimeError as exc:  # pragma: no cover - splu failure
        raise SingularSystem(str(exc)) from exc
    with np.errstate(divide="ignore", invalid="ignore"):
        phi1 = np.where(p1 > 0, psi1 / np.maximum(p1, 1e-300), 0.0)
        phi2 = np.where(p2 > 0, psi2 / np.maximum(p2, 1e-300), 0.0)
    drain2 = drain.reshape(n + 1, n)[0]  # row i = 0, indexed by w - 1
    return LatticeSolution(
        lam=lam, mu1=mu1, mu2=mu2, n_max=n,
        p1=p1, p2=p2, p_overflow=p_ovf, phi1=phi1, phi2=phi2, drain2=drain2,
    )


def _check_query(u: int, w: int, sol: LatticeSolution, series_tol: float) -> None:
    if u > sol.n_max // 2 or w > sol.n_max // 2:
        raise TruncationTooTight(
            f"start ({u}, {w}) needs headroom beyond n_max = {sol.n_max}; increase n_max"
        )
    ovf = sol.p_overflow[sol._idx(u, w)]
    if ovf > series_tol:
        raise TruncationTooTight(
            f"overflow mass {ovf:.3e} from ({u}, {w}) exceeds {series_tol:.1e}"
        )


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
    Interior starts are read off the fundamental-matrix solve; p1 is
    returned as 1 - p2 so the pair is complementary by construction, while
    the independently solved p1 is kept for consistency checks.
    """
    if u < 0 or w < 0:
        raise ValueError(f"counts must be non-negative, got ({u}, {w})")
    if w == 0:
        return 0.0, 1.0
    if u == 0:
        return 1.0, 0.0
    sol = lattice_solution(lam, mu1, mu2, trunc.n_max)
    _check_query(u, w, sol, trunc.series_tol)
    p2 = float(sol.p2[sol._idx(u, w)])
    return 1.0 - p2, p2


def mfpt_to_empty(
    u: int,
    w: int,
    lam: float,
    mu1: float,
    mu2: float,
    target_station: int = 2,
    trunc: TruncationConfig = _DEFAULT_TRUNC,
) -> float:
    """Mean time for the target station to empty, given it empties first.

    Computed exactly on the truncated absorbing chain as
    E[T 1{target empties first}] / P(target empties first), the quantity a
    conditioned path simulation estimates.  Starts already inside the target
    class return 0.  Starts inside the rival class (e.g. u = 0 with target
    2) have no race left to condition on; the unconditional mean time for
    the target station to empty is returned instead (for target 1 with
    w = 0 that is simply the M/M/1 hitting mean, since station 1 is
    autonomous).
    """
    if u < 0 or w < 0:
        raise ValueError(f"counts must be non-negative, got ({u}, {w})")
    if target_station not in (1, 2):
        raise ValueError("target_station must be 1 or 2")
    if target_station == 2:
        if w == 0:
            return 0.0
        sol = lattice_solution(lam, mu1, mu2, trunc.n_max)
        if u == 0:
            if w > sol.n_max // 2:
                raise TruncationTooTight(
                    f"start (0, {w}) needs headroom beyond n_max = {sol.n_max}"
                )
            return float(sol.drain2[w - 1])
        _check_query(u, w, sol, trunc.series_tol)
        return float(sol.phi2[sol._idx(u, w)])
    # target_station == 1
    if u == 0:
        return 0.0
    if w == 0:
        return hitting_mean(u, lam, mu1)
    sol = lattice_solution(lam, mu1, mu2, trunc.n_max)
    _check_query(u, w, sol, trunc.series_tol)
    return float(sol.phi1[sol._idx(u, w)])
