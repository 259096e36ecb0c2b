"""Domain types for the two-station, two-class tandem polling network.

The network has two customer classes (1, 2) arriving Poisson at station 1 and
flowing through station 2 before leaving.  Each station has a single server
that polls its two class queues cyclically with exhaustive service and zero
switchover time.  ``SystemParams`` carries the rates, ``ArrivalState`` the
snapshot an arriving (tagged) customer sees, and ``TruncationConfig`` the
numerical knobs used by the analytic machinery.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace

from .errors import NonPositiveRate, UnstableSystem

# Scenario index -> (queue in service at station 1, queue in service at station 2)
SCENARIO_SERVERS = {1: (1, 1), 2: (1, 2), 3: (2, 1), 4: (2, 2)}
_MIN_RATE = 16 * sys.float_info.min  # 2**-1018, see validate_params


@dataclass(frozen=True)
class SystemParams:
    """Arrival and service rates.

    ``lam[i-1]`` is the arrival rate of class i at station 1 and
    ``mu[i-1][j-1]`` the service rate of class i at station j.
    """

    lam: tuple[float, float]
    mu: tuple[tuple[float, float], tuple[float, float]]

    def rho_station(self, j: int) -> float:
        """Total traffic intensity at station j."""
        return self.lam[0] / self.mu[0][j - 1] + self.lam[1] / self.mu[1][j - 1]


def _is_real(x) -> bool:
    """Whether ``x`` is a real number, numpy's scalar types included, and
    not a ``bool``.  Plain ints and floats skip the slower ABC check."""
    return type(x) in (float, int) or (isinstance(x, numbers.Real) and not isinstance(x, bool))


def _real(x) -> float:
    """``x`` as a Python float if it is a real number in the float range,
    else nan, which fails every range check."""
    try:
        return float(x) if _is_real(x) else math.nan
    except OverflowError:  # an int or Fraction beyond the float range
        return math.nan


def _count(x) -> int:
    """``x`` as a Python int if it is an integral real number, else -1.

    A count that is not an ``int`` must also lie in the float range.
    """
    if type(x) is int or (math.isfinite(_real(x)) and x == int(x)):
        return int(x)
    return -1


def _queue_lengths(la) -> tuple[int, int, int, int]:
    """``la`` as a tuple of four Python ints.

    Integral numbers such as ``2.0`` or ``np.int64(2)`` are converted;
    anything else (``1.5``, negative counts, ``True``, ``"1"``) raises
    ``ValueError``, so every route and every report sees the same counts.
    """
    try:
        counts = tuple(map(_count, la))
    except TypeError:
        counts = ()
    if len(counts) != 4 or min(counts) < 0:
        raise ValueError(f"la must be four non-negative integers, got {la!r}")
    return counts


def _member(x, name: str, allowed) -> int:
    """``x`` as a Python int in ``allowed``, by the same rule as the counts;
    otherwise ``ValueError`` naming the argument and its allowed values."""
    k = _count(x)
    if k not in allowed:
        raise ValueError(f"{name} must be one of {', '.join(map(str, allowed))}, got {x!r}")
    return k


@dataclass(frozen=True)
class ArrivalState:
    """Snapshot seen by the tagged customer at t = 0.

    ``la`` holds the queue lengths (L11, L21, L12, L22); ``m`` in {1..4}
    encodes which queue each server is busy with, and ``tagged_class`` is the
    class of the arriving customer.  All are stored as Python ints: integral
    numbers such as ``2.0`` are converted, and ``True``, ``1.5`` or ``"2"``
    raise ``ValueError``.
    """

    la: tuple[int, int, int, int]
    m: int
    tagged_class: int = 1

    def __post_init__(self):
        object.__setattr__(self, "m", _member(self.m, "scenario index m", SCENARIO_SERVERS))
        object.__setattr__(self, "tagged_class", _member(self.tagged_class, "tagged_class", (1, 2)))
        object.__setattr__(self, "la", _queue_lengths(self.la))

    @property
    def servers(self) -> tuple[int, int]:
        """(queue served at station 1, queue served at station 2)."""
        return SCENARIO_SERVERS[self.m]


@dataclass(frozen=True)
class TruncationConfig:
    """The two settings of the analytic solvers, ``n_max`` and ``eps``.

    ``n_max`` caps the absorbing-chain lattice.  Each query builds the
    smallest box on the ladder 20, 40, 80, ... that holds its start and
    loses at most 1e-10 of its mass through the box's edges; ``n_max`` is
    the last size tried.  The default, 256, answered every snapshot of up
    to 60 customers per queue that was tried at station loads 0.5 to 0.9;
    a box of that size takes about 1 s and 170 MB of peak memory to build
    on a 2-core Xeon.  ``eps`` bounds the unresolved probability mass of
    the scenario tree.  ``n_max`` follows ``ArrivalState``'s count rule
    (``150.0`` becomes 150; ``"80"``, ``True`` or ``150.5`` raise), and
    ``eps`` must be a real number whose Python float lies in (0, 1).
    """

    n_max: int = 256
    eps: float = 1e-3

    def __post_init__(self):
        n_max = _count(self.n_max)
        if n_max < 10:
            raise ValueError(f"n_max must be an integer >= 10, got {self.n_max!r}")
        object.__setattr__(self, "n_max", n_max)
        eps = _real(self.eps)
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must be a real number in (0, 1), got {self.eps!r}")
        object.__setattr__(self, "eps", eps)


def validate_params(p: SystemParams) -> SystemParams:
    """Check the shape, positivity and stability of a parameter set.

    A rate may be any real number type except ``bool``; every route
    computes with the Python floats returned here (``p`` itself if its
    rates already are).  Raises ``ValueError`` for a wrong shape,
    ``NonPositiveRate`` for bad rates and ``UnstableSystem`` when
    rho_j >= 1 at either station.  Each rate must be at least 2**-1018, so
    that a duration, a unit time below 64 (numpy's exponential draws stay
    below 45) over a rate, is finite; and the six must sum to a finite float.
    """
    try:
        (l1, l2), ((m11, m12), (m21, m22)) = p.lam, p.mu
    except (TypeError, ValueError):
        raise ValueError("expected 2 arrival rates and a 2x2 service rate matrix") from None
    rates = (l1, l2, m11, m12, m21, m22)
    total = 0.0
    for r in rates:
        x = _real(r)
        if not _MIN_RATE <= x < math.inf:
            raise NonPositiveRate(f"rates must be positive and finite, at least {sys.float_info.min!r} * 16 = "
                                  f"{_MIN_RATE!r}; got {r!r}")
        total += x
    if total == math.inf:
        raise NonPositiveRate(
            f"the six rates must sum to at most {sys.float_info.max!r}, the largest float; "
            f"got lam={p.lam!r}, mu={p.mu!r}"
        )
    if any(type(r) is not float for r in rates):
        p = replace(p, lam=(float(l1), float(l2)), mu=((float(m11), float(m12)), (float(m21), float(m22))))
    for j in (1, 2):
        if p.rho_station(j) >= 1.0:
            raise UnstableSystem(
                f"station {j} is unstable: rho_{j} = {p.rho_station(j):.6f} >= 1"
            )
    return p


def swap_class_labels(s: ArrivalState, p: SystemParams) -> tuple[ArrivalState, SystemParams]:
    """Exchange the class labels 1 <-> 2 everywhere.

    Queue lengths swap pairwise at each station (L11 <-> L21, L12 <-> L22),
    both server positions flip (m: 1<->4, 2<->3), the per-class rates swap,
    and the tagged class flips.  The map is an involution.
    """
    l11, l21, l12, l22 = s.la
    swapped = ArrivalState(
        la=(l21, l11, l22, l12),
        m=5 - s.m,  # both server positions flip
        tagged_class=3 - s.tagged_class,
    )
    swapped_params = replace(
        p,
        lam=(p.lam[1], p.lam[0]),
        mu=(p.mu[1], p.mu[0]),
    )
    return swapped, swapped_params


def relabel_for_class2(s: ArrivalState, p: SystemParams) -> tuple[ArrivalState, SystemParams]:
    """Map a class-2 tagged customer onto the equivalent class-1 problem.

    The analysis is written for a class-1 tagged customer; a class-2 arrival
    is handled by relabeling the classes.  Class-1 inputs pass through
    unchanged.
    """
    if s.tagged_class == 1:
        return s, p
    return swap_class_labels(s, p)
