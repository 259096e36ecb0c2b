"""Deterministic comparator: constant interarrival and service times.

Same network and polling rules as the stochastic model, but every class-i
interarrival equals 1/lam_i (first arrival at 1/lam_i) and every class-i
service at station j takes exactly tau_ij = 1/mu_ij.  The tagged customer's
system time is then an exact number: the simulator's event loop run once
with constant clocks.
"""

from __future__ import annotations

from .model import ArrivalState, SystemParams, relabel_for_class2, validate_params
from .simulator import _tagged_sojourn

__all__ = ["deterministic_wait"]


def deterministic_wait(s: ArrivalState, p: SystemParams) -> float:
    """Exact system time of the tagged customer under deterministic timing.

    Customers in service at t = 0 need a full service time (the snapshot
    carries no age information).  Raises ``NonTermination`` if the tagged
    customer has not departed within the step budget.
    """
    p = validate_params(p)
    s, p = relabel_for_class2(s, p)
    return _tagged_sojourn(s, p, lambda: 1.0)
