"""Sample-path decomposition of the tagged customer's conditional wait.

An arriving (tagged) class-1 customer sees queue lengths (L11, L21, L12,
L22) and one of four server configurations m.  The mean conditional wait is
obtained by enumerating the ordered event sequences (sub-scenarios) that can
unfold until the tagged customer leaves station 2, computing each leaf's
probability and mean duration from the stochastic primitives, and averaging.

The m = 1 tree is the workhorse.  Its stages:

* a split on K, the number of upstream class-1 services completed before
  station 2's server leaves queue 1 (the tagged customer either rides that
  first cycle out, or waits for a later one);
* a race between station 2 clearing its class-2 backlog and the tagged
  customer reaching the head of station 1;
* if the tagged customer transfers first, a repeating block of races between
  station 2's class-2 backlog and station 1's replenishing class-1 queue,
  interleaved with races between the two class-2 queues, expanded until the
  unresolved probability mass drops below ``eps``.

Scenarios m = 2, 3, 4 reuse the same machinery from later entry points with
adjusted initial states.  Random durations parameterising count
distributions are collapsed to their conditional means, and expected queue
lengths are rounded half-up before entering integer-argument primitives;
the split on K is kept as an explicit finite sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .absorption import absorption_probs, mfpt_to_empty
from .errors import NonPositiveRate, ThresholdUnreached
from .model import ArrivalState, SystemParams, TruncationConfig, relabel_for_class2, validate_params
from .primitives import _unit_scale, drain_wait, race_busy_period, race_erlang, transfer_count_pmf

__all__ = ["SubScenarioOutcome", "ScenarioReport", "analyze"]

_DEFAULT_TRUNC = TruncationConfig()
# Repeating levels of stage C expanded before ThresholdUnreached.
_MAX_DEPTH = 50


@dataclass(frozen=True)
class SubScenarioOutcome:
    """One leaf of the sub-scenario tree."""

    label: str
    prob: float
    wait: float


@dataclass(frozen=True)
class ScenarioReport:
    """Aggregated conditional wait for one (state, scenario) pair."""

    m: int
    outcomes: tuple[SubScenarioOutcome, ...]
    residual_prob: float
    cond_wait: float


def _nnint(x: float) -> int:
    """Round half-up, floored at zero."""
    n = math.floor(x + 0.5)
    return n if n > 0 else 0


def _truncated_poisson_mean(mean: float, bound: int) -> float:
    """E[V | V <= bound] for V ~ Poisson(mean)."""
    if bound <= 0 or mean <= 0.0:
        return 0.0
    log_mean = math.log(mean)
    log_terms = [k * log_mean - mean - math.lgamma(k + 1) for k in range(bound + 1)]
    m = max(log_terms)
    probs = [math.exp(lt - m) for lt in log_terms]
    z = sum(probs)
    return sum(k * pk for k, pk in enumerate(probs)) / z


def _served(x: float, rate: float, t: float) -> float:
    """Expected content of a queue holding ``x`` after service at ``rate``
    for time ``t``: the Poisson departures are truncated so that at most
    round(x) - 1 of its customers leave, which keeps the result >= 0."""
    bound = math.floor(x + 0.5) - 1
    if bound <= 0:  # nobody may leave: x - 0.0 is x
        return x
    return x - _truncated_poisson_mean(rate * t, bound)


class _Engine:
    def __init__(self, params: SystemParams, trunc: TruncationConfig):
        self.trunc = trunc
        self.lam1, self.lam2 = params.lam
        (self.mu11, self.mu12), (self.mu21, self.mu22) = params.mu
        self.tau11, self.tau12 = 1.0 / self.mu11, 1.0 / self.mu12
        self.tau22 = 1.0 / self.mu22
        self._leaves: dict[str, list[float]] = {}
        self.residual = 0.0

    # -- plumbing ----------------------------------------------------------

    def _leaf(self, label: str, prob: float, wait: float) -> None:
        if prob <= 0.0:
            return
        acc = self._leaves.setdefault(label, [0.0, 0.0])
        acc[0] += prob
        acc[1] += prob * wait

    def report(self, m: int, c: float) -> ScenarioReport:
        """The leaves and their mean, with every wait times ``c``, the power
        of two the tree's rates were multiplied by."""
        outcomes = []
        cond = 0.0
        for lbl, (prob, prob_wait) in self._leaves.items():
            w = prob_wait / prob
            cond += prob * w
            outcomes.append(SubScenarioOutcome(label=lbl, prob=prob, wait=w * c))
        cond *= c
        if cond == math.inf:
            raise NonPositiveRate("the mean wait passes the largest float, 1.8e308: the rates are too small")
        return ScenarioReport(m=m, outcomes=tuple(outcomes), residual_prob=self.residual, cond_wait=cond)

    # -- stage A: station 2 still on queue 1 --------------------------------

    def _stage_a(
        self,
        prefix: str,
        weight: float,
        ahead: int,
        w12: float,
        l22: float,
        l21_base: float,
        elapsed: float,
    ) -> None:
        """Split on K, the transfer count during station 2's first cycle.

        K > ahead means the tagged customer reaches station 2 inside the
        first cycle and simply rides it out; otherwise exactly K of the
        customers ahead transfer and the class-2 stage begins.
        """
        w_k = _nnint(w12)
        if w_k == 0:
            pmf = {0: 1.0}
        else:
            pmf = {k: transfer_count_pmf(k, w_k, self.mu11, self.mu12) for k in range(ahead + 1)}
        p_ride = max(0.0, 1.0 - sum(pmf.values()))
        self._leaf(prefix + "A≺B", weight * p_ride, elapsed + (ahead + w12 + 1.0) * self.tau12)
        for k, pk in pmf.items():
            t_a = (w12 + k) * self.tau12
            self._stage_c(
                prefix + "A′≺", weight * pk, ahead - k, 0.0,
                l22, l21_base, elapsed, elapsed + t_a,
            )

    # -- stage C: station 2 on queue 2, tagged still at station 1 -----------

    def _stage_c(
        self,
        prefix: str,
        weight: float,
        u_ahead: int,
        w12: float,
        l22: float,
        l21_base: float,
        l21_anchor: float,
        elapsed: float,
    ) -> None:
        if weight <= 0.0:  # an underflowed weight, whose cutoff would be 0 too
            return
        tr = self.trunc
        l22_r = _nnint(l22)

        # Race: station 2 clears its class-2 backlog before the tagged
        # customer's service at station 1 completes.
        p_c = race_erlang(l22_r, self.mu22, u_ahead + 1, self.mu11)
        if p_c > 0.0:
            t_c = l22 * self.tau22
            v1 = _truncated_poisson_mean(self.mu11 * t_c, u_ahead)
            u_d = u_ahead - _nnint(v1)
            w_d = _nnint(w12 + v1)
            wait = elapsed + t_c + drain_wait(u_d, w_d, self.mu11, self.mu12)
            self._leaf(prefix + "C≺D≺E1", weight * p_c, wait)

        p_cp = 1.0 - p_c
        if p_cp <= 0.0:
            return

        # Tagged customer transfers first; station 2 is still on queue 2.
        t_cp = (u_ahead + 1) * self.tau11
        final_leg = (u_ahead + w12 + 1.0) * self.tau12
        elapsed_cur = elapsed + t_cp
        branch = weight * p_cp
        cutoff = tr.eps * weight
        lbl = prefix + "C′≺"

        # Level-1 state: class-1 arrivals accumulated since t = 0 (nothing
        # beyond the initial backlog was served before the tagged transfer),
        # class-2 backlog net of services during the transfer window.
        a = self.lam1 * elapsed_cur
        b = _served(l22, self.mu22, t_cp)
        # The class-2 backlog F′ serves from, and the time it has already
        # been served: (l22, t_cp) at level 1, (b, 0) after each G′ step.
        g_base, g_window = l22, t_cp

        level = 1
        while True:
            # P(station 2 clears b class-2 customers before station 1's
            # class-1 queue, holding a and replenished by arrivals, empties)
            p_f = race_busy_period(_nnint(a), self.lam1, self.mu11, _nnint(b), self.mu22)
            self._leaf(
                lbl + f"F{level}≺E{level + 1}",
                branch * p_f,
                elapsed_cur + b * self.tau22 + final_leg,
            )
            p_fp = 1.0 - p_f
            if p_fp <= 0.0:
                return
            t_fp = a / (self.mu11 - self.lam1)
            elapsed2 = elapsed_cur + t_fp
            lbl = lbl + f"F′{level}≺"

            b_g = _served(g_base, self.mu22, g_window + t_fp)
            bg_r = _nnint(b_g)
            c = l21_base + self.lam2 * (elapsed2 - l21_anchor)
            c_r = _nnint(c)

            if c_r == 0:
                # Both feeder queues are empty in expectation: the class-2
                # backlog simply drains (with any fresh arrivals routed
                # through station 1), then the tagged customer is served.
                t_drain = mfpt_to_empty(0, bg_r, self.lam2, self.mu21, self.mu22, tr)
                self._leaf(lbl + "G*", branch * p_fp, elapsed2 + t_drain + final_leg)
                return

            _, p_g = absorption_probs(c_r, bg_r, self.lam2, self.mu21, self.mu22, tr)
            if p_g > 0.0:
                phi = mfpt_to_empty(c_r, bg_r, self.lam2, self.mu21, self.mu22, tr)
                self._leaf(lbl + "G≺H", branch * p_fp * p_g, elapsed2 + phi + final_leg)
            p_gp = 1.0 - p_g
            branch *= p_fp * p_gp
            if branch <= 0.0:
                return

            # Station 1's class-2 queue empties first; both class queues at
            # station 1 restart from fresh arrivals over the emptying time.
            t_gp = c / (self.mu21 - self.lam2)
            b = _served(b_g, self.mu22, t_gp)
            g_base, g_window = b, 0.0
            a = self.lam1 * t_gp
            elapsed_cur = elapsed2 + t_gp
            l21_base, l21_anchor = 0.0, elapsed_cur
            lbl = lbl + "G′≺"
            level += 1

            if branch < cutoff:
                self.residual += branch
                return
            if level > _MAX_DEPTH:
                raise ThresholdUnreached(
                    f"residual {branch:.3e} above eps*weight = {cutoff:.3e} "
                    f"after {_MAX_DEPTH} repeating levels"
                )

    # -- stage J: station 1 on queue 2, station 2 on queue 1 ----------------

    def _stage_j(
        self,
        prefix: str,
        weight: float,
        ahead: int,
        l12: float,
        l21: float,
        l22: float,
        elapsed: float,
    ) -> None:
        """Race between station 1's class-2 queue emptying and station 2
        finishing its class-1 backlog; branches into stage A or stage C."""
        l21_r, l12_r = _nnint(l21), _nnint(l12)
        p_jp = race_busy_period(l21_r, self.lam2, self.mu21, l12_r, self.mu12)
        p_j = 1.0 - p_jp

        if p_j > 0.0:
            t_j = l21 / (self.mu21 - self.lam2)
            self._stage_a(
                prefix + "J≺",
                weight * p_j,
                ahead,
                _served(l12, self.mu12, t_j),
                l22 + l21 + self.lam2 * t_j,
                0.0,
                elapsed + t_j,
            )

        if p_jp > 0.0:
            t_jp = l12 * self.tau12
            l21_k = _served(l21 + self.lam2 * t_jp, self.mu21, t_jp)
            t_k = l21_k / (self.mu21 - self.lam2)
            done = elapsed + t_jp + t_k
            total2 = l22 + l21 + self.lam2 * (t_jp + t_k)
            self._stage_c(
                prefix + "J′≺K≺",
                weight * p_jp,
                ahead,
                0.0,
                _served(total2, self.mu22, t_k),
                0.0,
                done,
                done,
            )

    # -- scenario entry point -----------------------------------------------

    def run(self, s: ArrivalState) -> None:
        """Expand the scenario tree for ``s.m`` from snapshot ``s``."""
        _, l21, l12, l22 = (float(x) for x in s.la)
        ahead = s.la[0]
        if s.m == 1:
            self._stage_a("", 1.0, ahead, l12, l22, l21, 0.0)
        elif s.m == 2:
            self._stage_c("", 1.0, ahead, l12, l22, l21, 0.0, 0.0)
        elif s.m == 3:
            self._stage_j("", 1.0, ahead, l12, l21, l22, 0.0)
        else:
            tr = self.trunc
            l21_r, l22_r = _nnint(l21), _nnint(l22)
            p_lp, p_l = absorption_probs(l21_r, l22_r, self.lam2, self.mu21, self.mu22, tr)

            if p_l > 0.0:
                # Station 2's class-2 backlog empties first; station 1 is still
                # working through its class-2 queue, which is the stage-J picture.
                t_l = mfpt_to_empty(l21_r, l22_r, self.lam2, self.mu21, self.mu22, tr)
                self._stage_j("L≺", p_l, ahead, l12, _served(l21 + self.lam2 * t_l, self.mu21, t_l), 0.0, t_l)

            if p_lp > 0.0:
                # Station 1's class-2 queue empties first; its content has moved
                # behind station 2's class-2 backlog, which is the stage-C picture.
                t_lp = l21 / (self.mu21 - self.lam2)
                total2 = l22 + l21 + self.lam2 * t_lp
                self._stage_c("L′≺", p_lp, ahead, l12, _served(total2, self.mu22, t_lp), 0.0, t_lp, t_lp)


def analyze(s: ArrivalState, p: SystemParams, trunc: TruncationConfig = _DEFAULT_TRUNC) -> ScenarioReport:
    """Mean conditional wait of the tagged customer from snapshot ``s``.

    Expands the scenario tree for ``s.m`` until the unresolved mass is
    below ``trunc.eps`` (the residual contributes zero wait) and aggregates
    the leaves.  A class-2 tagged customer is relabeled onto the class-1
    analysis first; the report carries the caller's ``s.m``.
    """
    relabeled, p = relabel_for_class2(s, validate_params(p))
    # Rates that sum below 0.5 run times c, the power of two that brings
    # their sum into [0.5, 1), so that no time in the tree passes the float
    # range, as a branch that adds little to the mean may near the 2**-1018
    # bound.  The scaling is exact, so the answer is the unscaled tree's bit
    # for bit wherever that one stays finite.  Larger rates run as given,
    # so an error names the caller's rates.
    c = 1.0
    if sum(p.lam) + sum(p.mu[0]) + sum(p.mu[1]) < 0.5:
        c, (lam1, lam2, mu11, mu12, mu21, mu22) = _unit_scale(*p.lam, *p.mu[0], *p.mu[1])
        p = SystemParams(lam=(lam1, lam2), mu=((mu11, mu12), (mu21, mu22)))
    eng = _Engine(p, trunc)
    eng.run(relabeled)
    return eng.report(s.m, c)
