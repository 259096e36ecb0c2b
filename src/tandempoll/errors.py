"""Exception types shared across the package."""


class TandemPollError(Exception):
    """Base class for all package errors."""


class NonPositiveRate(TandemPollError):
    """A rate is zero, negative, non-finite or below 2**-1018, the rates sum
    past the largest float, or a steady-state run's clock or an absorption
    time passes it."""


class UnstableSystem(TandemPollError):
    """Total traffic intensity at some station is >= 1."""


class UnstableQueue(TandemPollError):
    """A single queue has arrival rate >= service rate where stability is required."""


class InvalidSupport(TandemPollError):
    """An argument lies outside the support a formula is derived for."""


class SingularSystem(TandemPollError):
    """A linear system arising from an absorbing chain could not be solved."""


class TruncationTooTight(TandemPollError):
    """Probability mass escaping the truncated state space exceeds the tolerance."""


class ThresholdUnreached(TandemPollError):
    """Sub-scenario expansion hit the depth limit before the residual dropped below eps."""


class NonTermination(TandemPollError):
    """A tagged-customer run failed to reach its departure within the step budget."""
