"""Exception types shared across the package."""


class NmavcError(Exception):
    """Base class for all package errors."""


class InvalidRationalError(NmavcError, ValueError):
    """A value could not be parsed as an exact rational."""


class InvalidMixtureError(NmavcError, ValueError):
    """Mixture weights are negative or do not sum to exactly one."""


class InvalidChannelError(NmavcError, ValueError):
    """A transition matrix is not exactly row-stochastic."""


class UnsupportedChannelError(InvalidChannelError):
    """The channel is representable but outside the supported model
    (e.g. input-dependent erasure probability)."""


class InfeasibleCoefficientError(NmavcError, ValueError):
    """A requested decomposition coefficient lies outside the feasible
    interval."""


class InvalidCodeError(NmavcError, ValueError):
    """A coding scheme violates its correctness contract."""


class InvalidInstanceError(NmavcError, ValueError):
    """A verification instance is malformed (missing messages, wrong
    dimensions, excluded state sequence, ...)."""


class BudgetExceededError(NmavcError):
    """An exponential enumeration would exceed the caller's budget."""


class LPInfeasibleError(NmavcError):
    """The linear program has no feasible point."""


class LPUnboundedError(NmavcError):
    """The linear program objective is unbounded below."""


class VerificationError(NmavcError):
    """An exact internal cross-check failed; indicates a defect, not bad
    user input."""
