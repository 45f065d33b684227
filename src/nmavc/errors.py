"""Exception types shared across the package, and the one budget check."""


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


def check_budget(cost: int, budget: int | None, message: str) -> None:
    """The one budget policy: None admits any cost, a negative budget is
    invalid input, and a cost above the budget raises BudgetExceededError
    with message.format(cost=cost, budget=budget), formatted only then."""
    if budget is not None and budget < 0:
        raise InvalidInstanceError(f"budget must be >= 0, got {budget}")
    if budget is not None and cost > budget:
        raise BudgetExceededError(message.format(cost=cost, budget=budget))


class LPInfeasibleError(NmavcError):
    """The linear program has no feasible point."""


class LPUnboundedError(NmavcError):
    """The linear program objective is unbounded below."""


class VerificationError(NmavcError):
    """An exact internal cross-check failed; indicates a defect, not bad
    user input."""
