"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: ParameterError -> 2, CapacityError -> 3,
InvariantViolation -> 4.
"""


class RandiscError(Exception):
    """Base class for all package errors."""


class ParameterError(RandiscError, ValueError):
    """An argument is outside an operation's documented domain."""


class UnsupportedDistributionError(ParameterError):
    """The input distribution cannot support the requested construction."""


class CapacityError(RandiscError, RuntimeError):
    """The request passes a size limit or a fitted memory or time estimate.

    `estimate` (when set) is a human-readable string describing the
    projected requirement.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class InvariantViolation(RandiscError, RuntimeError):
    """An internal exact invariant failed; indicates a bug or bad input."""
