"""Exception hierarchy shared by all modules.

Each class below RandiscError states how the CLI reports it: `exit_code`
is the process exit code and `label` starts the one stderr line.
"""

class RandiscError(Exception):
    """Base class for all package errors."""


class ParameterError(RandiscError, ValueError):
    """An argument is outside an operation's documented domain."""

    exit_code, label = 2, "error"


class UnsupportedDistributionError(ParameterError):
    """The input distribution cannot support the requested construction."""


class CapacityError(RandiscError, RuntimeError):
    """The request passes a size limit or a fitted memory or time estimate.

    `estimate` (when set) is a human-readable string describing the
    projected requirement.
    """

    exit_code, label = 3, "capacity"

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class InvariantViolation(RandiscError, RuntimeError):
    """An internal exact invariant failed; indicates a bug or bad input."""

    exit_code, label = 4, "invariant violation"
