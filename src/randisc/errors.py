"""Exception hierarchy and memory budget shared by all modules.

The CLI maps these onto exit codes: ParameterError -> 2, CapacityError -> 3,
InvariantViolation -> 4.
"""

MEMORY_BUDGET = 256 << 20  # bytes: every sampler and solver refuses a larger fitted peak


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


def check_budget(what, n, m, est, n_cap=None):
    """Refuse `what` past a fitted peak of est bytes or past n_cap columns."""
    if est > MEMORY_BUDGET or (n_cap and n > n_cap):
        limit = f"n<={n_cap} and " if n_cap else ""
        raise CapacityError(
            f"{what} refused at n={n}, m={m}: it takes {limit}{MEMORY_BUDGET >> 20} MiB",
            estimate=f"~{est / 1e6:.0f} MB peak memory",
        )
