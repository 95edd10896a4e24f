"""Exception hierarchy shared by all deepconn modules.

Each class carries the CLI's error code and exit status for it.
"""


class DeepConnError(Exception):
    """Base class for all domain errors."""

    code, status = "ERROR", 1


class FormatError(DeepConnError):
    """Instance document is syntactically malformed."""

    code, status = "FORMAT", 2


class ValidationError(DeepConnError):
    """Instance document violates a structural invariant."""

    code, status = "VALIDATION", 2


class BudgetExceededError(DeepConnError):
    """An exact (exponential-time) search exceeded its configured budget."""

    code, status = "BUDGET", 1


class PreconditionError(DeepConnError):
    """A required feasibility precondition does not hold."""

    code, status = "PRECONDITION", 1

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
