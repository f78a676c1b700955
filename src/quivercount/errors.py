"""Exception hierarchy shared across the package.

Each error class carries the process exit code the command line front end
maps it to, so the mapping lives in exactly one place.
"""


class QuiverCountError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ProblemParseError(QuiverCountError):
    """Malformed problem, representation or sample file."""

    exit_code = 2

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class BudgetExceeded(QuiverCountError):
    """An exhaustive enumeration would exceed the configured budget."""

    exit_code = 3


class CoprimalityError(QuiverCountError):
    """Moduli counting requested for a dimension vector that is not
    coprime for the chosen stability character."""

    exit_code = 4


class TheoremViolation(QuiverCountError):
    """An identity the theory guarantees failed to hold.

    Raised on inexact divisions, non-integer or negative moduli
    coefficients, non-monic semistable counts, partition failures and
    non-unique maximal destabilizing subrepresentations.
    Never recoverable: it means either a bug or a wrong convention.
    """

    exit_code = 5
