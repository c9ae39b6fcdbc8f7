"""Exception hierarchy shared by all periodlab modules.

The class of an error alone decides the CLI's exit code:

* ``DomainError``: 2, a scalar argument or command-line flag out of range;
* ``NumericError``: 4, a computation that failed;
* ``ValidationError`` and any other ``PeriodLabError``: 3, an input that
  violates a documented invariant.
"""


class PeriodLabError(Exception):
    """Base class for all periodlab errors."""


class ValidationError(PeriodLabError):
    """An input object violates a documented invariant (exit 3).

    The message names the violated rule.
    """


class DomainError(ValidationError):
    """A scalar argument is outside the documented domain (exit 2)."""


class NumericError(PeriodLabError):
    """A numerical computation failed: ill-conditioning, non-convergence (exit 4)."""
