"""Exception hierarchy shared by all na1lab modules.

Each class carries the CLI's process exit code: schema/parse problems exit
1, domain and precondition violations exit 2, numerical failures exit 3.
"""

from __future__ import annotations


class Na1LabError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class SchemaError(Na1LabError, ValueError):
    """Malformed input document (JSON syntax or missing/invalid fields)."""

    exit_code = 1

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class InvalidParameterError(Na1LabError, ValueError):
    """An argument is outside the documented domain of an operation."""


class InfeasibleError(Na1LabError):
    """A constraint system required to be nonempty has no feasible point."""


class PreconditionError(Na1LabError):
    """A documented precondition of an operation does not hold."""


class NumericError(Na1LabError):
    """An iterative or LP computation failed to reach its tolerance.

    Carries optional diagnostics: ``best`` (best iterate found) and
    ``value`` (objective at that iterate).
    """

    exit_code = 3

    def __init__(self, message: str, best=None, value=None):
        super().__init__(message)
        self.best = best
        self.value = value
