"""Exception hierarchy shared across the package.

The CLI maps ValidationError to exit code 2 and ResourceError to exit
code 3; everything else is an ordinary crash.
"""


class PerturbLabError(Exception):
    """Base class for package errors."""


class ValidationError(PerturbLabError):
    """A precondition on user-supplied data failed."""


class ResourceError(PerturbLabError):
    """A computation would exceed its configured budget."""


class ConvergenceError(PerturbLabError):
    """An iterative kernel failed to converge within its sweep budget."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual

