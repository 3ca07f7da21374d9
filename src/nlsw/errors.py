"""Exception types shared across the package."""


class NlswError(Exception):
    """Base class for all package errors."""


class ConfigurationError(NlswError):
    """Invalid problem, grid, or run configuration."""


class UsageError(NlswError):
    """An operation was called with inconsistent or malformed arguments."""


class SingularSystemError(NlswError):
    """The cyclic tridiagonal system is singular or numerically collapsed."""


class StepFailureError(NlswError):
    """A time step did not converge within the iteration budget."""

    def __init__(self, message, step=None, residual=None):
        super().__init__(message)
        self.step = step
        self.residual = residual


class DivergenceError(StepFailureError):
    """NaN or Inf appeared while advancing a time step."""


class ConsistencyError(NlswError):
    """An internal realness/imaginariness invariant was violated; row is the
    first offending row of a stacked evaluation, if known."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class IdentityValidationError(NlswError):
    """The discrete mass-identity oracle failed to validate any candidate."""
