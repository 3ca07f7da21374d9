"""Exception types shared across the package."""


class NlswError(Exception):
    """Base class for all package errors.  exit_code is what the CLI returns
    for the type; step is the level a failed run's step loop was producing,
    and row the first offending row of a stacked evaluation, if known."""

    exit_code = 1
    step = None
    row = None


class ConfigurationError(NlswError):
    """Invalid problem, grid, or run configuration."""

    exit_code = 2


class UsageError(NlswError):
    """An operation was called with inconsistent or malformed arguments."""

    exit_code = 2


class SingularSystemError(NlswError):
    """The cyclic tridiagonal system is singular or numerically collapsed."""

    exit_code = 3


class StepFailureError(NlswError):
    """A time step did not converge within the iteration budget."""

    exit_code = 3

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DivergenceError(StepFailureError):
    """NaN or Inf appeared while advancing a time step."""


class ConsistencyError(NlswError):
    """An internal realness/imaginariness invariant was violated."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class IdentityValidationError(NlswError):
    """The identity oracle did not validate the beta/4 mass constant."""

    exit_code = 4
