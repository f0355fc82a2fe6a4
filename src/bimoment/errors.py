"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes, so keep the taxonomy stable:
input problems (``DataError``, ``ConfigError``) are distinct from
fitting failures (``FitError`` and its subclasses) and
from ill-posed inference (``IllPosedError``).
"""


class BimomentError(Exception):
    """Base class for all package-specific errors."""


class DataError(BimomentError):
    """Malformed or inconsistent input data (edge lists, attribute tables)."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ConfigError(BimomentError):
    """Invalid configuration: unknown family, bad mapping spec, bad scenario."""


class DomainError(BimomentError):
    """Value outside a family's working domain or support."""


class FitError(BimomentError):
    """Base class for fitting failures; carries the residual-norm trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = tuple(trace) if trace is not None else ()


class NonExistenceError(FitError):
    """The moment equations have no finite solution (divergence detected,
    or a degenerate degree makes a solution impossible)."""


class MaxIterationsError(FitError):
    """Iteration cap reached without meeting the residual tolerance."""


class SingularJacobianError(FitError):
    """Factorization of the degree-equation Jacobian failed."""


class ModelDegeneracyError(FitError):
    """Mean-slope values are not strictly positive, so the degree-equation
    Jacobian leaves its diagonally dominant matrix class."""


class IllPosedError(BimomentError):
    """The coefficient information matrix is not positive definite
    (e.g. degenerate covariates)."""
