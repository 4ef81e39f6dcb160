"""Exception hierarchy.

Two families matter for the CLI exit-code contract: ``ValidationError``
subclasses signal invalid input (exit code 1), ``NumericalError`` subclasses
signal a numerical or convergence failure (exit code 2).
"""


class QchshError(Exception):
    """Base class for all package errors."""


class ValidationError(QchshError):
    """Invalid input: bad dimensions, broken invariants, bad configuration."""


class NumericalError(QchshError):
    """Numerical failure: non-convergence, unexpected residuals."""


class DimensionMismatch(ValidationError):
    pass


class InvalidDimension(ValidationError):
    pass


class NotHermitian(ValidationError):
    pass


class NotTraceless(ValidationError):
    pass


class TraceNotOne(ValidationError):
    pass


class NotPositive(ValidationError):
    pass


class NotInLd(ValidationError):
    """Observable is not a traceless contraction (spectrum outside [-1, 1])."""


class WrongDimension(ValidationError):
    pass


class InvalidConfig(ValidationError):
    pass


class ConvergenceFailure(NumericalError):
    pass


class ImaginaryResidual(NumericalError):
    """A quantity that must be real carried a non-negligible imaginary part."""
