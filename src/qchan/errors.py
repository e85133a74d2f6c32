"""Exception hierarchy for qchan."""


class QChanError(Exception):
    """Base class for all qchan errors."""


class DomainError(QChanError, ValueError):
    """A parameter is outside its documented domain."""


class InvalidStateError(QChanError, ValueError):
    """A matrix or vector does not describe a valid qubit state."""


class ContractViolationError(QChanError):
    """An internal consistency contract was violated (e.g. incomplete Kraus set)."""


class PoleError(QChanError, ArithmeticError):
    """A decay rate was requested where it is undefined (denominator at its floor)."""


class QuadratureError(QChanError, RuntimeError):
    """Adaptive quadrature did not converge within its budget.

    Carries the best available estimate and its error bound in the
    ``estimate`` and ``error`` attributes.
    """

    def __init__(self, message, estimate=None, error=None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


class AccuracyError(QChanError, RuntimeError):
    """A solver failed its refinement/accuracy check."""


class UnsupportedQueryError(QChanError, TypeError):
    """The requested quantity is not defined for this object (e.g. a
    pointwise correlation of white noise)."""


class ResourceError(QChanError):
    """The requested computation exceeds a documented size cap or the work budget."""


class UnclassifiableError(QChanError):
    """Every point of a rate series is flagged; no verdict is possible."""
