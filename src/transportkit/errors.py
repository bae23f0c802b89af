"""Exception and warning types shared across the package."""

from __future__ import annotations


class TransportKitError(Exception):
    """Base class for all package errors."""


class ValidationError(TransportKitError):
    """Malformed input data (bad schema, bad shapes, bad preconditions)."""


class SchemaError(ValidationError, ValueError):
    """A document fails structural validation; path locates the offender."""

    def __init__(self, message, path="$"):
        super().__init__(f"{path}: {message}" if path else message)
        self.message = message
        self.path = path


class FieldMismatchError(TransportKitError, TypeError):
    """Real and complex data mixed without an explicit promotion."""


class ShapeMismatchError(TransportKitError, ValueError):
    """Jet or matrix shapes are incompatible."""


class NumericError(TransportKitError):
    """A numeric routine failed or produced an unreliable answer."""


class RankAmbiguityWarning(UserWarning):
    """Singular values cluster near the rank threshold; the rank decision is fragile."""


class NearResonanceWarning(UserWarning):
    """An eigenvalue combination misses lambda by less than the warning tolerance."""


class IllConditionedWarning(UserWarning):
    """A linear solve ran with condition number beyond the trust threshold."""


class ResonantProblemError(NumericError):
    """lambda is resonant and the dual kernel does not annihilate v: no solution exists."""


class RegionExitError(NumericError):
    """A backward trajectory left the declared region."""

    def __init__(self, message, point=None, t=None):
        super().__init__(message)
        self.point = point
        self.t = t


class FlowIntegrationError(NumericError):
    """The adaptive integrator failed (for example step-size underflow)."""


class TailDecayError(NumericError):
    """The integrand showed no positive decay rate within the horizon."""


class QuantityUnderflowError(NumericError):
    """A sampled quantity underflowed before the fitting window."""


class HypothesisViolationError(NumericError):
    """A perturbation bound hypothesis fails at some sampled time."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class OrderBudgetError(ValidationError):
    """The requested expansion depth exceeds what the input order supports."""
