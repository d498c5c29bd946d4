"""Exception types shared across the package.

Every failure mode that callers are expected to catch has a named type here;
plain ValueError/TypeError are reserved for programming errors.
"""

from __future__ import annotations


class MubcError(Exception):
    """Base class for all package-specific errors."""


class ContextMismatch(MubcError, TypeError):
    """Operands live in different ambient fields or scalar modes."""


class DivisionByZero(MubcError, ZeroDivisionError):
    """Inverse or division requested for a zero (or zero-norm) element."""


class NotRealEmbeddable(MubcError, ValueError):
    """Ambient has u^2 + 4v <= 0, so there is no real embedding or sign."""


class ExactSqrtUnavailable(MubcError, ValueError):
    """Square root requested in exact mode does not lie in the field."""


class DimensionMismatch(MubcError, ValueError):
    """Operands have incompatible factor counts or matrix shapes."""


class InvalidDirection(MubcError, ValueError):
    """Direction vector with both components zero (labels no basis)."""


class ParallelDirections(MubcError, ValueError):
    """Zero symplectic product where a nonzero one is required."""


class LimitExceeded(MubcError, ValueError):
    """Requested size is beyond the supported bound (e.g. Kronecker N)."""


class InvalidTarget(MubcError, ValueError):
    """Rescale target is not a positive value."""


class SingularCayley(MubcError, ValueError):
    """M - I is singular, so the Cayley matrix does not exist."""


class DegenerateBlock(MubcError, ValueError):
    """The position-momentum block M_qp is singular, so no overlap constant exists."""


class NonInvertible(MubcError, ValueError):
    """Matrix inverse required but the matrix is numerically singular."""


class PreconditionFailed(MubcError, ValueError):
    """Input fails a documented precondition (e.g. seeds not unbiased)."""


class InvalidProblem(MubcError, ValueError):
    """Input (a configuration, search problem or field element) is malformed
    or unsupported."""
