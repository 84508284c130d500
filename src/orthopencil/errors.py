"""Exception types shared across the package."""


class OrthopencilError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(OrthopencilError):
    """Operands have incompatible matrix or block dimensions."""


class BasisCoefficientError(OrthopencilError):
    """A basis cannot supply recurrence coefficients for the requested degree."""


class SingularPencilError(OrthopencilError):
    """A matrix pencil was found to be singular where regularity is required."""

    def __init__(self, message, rcond=None):
        super().__init__(message)
        self.rcond = rcond


class SingularMatrixPolynomialError(OrthopencilError):
    """A matrix polynomial has identically zero determinant where regularity is required."""


class RecoveryError(OrthopencilError):
    """An eigenvector does not have the block structure required for recovery."""
