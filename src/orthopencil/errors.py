"""Exception types shared across the package."""


class OrthopencilError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(OrthopencilError):
    """Operands have incompatible matrix or block dimensions."""


class BasisCoefficientError(OrthopencilError):
    """A basis cannot supply recurrence coefficients for the requested degree."""


class SingularPencilError(OrthopencilError):
    """A matrix pencil was found to be singular where regularity is required.

    ``rcond`` holds the margin that failed: for a singular multiplier T (or
    S) its row-scaled reciprocal condition number, and for a singular P the
    largest backward error sigma_min(P(s)) / sum_i |phi_i(s)| ||P_i||_F of a
    real shift s as an eigenvalue, on P with unit rows and columns (see
    spectral._shift); either is at most 10 * kn * eps."""

    def __init__(self, message, rcond=None):
        super().__init__(message)
        self.rcond = rcond


class SingularMatrixPolynomialError(OrthopencilError):
    """A matrix polynomial has identically zero determinant where regularity is required."""


class RecoveryError(OrthopencilError):
    """An eigenvector does not have the block structure required for recovery."""
