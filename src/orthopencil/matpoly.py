"""Matrix polynomials P(x) = sum_i P_i phi_i(x) with real n x n coefficients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import BasisSpec, DegreeGradedBasis, ThreeTermBasis, _phi_sequence, to_monomial
from .errors import DimensionMismatchError

__all__ = [
    "MatrixPolynomial",
    "monomial_coefficients",
    "reversal_monomial",
    "is_regular",
]


@dataclass(frozen=True)
class MatrixPolynomial:
    """Coefficients P_0 .. P_k (ascending degree) in a given basis.

    The coefficients must be finite and at least 1 x 1, and the leading one
    nonzero.  Degree k >= 1 is accepted for storage; the pencil-space
    constructions additionally require k >= 2.
    """

    coeffs: tuple
    basis: BasisSpec

    def __post_init__(self):
        mats = []
        for c in self.coeffs:
            m = np.array(c, dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise DimensionMismatchError("coefficients must be square matrices")
            m.setflags(write=False)
            mats.append(m)
        if not mats:
            raise ValueError("a matrix polynomial needs coefficients P_0 .. P_k")
        n = mats[0].shape[0]
        if any(m.shape != (n, n) for m in mats):
            raise DimensionMismatchError("all coefficients must have the same shape")
        if n == 0:
            raise ValueError("coefficients must be at least 1 x 1")
        if not all(np.isfinite(m).all() for m in mats):
            raise ValueError("coefficients must be finite")
        if np.max(np.abs(mats[-1])) == 0.0:
            raise ValueError("the leading coefficient P_k must be nonzero")
        object.__setattr__(self, "coeffs", tuple(mats))
        if not isinstance(self.basis, (ThreeTermBasis, DegreeGradedBasis)):
            raise TypeError("basis must be a ThreeTermBasis or DegreeGradedBasis")

    @property
    def n(self) -> int:
        return self.coeffs[0].shape[0]

    @property
    def k(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, lam) -> np.ndarray:
        """P(lam) as a complex n x n matrix; m x n x n for a 1-D array of m points."""
        phis = _phi_sequence(self.basis, self.k, lam)
        out = np.zeros(np.shape(lam) + (self.n, self.n), dtype=complex)
        for Pi, phi in zip(self.coeffs, phis):
            out += np.asarray(phi)[..., None, None] * Pi
        return out

    def coefficient_scale(self) -> float:
        """max-abs entry over all coefficients; a scale for relative tolerances."""
        return max(np.max(np.abs(m)) for m in self.coeffs)

    def evaluation_scale(self, lam) -> float:
        """sum_i |phi_i(lam)| * ||P_i||_F, the magnitude bound for P(lam).

        This is the backward-error denominator for eigenvector residuals: the
        norm of the evaluated matrix itself vanishes at eigenvalues when
        n = 1, so it cannot serve as a scale there.  A 1-D array of m points
        gives an array of m scales.
        """
        phis = _phi_sequence(self.basis, self.k, lam)
        total = sum(np.abs(phi) * np.linalg.norm(Pi) for phi, Pi in zip(phis, self.coeffs))
        return total if np.ndim(total) else float(total)


@dataclass(frozen=True)
class RegularityVerdict:
    """Outcome of the sampled regularity test (probabilistic).

    ``rcond`` is the largest reciprocal condition number seen, ``witness``
    the point where it was seen and ``trials`` the number of points
    evaluated."""

    regular: bool
    witness: complex | None
    rcond: float
    trials: int


# Points of the disk |lam| < 2 at which the regularity test evaluates M(lam).
REGULARITY_POINTS = 3


def _scaled_lu(M: np.ndarray):
    """(rcond, (lu, piv, rows)): getrf of D M and gecon's estimate of its rcond.

    D = diag(1 / rows) scales every row of M to unit 2-norm, so the estimate
    1 / (||D M||_1 ||(D M)^-1||_1) does not depend on the units of any row.
    A zero row or an exactly zero pivot gives (0.0, None)."""
    rows = np.linalg.norm(M, axis=1)
    if not np.all(rows > 0.0):
        return 0.0, None
    M = M / rows[:, None]
    anorm = float(np.linalg.norm(M, 1))
    getrf, gecon = scipy.linalg.get_lapack_funcs(("getrf", "gecon"), (M,))
    lu, piv, info = getrf(M)
    if info > 0:
        return 0.0, None
    value, _ = gecon(lu, anorm, norm="1")
    return float(value), (lu, piv, rows)


def _rcond(M: np.ndarray) -> float:
    """The row-scaled rcond of M (see _scaled_lu)."""
    return _scaled_lu(M)[0]


def sampled_regularity(evaluate, size: int, rng) -> RegularityVerdict:
    """Regularity of the size x size matrix function evaluate(lam).

    M(lam) is LU-factored at up to REGULARITY_POINTS random points of the
    disk |lam| < 2; it is regular as soon as one point has
    rcond(M(lam)) > 10 * size * eps, rows scaled to unit norm first.  The
    test is invariant to the scale of every row, and it does not read large
    matrices as singular: rcond of a random regular matrix decays only
    polynomially with its size, where the scaled determinant decays
    exponentially.  A singular matrix function gives rcond at rounding level
    (an exactly singular M(lam) gives 0) at every point.
    """
    threshold = 10.0 * size * np.finfo(float).eps
    best, witness = -1.0, None
    for trial in range(1, REGULARITY_POINTS + 1):
        r = 2.0 * np.sqrt(rng.uniform())
        lam = complex(r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        value = _rcond(evaluate(lam))
        if value > best:
            best, witness = value, lam
        if value > threshold:
            return RegularityVerdict(True, lam, value, trial)
    return RegularityVerdict(False, witness, best, REGULARITY_POINTS)


def require_ansatz_degree(P: MatrixPolynomial):
    if P.k < 2:
        raise ValueError("pencil-space operations require degree k >= 2")


def monomial_coefficients(P: MatrixPolynomial) -> np.ndarray:
    """Stack of monomial coefficients A_m with P(x) = sum_m A_m x**m, shape (k+1, n, n)."""
    C = to_monomial(P.basis, P.k)
    A = np.zeros((P.k + 1, P.n, P.n))
    for i, Pi in enumerate(P.coeffs):
        for m in range(i + 1):
            if C[i, m] != 0.0:
                A[m] += C[i, m] * Pi
    return A


def reversal_monomial(P: MatrixPolynomial) -> np.ndarray:
    """Ascending monomial coefficients of x**k * P(1/x), shape (k+1, n, n).

    Entry [0] is the leading monomial coefficient of P; used by the oracle to
    count infinite eigenvalues.
    """
    return monomial_coefficients(P)[::-1].copy()


def is_regular(P: MatrixPolynomial, rng=None) -> RegularityVerdict:
    """Randomized regularity test of P: rcond(P(x)) at points of the disk |x| < 2.

    P is regular as soon as one of the 3 sampled points has a reciprocal
    1-norm condition number of the row-scaled P(x) above 10 * n * eps (see
    sampled_regularity).  The verdict is probabilistic: det P is a nonzero
    polynomial for regular P, so random points are almost surely not its
    roots, and rcond does not depend on the scale of P or of any of its rows.
    """
    if rng is None:
        rng = np.random.default_rng(2024)
    return sampled_regularity(P.evaluate, P.n, rng)
