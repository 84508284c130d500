"""Matrix polynomials P(x) = sum_i P_i phi_i(x) with real n x n coefficients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    The leading coefficient must be nonzero.  Degree k >= 1 is accepted for
    storage; the pencil-space constructions additionally require k >= 2.
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
        """P(lam) as a complex n x n matrix."""
        phis = _phi_sequence(self.basis, self.k, lam)
        out = np.zeros((self.n, self.n), dtype=complex)
        for Pi, phi in zip(self.coeffs, phis):
            out += phi * Pi
        return out

    def coefficient_scale(self) -> float:
        """max-abs entry over all coefficients; a scale for relative tolerances."""
        return max(np.max(np.abs(m)) for m in self.coeffs)

    def evaluation_scale(self, lam) -> float:
        """sum_i |phi_i(lam)| * ||P_i||_F, the magnitude bound for P(lam).

        This is the backward-error denominator for eigenvector residuals: the
        norm of the evaluated matrix itself vanishes at eigenvalues when
        n = 1, so it cannot serve as a scale there.
        """
        phis = _phi_sequence(self.basis, self.k, lam)
        return float(sum(abs(phi) * np.linalg.norm(Pi) for phi, Pi in zip(phis, self.coeffs)))


@dataclass(frozen=True)
class RegularityVerdict:
    """Outcome of the randomized regularity test (probabilistic)."""

    regular: bool
    witness: complex | None
    max_ratio: float
    trials: int


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


def is_regular(P: MatrixPolynomial, trials: int | None = None, tol: float = 1e-10,
               rng=None) -> RegularityVerdict:
    """Randomized regularity test: sample det P at points in the disk |x| < 2.

    Each |det| is compared against tol times the Hadamard bound (product of
    row norms) at that point, so badly scaled inputs do not read as singular.
    The verdict is probabilistic: det P has degree <= kn, so kn + 1 samples
    cannot all be accidental zeros of a nonzero determinant (up to rounding).
    """
    if trials is None:
        trials = P.k * P.n + 1
    if rng is None:
        rng = np.random.default_rng(2024)
    max_ratio = 0.0
    witness = None
    for _ in range(trials):
        r = 2.0 * np.sqrt(rng.uniform())
        theta = rng.uniform(0.0, 2.0 * np.pi)
        lam = r * np.exp(1j * theta)
        M = P.evaluate(lam)
        scale = float(np.prod(np.linalg.norm(M, axis=1)))
        if scale == 0.0:
            continue
        ratio = abs(np.linalg.det(M)) / scale
        if ratio > max_ratio:
            max_ratio = ratio
            witness = complex(lam)
        if ratio > tol:
            return RegularityVerdict(True, complex(lam), max_ratio, trials)
    return RegularityVerdict(False, witness, max_ratio, trials)
