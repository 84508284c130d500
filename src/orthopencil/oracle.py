"""Independent brute-force spectral reference.

Everything here goes through the monomial basis: the determinant of P is
expanded symbolically in the coefficients (cofactor expansion over a matrix
of scalar polynomials), its roots come from the balanced companion matrix,
and the number of infinite eigenvalues is kn minus the determinant degree.
Sizes are guarded (n <= 6, k <= 8) because the point of this module is
auditability, not speed; all derived expectations elsewhere in the package
are checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import SingularMatrixPolynomialError
from .matpoly import MatrixPolynomial, monomial_coefficients

__all__ = [
    "ScalarPoly",
    "trim_poly",
    "det_poly",
    "poly_roots",
    "Spectrum",
    "reference_spectrum",
    "compare_spectra",
]

MAX_ORACLE_N = 6
MAX_ORACLE_K = 8


@dataclass(frozen=True)
class ScalarPoly:
    """Real polynomial with ascending monomial coefficients, trimmed so the
    leading stored coefficient is nonzero (the zero polynomial keeps [0.])."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float).reshape(-1)
        if c.size == 0:
            c = np.zeros(1)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 1 and self.coeffs[0] == 0.0

    def __call__(self, lam):
        acc = 0.0 * lam
        for c in self.coeffs[::-1]:
            acc = acc * lam + c
        return acc


def trim_poly(coeffs, tol: float = 1e-12) -> ScalarPoly:
    """Drop leading coefficients below tol times the largest magnitude."""
    c = np.asarray(coeffs, dtype=float).reshape(-1)
    top = np.max(np.abs(c)) if c.size else 0.0
    if top == 0.0:
        return ScalarPoly(np.zeros(1))
    keep = c.size
    while keep > 1 and abs(c[keep - 1]) <= tol * top:
        keep -= 1
    if keep == 1 and abs(c[0]) <= tol * top:
        return ScalarPoly(np.zeros(1))
    return ScalarPoly(c[:keep].copy())


def _poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.convolve(a, b)


def _poly_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.size < b.size:
        a, b = b, a
    out = a.copy()
    out[: b.size] += b
    return out


def _det_recursive(M, rows, cols) -> np.ndarray:
    if len(rows) == 1:
        return M[rows[0]][cols[0]]
    acc = np.zeros(1)
    sub_rows = rows[1:]
    for t, c in enumerate(cols):
        entry = M[rows[0]][c]
        if not np.any(entry):
            continue
        minor = _det_recursive(M, sub_rows, cols[:t] + cols[t + 1 :])
        term = _poly_mul(entry, minor)
        acc = _poly_add(acc, term if t % 2 == 0 else -term)
    return acc


def det_poly(P: MatrixPolynomial, tol: float = 1e-12) -> ScalarPoly:
    """Determinant of P as a scalar polynomial, by cofactor expansion."""
    if P.n > MAX_ORACLE_N or P.k > MAX_ORACLE_K:
        raise ValueError(
            f"oracle size guard: n <= {MAX_ORACLE_N} and k <= {MAX_ORACLE_K} required"
        )
    A = monomial_coefficients(P)
    M = [[A[:, r, c].copy() for c in range(P.n)] for r in range(P.n)]
    det = _det_recursive(M, list(range(P.n)), list(range(P.n)))
    return trim_poly(det, tol)


def poly_roots(p: ScalarPoly) -> np.ndarray:
    """Roots as eigenvalues of the balanced monomial companion matrix."""
    if p.degree < 1 or p.is_zero:
        raise ValueError("root finding requires degree >= 1")
    return np.roots(p.coeffs[::-1])


@dataclass(frozen=True)
class Spectrum:
    """Finite eigenvalues plus the count of infinite ones."""

    finite: np.ndarray
    infinite_count: int

    def __post_init__(self):
        object.__setattr__(self, "finite", np.asarray(self.finite, dtype=complex).reshape(-1))


def reference_spectrum(P: MatrixPolynomial) -> Spectrum:
    """Finite roots of det P plus kn - deg(det P) infinite eigenvalues."""
    det = det_poly(P)
    if det.is_zero:
        raise SingularMatrixPolynomialError("det P vanishes identically; P is singular")
    finite = poly_roots(det) if det.degree >= 1 else np.zeros(0, dtype=complex)
    return Spectrum(finite, P.k * P.n - det.degree)


@dataclass(frozen=True)
class SpectrumComparison:
    matched: bool
    max_distance: float
    pairs: tuple
    infinite_match: bool
    size_mismatch: bool


def compare_spectra(a: Spectrum, b: Spectrum, tol: float = 1e-6) -> SpectrumComparison:
    """Optimal bipartite matching of the finite eigenvalues by distance.

    Symmetric in its arguments.  Lists of unequal length are matched up to the
    shorter length and flagged.  (A greedy nearest-pair matching would do for
    well separated spectra; the assignment solver is exact and just as cheap
    at these sizes.)
    """
    fa, fb = a.finite, b.finite
    size_mismatch = fa.size != fb.size
    if fa.size == 0 or fb.size == 0:
        return SpectrumComparison(
            matched=not size_mismatch and a.infinite_count == b.infinite_count,
            max_distance=0.0,
            pairs=(),
            infinite_match=a.infinite_count == b.infinite_count,
            size_mismatch=size_mismatch,
        )
    cost = np.abs(fa.reshape(-1, 1) - fb.reshape(1, -1))
    rows, cols = linear_sum_assignment(cost)
    pairs = tuple((int(r), int(c)) for r, c in zip(rows, cols))
    max_distance = float(cost[rows, cols].max())
    infinite_match = a.infinite_count == b.infinite_count
    matched = (not size_mismatch) and infinite_match and max_distance <= tol
    return SpectrumComparison(matched, max_distance, pairs, infinite_match, size_mismatch)
