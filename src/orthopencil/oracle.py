"""Independent brute-force spectral reference.

Everything here goes through the monomial basis: the determinant of P is
expanded symbolically in the coefficients by a Laplace expansion along the
rows of a matrix of scalar polynomials, its roots come from the balanced
companion matrix, and the number of infinite eigenvalues is kn minus the
determinant degree.  The expansion memoizes each minor by its column set (its
rows are always the last ones), so an n x n determinant takes
n(2^(n-1) - 1) polynomial products instead of O(n!); it stays division-free,
and each minor is built by the same additions and products in the same order
as the plain expansion.  Sizes are guarded (n <= 6, k <= 8) because the point
of this module is auditability, not speed; all derived expectations
elsewhere in the package are checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixPolynomialError
from .matpoly import MatrixPolynomial, monomial_coefficients

__all__ = [
    "ScalarPoly",
    "trim_poly",
    "det_poly",
    "poly_roots",
    "Spectrum",
    "reference_spectrum",
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


# trim_poly drops leading coefficients of at most this fraction of the
# largest magnitude.
_TRIM_TOL = 1e-12


def trim_poly(coeffs) -> ScalarPoly:
    """Drop leading coefficients of at most _TRIM_TOL times the largest magnitude."""
    c = np.asarray(coeffs, dtype=float).reshape(-1)
    top = np.max(np.abs(c)) if c.size else 0.0
    if top == 0.0:
        return ScalarPoly(np.zeros(1))
    keep = c.size
    while keep > 1 and abs(c[keep - 1]) <= _TRIM_TOL * top:
        keep -= 1
    if keep == 1 and abs(c[0]) <= _TRIM_TOL * top:
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


def _det_recursive(M, cols, memo) -> np.ndarray:
    """Minor of M on its last len(cols) rows and the columns cols, expanded
    along its first row; memo maps a column tuple to its finished minor."""
    if len(cols) == 1:
        return M[-1][cols[0]]
    det = memo.get(cols)
    if det is not None:
        return det
    row = M[len(M) - len(cols)]
    acc = np.zeros(1)
    for t, c in enumerate(cols):
        entry = row[c]
        if not np.any(entry):
            continue
        minor = _det_recursive(M, cols[:t] + cols[t + 1 :], memo)
        term = _poly_mul(entry, minor)
        acc = _poly_add(acc, term if t % 2 == 0 else -term)
    memo[cols] = acc
    return acc


def det_poly(P: MatrixPolynomial) -> ScalarPoly:
    """Determinant of P as a scalar polynomial, by memoized cofactor expansion,
    with leading coefficients below 1e-12 of the largest trimmed (trim_poly)."""
    if P.n > MAX_ORACLE_N or P.k > MAX_ORACLE_K:
        raise ValueError(
            f"oracle size guard: n <= {MAX_ORACLE_N} and k <= {MAX_ORACLE_K} required"
        )
    A = monomial_coefficients(P)
    M = [[A[:, r, c].copy() for c in range(P.n)] for r in range(P.n)]
    det = _det_recursive(M, tuple(range(P.n)), {})
    return trim_poly(det)


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
