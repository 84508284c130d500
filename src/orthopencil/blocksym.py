"""Construction of block-symmetric pencils with a prescribed ansatz vector.

For each v there is exactly one block-symmetric pencil in the ansatz space
with that vector; these pencils form a k-dimensional space spanned by the
unit-vector constructions.  The free block decomposes as B = [Z; B*], where
the top row Z = [v_2 .. v_k] kron (c * P_k) is forced by symmetry of the
lam-coefficient and B* is a block-symmetric grid determined column by column
from the symmetry equations of the constant coefficient.

The builder is ``build_dm_generic``: it eliminates the symmetry equations
column by column and works for both basis families, since it only reads the
anchor's reconstruction row and recurrence rows.  ``build_dm`` is the paper's
explicit recurrence for three-term bases; it is kept as the independent
reference the solver is tested against and is not used by the pencil
builders.  Both use only scalar-times-matrix products, so the cost is
O(k^2 n^2).  Blocks on or above the grid diagonal are never computed
independently; they alias their mirror images, which rules out
inconsistencies by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import AnsatzFactor
from .basis import ThreeTermBasis
from .errors import DimensionMismatchError
from .matpoly import MatrixPolynomial, require_ansatz_degree
from .pencil import (
    Pencil,
    block_transpose,
    leading_multiplier,
    poly_row_blocks,
    recurrence_rows_scalar,
)

__all__ = [
    "OpCounter",
    "build_dm",
    "build_dm_generic",
    "dm_basis",
    "build_dm_pencil",
    "is_block_symmetric",
]


@dataclass
class OpCounter:
    """Counts scalar-times-matrix products; the builders perform no
    matrix-matrix multiplication at all."""

    scalar_matrix_mults: int = 0


class _Grid:
    """k x (k-1) grid of n x n blocks, 1-based; row 1 is the forced Z row.

    Entries strictly below the diagonal (i > j) are stored; entries with
    i <= j resolve through the symmetry map B[i, j] = B[j+1, i-1].
    """

    def __init__(self, k: int, n: int, zrow: list):
        self.k = k
        self.n = n
        self.data = np.zeros((k + 1, k, n, n))
        for t, z in enumerate(zrow, start=1):
            self.data[1, t] = z

    def get(self, i: int, j: int) -> np.ndarray:
        if i == 1:
            return self.data[1, j]
        if i > j:
            return self.data[i, j]
        return self.data[j + 1, i - 1]

    def set_strict(self, i: int, j: int, value: np.ndarray):
        assert i > j >= 1
        self.data[i, j] = value

    def materialize(self) -> np.ndarray:
        k, n = self.k, self.n
        B = np.zeros((k * n, (k - 1) * n))
        for i in range(1, k + 1):
            for j in range(1, k):
                B[(i - 1) * n : i * n, (j - 1) * n : j * n] = self.get(i, j)
        return B


def _prepare(P: MatrixPolynomial, v) -> tuple[np.ndarray, float]:
    require_ansatz_degree(P)
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != P.k:
        raise DimensionMismatchError(f"ansatz vector must have length {P.k}")
    return v, leading_multiplier(P.basis, P.k)


def build_dm(P: MatrixPolynomial, v, counter: OpCounter | None = None) -> AnsatzFactor:
    """The paper's explicit recurrence for three-term bases (reference only).

    Column 1 of the grid comes from the first symmetry equation, column 2
    reuses column 1, and later columns follow a three-term update in the
    blocks of the two previous columns.  Out-of-range recurrence references
    carry a zero coefficient and are skipped, matching the conventions
    v_{k+1} = 0 and alpha_{-1} = 0.  The output factor, fed through the
    anchor, yields the unique block-symmetric pencil with ansatz vector v.
    The pencil builders use build_dm_generic; this closed form is kept as the
    independent reference the tests compare the solver against.
    """
    if not isinstance(P.basis, ThreeTermBasis):
        raise TypeError("the closed form needs a three-term basis; use build_dm_generic")
    v, c = _prepare(P, v)
    k, basis = P.k, P.basis

    recur = [basis.recurrence(j) for j in range(k)]

    def a(j):
        return recur[j][0] if j >= 0 else 0.0

    def b(j):
        return recur[j][1] if j >= 0 else 0.0

    def g(j):
        return recur[j][2] if j >= 0 else 0.0

    def vv(i):
        return v[i - 1] if 1 <= i <= k else 0.0

    def smul(s, M):
        if counter is not None:
            counter.scalar_matrix_mults += 1
        return s * M

    Pk = P.coeffs[k]
    cPk = smul(c, Pk)
    grid = _Grid(k, P.n, [smul(vv(t + 1), cPk) for t in range(1, k)])

    for i in range(2, k + 1):
        s = vv(i - 1) * g(k - i + 1) + vv(i) * (b(k - i) - b(k - 1)) + vv(i + 1) * a(k - i - 1)
        blk = smul(s / (a(k - 1) * a(k - 2)), Pk)
        blk = blk + smul(vv(i) / a(k - 2), P.coeffs[k - 1])
        blk = blk - smul(vv(1) / a(k - 2), P.coeffs[k - i])
        grid.set_strict(i, 1, blk)

    if k >= 3:
        for i in range(3, k + 1):
            acc = smul(g(k - i + 1), grid.get(i - 1, 1))
            acc = acc + smul(b(k - i) - b(k - 2), grid.get(i, 1))
            if i < k:
                acc = acc + smul(a(k - i - 1), grid.get(i + 1, 1))
            blk = smul(1.0 / a(k - 3), acc)
            blk = blk + smul(vv(i) / a(k - 3), P.coeffs[k - 2])
            blk = blk - smul(vv(2) / a(k - 3), P.coeffs[k - i])
            blk = blk - smul(vv(i) * g(k - 1) / (a(k - 3) * a(k - 1)), Pk)
            grid.set_strict(i, 2, blk)

    for j in range(3, k):
        for i in range(j + 1, k + 1):
            acc = smul(g(k - i + 1), grid.get(i - 1, j - 1))
            acc = acc + smul(b(k - i) - b(k - j), grid.get(i, j - 1))
            if i < k:
                acc = acc + smul(a(k - i - 1), grid.get(i + 1, j - 1))
            acc = acc - smul(g(k - j + 1), grid.get(i, j - 2))
            acc = acc + smul(vv(i), P.coeffs[k - j])
            acc = acc - smul(vv(j), P.coeffs[k - i])
            grid.set_strict(i, j, smul(1.0 / a(k - j - 1), acc))

    return AnsatzFactor(v, grid.materialize(), "M1")


def build_dm_generic(P: MatrixPolynomial, v,
                     counter: OpCounter | None = None) -> AnsatzFactor:
    """Solve the symmetry equations of the constant coefficient sequentially.

    With Y = multiplier @ anchor(0), block (i, j) of Y equals
    v_i * m0_j + sum_r B[i, r] * M0[r, j], where m0 are the constant blocks of
    the reconstruction row and M0 is the scalar constant part of the
    recurrence rows.  Equating Y(i, j) = Y(j, i) for i > j and eliminating
    column by column determines every strict block; the diagonal coefficient
    M0[j, j] is nonzero for both basis families, so the elimination never
    breaks down.  Works for three-term and degree-graded bases alike.
    """
    v, c = _prepare(P, v)
    k, n = P.k, P.n

    def smul(s, M):
        if counter is not None:
            counter.scalar_matrix_mults += 1
        return s * M

    _, m0 = poly_row_blocks(P)  # m0[j-1] is the constant block of column j
    _, M0 = recurrence_rows_scalar(P.basis, k)  # (k-1) x k scalar constant part

    cPk = smul(c, P.coeffs[k])
    grid = _Grid(k, n, [smul(v[t], cPk) for t in range(1, k)])

    def y_block(i, j, skip_r=None):
        acc = smul(v[i - 1], m0[j - 1])
        for r in range(1, k):
            coeff = M0[r - 1, j - 1]
            if coeff == 0.0 or r == skip_r:
                continue
            acc = acc + smul(coeff, grid.get(i, r))
        return acc

    for j in range(1, k):
        pivot = M0[j - 1, j - 1]
        if pivot == 0.0:
            raise RuntimeError(
                f"symmetry elimination pivot vanished at column {j}; "
                "the basis recurrence rows are not in the expected staircase form"
            )
        for i in range(j + 1, k + 1):
            rhs = y_block(j, i)
            partial = y_block(i, j, skip_r=j)
            grid.set_strict(i, j, smul(1.0 / pivot, rhs - partial))

    factor = AnsatzFactor(v, grid.materialize(), "M1")
    _self_check(P, factor)
    return factor


def _self_check(P, factor):
    """Verify the assembled constant coefficient is block-symmetric.

    The elimination uses each off-diagonal symmetry equation exactly once, so
    a violation here indicates an internal error; raise with diagnostics.
    """
    Y = _constant_coefficient(P, factor, mirror=False)
    asym = float(np.max(np.abs(Y - block_transpose(Y, P.n))))
    scale = max(float(np.max(np.abs(Y))), 1.0)
    if asym > 1e-8 * scale:
        raise RuntimeError(
            f"symmetry solver produced an asymmetric pencil (max deviation {asym:.3e}); "
            "this should not happen for a valid basis"
        )


def _constant_coefficient(P, factor, mirror: bool) -> np.ndarray:
    """Y = multiplier @ anchor(0) assembled blockwise from scalar products.

    The blocks are read straight from the materialized B, whose blocks on and
    above the grid diagonal already hold their mirror images.  With
    mirror=True only blocks with i >= j are computed and the upper triangle
    is copied from the lower one, making the result bitwise block-symmetric.
    """
    k, n = P.k, P.n
    v, B = factor.v, factor.B
    _, m0 = poly_row_blocks(P)
    _, M0 = recurrence_rows_scalar(P.basis, k)
    Y = np.zeros((k * n, k * n))
    for i in range(1, k + 1):
        for j in range(1, (i + 1 if mirror else k + 1)):
            blk = v[i - 1] * m0[j - 1]
            for r in range(1, k):
                coeff = M0[r - 1, j - 1]
                if coeff != 0.0:
                    blk = blk + coeff * B[(i - 1) * n : i * n, (r - 1) * n : r * n]
            Y[(i - 1) * n : i * n, (j - 1) * n : j * n] = blk
    if mirror:
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                Y[(i - 1) * n : i * n, (j - 1) * n : j * n] = Y[
                    (j - 1) * n : j * n, (i - 1) * n : i * n
                ]
    return Y


def dm_basis(P: MatrixPolynomial) -> list:
    """The k unit-vector constructions; they span the block-symmetric space."""
    require_ansatz_degree(P)
    return [build_dm_generic(P, np.eye(P.k)[j]) for j in range(P.k)]


def build_dm_pencil(P: MatrixPolynomial, v,
                    counter: OpCounter | None = None) -> tuple[AnsatzFactor, Pencil]:
    """Factor plus the assembled pencil, exactly block-symmetric by aliasing.

    The lam-coefficient is [v kron (c * P_k), B] and is bitwise symmetric
    because B aliases its mirror blocks; the constant coefficient is computed
    for the lower block triangle only and mirrored.
    """
    factor = build_dm_generic(P, v, counter)
    k, n = P.k, P.n
    X = np.zeros((k * n, k * n))
    X[:, :n] = np.kron(factor.v.reshape(-1, 1), leading_multiplier(P.basis, k) * P.coeffs[k])
    X[:, n:] = factor.B
    return factor, Pencil(X, _constant_coefficient(P, factor, mirror=True), n, k)


@dataclass(frozen=True)
class BlockSymmetryReport:
    symmetric: bool
    max_asymmetry: float


def is_block_symmetric(L: Pencil, tol: float = 0.0) -> BlockSymmetryReport:
    """Max-abs deviation between each block and its mirror, over both
    coefficients; with block size 1 this is ordinary matrix symmetry."""
    asym = max(
        float(np.max(np.abs(L.X - block_transpose(L.X, L.n)))),
        float(np.max(np.abs(L.Y - block_transpose(L.Y, L.n)))),
    )
    return BlockSymmetryReport(asym <= tol, asym)
