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
builders.  Both write each strict block of B* together with its mirror
image, so B holds every block and its mirror, and the two cannot disagree.
The pencil of a factor is ``make_m1``'s, the one every command forms from
it; ``build_dm_pencil`` only checks and mirrors its constant coefficient.
"""

from __future__ import annotations

import numpy as np

from .ansatz import AnsatzFactor, make_m1
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
    "build_dm",
    "build_dm_generic",
    "build_dm_pencil",
]


# build_dm_pencil accepts a block asymmetry of the assembled constant
# coefficient up to this many kn * eps * max|Y|.
SYMMETRY_ULPS = 100


def _prepare(P: MatrixPolynomial, v) -> tuple[np.ndarray, float]:
    require_ansatz_degree(P)
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != P.k:
        raise DimensionMismatchError(f"ansatz vector must have length {P.k}")
    return v, leading_multiplier(P.basis, P.k)


def _free_block(P: MatrixPolynomial, v: np.ndarray, c: float):
    """(B, blocks): B = [Z; 0] with Z = [v_2 .. v_k] kron (c * P_k), and the
    (k, n, k-1, n) view of B whose [i-1, :, j-1, :] is block (i, j)."""
    k, n = P.k, P.n
    B = np.zeros((k * n, (k - 1) * n))
    blocks = B.reshape(k, n, k - 1, n)
    cPk = c * P.coeffs[k]
    for t in range(1, k):
        blocks[0, :, t - 1, :] = v[t] * cPk
    return B, blocks


def _set_strict(blocks: np.ndarray, i: int, j: int, value: np.ndarray):
    """Write block (i, j), i > j >= 1, and its mirror (j + 1, i - 1)."""
    blocks[i - 1, :, j - 1, :] = value
    blocks[j, :, i - 2, :] = value


def build_dm(P: MatrixPolynomial, v) -> AnsatzFactor:
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

    Pk = P.coeffs[k]
    B, blocks = _free_block(P, v, c)

    def blk(i, j):
        return blocks[i - 1, :, j - 1, :]

    for i in range(2, k + 1):
        s = vv(i - 1) * g(k - i + 1) + vv(i) * (b(k - i) - b(k - 1)) + vv(i + 1) * a(k - i - 1)
        new = (s / (a(k - 1) * a(k - 2))) * Pk
        new = new + (vv(i) / a(k - 2)) * P.coeffs[k - 1]
        new = new - (vv(1) / a(k - 2)) * P.coeffs[k - i]
        _set_strict(blocks, i, 1, new)

    if k >= 3:
        for i in range(3, k + 1):
            acc = g(k - i + 1) * blk(i - 1, 1)
            acc = acc + (b(k - i) - b(k - 2)) * blk(i, 1)
            if i < k:
                acc = acc + a(k - i - 1) * blk(i + 1, 1)
            new = (1.0 / a(k - 3)) * acc
            new = new + (vv(i) / a(k - 3)) * P.coeffs[k - 2]
            new = new - (vv(2) / a(k - 3)) * P.coeffs[k - i]
            new = new - (vv(i) * g(k - 1) / (a(k - 3) * a(k - 1))) * Pk
            _set_strict(blocks, i, 2, new)

    for j in range(3, k):
        for i in range(j + 1, k + 1):
            acc = g(k - i + 1) * blk(i - 1, j - 1)
            acc = acc + (b(k - i) - b(k - j)) * blk(i, j - 1)
            if i < k:
                acc = acc + a(k - i - 1) * blk(i + 1, j - 1)
            acc = acc - g(k - j + 1) * blk(i, j - 2)
            acc = acc + vv(i) * P.coeffs[k - j]
            acc = acc - vv(j) * P.coeffs[k - i]
            _set_strict(blocks, i, j, (1.0 / a(k - j - 1)) * acc)

    return AnsatzFactor(v, B, "M1")


def build_dm_generic(P: MatrixPolynomial, v) -> AnsatzFactor:
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
    k = P.k

    _, m0 = poly_row_blocks(P)  # m0[j-1] is the constant block of column j
    _, M0 = recurrence_rows_scalar(P.basis, k)  # (k-1) x k scalar constant part
    B, blocks = _free_block(P, v, c)

    def y_block(i, j, skip_r=None):
        acc = v[i - 1] * m0[j - 1]
        for r in range(1, k):
            coeff = M0[r - 1, j - 1]
            if coeff == 0.0 or r == skip_r:
                continue
            acc = acc + coeff * blocks[i - 1, :, r - 1, :]
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
            _set_strict(blocks, i, j, (1.0 / pivot) * (rhs - partial))

    return AnsatzFactor(v, B, "M1")


def build_dm_pencil(P: MatrixPolynomial, v) -> tuple[AnsatzFactor, Pencil]:
    """The factor of build_dm_generic and its M1 pencil, made exactly
    block-symmetric.

    The pencil is make_m1's [v kron I_n, B] times the anchor, the same
    product that ``ansatz``, ``eig --factor`` and ``recover --factor`` form
    from this factor.  Its lam-coefficient [v kron (c * P_k), B] comes out
    exactly block-symmetric, because B holds each block and its mirror.  Its
    constant coefficient Y is checked: the elimination uses each
    off-diagonal symmetry equation exactly once, so a block asymmetry above
    100 * kn * eps * max|Y| is an internal error.  The lower block triangle
    of Y is then copied onto the upper one, making Y bitwise block-symmetric.
    """
    factor = build_dm_generic(P, v)
    L = make_m1(P, factor)
    k, n, Y = P.k, P.n, L.Y
    asym = float(np.max(np.abs(Y - block_transpose(Y, n))))
    bound = SYMMETRY_ULPS * k * n * np.finfo(float).eps * float(np.max(np.abs(Y)))
    if asym > bound:
        raise RuntimeError(
            f"symmetry solver produced an asymmetric pencil (max deviation {asym:.3e}, "
            f"bound {bound:.3e}); this should not happen for a valid basis"
        )
    blocks = Y.reshape(k, n, k, n)
    rows, cols = np.triu_indices(k, 1)
    blocks[rows, :, cols, :] = blocks[cols, :, rows, :]
    return factor, L

