"""Anchor pencils and block-structure utilities.

A pencil is a linear matrix polynomial X*lam + Y.  For a matrix polynomial of
degree k >= 2 the anchor pencil stacks an n x kn row that reconstructs P from
the basis vector with a (k-1)n x kn block that encodes the basis recurrence;
the product of the anchor with (Phi_k(lam) kron I_n) is e_1 kron P(lam).

There is one anchor builder, ``anchor_pencil``, for both basis families: the
row and the recurrence block are read off the basis's ``step``.  The row
helpers (``poly_row_blocks``, ``recurrence_rows_scalar``,
``leading_multiplier``) return plain arrays and scalars; the block-symmetric
solver reuses them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .matpoly import MatrixPolynomial, require_ansatz_degree

__all__ = [
    "Pencil",
    "eval_pencil",
    "block_transpose",
    "pencil_block_transpose",
    "sample_points",
    "anchor_pencil",
]


@dataclass(frozen=True)
class Pencil:
    """Square pencil X*lam + Y with k x k block structure of n x n blocks.

    X and Y must be finite, and n and k at least 1."""

    X: np.ndarray
    Y: np.ndarray
    n: int
    k: int

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        size = self.k * self.n
        if X.shape != (size, size) or Y.shape != (size, size):
            raise DimensionMismatchError(
                f"pencil matrices must be {size} x {size}, got {X.shape} and {Y.shape}"
            )
        if self.n < 1 or self.k < 1:
            raise ValueError("a pencil needs n >= 1 and k >= 1")
        if not (np.isfinite(X).all() and np.isfinite(Y).all()):
            raise ValueError("pencil matrices must be finite")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)


def eval_pencil(L: Pencil, lam) -> np.ndarray:
    """X*lam + Y."""
    return L.X * lam + L.Y


def block_transpose(A: np.ndarray, n: int) -> np.ndarray:
    """Transpose the grid of n x n blocks without transposing block interiors.

    A must have dimensions divisible by n; an (r*n) x (c*n) input yields a
    (c*n) x (r*n) output with out_block(j, i) = in_block(i, j).
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] % n or A.shape[1] % n:
        raise DimensionMismatchError("matrix dimensions must be multiples of the block size")
    r, c = A.shape[0] // n, A.shape[1] // n
    return A.reshape(r, n, c, n).transpose(2, 1, 0, 3).reshape(c * n, r * n)


def pencil_block_transpose(L: Pencil) -> Pencil:
    return Pencil(block_transpose(L.X, L.n), block_transpose(L.Y, L.n), L.n, L.k)


def sample_points(count: int, radius: float = 1.5) -> np.ndarray:
    """Distinct Chebyshev points of [-radius, radius].

    Two matrix polynomials of degree <= d that agree at d + 1 of these points
    are identical, so identity checks at count = d + 1 points are complete up
    to rounding.
    """
    t = np.arange(count)
    return radius * np.cos((2 * t + 1) * np.pi / (2 * count))


def leading_multiplier(basis, k: int) -> float:
    """Scalar c with X-block (1,1) of the anchor equal to c * P_k."""
    return 1.0 / basis.step(k)[0]


def recurrence_rows_scalar(basis, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Scalar (k-1) x k pencil (Xs, Ys) annihilating the basis vector.

    Row r (0-based) eliminates phi_{k-1-r} using the recurrence that produces
    it, so (Xs*lam + Ys) @ Phi_k(lam) = 0 identically.
    """
    if k < 2:
        raise ValueError("recurrence rows require k >= 2")
    Xs = np.zeros((k - 1, k))
    Ys = np.zeros((k - 1, k))
    for r in range(k - 1):
        a, s, lower = basis.step(k - 1 - r)
        Ys[r, r] = -a
        Xs[r, r + 1] = 1.0
        Ys[r, r + 1] = -s
        for j, c in lower.items():
            Ys[r, k - 1 - j] = c
    return Xs, Ys


def poly_row_blocks(P: MatrixPolynomial) -> tuple[np.ndarray, list]:
    """The n x kn row reconstructing P: X-block 1 (= c * P_k) and the k Y-blocks.

    Y-block j (0-based) multiplies phi_{k-1-j}; the recurrence of phi_k folds
    c * P_k into the blocks of phi_{k-1} and of every phi_j it references.
    """
    require_ansatz_degree(P)
    k = P.k
    a, s, lower = P.basis.step(k)
    c = 1.0 / a  # same product as everywhere else, so X blocks match bitwise
    Pk = P.coeffs[k]
    yblocks = [(-s * c) * Pk + P.coeffs[k - 1]]
    for j in range(1, k):
        d = k - 1 - j
        yblocks.append((lower[d] * c) * Pk + P.coeffs[d] if d in lower else P.coeffs[d])
    return c * Pk, yblocks


def anchor_pencil(P: MatrixPolynomial) -> Pencil:
    """Anchor pencil: the reconstruction row of P over the recurrence rows.

    Satisfies F(lam) (Phi_k(lam) kron I_n) = e_1 kron P(lam) and is a strong
    linearization of P (regular or singular), for either basis family.
    """
    xblock, yblocks = poly_row_blocks(P)
    n, k = P.n, P.k
    Xs, Ys = recurrence_rows_scalar(P.basis, k)
    eye = np.eye(n)
    row = np.zeros((n, k * n))
    row[:, :n] = xblock
    X = np.vstack([row, np.kron(Xs, eye)])
    Y = np.vstack([np.hstack(yblocks), np.kron(Ys, eye)])
    return Pencil(X, Y, n, k)

