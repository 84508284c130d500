"""Pencil spaces parameterized by an ansatz vector v and a free block B.

Every pencil satisfying L(lam) (Phi_k(lam) kron I_n) = v kron P(lam) factors
as [v kron I_n, B] times the anchor pencil ("side M1"); the transposed ansatz
(Phi_k(lam)^T kron I_n) L(lam) = v^T kron P(lam) gives the block-transposed
factorization ("side M2").  The pair (v, B) determines the pencil uniquely,
and the pencil is a strong linearization exactly when [v kron I_n, B] has
full rank (for regular P; full rank is sufficient also for singular P).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .matpoly import MatrixPolynomial, require_ansatz_degree
from .pencil import (
    Pencil,
    anchor_pencil,
    block_transpose,
    eval_pencil,
    leading_multiplier,
    pencil_block_transpose,
    sample_points,
)
from .basis import phi_vector

__all__ = [
    "AnsatzFactor",
    "multiplier_matrix",
    "side_multiplier",
    "identity_factor",
    "make_m1",
    "make_m2",
    "recover_factors",
    "verify_membership",
    "check_linearization",
    "dimension_m",
]

SIDES = ("M1", "M2")


@dataclass(frozen=True)
class AnsatzFactor:
    """The pair (v, B) identifying a pencil in one of the ansatz spaces.

    v and B must be finite, and B must have n >= 1 rows per block."""

    v: np.ndarray
    B: np.ndarray
    side: str = "M1"

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float).reshape(-1)
        B = np.asarray(self.B, dtype=float)
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")
        k = v.size
        if k < 2:
            raise DimensionMismatchError("ansatz vector needs length k >= 2")
        if B.ndim != 2 or B.shape[0] % k or B.shape[0] // k * (k - 1) != B.shape[1]:
            raise DimensionMismatchError(
                f"B must be kn x (k-1)n for k = {k}, got {B.shape}"
            )
        if B.shape[0] == 0:
            raise ValueError("B must have n >= 1 rows per block")
        if not (np.isfinite(v).all() and np.isfinite(B).all()):
            raise ValueError("v and B must be finite")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "B", B)

    @property
    def k(self) -> int:
        return self.v.size

    @property
    def n(self) -> int:
        return self.B.shape[0] // self.k


def _check_factor_dims(P: MatrixPolynomial, f: AnsatzFactor):
    """DimensionMismatchError unless the factor is for P's (k, n): the one
    message of every command that takes a factor and a problem."""
    if f.k != P.k or f.n != P.n:
        raise DimensionMismatchError(
            f"factor is for (k, n) = ({f.k}, {f.n}), polynomial has ({P.k}, {P.n})"
        )


def multiplier_matrix(f: AnsatzFactor) -> np.ndarray:
    """The kn x kn matrix [v kron I_n, B]."""
    left = np.kron(f.v.reshape(-1, 1), np.eye(f.n))
    return np.hstack([left, f.B])


def side_multiplier(f: AnsatzFactor) -> np.ndarray:
    """The constant multiplier applied to the anchor on the factor's side.

    For side M1 this is [v kron I_n, B] (left factor); for side M2 it is the
    stacked right factor [v^T kron I_n; B^B].  Block-transposition does not
    preserve rank, so the two matrices must not be conflated when deciding
    the linearization condition.
    """
    T = multiplier_matrix(f)
    return T if f.side == "M1" else block_transpose(T, f.n)


def identity_factor(k: int, n: int, side: str = "M1") -> AnsatzFactor:
    """The factor (e_1, [0; I]) whose pencil is the anchor itself."""
    v = np.zeros(k)
    v[0] = 1.0
    B = np.vstack([np.zeros((n, (k - 1) * n)), np.eye((k - 1) * n)])
    return AnsatzFactor(v, B, side)


def _factorization(P: MatrixPolynomial, f: AnsatzFactor | None = None):
    """(Q, F, T, L): F the anchor of Q = P, T None and L = F without a
    factor; T = [v kron I_n, B] and L = T F for M1.  For M2, F is the anchor
    of Q = P^T, entrywise the block transpose of P's anchor transposed,
    T = [v^T kron I_n; B^B] and L = F^T T, with F^T copied row-major first
    so that L is bitwise P's block-transposed anchor times T."""
    if f is None:
        F = anchor_pencil(P)
        return P, F, None, F
    require_ansatz_degree(P)
    _check_factor_dims(P, f)
    if f.side == "M1":
        F, T = anchor_pencil(P), multiplier_matrix(f)
        return P, F, T, Pencil(T @ F.X, T @ F.Y, P.n, P.k)
    Q = MatrixPolynomial(tuple(c.T for c in P.coeffs), P.basis)
    G, S = anchor_pencil(Q), side_multiplier(f)
    return Q, G, S, Pencil(np.ascontiguousarray(G.X.T) @ S, np.ascontiguousarray(G.Y.T) @ S,
                           P.n, P.k)


def make_m1(P: MatrixPolynomial, f: AnsatzFactor) -> Pencil:
    """The pencil [v kron I_n, B] times the anchor of P."""
    if f.side != "M1":
        raise ValueError("factor side must be M1")
    return _factorization(P, f)[3]


def make_m2(P: MatrixPolynomial, f: AnsatzFactor) -> Pencil:
    """The pencil anchor^B times [v^T kron I_n; B^B] (block-transposes)."""
    if f.side != "M2":
        raise ValueError("factor side must be M2")
    return _factorization(P, f)[3]


def recover_factors(L: Pencil, P: MatrixPolynomial, side: str = "M1") -> AnsatzFactor:
    """Read (v, B) off the lam-coefficient of a pencil in the ansatz space.

    The lam-coefficient equals [v kron (c * P_k), B] with c the anchor's
    leading multiplier, so B is a submatrix and each entry of v is obtained by
    a per-block Frobenius projection onto c * P_k (robust when P_k has zero
    entries).  Membership itself is not checked here; see verify_membership.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")
    _require_pencil_match(L, P)
    work = L if side == "M1" else pencil_block_transpose(L)
    n, k = P.n, P.k
    ref = leading_multiplier(P.basis, k) * P.coeffs[k]
    denom = float(np.sum(ref * ref))
    v = np.array([
        float(np.sum(work.X[i * n : (i + 1) * n, :n] * ref)) / denom for i in range(k)
    ])
    return AnsatzFactor(v, work.X[:, n:].copy(), side)


def _require_pencil_match(L: Pencil, P: MatrixPolynomial):
    require_ansatz_degree(P)
    if L.n != P.n or L.k != P.k:
        raise DimensionMismatchError(
            f"pencil blocks ({L.k}, {L.n}) do not match polynomial ({P.k}, {P.n})"
        )


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    v: np.ndarray
    residual: float


def verify_membership(L: Pencil, P: MatrixPolynomial, side: str = "M1",
                      tol: float = 1e-8) -> MembershipReport:
    """Check the ansatz identity at k + 1 sample points.

    Both sides of the identity have degree <= k, so agreement at k + 1
    distinct points certifies membership up to rounding.  The residual is the
    max-abs mismatch over the normwise size of the two sides at each point,
    (||X||_F |lam| + ||Y||_F) ||phi(lam)|| + ||v|| sum_i |phi_i(lam)| ||P_i||_F.
    Unlike |P(lam)|, this scale does not vanish when a sample point is an
    eigenvalue of P.
    """
    f = recover_factors(L, P, side)
    n, k = P.n, P.k
    eye = np.eye(n)
    nx, ny, nv = np.linalg.norm(L.X), np.linalg.norm(L.Y), np.linalg.norm(f.v)
    points = sample_points(k + 1)
    worst = 0.0
    for lam, pscale in zip(points, P.evaluation_scale(points)):
        phi = phi_vector(P.basis, k, lam)
        Plam = P.evaluate(lam)
        if side == "M1":
            lhs = eval_pencil(L, lam) @ np.kron(phi.reshape(-1, 1), eye)
            rhs = np.kron(f.v.reshape(-1, 1), Plam)
        else:
            lhs = np.kron(phi.reshape(1, -1), eye) @ eval_pencil(L, lam)
            rhs = np.kron(f.v.reshape(1, -1), Plam)
        scale = max(float((nx * abs(lam) + ny) * np.linalg.norm(phi) + nv * pscale), 1e-300)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    return MembershipReport(bool(worst <= tol), f.v, worst)


@dataclass(frozen=True)
class LinearizationCheck:
    is_strong_linearization: bool
    rank: int
    deficiency: int
    sigma_min: float


def check_linearization(f: AnsatzFactor) -> LinearizationCheck:
    """Numerical rank test of the factor's constant multiplier.

    For side M1 the multiplier is [v kron I_n, B]; full rank kn implies the
    pencil is a strong linearization (for singular P as well), for regular P
    the converse holds, and a rank-deficient multiplier always yields a
    singular pencil.  Side M2 is the ordinary transpose of the M1 theory
    applied to the entrywise-transposed polynomial, so the same statements
    hold with the stacked multiplier [v^T kron I_n; B^B].  The rank is
    decided by singular values with the cutoff kn * eps * sigma_max;
    near-deficiency shows up in sigma_min.
    """
    A = side_multiplier(f)
    s = np.linalg.svd(A, compute_uv=False)
    size = A.shape[0]
    threshold = size * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > threshold))
    return LinearizationCheck(
        is_strong_linearization=rank == size,
        rank=rank,
        deficiency=size - rank,
        sigma_min=float(s[-1]) if s.size else 0.0,
    )


def dimension_m(k: int, n: int) -> int:
    """Dimension k(k-1)n^2 + k of each one-sided ansatz space."""
    if k < 2 or n < 1:
        raise ValueError("dimension formula requires k >= 2 and n >= 1")
    return k * (k - 1) * n * n + k
