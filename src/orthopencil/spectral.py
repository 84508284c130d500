"""Pencil eigenproblems, eigenvector recovery, and exclusion checks.

Every pencil ``pencil_eigen`` solves belongs to a matrix polynomial P and is
solved through P's anchor pencil F, with or without left eigenvectors:

- the anchor pencil of P itself, X = diag(c*P_k, I);
- an M1 pencil L = T F, with T = [v kron I_n, B];
- an M2 pencil L = F^B S, with S = [v^T kron I_n; B^B].  F^B is bitwise the
  transpose of the anchor pencil G of P^T, so L = G^T S.

For regular P, L is a strong linearization exactly when the multiplier T (or
S) is invertible, which is the rank test of ``ansatz.check_linearization``.
Each eigenvalue comes in homogeneous form (alpha, beta); it is infinite when
|beta| <= 1e-8 (|alpha| + |beta|), which makes it a zero eigenvalue of the
reversal Y*lam + X.  With ``left`` false the caller uses no left
eigenvectors, and none are computed.

Two solvers find F's eigentriples.  When the row-scaled rcond of c*P_k
clears 10 * n * eps, geev solves the companion (comrade, colleague) matrix
-X^-1 Y, whose first block row is one GEMM by the n x n row-scaled inverse
of c*P_k, and its result is kept only under a certificate at every
eigenvalue: eta_L, the residual that pencil_eigen reports, and the backward
error eta_P of each eigenvector of P it gives (see ``backward_errors``) are
at most 10 * kn * eps, and no eigenvalue is classed infinite.  Otherwise
scipy's QZ solves F itself (G for M2), which is backward stable for P
(Lawrence, Van Barel and Van Dooren, SIMAX 37, 2016) and gives the infinite
eigenvalues of a singular P_k.

numpy.linalg serves every solve that needs neither left eigenvectors nor QZ:
the inverses, and geev for right vectors alone.  scipy.linalg is imported
only by the two solvers that need it, geev with left vectors (``_geev``) and
QZ (``_qz``), so ``eig`` on an anchor or M1 pencil never loads it.

Both go through one map to L, which has the anchor's eigenvalues: F's right
eigenvectors and left eigenvectors T^-T z for F's left ones z (M1), and G's
right eigenvectors as left ones and S^-1 z for G's left ones z as right ones
(M2).  The eigenvectors of P come straight from the anchor: the Kronecker
fit of its right eigenvectors gives one side, and the first block of z,
which is the block sum (v kron I_n)^T of L's eigenvector on the other side,
gives the other, free of the cancellation that forming that sum from L's
eigenvector suffers when T is ill-conditioned.  Residuals are read off the
anchor's structure and one GEMM by the multiplier.

The certificate computes eta_P once per side, from one basis sequence and
one scale sum_i |phi_i| ||P_i||_F at the eigenvalues, and with ||P_i||_F
computed once per polynomial.  When it keeps geev's result for both sides,
each triple carries those two values (``Eigentriple.eta``), and recovery
checks them against its tolerance instead of computing them again.

Eigenvector recovery is batched: ``recover_right`` takes the m eigenvalues
and the kn x m matrix of their pencil eigenvectors and returns the n x m
eigenvectors of P, and ``recover_left`` maps kn x m to n x m the same way.
One call costs one ``phi_vector`` for the Kronecker fit and, unless the
caller passes the certificate's ``eta``, k + 1 GEMMs for the residuals of
all m eigenvalues, whatever m is.  Every structure and residual check is
made for every column, and a failure names the first failing column.  A
scalar eigenvalue with a 1-D vector is the case m = 1 and returns a 1-D
vector.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .ansatz import AnsatzFactor, side_multiplier
from .basis import _phi_sequence, phi_vector, to_monomial
from .errors import DimensionMismatchError, RecoveryError, SingularPencilError
from .matpoly import (
    MatrixPolynomial,
    _scaled_inverse,
    require_ansatz_degree,
    reversal_monomial,
    sampled_regularity,
)
from .oracle import Spectrum, reference_spectrum, trim_poly
from .pencil import Pencil, anchor_pencil, eval_pencil, leading_multiplier

__all__ = [
    "Eigentriple",
    "qz_solve",
    "pencil_eigen",
    "spectrum_of",
    "backward_errors",
    "recover_right",
    "recover_left",
    "eigenvalue_exclusion",
]


@dataclass(frozen=True)
class GeneralizedEigenResult:
    """Solver output for the pencil X*lam + Y.

    ``alpha``/``beta`` give eigenvalues alpha/beta; ``right`` and ``left``
    hold eigenvectors as columns, with the convention (X*lam + Y) right = 0
    and left^T (X*lam + Y) = 0.  ``qz_solve``'s result also holds
    ``residual``, the normalized right residuals read off the anchor, and,
    when the side without Kronecker structure is solved (left for the anchor
    and M1, right for M2), ``sums``: the n x m block sums
    (v kron I_n)^T w / ||w|| of its eigenvectors w, read off the anchor.
    When the certified geev found both sides, ``eta`` is 2 x m: row 0 the
    backward error eta_P of the Kronecker fit of each eigenvector on the
    structured side, row 1 that of its block sum.  The anchor's own
    eigentriples, before the map to the pencil, have no ``residual`` and
    no ``sums``.
    """

    alpha: np.ndarray
    beta: np.ndarray
    right: np.ndarray
    left: np.ndarray | None
    residual: np.ndarray | None = None
    sums: np.ndarray | None = None
    eta: np.ndarray | None = None


@dataclass(frozen=True)
class _Multiplier:
    """The constant multiplier of an M1 pencil (T, with L = T F) or of an M2
    pencil (S, with L = G^T S), and its row-scaled inverse
    (matpoly._scaled_inverse)."""

    side: str
    matrix: np.ndarray
    inverse: tuple


# A companion-form solve is accepted when eta_L and eta_P are at most this
# many kn * eps at every eigenvalue.
_CERTIFIED_ETA = 10.0
# An eigenvalue alpha / beta is infinite when |beta| <= _INF_TOL (|alpha| + |beta|).
_INF_TOL = 1e-8
# Seed of the points at which pencil_eigen tests regularity.
_REGULARITY_SEED = 90210


def qz_solve(X: np.ndarray, Y: np.ndarray, left: bool, anchor: MatrixPolynomial,
             multiplier=None, lead=None) -> GeneralizedEigenResult:
    """The eigentriples of the pencil X*lam + Y, solved through its anchor.

    ``anchor`` is the polynomial P, and (X, Y) is its anchor pencil or, with
    ``multiplier`` (made by pencil_eigen), its M1 or M2 pencil with that
    multiplier.  It is solved through the anchor (module docstring), by the
    certified geev or else QZ on the anchor, which agree to within the
    eigenvalues' condition numbers times their backward errors, not bit for
    bit.  With left false no left eigenvectors are computed (``left`` is None
    in the result).  ``lead`` is the anchor's c*P_k block as
    matpoly._scaled_inverse gives it, if the caller has it.
    """
    tied = _tied_anchor(X, Y, anchor, left, multiplier)
    res = _companion_solve(X, Y, anchor, left, multiplier, tied, lead)
    if res is None:
        _, F, want_left, want_right = tied
        res = _through_anchor(X, Y, F, _qz(F.X, F.Y, want_left, want_right), left, multiplier)
    return res


def _qz(X, Y, left, right=True):
    """scipy's QZ on the pair (Y, -X), with left vectors z^T (X*lam + Y) = 0."""
    import scipy.linalg  # off the import path: numpy.linalg has no QZ

    out = scipy.linalg.eig(Y, -X, left=left, right=right, homogeneous_eigvals=True)
    return GeneralizedEigenResult(alpha=out[0][0], beta=out[0][1],
                                  right=out[-1] if right else None,
                                  left=np.conj(out[1]) if left else None)


def _geev(A, left, right):
    """(w, VL, VR): geev of the real matrix A, complex, None for a side not
    asked for; y^H A = w y^H for the columns y of VL.  numpy's geev gives
    right vectors alone, and scipy's is called only for left ones.  Raises
    LinAlgError when geev does not converge; A may be overwritten."""
    if not left:
        w, VR = np.linalg.eig(A)
        return w.astype(complex, copy=False), None, VR.astype(complex, copy=False)
    import scipy.linalg  # off the import path: numpy.linalg has no left vectors

    out = scipy.linalg.eig(A, left=True, right=right, overwrite_a=True, check_finite=False)
    return out[0], out[1], out[2] if right else None


def _solve(factors, B, transpose=False):
    """M^-1 B, or M^-T B with ``transpose``, from M's row-scaled inverse
    (matpoly._scaled_inverse): with D = diag(1 / rows), M^-1 = (D M)^-1 D
    and M^-T = D (D M)^-T, so either is one GEMM (see _real_matmul)."""
    inverse, rows = factors
    if transpose:
        return _real_matmul(inverse.T, B) / rows[:, None]
    return _real_matmul(inverse, B / rows[:, None])


def _real_matmul(M, V):
    """M @ V for real M, as one real GEMM on [Re V, Im V] when V is complex."""
    if not np.iscomplexobj(V):
        return M @ V
    m = V.shape[1]
    R = M @ np.hstack([V.real, V.imag])
    return R[:, :m] + 1j * R[:, m:]


def _apply_anchor(F, lams, U, transpose=False):
    """F(lam_j) u_j, or F(lam_j)^T u_j, for every column u_j of U, and X u_j
    (X^T u_j) where lam_j is infinite.

    Read off the anchor's structure, X = diag(c*P_k, I) and Y = kron(Ys, I_n)
    below the first block row, so no kn x kn product is formed."""
    n, k, m = F.n, F.k, U.shape[1]
    lead, top = F.X[:n, :n], F.Y[:n]
    Ys = F.Y[n::n, ::n]
    infinite = np.isinf(lams)
    V = np.where(infinite, 0.0, U) if infinite.any() else U  # Y's operand
    lams = np.where(infinite, 1.0, lams)
    if transpose:
        R = top.T @ V[:n] + (Ys.T @ V[n:].reshape(k - 1, n * m)).reshape(-1, m)
        R[:n] += (lead.T @ U[:n]) * lams
    else:
        R = np.empty(U.shape, dtype=complex)
        R[:n] = (lead @ U[:n]) * lams + top @ V
        R[n:] = (Ys @ V.reshape(k, n * m)).reshape(-1, m)
    R[n:] += U[n:] * lams
    return R


def _structured_residuals(X, Y, F, lams, U, multiplier=None):
    """||(X*lam_j + Y) u_j|| / ((||X|| |lam_j| + ||Y||) ||u_j||) for every column
    u_j of U, and ||X u_j|| / (||X|| ||u_j||) where lam_j is infinite, where
    the pencil (X, Y) is the anchor F itself, T F (M1) or F^T S (M2, F the
    anchor of P^T): one GEMM with the multiplier, and the anchor's structure
    for the rest."""
    side = "anchor" if multiplier is None else multiplier.side
    lams = np.asarray(lams, dtype=complex)
    if side == "M2":
        R = _apply_anchor(F, lams, _real_matmul(multiplier.matrix, U), transpose=True)
    else:
        R = _apply_anchor(F, lams, U)
        if side == "M1":
            R = _real_matmul(multiplier.matrix, R)
    nx = np.linalg.norm(X)
    scales = np.where(np.isinf(lams), nx, nx * np.abs(lams) + np.linalg.norm(Y))
    return np.linalg.norm(R, axis=0) / (np.linalg.norm(U, axis=0) * np.maximum(scales, 1e-300))


def _tied_anchor(X, Y, P, left, multiplier):
    """(P, F, want_left, want_right): the polynomial whose anchor pencil F the
    pencil (X, Y) is tied to (P^T for M2), F, and the sides of F's
    eigenvectors that the pencil's asked-for sides need."""
    side = "anchor" if multiplier is None else multiplier.side
    if side == "M2":
        P = MatrixPolynomial(tuple(c.T for c in P.coeffs), P.basis)
    F = Pencil(X, Y, P.n, P.k) if multiplier is None else anchor_pencil(P)
    # an M2 pencil's right eigenvectors come from the anchor's left ones
    return P, F, left or side == "M2", left or side != "M2"


def _through_anchor(X, Y, F, eigs, left, multiplier):
    """The result for the pencil (X, Y) from the eigentriples ``eigs`` of the
    anchor F it is tied to (right vectors, and left vectors z with
    z^T F(lam) = 0): the map and the residuals of the module docstring."""
    n, side = F.n, "anchor" if multiplier is None else multiplier.side
    right, left_vecs, sums, Z = eigs.right, eigs.left, None, eigs.left
    if side == "M2":
        right, left_vecs = _solve(multiplier.inverse, Z), eigs.right
        sums = Z[:n] / np.linalg.norm(right, axis=0)
    elif left:
        if side == "M1":
            left_vecs = _solve(multiplier.inverse, Z, transpose=True)
        sums = Z[:n] / np.linalg.norm(left_vecs, axis=0)
    lams = _eigenvalues(eigs.alpha, eigs.beta)
    residual = _structured_residuals(X, Y, F, lams, right, multiplier)
    return GeneralizedEigenResult(alpha=eigs.alpha, beta=eigs.beta, right=right,
                                  left=left_vecs, residual=residual, sums=sums, eta=eigs.eta)


def _companion_solve(X, Y, P, left=False, multiplier=None, tied=None, lead=None):
    """The certified geev solve of the anchor route, mapped to the pencil
    (X, Y), or None: when c*P_k fails its gate, geev does not converge, or
    the certificate fails.  ``tied`` is _tied_anchor's result and ``lead``
    _scaled_inverse of the anchor's c*P_k block, if the caller has them."""
    P, F, want_left, want_right = tied or _tied_anchor(X, Y, P, left, multiplier)
    n, k, size = P.n, P.k, X.shape[0]
    rcond, inverse = lead or _scaled_inverse(F.X[:n, :n])
    if not rcond > 10.0 * n * np.finfo(float).eps:
        return None
    first = _solve(inverse, F.Y[:n])
    if not np.all(np.isfinite(first)):
        return None
    # only the first block row of -X^-1 Y differs from -Y
    A = np.negative(F.Y, order="F")
    A[:n] = -first
    try:
        lams, VL, VR = _geev(A, want_left, want_right)
    except np.linalg.LinAlgError:  # geev did not converge; QZ may
        return None
    if not np.all(np.isfinite(lams)) or np.any(_INF_TOL * (np.abs(lams) + 1.0) >= 1.0):
        return None
    bound = _CERTIFIED_ETA * size * np.finfo(float).eps
    # one basis sequence and one scale serve the fit and both sides
    phis = _phi_sequence(P.basis, k, lams)
    scale = P.evaluation_scale(lams, phis)
    eta = []
    if VR is not None:
        phi = np.array(phis[k - 1::-1], dtype=complex)  # phi_vector's order
        _, U = _kron_fit(P, lams, VR.reshape(k, n, -1), phi)
        eta.append(_eta(P, phis, scale, U))
        if not np.all(eta[-1] <= bound):
            return None
    Z = None
    if want_left:
        # from y^H A = lam y^H the anchor's left eigenvector is z = X^-T conj(y);
        # only its first block, a left eigenvector of P, needs a solve
        Z = np.conj(VL)
        Z[:n] = _solve(inverse, Z[:n], transpose=True)
        eta.append(_eta(P, phis, scale, Z[:n], "left"))
        if not np.all(eta[-1] <= bound):
            return None
    eigs = GeneralizedEigenResult(alpha=lams, beta=np.ones(size), right=VR, left=Z,
                                  eta=np.array(eta) if len(eta) == 2 else None)
    res = _through_anchor(X, Y, F, eigs, left, multiplier)
    return res if np.all(res.residual <= bound) else None


def _eigenvalues(alpha, beta):
    """alpha_j / beta_j as Python complex numbers, complex infinity where
    |beta_j| <= _INF_TOL (|alpha_j| + |beta_j|)."""
    lams = []
    for a, b in zip(np.asarray(alpha, dtype=complex).tolist(),
                    np.asarray(beta, dtype=complex).tolist()):
        # Python complex division: numpy's vectorized one (and its abs)
        # differs in the last bits, which would change the reported eigenvalues
        lams.append(complex(np.inf) if abs(b) <= _INF_TOL * (abs(a) + abs(b)) else a / b)
    return lams


@dataclass(frozen=True)
class Eigentriple:
    """One eigenvalue of a pencil with unit right/left eigenvectors.

    Infinite eigenvalues are stored as complex infinity; their vectors are
    eigenvectors of the reversal at zero.  ``residual`` is the normalized
    right residual.  ``weighted_sum`` is set when pencil_eigen solved the
    pencil through its anchor and the side without Kronecker structure
    (left for the anchor and M1, right for M2): the block sum
    (v kron I_n)^T w of that side's unit eigenvector w, read off the
    anchor's eigenvector, an eigenvector of P (v = e_1 for the anchor).
    ``eta`` is set when the certified geev found both sides: the backward
    errors eta_P of the eigenvector of P fitted to the Kronecker-structured
    side and of ``weighted_sum``, as the certificate computed them."""

    eigenvalue: complex
    right: np.ndarray
    left: np.ndarray | None
    residual: float
    weighted_sum: np.ndarray | None = None
    eta: np.ndarray | None = None

    @property
    def is_infinite(self) -> bool:
        return cmath.isinf(self.eigenvalue)


# Finite eigenvalues whose real parts are chained by steps of at most this
# many ulps of their modulus are ordered by imaginary part (see _sort_triples).
_ORDER_ULPS = 8


def _sort_triples(triples):
    """Sort by (real, imag) with infinite eigenvalues last, in solver order.

    A run of real parts, each within _ORDER_ULPS ulps of the one before it,
    is one group, ordered by imaginary part: the two members of a conjugate
    pair whose computed real parts differ in the last bits are then always
    listed negative-imaginary first, whatever other eigenvalues lie between
    them.  Equal real parts keep the (real, imag) order."""
    finite = sorted((t for t in triples if not t.is_infinite),
                    key=lambda t: (t.eigenvalue.real, t.eigenvalue.imag))
    tol = _ORDER_ULPS * np.finfo(float).eps
    group, prev = -1, None
    keyed = []
    for t in finite:
        z = t.eigenvalue
        if prev is None or z.real - prev.real > tol * max(abs(prev), abs(z)):
            group += 1
        prev = z
        keyed.append(((group, z.imag, z.real), t))
    keyed.sort(key=lambda pair: pair[0])
    return [t for _, t in keyed] + [t for t in triples if t.is_infinite]


def pencil_eigen(L: Pencil, P: MatrixPolynomial, factor: AnsatzFactor | None = None,
                 left: bool = True) -> list[Eigentriple]:
    """All kn eigenvalues of a regular pencil of P, infinite ones included.

    L is the anchor pencil of P or, with ``factor`` (v, B), its M1 or M2
    pencil with that factor; it is solved through the anchor (see qz_solve).
    L is regular if the reciprocal condition number of the anchor's c*P_k
    block (the exact 1-norm one, from its inverse, rows scaled to unit norm;
    c*P_k^T for M2) is above 10 * n * eps and, with a factor, that of the
    side multiplier T (or S) is above 10 * kn * eps, as L = T F.  Otherwise
    regularity is tested by inverting X*lam + Y at up to 3 points of the
    disk |lam| < 2, the same pseudo-random ones on every call: the pencil is
    regular as soon as one has a row-scaled rcond above 10 * kn * eps.  If
    none has, or the multiplier has no finite inverse, SingularPencilError
    is raised, carrying the largest rcond seen; eigenvalues of a singular
    pencil are meaningless.

    qz_solve reuses the inverse of c*P_k that the gate computed.  With left
    false no left eigenvectors are asked for and every triple's ``left`` is
    None.  Residuals are ||(X*lam + Y) u|| / (||X|| |lam| + ||Y||) for unit
    right vectors u (||X u|| / ||X|| at infinite eigenvalues), read off the
    anchor.  Results are sorted by (real, imag) with infinite eigenvalues
    last; real parts equal up to rounding are ordered by imaginary part.
    """
    n, eps = L.n, np.finfo(float).eps
    multiplier, block = None, L.X[:n, :n]
    if factor is not None:
        # c*P_k as the tied anchor holds it; the anchor of P^T for M2
        block = leading_multiplier(P.basis, P.k) * P.coeffs[-1]
        block = np.ascontiguousarray(block.T) if factor.side == "M2" else block
    lead = _scaled_inverse(block)
    regular = lead[0] > 10.0 * n * eps
    if factor is not None:
        T = side_multiplier(factor)
        rcond, inverse = _scaled_inverse(T)
        multiplier = _Multiplier(factor.side, T, inverse)
        regular = regular and rcond > 10.0 * L.k * n * eps
    if not regular:
        verdict = sampled_regularity(lambda lam: eval_pencil(L, lam), L.k * n,
                                     np.random.default_rng(_REGULARITY_SEED))
        if not verdict.regular:
            raise SingularPencilError(
                f"pencil is singular: rcond of X*lam + Y is at most {verdict.rcond:.3e} "
                f"at {verdict.trials} sampled points (threshold 10*kn*eps)",
                rcond=verdict.rcond,
            )
    if multiplier is not None and multiplier.inverse is None:
        raise SingularPencilError("pencil is singular: its multiplier is singular", rcond=0.0)
    res = qz_solve(L.X, L.Y, left, P, multiplier=multiplier, lead=lead)
    lams = _eigenvalues(res.alpha, res.beta)
    right = res.right / np.linalg.norm(res.right, axis=0)
    left = None if res.left is None else res.left / np.linalg.norm(res.left, axis=0)
    triples = [
        Eigentriple(lams[idx], right[:, idx], None if left is None else left[:, idx],
                    float(res.residual[idx]), None if res.sums is None else res.sums[:, idx],
                    None if res.eta is None else res.eta[:, idx])
        for idx in range(len(lams))
    ]
    return _sort_triples(triples)


def spectrum_of(triples) -> Spectrum:
    finite = np.array([t.eigenvalue for t in triples if not t.is_infinite], dtype=complex)
    return Spectrum(finite, sum(t.is_infinite for t in triples))


def _check_nullside(nullside):
    if nullside not in ("right", "left"):
        raise ValueError("nullside must be 'right' or 'left'")


def backward_errors(P: MatrixPolynomial, lams, U, nullside: str = "right") -> np.ndarray:
    """eta_P(lam_j, u_j) for every finite eigenvalue lam_j and column u_j of U.

    eta_P(lam, u) = ||P(lam) u|| / (sum_i |phi_i(lam)| ||P_i||_F ||u||), the
    normwise backward error of an approximate eigenpair (Tisseur, LAA 309,
    2000); its denominator is MatrixPolynomial.evaluation_scale.  nullside
    "left" takes u^T P(lam) instead.  It bounds sigma_min(P(lam)) / (sum_i
    |phi_i(lam)| ||P_i||_F), the backward error of lam alone, from above.
    The residuals of all m columns cost k + 1 real GEMMs, P_i times the real
    and imaginary parts of U side by side, each scaled by its row of phi;
    no m x n x n tensor of P(lam_j) is built.
    """
    _check_nullside(nullside)
    lams = np.asarray(lams, dtype=complex).reshape(-1)
    phis = _phi_sequence(P.basis, P.k, lams)
    return _eta(P, phis, P.evaluation_scale(lams, phis), np.asarray(U, dtype=complex), nullside)


def _eta(P, phis, scale, U, nullside="right"):
    """backward_errors from the basis values ``phis`` (_phi_sequence) at the
    eigenvalues and the scales sum_i |phi_i| ||P_i||_F made from them."""
    m = U.shape[1]
    parts = np.hstack([U.real, U.imag])
    R = np.zeros(U.shape, dtype=complex)
    for Pi, phi in zip(P.coeffs, phis):
        T = (Pi if nullside == "right" else Pi.T) @ parts
        R += phi * (T[:, :m] + 1j * T[:, m:])
    return np.linalg.norm(R, axis=0) / (np.maximum(scale, 1e-300) * np.linalg.norm(U, axis=0))


def _kron_fit(P, alpha, blocks, phi=None):
    """(phi, U): the k x m basis vectors at the m finite points alpha, and the
    least-squares fit u_j = sum_i conj(phi_ij) w_ij / sum_i |phi_ij|^2 of
    phi_j kron u_j to the k x n x m blocks w_ij of the pencil eigenvectors.
    ``phi`` is phi_vector(P.basis, P.k, alpha), if the caller has it."""
    phi = phi_vector(P.basis, P.k, alpha) if phi is None else phi
    U = np.einsum("im,iam->am", phi.conj(), blocks) / np.sum(np.abs(phi) ** 2, axis=0)
    return phi, U


def recover_right(P: MatrixPolynomial, eigenvalues, W, tol: float = 1e-6,
                  nullside: str = "right", eta=None) -> np.ndarray:
    """Eigenvectors of P from Kronecker-structured pencil eigenvectors.

    Column j of W (kn x m) belongs to eigenvalues[j] and yields column j of
    the n x m result, each of unit norm; a scalar eigenvalue with a 1-D w is
    the case m = 1 and yields a 1-D vector.  Finite eigenvalues: w must be
    (basis vector phi at alpha) kron u; u is the least-squares fit over every
    block, sum_i conj(phi_i) w_i / sum_i |phi_i|^2, and w is checked against
    phi kron u.  Infinite eigenvalues: w must be e_1 kron u with u in the
    nullspace of the leading monomial coefficient.  Raises RecoveryError,
    naming the first failing column and its eigenvalue, when a w lacks the
    Kronecker structure (which signals the source pencil is not a
    linearization) or u fails the residual check.

    nullside selects the residual check: "right" tests P(alpha) u = 0,
    "left" tests u^T P(alpha) = 0 (for left eigenvectors of transposed-ansatz
    pencils, which carry the same Kronecker structure).  It is
    ``backward_errors``, or at infinite eigenvalues the residual of the
    leading monomial coefficient relative to its norm.  ``eta`` gives those
    residuals of the m columns when the caller has them (an Eigentriple's
    ``eta`` from the certified solve); they are then checked, not computed.
    """
    _check_nullside(nullside)
    require_ansatz_degree(P)
    n, k = P.n, P.k
    lams = np.asarray(eigenvalues, dtype=complex)
    single = lams.ndim == 0
    lams = lams.reshape(-1)
    W = np.asarray(W, dtype=complex)
    W = W.reshape(-1, 1) if single else W
    if W.shape != (k * n, lams.size):
        raise RecoveryError(f"eigenvectors must be {k * n} x {lams.size}, got {W.shape}")
    blocks = W.reshape(k, n, -1)
    infinite = np.isinf(lams)
    alpha = np.where(infinite, 0.0, lams)
    phi, U = _kron_fit(P, alpha, blocks)
    U = np.where(infinite, blocks[0], U)
    # finite: w - phi kron u; infinite: w - e_1 kron u, the blocks below the first
    recon = np.einsum("im,am->iam", np.where(infinite, np.eye(k, 1), phi), U)
    mismatch = np.linalg.norm(blocks - recon, axis=(0, 1)) / np.linalg.norm(W, axis=0)
    residual = _vector_residuals(P, lams, U, nullside) if eta is None else np.reshape(eta, -1)
    bad = np.flatnonzero((mismatch > tol) | ~(residual <= tol))
    if bad.size and mismatch[bad[0]] > tol:
        j = bad[0]
        shape = "e_1 kron u" if infinite[j] else "phi kron u"
        raise RecoveryError(
            f"eigenvector {_column(lams, j)} is not {shape} (mismatch {mismatch[j]:.3e}); "
            "the source pencil is not a linearization"
        )
    _require_residuals(lams, residual, tol)
    U = U / np.linalg.norm(U, axis=0)
    return U[:, 0] if single else U


def _column(lams, j):
    return f"column {j} (eigenvalue {complex(lams[j])})"


def _vector_residuals(P, lams, U, nullside):
    """``backward_errors`` of every column of U at its eigenvalue; at an
    infinite one, the residual of the leading monomial coefficient relative
    to its norm."""
    infinite = np.isinf(lams)
    with np.errstate(invalid="ignore"):  # a zero column gives NaN, which fails
        residual = backward_errors(P, np.where(infinite, 0.0, lams), U, nullside)
    if infinite.any():
        lead = reversal_monomial(P)[0]
        lead = lead if nullside == "right" else lead.T
        R = lead @ U[:, infinite]
        residual[infinite] = np.linalg.norm(R, axis=0) / (
            max(np.linalg.norm(lead), 1e-300) * np.linalg.norm(U[:, infinite], axis=0))
    return residual


def _require_residuals(lams, residual, tol):
    """RecoveryError naming the first column whose residual is not at most tol."""
    bad = np.flatnonzero(~(residual <= tol))
    if bad.size:
        j = bad[0]
        raise RecoveryError(
            f"recovered vector {_column(lams, j)} fails the eigenvector residual check "
            f"(relative residual {residual[j]:.3e})"
        )


def recover_left(v, U, P: MatrixPolynomial | None = None, eigenvalues=None,
                 tol: float = 1e-6, nullside: str = "left", eta=None) -> np.ndarray:
    """Blockwise weighted sums sum_i v_i u_i of pencil left eigenvectors.

    U is kn x m, one eigenvector per column, and the result n x m; a 1-D u
    gives a 1-D result.  For a strong linearization with ansatz vector v
    each column is a left eigenvector of P; a near-zero column signals the
    exclusion condition failed.  For side M2 the same sums of right
    eigenvectors are right eigenvectors of P.

    With P and the eigenvalues, every column is checked as recover_right
    checks its own: ``backward_errors`` with ``nullside`` ("left" tests
    u^T P(lam) = 0, "right" P(lam) u = 0; at infinite eigenvalues the leading
    monomial coefficient) must be at most tol, or RecoveryError names the
    first column that fails.  A zero column fails.  ``eta``, as in
    recover_right, gives those residuals if the caller has them."""
    v = np.asarray(v, dtype=float).reshape(-1)
    U = np.asarray(U, dtype=complex)
    k = v.size
    if U.shape[0] % k:
        raise RecoveryError("eigenvector length must be a multiple of len(v)")
    sums = (v @ U.reshape(k, -1)).reshape((U.shape[0] // k,) + U.shape[1:])
    if P is not None:
        _check_nullside(nullside)
        lams = np.asarray(eigenvalues, dtype=complex).reshape(-1)
        cols = sums.reshape(sums.shape[0], -1)
        if cols.shape != (P.n, lams.size):
            raise RecoveryError(f"sums must be {P.n} x {lams.size}, got {cols.shape}")
        if eta is None:
            eta = _vector_residuals(P, lams, cols, nullside)
        _require_residuals(lams, np.reshape(eta, -1), tol)
    return sums


@dataclass(frozen=True)
class EigenvalueExclusionReport:
    excluded: bool
    roots: np.ndarray
    min_distance: float
    v1: float
    infinite_count: int
    poly_coeffs: np.ndarray


def eigenvalue_exclusion(P: MatrixPolynomial, v, tol: float = 1e-8) -> EigenvalueExclusionReport:
    """Root-separation test between the v-polynomial and the spectrum of P.

    The v-polynomial is the inner product of the descending basis vector with
    v, i.e. v_1 phi_{k-1} + v_2 phi_{k-2} + ... + v_k phi_0.  A strong
    linearization with ansatz vector v requires that no root of this
    polynomial is an eigenvalue of P, and that v_1 != 0 whenever P has
    infinite eigenvalues.  Verdict: excluded iff the minimal root-eigenvalue
    distance exceeds tol and the infinity condition holds.
    """
    require_ansatz_degree(P)
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != P.k:
        raise DimensionMismatchError(f"ansatz vector must have length {P.k}")
    if not np.all(np.isfinite(v)):
        raise ValueError("the ansatz vector v must be finite")
    if np.max(np.abs(v)) == 0.0:
        raise ValueError("the zero ansatz vector is rejected (its polynomial vanishes)")
    C = to_monomial(P.basis, P.k - 1)
    coeffs = v[::-1] @ C
    poly = trim_poly(coeffs)
    if poly.degree >= 1:
        roots = np.roots(poly.coeffs[::-1])
    else:
        roots = np.zeros(0, dtype=complex)
    spec = reference_spectrum(P)
    if roots.size and spec.finite.size:
        dist = np.abs(roots.reshape(-1, 1) - spec.finite.reshape(1, -1))
        min_distance = float(dist.min())
    else:
        min_distance = np.inf
    infinity_ok = spec.infinite_count == 0 or v[0] != 0.0
    excluded = bool(min_distance > tol and infinity_ok)
    return EigenvalueExclusionReport(
        excluded, roots, min_distance, float(v[0]), spec.infinite_count, coeffs
    )
