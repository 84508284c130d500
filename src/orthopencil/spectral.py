"""Pencil eigenproblems, eigenvector recovery, and exclusion checks.

The dense generalized eigensolver is an injected dependency: any callable
``solver(X, Y, left)`` returning a GeneralizedEigenResult for the pencil
X*lam + Y can be used, and the default is ``qz_solve``.  With ``left`` false
the caller uses no left eigenvectors, so the solver may skip them and return
``left=None``.  The solver gives each eigenvalue in homogeneous form
(alpha, beta); an eigenvalue is infinite when |beta| <= 1e-8 (|alpha| +
|beta|), which makes it a zero eigenvalue of the reversal Y*lam + X.

``qz_solve`` has two branches.  The general one is scipy's QZ.  The other,
the companion branch, serves every pencil that ``pencil_eigen`` can tie to
an anchor pencil F, with or without left eigenvectors:

- the anchor pencil of P itself, X = diag(c*P_k, I);
- an M1 pencil L = T F, with T = [v kron I_n, B];
- an M2 pencil L = F^B S, with S = [v^T kron I_n; B^B].  F^B is bitwise the
  transpose of the anchor pencil G of P^T, so L = G^T S.

For invertible P_k the anchor's eigenpairs are those of the companion
(comrade, colleague) matrix -X^-1 Y, which one n x n LU and LAPACK geev
solve.  For invertible T (or S) the pencil has the anchor's eigenvalues: L
has F's right eigenvectors and left eigenvectors T^-T z for F's left ones z
(M1), and G's right eigenvectors as left ones and S^-1 z for G's left ones
z as right ones (M2).  The eigenvectors of P come straight from the anchor:
the Kronecker fit of its right eigenvectors gives one side, and the first
block of z, which is the block sum (v kron I_n)^T of L's eigenvector on the
other side, gives the other, free of the cancellation that forming that sum
from L's eigenvector suffers when T is ill-conditioned.

The companion result is accepted only under a certificate, at every
eigenvalue: eta_L, the residual that pencil_eigen reports, is at most
10 * kn * eps; the backward error eta_P of each eigenvector of P it gives
(see ``backward_errors``) is at most 10 * kn * eps; and no eigenvalue is
classed infinite.  Otherwise QZ runs instead, in the same ``qz_solve`` call.
``pencil_eigen`` takes the companion branch only when the row-scaled rcond
of P_k clears 10 * n * eps and, for M1/M2 pencils, that of T (or S) clears
10 * kn * eps; together they prove the pencil regular (det L = det T det F).

Eigenvector recovery is batched: ``recover_right`` takes the m eigenvalues
and the kn x m matrix of their pencil eigenvectors and returns the n x m
eigenvectors of P, and ``recover_left`` maps kn x m to n x m the same way.
One call costs one ``phi_vector`` and k + 1 GEMMs for the residuals of all m
eigenvalues, whatever m is; every structure and residual check is made for
every column, and a failure names the first failing column.  A scalar
eigenvalue with a 1-D vector is the case m = 1 and returns a 1-D vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .ansatz import AnsatzFactor, check_linearization, make_m1, make_m2, side_multiplier
from .basis import _phi_sequence, phi_vector, to_monomial
from .errors import DimensionMismatchError, RecoveryError, SingularPencilError
from .matpoly import (
    MatrixPolynomial,
    _rcond,
    _scaled_lu,
    require_ansatz_degree,
    reversal_monomial,
    sampled_regularity,
)
from .oracle import Spectrum, reference_spectrum, trim_poly
from .pencil import Pencil, anchor_pencil, eval_pencil

__all__ = [
    "Eigentriple",
    "qz_solve",
    "pencil_eigen",
    "spectrum_of",
    "backward_errors",
    "recover_right",
    "recover_left",
    "exclusion_left",
    "eigenvalue_exclusion",
]


@dataclass(frozen=True)
class GeneralizedEigenResult:
    """Raw solver output for the pencil X*lam + Y.

    ``alpha``/``beta`` give eigenvalues alpha/beta; ``right`` and ``left``
    hold eigenvectors as columns, with the convention (X*lam + Y) right = 0
    and left^T (X*lam + Y) = 0.  The companion branch
    of qz_solve also gives ``residual``, the normalized right residuals it
    certified, and for M1/M2 pencils ``sums``, the n x m block sums
    (v kron I_n)^T w / ||w|| of the eigenvectors w on the side without
    Kronecker structure (left for M1, right for M2); other solvers leave both
    None.
    """

    alpha: np.ndarray
    beta: np.ndarray
    right: np.ndarray
    left: np.ndarray | None
    residual: np.ndarray | None = None
    sums: np.ndarray | None = None


@dataclass(frozen=True)
class _Multiplier:
    """The constant multiplier of an M1 pencil (T, with L = T F) or of an M2
    pencil (S, with L = G^T S), and the row-scaled LU of pencil_eigen's gate."""

    side: str
    matrix: np.ndarray
    lu: tuple


# A companion-form solve is accepted when eta_L and eta_P are at most this
# many kn * eps at every eigenvalue.
_CERTIFIED_ETA = 10.0
# An eigenvalue alpha / beta is infinite when |beta| <= _INF_TOL (|alpha| + |beta|).
_INF_TOL = 1e-8
# Seed of the points at which pencil_eigen tests regularity.
_REGULARITY_SEED = 90210


def qz_solve(X: np.ndarray, Y: np.ndarray, left: bool = True, anchor=None,
             multiplier=None) -> GeneralizedEigenResult:
    """Default dense solver for the pencil X*lam + Y, in one of two branches.

    - General: scipy's QZ on the pair (Y, -X).  With left false no left
      eigenvectors are computed (``left`` is None in the result); eigenvalues
      and right eigenvectors are the same either way.
    - Companion: ``anchor`` is the polynomial P, and (X, Y) is its anchor
      pencil, or, when ``multiplier`` (made by pencil_eigen) is given, its M1
      or M2 pencil with that multiplier.  One n x n LU of the row-scaled
      c*P_k (c*P_k^T for M2) forms the companion matrix, which LAPACK geev
      solves, with left eigenvectors when they are asked for or the pencil
      is M2; beta is 1.  L's eigenvectors are mapped from the anchor's with
      the multiplier's LU.  The result is kept only if it passes the
      certificate of the module docstring (eta_L and the eta_P of both
      sides of P at most 10 * kn * eps, no eigenvalue infinite or classed
      infinite by the rule of pencil_eigen).  Otherwise the general
      branch runs.

    The two branches agree to within the eigenvalues' condition numbers
    times their backward errors, not bit for bit.
    """
    if anchor is not None:
        res = _companion_solve(X, Y, anchor, left, multiplier)
        if res is not None:
            return res
    out = scipy.linalg.eig(Y, -X, left=left, right=True, homogeneous_eigvals=True)
    w, vr = out[0], out[-1]
    vl = np.conj(out[1]) if left else None
    return GeneralizedEigenResult(alpha=w[0], beta=w[1], right=vr, left=vl)


def _lu_solve(factors, B, trans=0):
    """M^-1 B (trans 0) or M^-T B (trans 1) from the row-scaled LU of M
    (D M = LU with D = diag(1 / rows), see matpoly._scaled_lu).  A complex B
    is solved as its real and imaginary parts side by side."""
    lu, piv, rows = factors
    if not trans:
        B = B / rows[:, None]
    m = B.shape[1]
    cplx = np.iscomplexobj(B)
    getrs = scipy.linalg.get_lapack_funcs("getrs", (lu,))
    out, _ = getrs(lu, piv, np.hstack([B.real, B.imag]) if cplx else B, trans=trans)
    if cplx:
        out = out[:, :m] + 1j * out[:, m:]
    return out / rows[:, None] if trans else out


def _real_matmul(M, V):
    """M @ V for real M and complex V, as one real GEMM on [Re V, Im V]."""
    m = V.shape[1]
    R = M @ np.hstack([V.real, V.imag])
    return R[:, :m] + 1j * R[:, m:]


def _apply_anchor(F, lams, U, transpose=False):
    """F(lam_j) u_j, or F(lam_j)^T u_j, for every column u_j of U.

    Read off the anchor's structure, X = diag(c*P_k, I) and Y = kron(Ys, I_n)
    below the first block row, so no kn x kn product is formed."""
    n, k, m = F.n, F.k, U.shape[1]
    lead, top = F.X[:n, :n], F.Y[:n]
    Ys = F.Y[n::n, ::n]
    if transpose:
        R = top.T @ U[:n] + (Ys.T @ U[n:].reshape(k - 1, n * m)).reshape(-1, m)
        R[:n] += (lead.T @ U[:n]) * lams
    else:
        R = np.empty(U.shape, dtype=complex)
        R[:n] = (lead @ U[:n]) * lams + top @ U
        R[n:] = (Ys @ U.reshape(k, n * m)).reshape(-1, m)
    R[n:] += U[n:] * lams
    return R


def _structured_residuals(X, Y, F, lams, U, multiplier=None):
    """||(X*lam_j + Y) u_j|| / ((||X|| |lam_j| + ||Y||) ||u_j||) for every column
    u_j of U, where the pencil (X, Y) is the anchor F itself, T F (M1) or
    F^T S (M2, F the anchor of P^T): one GEMM with the multiplier, and the
    anchor's structure for the rest."""
    side = "anchor" if multiplier is None else multiplier.side
    if side == "M2":
        R = _apply_anchor(F, lams, _real_matmul(multiplier.matrix, U), transpose=True)
    else:
        R = _apply_anchor(F, lams, U)
        if side == "M1":
            R = _real_matmul(multiplier.matrix, R)
    scales = np.linalg.norm(X) * np.abs(lams) + np.linalg.norm(Y)
    return np.linalg.norm(R, axis=0) / (np.linalg.norm(U, axis=0) * np.maximum(scales, 1e-300))


def _companion_solve(X, Y, P, left=False, multiplier=None):
    """The certified geev solve of qz_solve's companion branch, or None."""
    side = "anchor" if multiplier is None else multiplier.side
    if side == "M2":
        P = MatrixPolynomial(tuple(c.T for c in P.coeffs), P.basis)
    F = Pencil(X, Y, P.n, P.k) if multiplier is None else anchor_pencil(P)
    n, k, size = P.n, P.k, X.shape[0]
    _, lead = _scaled_lu(F.X[:n, :n])
    if lead is None:
        return None
    first = _lu_solve(lead, F.Y[:n])
    if not np.all(np.isfinite(first)):
        return None
    # only the first block row of -X^-1 Y differs from -Y
    A = np.negative(F.Y, order="F")
    A[:n] = -first
    # an M2 pencil's right eigenvectors come from the anchor's left ones
    want_left, want_right = left or side == "M2", left or side != "M2"
    try:
        out = scipy.linalg.eig(A, left=want_left, right=want_right, overwrite_a=True,
                               check_finite=False)
    except scipy.linalg.LinAlgError:  # geev did not converge; QZ may
        return None
    lams = out[0]
    if not np.all(np.isfinite(lams)) or np.any(_INF_TOL * (np.abs(lams) + 1.0) >= 1.0):
        return None
    bound = _CERTIFIED_ETA * size * np.finfo(float).eps
    VR = out[-1] if want_right else None
    if VR is not None:
        _, U = _kron_fit(P, lams, VR.reshape(k, n, -1))
        if not np.all(backward_errors(P, lams, U) <= bound):
            return None
    Z = None
    if want_left:
        # from y^H A = lam y^H the anchor's left eigenvector is z = X^-T conj(y);
        # only its first block, a left eigenvector of P, needs a solve
        Z = np.conj(out[1])
        Z[:n] = _lu_solve(lead, Z[:n], trans=1)
        if not np.all(backward_errors(P, lams, Z[:n], "left") <= bound):
            return None
    right, left_vecs, sums = VR, Z, None
    if side == "M1" and left:
        left_vecs = _lu_solve(multiplier.lu, Z, trans=1)
        sums = Z[:n] / np.linalg.norm(left_vecs, axis=0)
    elif side == "M2":
        right, left_vecs = _lu_solve(multiplier.lu, Z), VR
        sums = Z[:n] / np.linalg.norm(right, axis=0)
    residual = _structured_residuals(X, Y, F, lams, right, multiplier)
    if not np.all(residual <= bound):
        return None
    return GeneralizedEigenResult(alpha=lams, beta=np.ones(size), right=right,
                                  left=left_vecs, residual=residual, sums=sums)


@dataclass(frozen=True)
class Eigentriple:
    """One eigenvalue of a pencil with unit right/left eigenvectors.

    Infinite eigenvalues are stored as complex infinity; their vectors are
    eigenvectors of the reversal at zero.  ``residual`` is the normalized
    right residual.  ``weighted_sum`` is set when the companion branch solved
    an M1 or M2 pencil: the block sum (v kron I_n)^T w of the unit
    eigenvector w on the side without Kronecker structure (left for M1,
    right for M2), read off the anchor's eigenvector, which is the
    eigenvector of P that ``recover_left`` would form from w."""

    eigenvalue: complex
    right: np.ndarray
    left: np.ndarray | None
    residual: float
    weighted_sum: np.ndarray | None = None

    @property
    def is_infinite(self) -> bool:
        return bool(np.isinf(self.eigenvalue))


# Columns per block of the residual GEMMs: bounds their temporaries.
_RESIDUAL_BLOCK = 64
# Finite eigenvalues whose real parts are chained by steps of at most this
# many ulps of their modulus are ordered by imaginary part (see _sort_triples).
_ORDER_ULPS = 8


def _residual_norms(X, Y, V, lam, infinite):
    """||(X*lam_j + Y) v_j|| for every column v_j of V (||X v_j|| where infinite).

    Two real GEMMs per column block, on the real and imaginary parts side by
    side, replace one kn x kn matrix per eigenvalue."""
    c1 = np.where(infinite, 1.0, lam)
    c0 = np.where(infinite, 0.0, 1.0)
    out = np.empty(V.shape[1])
    for start in range(0, V.shape[1], _RESIDUAL_BLOCK):
        cols = slice(start, start + _RESIDUAL_BLOCK)
        block = V[:, cols]
        b = block.shape[1]
        parts = np.hstack([block.real, block.imag])
        XV = X @ parts
        YV = Y @ parts
        R = (XV[:, :b] + 1j * XV[:, b:]) * c1[cols] + (YV[:, :b] + 1j * YV[:, b:]) * c0[cols]
        out[cols] = np.linalg.norm(R, axis=0)
    return out


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


def pencil_eigen(L: Pencil, solver=None, left: bool = True, anchor=None,
                 factor: AnsatzFactor | None = None) -> list[Eigentriple]:
    """All kn eigenvalues of a regular pencil, infinite ones included.

    ``anchor`` is the polynomial P when L is its anchor pencil or, with
    ``factor`` (v, B), its M1 or M2 pencil with that factor.  If the
    reciprocal condition number of P_k (LAPACK gecon, 1-norm, rows scaled to
    unit norm; P_k^T for M2) is above 10 * n * eps and, with a factor, that
    of the side multiplier T (or S) is above 10 * kn * eps, then L = T F is
    regular and the default solver gets the anchor and the multiplier's LU
    (see qz_solve).  Otherwise regularity is tested by LU factorizations of
    X*lam + Y at up to 3 points of the disk |lam| < 2, the same pseudo-random
    ones on every call: the pencil is regular as soon as one has a
    row-scaled rcond above 10 * kn * eps.  If none has, SingularPencilError
    is raised, carrying the largest rcond seen; eigenvalues of a singular
    pencil are meaningless.

    The solver is called as solver(X, Y, left), the default one as
    qz_solve(X, Y, left, anchor=..., multiplier=...).  With left false no
    left eigenvectors are asked for and every triple's ``left`` is None.
    Residuals are ||(X*lam + Y) u|| / (||X|| |lam| + ||Y||) for unit right
    vectors u (||X u|| / ||X|| at infinite eigenvalues).
    Results are sorted by (real, imag) with infinite eigenvalues last; real
    parts equal up to rounding are ordered by imaginary part.
    """
    n, eps = L.n, np.finfo(float).eps
    multiplier = None
    if anchor is not None:
        lead = L.X[:n, :n] if factor is None else anchor.coeffs[-1]
        if factor is not None and factor.side == "M2":
            lead = lead.T  # the companion branch solves the anchor of P^T
        if _rcond(lead) <= 10.0 * n * eps:
            anchor = None
        elif factor is not None:
            T = side_multiplier(factor)
            rcond, lu = _scaled_lu(T)
            if rcond > 10.0 * L.k * n * eps:
                multiplier = _Multiplier(factor.side, T, lu)
            else:
                anchor = None
    if anchor is None:
        verdict = sampled_regularity(lambda lam: eval_pencil(L, lam), L.k * n,
                                     np.random.default_rng(_REGULARITY_SEED))
        if not verdict.regular:
            raise SingularPencilError(
                f"pencil is singular: rcond of X*lam + Y is at most {verdict.rcond:.3e} "
                f"at {verdict.trials} sampled points (threshold 10*kn*eps)",
                rcond=verdict.rcond,
            )
    if solver is None:
        res = qz_solve(L.X, L.Y, left, anchor=anchor, multiplier=multiplier)
    else:
        res = solver(L.X, L.Y, left)
    size = res.alpha.size
    lams = []
    infinite = np.zeros(size, dtype=bool)
    for idx in range(size):
        # Python complex division: numpy's vectorized one differs in the last
        # bits, which would change the reported eigenvalues
        a, b = complex(res.alpha[idx]), complex(res.beta[idx])
        infinite[idx] = abs(b) <= _INF_TOL * (abs(a) + abs(b))
        lams.append(complex(np.inf) if infinite[idx] else a / b)
    norms = np.linalg.norm(res.right, axis=0)
    residuals = res.residual
    if residuals is None:
        finite_lams = np.where(infinite, 0.0, np.array(lams, dtype=complex))
        nx = np.linalg.norm(L.X)
        scales = np.where(infinite, nx, nx * np.abs(finite_lams) + np.linalg.norm(L.Y))
        residuals = _residual_norms(L.X, L.Y, res.right, finite_lams, infinite)
        residuals /= norms * np.maximum(scales, 1e-300)
    right = res.right / norms
    left = None if res.left is None else res.left / np.linalg.norm(res.left, axis=0)
    triples = [
        Eigentriple(lams[idx], right[:, idx], None if left is None else left[:, idx],
                    float(residuals[idx]), None if res.sums is None else res.sums[:, idx])
        for idx in range(size)
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
    U = np.asarray(U, dtype=complex)
    m = lams.size
    phis = _phi_sequence(P.basis, P.k, lams)
    parts = np.hstack([U.real, U.imag])
    R = np.zeros(U.shape, dtype=complex)
    for Pi, phi in zip(P.coeffs, phis):
        T = (Pi if nullside == "right" else Pi.T) @ parts
        R += phi * (T[:, :m] + 1j * T[:, m:])
    scale = np.maximum(P.evaluation_scale(lams), 1e-300)
    return np.linalg.norm(R, axis=0) / (scale * np.linalg.norm(U, axis=0))


def _kron_fit(P, alpha, blocks):
    """(phi, U): the k x m basis vectors at the m finite points alpha, and the
    least-squares fit u_j = sum_i conj(phi_ij) w_ij / sum_i |phi_ij|^2 of
    phi_j kron u_j to the k x n x m blocks w_ij of the pencil eigenvectors."""
    phi = phi_vector(P.basis, P.k, alpha)
    U = np.einsum("im,iam->am", phi.conj(), blocks) / np.sum(np.abs(phi) ** 2, axis=0)
    return phi, U


def recover_right(P: MatrixPolynomial, eigenvalues, W, tol: float = 1e-6,
                  nullside: str = "right") -> np.ndarray:
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
    leading monomial coefficient relative to its norm.
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
    residual = _vector_residuals(P, lams, U, nullside)
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
                 tol: float = 1e-6, nullside: str = "left") -> np.ndarray:
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
    first column that fails.  A zero column fails."""
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
        _require_residuals(lams, _vector_residuals(P, lams, cols, nullside), tol)
    return sums


@dataclass(frozen=True)
class ExclusionLeftReport:
    passed: bool
    min_margin: float
    margins: tuple
    eigenvalues: tuple
    rank_full: bool
    witness: np.ndarray | None


def exclusion_left(P: MatrixPolynomial, factor: AnsatzFactor, tol: float = 1e-8,
                   solver=None) -> ExclusionLeftReport:
    """Left-eigenvector exclusion test for a factored pencil.

    For side M1 the pencil is a strong linearization iff u^T (v kron I_n) != 0
    for every left eigenvector u at every eigenvalue; for side M2 the dual
    check uses right eigenvectors.  When the pencil itself is singular a
    constant nullvector of [v kron I_n, B] is returned as the witness (it is
    a left eigenvector for every point and annihilates v kron I_n).  The rank
    test on the factor is reported alongside; the two verdicts agree for
    regular P.
    """
    chk = check_linearization(factor)
    L = make_m1(P, factor) if factor.side == "M1" else make_m2(P, factor)
    try:
        triples = pencil_eigen(L, solver=solver)
    except SingularPencilError:
        if not chk.is_strong_linearization:
            # M1: a left nullvector of the multiplier annihilates the pencil
            # from the left at every point and maps v kron I to zero; M2 uses
            # the dual (right) nullvector of the stacked multiplier.
            q = np.linalg.svd(side_multiplier(factor))[0 if factor.side == "M1" else 2]
            q = q[:, -1] if factor.side == "M1" else q[-1, :]
            return ExclusionLeftReport(False, 0.0, (0.0,), (), False, q)
        # singular pencil despite a full-rank factor: P itself is singular;
        # fall back to nullvectors sampled at a few points
        return _sampled_nullvector_exclusion(P, factor, L, tol)
    pairs = [(t.eigenvalue, t.left if factor.side == "M1" else t.right) for t in triples]
    pairs = [(lam, vec) for lam, vec in pairs if vec is not None]
    margins = np.zeros(0)
    if pairs:
        vecs = np.stack([vec for _, vec in pairs], axis=1)
        margins = np.linalg.norm(recover_left(factor.v, vecs), axis=0)
    low = np.flatnonzero(margins <= tol)
    witness = pairs[low[0]][1] if low.size else None
    passed = bool(margins.size and margins.min() > tol)
    return ExclusionLeftReport(
        passed, float(margins.min()) if margins.size else 0.0, tuple(margins.tolist()),
        tuple(lam for lam, _ in pairs), chk.is_strong_linearization, witness,
    )


def _sampled_nullvector_exclusion(P, factor, L, tol) -> ExclusionLeftReport:
    """Constant-nullvector specialization for singular pencils of singular P.

    At each sample point the (left for M1, right for M2) nullvectors of the
    evaluated pencil are checked against v; rational-function nullspaces are
    not examined.
    """
    from .pencil import sample_points

    margins = []
    values = []
    witness = None
    for lam in sample_points(P.k + 2):
        M = eval_pencil(L, lam)
        U, s, Vh = np.linalg.svd(M)
        cutoff = max(s[0], 1.0) * 1e-10
        for idx in range(s.size):
            if s[idx] > cutoff:
                continue
            vec = U[:, idx].conj() if factor.side == "M1" else Vh[idx, :].conj()
            margin = float(np.linalg.norm(recover_left(factor.v, vec)))
            margins.append(margin)
            values.append(complex(lam))
            if margin <= tol and witness is None:
                witness = vec
    passed = bool(margins) and min(margins) > tol
    return ExclusionLeftReport(
        passed, min(margins) if margins else 0.0, tuple(margins), tuple(values),
        True, witness,
    )


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
