"""Pencil eigenproblems, eigenvector recovery, and exclusion checks.

The dense generalized eigensolver is an injected dependency: any callable
mapping (X, Y) to a GeneralizedEigenResult can be used, and the default wraps
scipy's QZ-based solver.  Infinite eigenvalues are recognized either from the
homogeneous (alpha, beta) form when the solver provides it, or by magnitude
thresholding otherwise; they correspond to zero eigenvalues of the reversal
Y*lam + X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .ansatz import AnsatzFactor, check_linearization, make_m1, make_m2, side_multiplier
from .basis import phi_vector, to_monomial
from .errors import RecoveryError, SingularPencilError
from .matpoly import MatrixPolynomial, require_ansatz_degree, reversal_monomial
from .oracle import Spectrum, reference_spectrum, trim_poly
from .pencil import Pencil, eval_pencil

__all__ = [
    "Eigentriple",
    "qz_solve",
    "pencil_eigen",
    "spectrum_of",
    "recover_right",
    "recover_left",
    "exclusion_left",
    "eigenvalue_exclusion",
]


@dataclass(frozen=True)
class GeneralizedEigenResult:
    """Raw solver output for the pencil X*lam + Y.

    ``alpha``/``beta`` give eigenvalues alpha/beta (beta may be None when the
    solver only reports plain eigenvalues in which case alpha holds them);
    ``right`` and ``left`` hold eigenvectors as columns, with the convention
    (X*lam + Y) right = 0 and left^T (X*lam + Y) = 0.
    """

    alpha: np.ndarray
    beta: np.ndarray | None
    right: np.ndarray
    left: np.ndarray | None


def qz_solve(X: np.ndarray, Y: np.ndarray) -> GeneralizedEigenResult:
    """Default dense solver: scipy's QZ on the pair (Y, -X)."""
    w, vl, vr = scipy.linalg.eig(Y, -X, left=True, right=True, homogeneous_eigvals=True)
    return GeneralizedEigenResult(alpha=w[0], beta=w[1], right=vr, left=np.conj(vl))


@dataclass(frozen=True)
class Eigentriple:
    """One eigenvalue of a pencil with unit right/left eigenvectors.

    Infinite eigenvalues are stored as complex infinity; their vectors are
    eigenvectors of the reversal at zero.  ``residual`` is the normalized
    right residual."""

    eigenvalue: complex
    right: np.ndarray
    left: np.ndarray | None
    residual: float

    @property
    def is_infinite(self) -> bool:
        return bool(np.isinf(self.eigenvalue))


def _pencil_regularity(L: Pencil, tol: float, rng) -> tuple[bool, float]:
    size = L.k * L.n
    max_ratio = 0.0
    for _ in range(size + 1):
        r = 2.0 * np.sqrt(rng.uniform())
        lam = r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        M = eval_pencil(L, lam)
        scale = float(np.prod(np.linalg.norm(M, axis=1)))
        if scale == 0.0:
            continue
        ratio = abs(np.linalg.det(M)) / scale
        max_ratio = max(max_ratio, ratio)
        if ratio > tol:
            return True, max_ratio
    return False, max_ratio


def pencil_eigen(L: Pencil, solver=None, inf_tol: float = 1e-8,
                 reg_tol: float = 1e-10, rng=None) -> list[Eigentriple]:
    """All kn eigenvalues of a regular pencil, infinite ones included.

    Raises SingularPencilError when sampled determinants flag the pencil as
    singular; eigenvalues of a singular pencil are meaningless.  Results are
    sorted by (real, imag) with infinite eigenvalues last.
    """
    if solver is None:
        solver = qz_solve
    if rng is None:
        rng = np.random.default_rng(90210)
    regular, max_ratio = _pencil_regularity(L, reg_tol, rng)
    if not regular:
        raise SingularPencilError(
            f"pencil is singular to sampled-determinant tolerance {reg_tol:g} "
            f"(max scaled |det| = {max_ratio:.3e})",
            max_ratio=max_ratio,
        )
    res = solver(L.X, L.Y)
    nx = np.linalg.norm(L.X)
    ny = np.linalg.norm(L.Y)
    triples = []
    for idx in range(res.alpha.size):
        a = complex(res.alpha[idx])
        if res.beta is not None:
            b = complex(res.beta[idx])
            infinite = abs(b) <= inf_tol * (abs(a) + abs(b))
            lam = complex(np.inf) if infinite else a / b
        else:
            infinite = abs(a) > 1.0 / inf_tol
            lam = complex(np.inf) if infinite else a
        u = res.right[:, idx]
        u = u / np.linalg.norm(u)
        w = None
        if res.left is not None:
            w = res.left[:, idx]
            w = w / np.linalg.norm(w)
        if infinite:
            residual = float(np.linalg.norm(L.X @ u)) / max(nx, 1e-300)
        else:
            residual = float(np.linalg.norm((L.X * lam + L.Y) @ u))
            residual /= max(nx * abs(lam) + ny, 1e-300)
        triples.append(Eigentriple(lam, u, w, residual))
    triples.sort(key=lambda t: (t.is_infinite, t.eigenvalue.real, t.eigenvalue.imag))
    return triples


def spectrum_of(triples) -> Spectrum:
    finite = np.array([t.eigenvalue for t in triples if not t.is_infinite], dtype=complex)
    return Spectrum(finite, sum(t.is_infinite for t in triples))


def recover_right(P: MatrixPolynomial, eigenvalue: complex, w: np.ndarray,
                  tol: float = 1e-6, nullside: str = "right") -> np.ndarray:
    """Extract an eigenvector of P from a Kronecker-structured pencil eigenvector.

    Finite eigenvalues: w must be (basis vector at alpha) kron u; u is read
    from the block with the largest basis value (best conditioning) and the
    remaining blocks are checked for consistency.  Infinite eigenvalues: w
    must be e_1 kron u with u in the nullspace of the leading monomial
    coefficient.  Raises RecoveryError when w lacks the Kronecker structure,
    which signals the source pencil is not a linearization.

    nullside selects the final residual check: "right" tests P(alpha) u = 0,
    "left" tests u^T P(alpha) = 0 (for left eigenvectors of transposed-ansatz
    pencils, which carry the same Kronecker structure).
    """
    if nullside not in ("right", "left"):
        raise ValueError("nullside must be 'right' or 'left'")
    require_ansatz_degree(P)
    n, k = P.n, P.k
    w = np.asarray(w, dtype=complex).reshape(-1)
    if w.size != k * n:
        raise RecoveryError(f"eigenvector must have length {k * n}")
    blocks = w.reshape(k, n)
    if np.isinf(eigenvalue):
        u = blocks[0]
        rest = float(np.linalg.norm(blocks[1:])) if k > 1 else 0.0
        if rest > tol * np.linalg.norm(w):
            raise RecoveryError(
                "eigenvector for the infinite eigenvalue is not e_1 kron u "
                f"(trailing block norm {rest:.3e})"
            )
        lead = reversal_monomial(P)[0]
        scale = max(float(np.linalg.norm(lead)), 1e-300)
        res = lead @ u if nullside == "right" else u @ lead
        if np.linalg.norm(res) > tol * scale * np.linalg.norm(u):
            raise RecoveryError("recovered vector is not in the leading-coefficient nullspace")
        return u / np.linalg.norm(u)
    phi = phi_vector(P.basis, k, eigenvalue)
    best = int(np.argmax(np.abs(phi)))
    u = blocks[best] / phi[best]
    reconstructed = np.kron(phi.reshape(-1, 1), u.reshape(-1, 1)).reshape(-1)
    mismatch = float(np.linalg.norm(w - reconstructed)) / np.linalg.norm(w)
    if mismatch > tol:
        raise RecoveryError(
            f"eigenvector lacks Kronecker block structure (mismatch {mismatch:.3e}); "
            "the source pencil is not a linearization"
        )
    Pa = P.evaluate(eigenvalue)
    # backward-error scale: the evaluated matrix itself is (near) zero at
    # eigenvalues when n = 1, so it cannot normalize its own residual
    scale = max(P.evaluation_scale(eigenvalue), 1e-300)
    res = Pa @ u if nullside == "right" else u @ Pa
    if np.linalg.norm(res) > tol * scale * np.linalg.norm(u):
        raise RecoveryError("recovered vector fails the eigenvector residual check")
    return u / np.linalg.norm(u)


def recover_left(v, u: np.ndarray) -> np.ndarray:
    """Blockwise weighted sum w = sum_i v_i u_i of a pencil left eigenvector.

    For a strong linearization with ansatz vector v this is a left
    eigenvector of P; a near-zero result signals the exclusion condition
    failed."""
    v = np.asarray(v, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=complex).reshape(-1)
    k = v.size
    if u.size % k:
        raise RecoveryError("eigenvector length must be a multiple of len(v)")
    return v @ u.reshape(k, -1)


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
    margins = []
    values = []
    witness = None
    for t in triples:
        vec = t.left if factor.side == "M1" else t.right
        if vec is None:
            continue
        margin = float(np.linalg.norm(recover_left(factor.v, vec)))
        margins.append(margin)
        values.append(t.eigenvalue)
        if margin <= tol and witness is None:
            witness = vec
    passed = bool(margins) and min(margins) > tol
    return ExclusionLeftReport(
        passed, min(margins) if margins else 0.0, tuple(margins), tuple(values),
        chk.is_strong_linearization, witness,
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
        raise ValueError(f"ansatz vector must have length {P.k}")
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
