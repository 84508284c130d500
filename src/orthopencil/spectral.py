"""Pencil eigenproblems, eigenvector recovery, and exclusion checks.

``pencil_eigen(P, factor)`` solves a pencil of the matrix polynomial P,
which it forms from P and the factor, through P's anchor pencil F, with or
without left eigenvectors:

- the anchor pencil of P itself, X = diag(c*P_k, I);
- an M1 pencil L = T F, with T = [v kron I_n, B];
- an M2 pencil L = F^B S, with S = [v^T kron I_n; B^B].  F^B is bitwise the
  transpose of the anchor pencil G of P^T, so L = G^T S.

One route per call (``_Route``) holds F (G for M2), L, the multiplier and
the inverses of the multiplier and of c*P_k, and every step reads them.

For regular P, L is a strong linearization exactly when the multiplier T (or
S) is invertible, which is the rank test of ``ansatz.check_linearization``.
Each eigenvalue comes in homogeneous form (alpha, beta); it is infinite when
|beta| <= 1e-8 (|alpha| + |beta|), which makes it a zero eigenvalue of the
reversal Y*lam + X.  With ``left`` false the caller uses no left
eigenvectors, and none are computed.

The result is one sorted, columnar record, ``Eigentriples``: the
eigenvalues, the unit right and left eigenvectors, the residuals, and P's
eigenvectors with their backward errors as arrays of m = kn columns, all
put in one order by one permutation (``_order``).  Normalization comes
before the permutation, and the permuted arrays are C-contiguous, so that
the numbers do not depend on the order the solver found them in.  Column j
of every array belongs to eigenvalue j; the record has no per-eigenvalue
view.

Two solvers find F's eigentriples.  When the row-scaled rcond of c*P_k
clears 10 * n * eps, geev solves the companion (comrade, colleague) matrix
-X^-1 Y, whose first block row is one GEMM by the n x n row-scaled inverse
of c*P_k, and its result is kept only under a certificate at every
eigenvalue: eta_L, the residual that pencil_eigen reports, and the backward
error eta_P of each eigenvector of P read off it (see ``backward_errors``)
are at most 10 * kn * eps, and no eigenvalue is classed infinite.  Otherwise
scipy's QZ solves F itself (G for M2), which is backward stable for P
(Lawrence, Van Barel and Van Dooren, SIMAX 37, 2016) and gives the infinite
eigenvalues of a singular P_k.

numpy.linalg serves every solve that needs neither left eigenvectors nor QZ:
the inverses, and geev for right vectors alone.  scipy.linalg is imported
only by the two solvers that need it, geev with left vectors (``_geev``) and
QZ (``_qz``), so ``eig`` on an anchor or M1 pencil never loads it.

Both go through one step after the solve (``_through_anchor``), which maps
F's eigenvectors to L's, which have the anchor's eigenvalues: F's right
eigenvectors and left eigenvectors T^-T z for F's left ones z (M1), and G's
right eigenvectors as left ones and S^-1 z for G's left ones z as right ones
(M2).  Residuals are read off the anchor's structure and one GEMM by the
multiplier.

The same step reads the eigenvectors of P off the sorted record, on the
route's polynomial (P, or P^T for M2, so that one set of formulas serves
both sides): L's Kronecker-structured eigenvectors, phi(lam) kron x (right
for the anchor and M1, left for M2), give one side by their Kronecker fit,
and the first block of z, which is the block sum (v kron I_n)^T of L's
eigenvector on the other side, gives the other, free of the cancellation
that forming that sum from L's eigenvector suffers when T is
ill-conditioned.  One ``phi_vector`` of length k + 1 at the eigenvalues (0
at infinite ones) serves the fit, its mismatch, the scale sum_i |phi_i|
||P_i||_F and eta_P on both sides, each side one GEMM (``_of_p``).  The
record keeps them as P's right and left eigenvectors (``Eigentriples.p_right``
and ``p_left``); for M2 the fit of P^T's right eigenvectors is P's left
ones and the block sums are P's right ones.

The certificate of the geev solve reads eta_L and eta_P from the record.
Recovery reads it too: ``recover_right(spectrum, tol)`` and
``recover_left(spectrum, tol)`` check the recorded mismatch and eta_P of
every column against tol and return P's n x m eigenvectors, so a
``recover`` evaluates the basis once and fits once, whichever solver ran.
A failure names the first failing column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ansatz import AnsatzFactor, _factorization
from .basis import phi_vector, to_monomial
from .errors import DimensionMismatchError, RecoveryError, SingularPencilError
from .matpoly import (
    MatrixPolynomial,
    _scaled_inverse,
    require_ansatz_degree,
    reversal_monomial,
    sampled_regularity,
)
from .oracle import reference_spectrum, trim_poly
from .pencil import Pencil, eval_pencil

__all__ = [
    "Eigentriples",
    "pencil_eigen",
    "backward_errors",
    "recover_right",
    "recover_left",
    "eigenvalue_exclusion",
]


@dataclass(frozen=True)
class _Route:
    """One pencil of P and its factors, built once per pencil_eigen call
    (_route): ``F`` is the anchor of ``P`` (P^T for side M2), ``L`` the
    pencil solved (F, T F or F^T S, as make_m1 and make_m2 form it), and
    ``lead`` and ``scaled`` are matpoly._scaled_inverse of F's c*P_k block
    and of the ``multiplier`` T (or S): (rcond, (inverse, rows))."""

    P: MatrixPolynomial
    F: Pencil
    side: str
    L: Pencil
    lead: tuple
    multiplier: np.ndarray | None
    scaled: tuple | None

    def anchor_sides(self, left):
        """(left, right): the sides of F's eigenvectors that L's need."""
        return left or self.side == "M2", left or self.side != "M2"


def _route(P: MatrixPolynomial, factor: AnsatzFactor | None = None) -> _Route:
    """The route of P's anchor pencil, or with ``factor`` of its M1 or M2 pencil."""
    Q, F, T, L = _factorization(P, factor)
    return _Route(Q, F, "anchor" if T is None else factor.side, L,
                  _scaled_inverse(F.X[:Q.n, :Q.n]), T, None if T is None else _scaled_inverse(T))


# A companion-form solve is accepted when eta_L and eta_P are at most this
# many kn * eps at every eigenvalue.
_CERTIFIED_ETA = 10.0
# An eigenvalue alpha / beta is infinite when |beta| <= _INF_TOL (|alpha| + |beta|).
_INF_TOL = 1e-8
# Seed of the points at which pencil_eigen tests regularity.
_REGULARITY_SEED = 90210


def qz_solve(route: _Route, left: bool) -> Eigentriples:
    """The sorted eigentriples of the route's pencil L and the eigenvectors of
    P, solved through its anchor F (module docstring) by the certified geev
    or else QZ on F, which agree to within the eigenvalues' condition numbers
    times their backward errors, not bit for bit; either solve goes through
    the one post-solve step, _through_anchor.  With left false ``left`` is
    None in the result."""
    spectrum = _companion_solve(route, left)
    if spectrum is None:
        spectrum = _through_anchor(
            route, *_qz(route.F.X, route.F.Y, *route.anchor_sides(left)), left)
    return spectrum


def _qz(X, Y, left, right):
    """(lams, right, left): scipy's QZ on the pair (Y, -X), in solver order,
    with the eigenvalues of _eigenvalues, eigenvectors as columns, left ones
    z^T (X*lam + Y) = 0, and None for a side not asked for."""
    import scipy.linalg  # off the import path: numpy.linalg has no QZ

    out = scipy.linalg.eig(Y, -X, left=left, right=right, homogeneous_eigvals=True)
    return (_eigenvalues(*out[0]), out[-1] if right else None,
            np.conj(out[1]) if left else None)


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


def _structured_residuals(route, lams, U, norms):
    """||(X*lam_j + Y) u_j|| / ((||X|| |lam_j| + ||Y||) ||u_j||) for every column
    u_j of U, whose norms are ``norms``, and ||X u_j|| / (||X|| ||u_j||) where
    lam_j is infinite, where (X, Y) is the route's pencil L: F itself, T F
    (M1) or F^T S (M2).  One GEMM with the multiplier, and the anchor's
    structure for the rest."""
    F, T = route.F, route.multiplier
    lams = np.asarray(lams, dtype=complex)
    if route.side == "M2":
        R = _apply_anchor(F, lams, _real_matmul(T, U), transpose=True)
    else:
        R = _apply_anchor(F, lams, U)
        if route.side == "M1":
            R = _real_matmul(T, R)
    nx = np.linalg.norm(route.L.X)
    scales = np.where(np.isinf(lams), nx, nx * np.abs(lams) + np.linalg.norm(route.L.Y))
    return np.linalg.norm(R, axis=0) / (norms * np.maximum(scales, 1e-300))


def _through_anchor(route, lams, R, Z, left):
    """The sorted record (Eigentriples) of the route's pencil L and of P from
    the eigenvalues ``lams`` of its anchor F and its right and left
    eigenvectors ``R`` and ``Z`` (columns, z^T F(lam) = 0, None for a side not
    solved), the one step after either solver: the map and the residuals of
    the module docstring, every column normalized in solver order and then all
    put in the order of ``_order`` (np.take, which writes C-contiguous
    arrays), and P's eigenvectors read off the sorted columns (_of_p).  The
    vectors are normalized in place, R and Z included."""
    n = route.P.n
    right, left_vecs = R, Z
    if route.side == "M2":
        right, left_vecs = _solve(route.scaled[1], Z), R
    elif left and route.side == "M1":
        left_vecs = _solve(route.scaled[1], Z, transpose=True)
    right_norms = np.linalg.norm(right, axis=0)
    left_norms = None if left_vecs is None else np.linalg.norm(left_vecs, axis=0)
    sums = None
    if route.side == "M2":
        sums = Z[:n] / right_norms
    elif left:
        sums = Z[:n] / left_norms
    residual = _structured_residuals(route, lams, right, right_norms)
    order = _order(lams)
    lams = lams[order]
    right /= right_norms
    right = np.take(right, order, axis=1)
    if left_vecs is not None:
        left_vecs /= left_norms
        left_vecs = np.take(left_vecs, order, axis=1)
    if sums is not None:
        sums = np.take(sums, order, axis=1)
    # on P^T (M2) the fit gives P's left eigenvectors and the sums its right ones
    fitted, summed = _of_p(route.P, lams, left_vecs if route.side == "M2" else right, sums)
    p_right, p_left = (summed, fitted) if route.side == "M2" else (fitted, summed)
    return Eigentriples(lams, right, left_vecs, residual[order], p_right, p_left)


def _companion_solve(route, left=False):
    """The certified geev solve of the route's anchor, mapped to its pencil
    and to P, or None: when c*P_k fails its gate, geev does not converge, or
    the certificate fails.  The certificate reads the record: eta_L and the
    eta_P of each side of P solved."""
    P, F = route.P, route.F
    n, size = P.n, F.X.shape[0]
    rcond, inverse = route.lead
    if not rcond > 10.0 * n * np.finfo(float).eps:
        return None
    first = _solve(inverse, F.Y[:n])
    if not np.all(np.isfinite(first)):
        return None
    # only the first block row of -X^-1 Y differs from -Y
    A = np.negative(F.Y, order="F")
    A[:n] = -first
    want_left, want_right = route.anchor_sides(left)
    try:
        w, VL, VR = _geev(A, want_left, want_right)
    except np.linalg.LinAlgError:  # geev did not converge; QZ may
        return None
    if not np.all(np.isfinite(w)) or np.any(_INF_TOL * (np.abs(w) + 1.0) >= 1.0):
        return None
    # w / (1 + 0j) as Python's complex division rounds it, the form QZ's
    # alpha / beta takes (_eigenvalues): w itself, with the sign of a zero
    # part as re + im*0 and im - re*0 give it (0.0 for geev's -0.0 + 0j)
    lams = np.stack((w.real + w.imag * 0.0, w.imag - w.real * 0.0), axis=-1).view(complex)[:, 0]
    Z = None
    if want_left:
        # from y^H A = lam y^H the anchor's left eigenvector is z = X^-T conj(y);
        # only its first block, a left eigenvector of P, needs a solve
        Z = np.conj(VL)
        Z[:n] = _solve(inverse, Z[:n], transpose=True)
    spectrum = _through_anchor(route, lams, VR, Z, left)
    bound = _CERTIFIED_ETA * size * np.finfo(float).eps
    checked = [spectrum.residual] + [side.eta for side in (spectrum.p_right, spectrum.p_left)
                                     if side is not None]
    if not all(np.all(values <= bound) for values in checked):
        return None
    return spectrum


def _eigenvalues(alpha, beta):
    """alpha_j / beta_j as a complex array, complex infinity where
    |beta_j| <= _INF_TOL (|alpha_j| + |beta_j|).

    The quotient is CPython's complex division, written out on arrays: it
    divides by the larger of |Re beta| and |Im beta|, and abs is hypot.
    numpy's own complex division and abs differ in the last bits, which would
    change the reported eigenvalues."""
    a, b = np.asarray(alpha, dtype=complex), np.asarray(beta, dtype=complex)
    size = np.hypot(b.real, b.imag)
    infinite = size <= _INF_TOL * (np.hypot(a.real, a.imag) + size)
    by_real = np.abs(b.real) >= np.abs(b.imag)
    # both branches are computed; Python's division overflows without a word
    with np.errstate(all="ignore"):
        ratio = np.where(by_real, b.imag / b.real, b.real / b.imag)
        denom = np.where(by_real, b.real + b.imag * ratio, b.real * ratio + b.imag)
        lams = np.empty(a.shape, dtype=complex)
        lams.real = np.where(by_real, a.real + a.imag * ratio, a.real * ratio + a.imag) / denom
        lams.imag = np.where(by_real, a.imag - a.real * ratio, a.imag * ratio - a.real) / denom
    lams[infinite] = np.inf
    return lams


class _OfP(NamedTuple):
    """Eigenvectors of P on one side, read off the pencil's: the n x m
    ``vectors`` as recovery returns them, their backward errors ``eta``
    (eta_P), and ``mismatch``, the Kronecker mismatch of the pencil
    eigenvectors they were fitted to, or None for block sums."""

    vectors: np.ndarray
    eta: np.ndarray
    mismatch: np.ndarray | None


@dataclass(frozen=True, eq=False)
class Eigentriples:
    """Every eigentriple of one pencil and the eigenvectors of P, sorted, as
    columns: what pencil_eigen returns.

    ``eigenvalues`` holds the m eigenvalues (complex infinity for infinite
    ones), ``right`` and ``left`` the pencil's unit eigenvectors as the
    columns of kn x m arrays (``left`` None when no left vectors were asked
    for), and ``residual`` the m normalized right residuals.  ``p_right``
    and ``p_left`` hold P's right and left eigenvectors (_OfP), read off the
    anchor's eigenvectors by the post-solve step: the unit Kronecker fit of
    the pencil's structured side, with its mismatch, and the block sums
    (v kron I_n)^T w of the unit eigenvectors w of the other side as they
    are (the anchor and M1: the fit is P's right side; M2: its left side),
    each with its backward errors eta_P.  ``p_left`` is None when no left
    vectors were asked for, and both are None in a record not made by
    pencil_eigen.  recover_right and recover_left check and return them.
    Every array is C-contiguous, and column j of each belongs to
    eigenvalues[j]; infinite eigenvalues' vectors are eigenvectors of the
    reversal at zero."""

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray | None
    residual: np.ndarray
    p_right: _OfP | None = None
    p_left: _OfP | None = None


# Finite eigenvalues whose real parts are chained by steps of at most this
# many ulps of their modulus are ordered by imaginary part (see _order).
_ORDER_ULPS = 8


def _order(lams):
    """The permutation that sorts the eigenvalues ``lams`` by (real, imag),
    with infinite ones last in solver order.

    A run of real parts, each within _ORDER_ULPS ulps of the one before it,
    is one group, ordered by imaginary part: the two members of a conjugate
    pair whose computed real parts differ in the last bits are then always
    listed negative-imaginary first, whatever other eigenvalues lie between
    them.  Equal real parts keep the (real, imag) order, and equal
    eigenvalues the solver order."""
    infinite = np.isinf(lams)
    finite = np.flatnonzero(~infinite)
    finite = finite[np.lexsort((lams[finite].imag, lams[finite].real))]
    z = lams[finite]
    # hypot is abs of a Python complex bit for bit; numpy's complex abs is not
    modulus = np.hypot(z.real, z.imag)
    group = np.zeros(z.size, dtype=int)
    group[1:] = np.cumsum(z.real[1:] - z.real[:-1]
                          > _ORDER_ULPS * np.finfo(float).eps
                          * np.maximum(modulus[:-1], modulus[1:]))
    return np.concatenate((finite[np.lexsort((z.real, z.imag, group))], np.flatnonzero(infinite)))


def pencil_eigen(P: MatrixPolynomial, factor: AnsatzFactor | None = None,
                 left: bool = True) -> Eigentriples:
    """All kn eigentriples of P's anchor pencil, or with ``factor`` (v, B) of
    its M1 or M2 pencil L, infinite ones included, solved through the anchor
    on one route (_route, qz_solve), as one sorted, columnar Eigentriples
    that also holds P's eigenvectors, with their backward errors and the
    Kronecker mismatch, whichever solver ran; recover_right and
    recover_left check them against a tolerance.

    L is regular if the reciprocal condition number of the anchor's c*P_k
    block (the exact 1-norm one, from its inverse, rows scaled to unit norm;
    c*P_k^T for M2) is above 10 * n * eps and, with a factor, that of the
    side multiplier T (or S) is above 10 * kn * eps, as L = T F.  Otherwise
    regularity is tested by inverting X*lam + Y at up to 3 points of the
    disk |lam| < 2, the same pseudo-random ones on every call: the pencil is
    regular as soon as one has a row-scaled rcond above 10 * kn * eps.  If
    none has, or the multiplier has no finite inverse, SingularPencilError
    is raised, carrying the largest rcond seen.

    With left false ``left`` and ``p_left`` are None.  Residuals are ||(X*lam + Y) u|| /
    (||X|| |lam| + ||Y||) for unit right vectors u (||X u|| / ||X|| at
    infinite eigenvalues), read off the anchor.  Columns are sorted by
    (real, imag) with infinite eigenvalues last; real parts equal up to
    rounding are ordered by imaginary part (_order).

    With and without ``left`` the eigenvalues are the same, but the
    residuals agree only to rounding: without left vectors numpy's geev
    finds the right ones alone, with them scipy's geev finds both sides,
    and the right vectors differ in the last bits.  So ``eig`` and
    ``recover`` print the same eigenvalues, and ``eig --random 6,8,1``
    prints a residual of 2.995530634243387e-16 where ``recover`` prints
    2.9955306342433874e-16.
    """
    route = _route(P, factor)
    size, eps = route.L.X.shape[0], np.finfo(float).eps
    if not (route.lead[0] > 10.0 * route.P.n * eps
            and (route.scaled is None or route.scaled[0] > 10.0 * size * eps)):
        verdict = sampled_regularity(lambda lam: eval_pencil(route.L, lam), size,
                                     np.random.default_rng(_REGULARITY_SEED))
        if not verdict.regular:
            raise SingularPencilError(
                f"pencil is singular: rcond of X*lam + Y is at most {verdict.rcond:.3e} "
                f"at {verdict.trials} sampled points (threshold 10*kn*eps)",
                rcond=verdict.rcond,
            )
    if route.scaled is not None and route.scaled[1] is None:
        raise SingularPencilError("pencil is singular: its multiplier is singular", rcond=0.0)
    return qz_solve(route, left)


def backward_errors(P: MatrixPolynomial, lams, U, nullside: str = "right") -> np.ndarray:
    """eta_P(lam_j, u_j) for every finite eigenvalue lam_j and column u_j of U.

    eta_P(lam, u) = ||P(lam) u|| / (sum_i |phi_i(lam)| ||P_i||_F ||u||), the
    normwise backward error of an approximate eigenpair (Tisseur, LAA 309,
    2000); its denominator is MatrixPolynomial.evaluation_scale.  nullside
    "left" takes u^T P(lam) instead.  It bounds sigma_min(P(lam)) / (sum_i
    |phi_i(lam)| ||P_i||_F), the backward error of lam alone, from above.
    The residuals of all m columns, m = 0 included, cost one real GEMM:
    [P_k ... P_0] (the transposes for "left") times the real and imaginary
    parts of the (k + 1)n x m stack phi(lam_j) kron u_j side by side; no
    m x n x n tensor of P(lam_j) is built.
    """
    if nullside not in ("right", "left"):
        raise ValueError("nullside must be 'right' or 'left'")
    lams = np.asarray(lams, dtype=complex).reshape(-1)
    phi = phi_vector(P.basis, P.k + 1, lams)
    return _eta(P, phi, P.evaluation_scale(lams, phi[::-1]), np.asarray(U, dtype=complex),
                nullside)


def _eta(P, phi, scale, U, nullside="right"):
    """backward_errors from ``phi``, phi_vector(basis, k + 1) at the
    eigenvalues (phi_k first), and the scales sum_i |phi_i| ||P_i||_F made
    from it.  The GEMM reads phi kron U as real numbers, each complex column
    as two real ones side by side, and its product as complex again."""
    n, m = U.shape
    coeffs = P.coeffs[::-1]
    stacked = np.hstack(coeffs) if nullside == "right" else np.vstack(coeffs).T
    kron = np.multiply(phi[:, None, :], U, order="C")  # U may be in any layout
    R = (stacked @ kron.view(float).reshape(phi.shape[0] * n, 2 * m)).view(complex)
    return np.linalg.norm(R, axis=0) / (np.maximum(scale, 1e-300) * np.linalg.norm(U, axis=0))


def _kron_fit(phi, blocks):
    """The least-squares fit u_j = sum_i conj(phi_ij) w_ij / sum_i |phi_ij|^2
    of phi_j kron u_j to the k x n x m blocks w_ij of the pencil
    eigenvectors, with ``phi`` phi_vector(basis, k + 1) at the eigenvalues,
    whose first row (phi_k) the fit leaves out."""
    phi = phi[1:]
    return np.einsum("im,iam->am", phi.conj(), blocks) / np.sum(np.abs(phi) ** 2, axis=0)


def _of_p(P, lams, W, sums=None):
    """(right, left): P's eigenvectors (_OfP) at the eigenvalues ``lams``,
    right ones fitted to the Kronecker-structured right eigenvectors W
    (kn x m) of a linearization of P, and left ones given as ``sums``
    (n x m); None for a side whose input is None.  The kernel of the
    post-solve step, which passes P^T for an M2 pencil.

    One phi_vector at the eigenvalues, 0 at infinite ones, serves the fit,
    its mismatch and the scale sum_i |phi_i| ||P_i||_F of eta_P on both
    sides.  At a finite eigenvalue u is the least-squares fit over every
    block (_kron_fit) and w is measured against phi kron u; at an infinite
    one u is w's first block, measured against e_1 kron u.  eta_P is
    backward_errors, "right" for u and "left" for the sums, and at infinite
    eigenvalues the residual of the leading monomial coefficient relative to
    its norm.  u is returned normalized, the sums as they are, but for the
    sign of zero parts, which + 0.0 clears; a zero column gives NaN, which
    fails every check."""
    n, k = P.n, P.k
    norm = np.linalg.norm
    infinite = np.isinf(lams)
    alpha = np.where(infinite, 0.0, lams)
    phi = phi_vector(P.basis, k + 1, alpha)
    scale = P.evaluation_scale(alpha, phi[::-1])
    lead = reversal_monomial(P)[0] if infinite.any() else None

    def eta(V, nullside):
        residual = _eta(P, phi, scale, V, nullside)
        if lead is not None:
            R = (lead if nullside == "right" else lead.T) @ V[:, infinite]
            residual[infinite] = norm(R, axis=0) / (
                max(norm(lead), 1e-300) * norm(V[:, infinite], axis=0))
        return residual

    right = left = None
    with np.errstate(invalid="ignore"):
        if W is not None:
            blocks = W.reshape(k, n, -1)
            U = np.where(infinite, blocks[0], _kron_fit(phi, blocks))
            # finite: phi kron u - w; infinite: e_1 kron u - w, the blocks below the first
            misfit = np.where(infinite, np.eye(k, 1), phi[1:])[:, None, :] * U
            misfit -= blocks
            mismatch = _column_norms(misfit.reshape(k * n, -1)) / _column_norms(W)
            del misfit  # one kn x m temporary at a time: eta makes its own
            right = _OfP(U / norm(U, axis=0), eta(U, "right"), mismatch)
        if sums is not None:
            left = _OfP(sums + 0.0, eta(sums, "left"), None)
    return right, left


def _column_norms(A):
    """The 2-norms of the columns of the 2-D array A, by one einsum on its
    real and imaginary parts, which makes no temporary of a complex A's size."""
    parts = np.ascontiguousarray(A, dtype=complex).view(float)  # re, im as adjacent columns
    squares = np.einsum("xm,xm->m", parts, parts)
    return np.sqrt(squares[0::2] + squares[1::2])


def recover_right(spectrum: Eigentriples, tol: float = 1e-6) -> np.ndarray:
    """P's right eigenvectors, the n x m columns of ``spectrum.p_right``,
    column j for eigenvalue j, once every column passes ``tol``.

    For the anchor and M1 they are the unit Kronecker fit of the pencil's
    right eigenvectors, and a column whose pencil eigenvector is not
    phi kron u (e_1 kron u at an infinite eigenvalue) by a relative mismatch
    above tol raises RecoveryError: the source pencil is not a
    linearization.  For M2 they are the block sums, as they are.  Then a
    column whose backward error eta_P (backward_errors, or at an infinite
    eigenvalue the residual of the leading monomial coefficient) is not at
    most tol raises RecoveryError.  Each error names the first failing
    column and its eigenvalue.  Both checks read values the post-solve step
    recorded; nothing is computed again."""
    return _checked(spectrum.eigenvalues, spectrum.p_right, "right", tol)


def recover_left(spectrum: Eigentriples, tol: float = 1e-6) -> np.ndarray:
    """P's left eigenvectors u, u^T P(lam) = 0, the n x m columns of
    ``spectrum.p_left``, checked as recover_right checks the right ones: the
    block sums, as they are, for the anchor and M1, and the unit Kronecker
    fit of the pencil's left eigenvectors for M2.  A near-zero sum signals
    that the exclusion condition failed; a zero one fails.  Raises
    RecoveryError when the pencil was solved without left eigenvectors."""
    return _checked(spectrum.eigenvalues, spectrum.p_left, "left", tol)


def _checked(lams, side, name, tol):
    """The vectors of ``side`` (an _OfP) once the mismatch and eta_P of every
    column are at most tol; RecoveryError for the first column that fails."""
    if side is None:
        raise RecoveryError(f"the solve found no {name} eigenvectors of P")
    mismatch = np.zeros(lams.size) if side.mismatch is None else side.mismatch
    bad = np.flatnonzero((mismatch > tol) | ~(side.eta <= tol))
    if bad.size:
        j = bad[0]
        if mismatch[j] > tol:
            shape = "e_1 kron u" if np.isinf(lams[j]) else "phi kron u"
            raise RecoveryError(
                f"eigenvector {_column(lams, j)} is not {shape} (mismatch {mismatch[j]:.3e}); "
                "the source pencil is not a linearization"
            )
        raise RecoveryError(
            f"recovered vector {_column(lams, j)} fails the eigenvector residual check "
            f"(relative residual {side.eta[j]:.3e})"
        )
    return side.vectors


def _column(lams, j):
    return f"column {j} (eigenvalue {complex(lams[j])})"


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
