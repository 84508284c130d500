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
S) is invertible, which is the rank test of ``ansatz.check_linearization``;
so L is regular exactly when P is regular and the multiplier invertible.
pencil_eigen tests the two apart, each once: the multiplier by its
row-scaled rcond, and P by the finite shift below, which raises
SingularPencilError where no real s leaves P(s) nonsingular (a rung kept at
shift infinity, which needs c*P_k nonsingular, shows P regular without it).
Each eigenvalue comes in homogeneous form (alpha, beta); it is infinite when
|beta| <= 1e-8 (|alpha| + |beta|), which makes it a zero eigenvalue of the
reversal Y*lam + X.  With ``left`` false the caller uses no left
eigenvectors, and none are computed.

The result is one sorted, columnar record, ``Eigentriples``: the
eigenvalues, the residuals, and P's eigenvectors with their backward errors
as arrays of m = kn columns, normalized and then put in one order by one
permutation (``_order``) as C-contiguous arrays, so that the numbers do not
depend on the order the solver found them in.  Column j of every array
belongs to eigenvalue j.  Every vector in it is P-sized: L's kn-sized
eigenvectors enter it only through their norms.

One solver finds F's eigenvalues (G's for M2), the eigvals rung (``_rung``):
geev without vectors on one real matrix whose eigenvalues map to them, at
one of two kinds of shift.  One path finds every eigenvector, from P at
them:

- at shift infinity (``_companion_solve``), tried when the row-scaled rcond
  of c*P_k clears 10 * n * eps: the companion (comrade, colleague) matrix
  -X^-1 Y, whose first block row is one GEMM by the n x n row-scaled
  inverse of c*P_k, kept only under the certificate below.
- when that is refused or not tried, at the real shift s of a few fixed
  ones where P(s) is farthest from singular (``_shift``): W = (s X + Y)^-1
  X, whose eigenvalues 1 / (s - lam) need P(s) invertible, not P_k, so a
  singular P_k gives its infinite eigenvalues as zeros of W.  It is not
  certified.  When no s of those nor of kn + 1 points of [-1, 1] leaves
  P(s) nonsingular to within 10 * kn * eps, P is singular.

One eigenvector path (``_from_p``) serves both.  Every right eigenvector of
the anchor is phi(lam) kron x with P(lam) x = 0, the eigenvector result of
the paper, so x is one n x n solve: P(lam_j) at all kn eigenvalues is one
GEMM, and one batched solve per side gives the right vectors x_j and the
left ones y_j of P (one of each conjugate pair, the other by conjugation),
with a column whose backward error eta_P misses the certificate solved
again (``_p_vectors``).  At an infinite eigenvalue the matrix is c*P_k,
whose null vectors are x and y, and F's eigenvectors are e_1 kron x.  An
exactly singular matrix is scaled to unit norm and moved a few ulps along
i I, with lam_j reported as it is; a matrix at rounding level against
sum_i |phi_i| ||P_i||_F, of which every vector is an eigenvector, is solved
as I.  At either shift the eigenvalues solved at, one of each conjugate
pair, take fixed pseudo-random right-hand sides one each, in sorted order,
so that the copies of a semisimple multiple eigenvalue get independent
vectors wherever they sort.
The anchor's left eigenvectors are built from the y_j (``_anchor_left``).
Its right ones are never formed: the residual of phi kron x is [P(lam) x;
delta kron x], delta the recurrence residuals of the computed phi, and
||phi kron x|| = ||phi|| ||x||, so eta_L of the anchor and of M1 comes from
P(lam) x, which eta_P's GEMM already forms (``_residuals_from_p``).

The rung at shift infinity is kept only under a certificate that reads
what ``eig`` and ``recover`` both compute, so that the two keep or refuse it
together: every eigenvalue is finite, and at every one eta_P (see
``backward_errors``) of P's eigenvector on the side that ``eig`` solves (x,
or y on P^T for M2), once repaired, and eta_L, the residual that
pencil_eigen reports, are at most 10 * kn * eps.  The other side of a
``recover`` is repaired too and then judged by its tolerance alone, as at a
finite shift, where nothing is refused: a column that misses the
certificate is kept, and recovery judges it.

numpy.linalg serves every solve: the inverses, the LU solves, eigvals and
the batched solves.

``_from_p`` ends by mapping the anchor's left eigenvectors z once to L's
eigenvectors on their side, which have the anchor's eigenvalues, and keeps
their norms: z itself for the anchor, T^-T z for M1, and for M2, where F is
G, S^-1 z, an LU solve on the row-scaled S, which are L's right vectors.
The other side is phi kron x: F's right eigenvectors for the anchor and M1,
and for M2 G's right eigenvectors, which are L's left ones.  Residuals come
from P-sized data for the anchor and M1, and for M2 from S^-1 z, read off
the anchor's structure and one GEMM by S (``_structured_residuals``).

It also puts the eigenvectors of P in the sorted record, on the route's
polynomial (P, or P^T for M2, so that one set of formulas serves both
sides): the solved x_j, and the first blocks y_j of the anchor's left
eigenvectors, which are the block sums (v kron I_n)^T of L's eigenvectors
on that side, free of the cancellation that forming that sum from L's
eigenvector suffers when T is ill-conditioned, each with the eta_P the path
computed.  The record keeps them as P's right and left eigenvectors
(``Eigentriples.p_right`` and ``p_left``); for M2 the vectors of P^T's
right side are P's left ones and the block sums are P's right ones.

Recovery reads the record: ``recover_right(spectrum, tol)`` and
``recover_left(spectrum, tol)`` check the recorded eta_P of every column
against tol and return P's n x m eigenvectors, so a ``recover`` evaluates
the basis once, whichever rung ran.  A failure names the first failing column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ansatz import AnsatzFactor, _factorization
from .basis import phi_vector, to_monomial
from .errors import DimensionMismatchError, RecoveryError, SingularPencilError
from .matpoly import MatrixPolynomial, _regular_rcond, _scaled_inverse, require_ansatz_degree
from .oracle import reference_spectrum, trim_poly
from .pencil import Pencil, eval_pencil, leading_multiplier

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
# Seed of the right-hand sides of the solves from P (_rhs).
_RHS_SEED = 20161
# Real shifts for the eigvals rung when it is refused at infinity (_shift).
_SHIFTS = (0.314, -0.577, 0.707, -0.9, 0.1)
# ulps by which _p_vectors moves a singular matrix along i I, once the
# matrix is scaled to unit Frobenius norm.
_SHIFT_ULPS = 4.0


def qz_solve(route: _Route, left: bool) -> Eigentriples:
    """The sorted eigentriples of the route's pencil L and the eigenvectors of
    P, solved through its anchor F (module docstring): the eigenvalues of the
    eigvals rung at shift infinity where its certificate keeps them, and
    else of the same rung at the real shift _shift picks, and the
    eigenvectors from P at them (_from_p), by one rule for both.  With left
    false ``p_left`` is None in the result."""
    spectrum = _companion_solve(route, left)
    if spectrum is None:
        spectrum = _from_p(route, _rung(route, _shift(route.P)), left)
    return spectrum


def _rung(route, shift):
    """The eigenvalues of the route's anchor F = (X, Y), X*lam + Y = 0, in
    solver order, from geev without vectors on one real matrix, so in exact
    conjugate pairs (_conjugates): at an infinite ``shift`` the companion
    matrix -X^-1 Y, whose eigenvalues lam are read as _eigenvalues(lam, 1);
    at a finite real shift s, W = (s X + Y)^-1 X by one LU solve, whose
    eigenvalues nu = 1 / (s - lam) are read as _eigenvalues(s nu - 1, nu),
    an infinite lam being nu = 0.  Raises LinAlgError on a matrix that is
    singular or not finite."""
    F = route.F
    n = F.n
    if np.isinf(shift):
        # only the first block row of -X^-1 Y differs from -Y
        A = np.negative(F.Y, order="F")
        A[:n] = -_solve(route.lead[1], F.Y[:n])
        return _eigenvalues(np.linalg.eigvals(A), 1.0)
    nu = np.linalg.eigvals(np.linalg.solve(eval_pencil(F, shift), F.X))
    return _eigenvalues(shift * nu - 1.0, nu)


def _shift(P):
    """The real shift s of _SHIFTS where P(s), and so the anchor the rung
    inverts there, is farthest from singular, by the backward error of s as
    an eigenvalue, sigma_min(P(s)) / sum_i |phi_i(s)| ||P_i||_F; when all
    are eigenvalues to within the certificate, 10 * kn * eps, the best of
    kn + 1 points of [-1, 1], at most kn of which are eigenvalues of a
    regular P.  When none of those clears it either, P is singular and
    SingularPencilError is raised, its ``rcond`` the largest backward error
    seen.

    It is measured on D1 P D2 (_balanced), whose rows and then columns of
    the stacked coefficients have unit norm, so that neither the units of a
    row nor those of a column, which M2 sees as rows of P^T, move it."""
    Q = _balanced(P)
    size = P.k * P.n
    best = 0.0
    for shifts in (np.array(_SHIFTS), np.linspace(-1.0, 1.0, size + 1)):
        phi = phi_vector(P.basis, P.k + 1, shifts.astype(complex))
        sigma = np.linalg.svd(_evaluate_at(Q, phi).real, compute_uv=False)[:, -1]
        distance = sigma / Q.evaluation_scale(shifts, phi[::-1])
        if distance.max() > _certified_bound(size):
            return float(shifts[np.argmax(distance)])
        best = max(best, float(distance.max()))
    raise SingularPencilError(
        f"pencil is singular: P(s) is singular to within 10*kn*eps at all {len(_SHIFTS) + size + 1} "
        f"real shifts s tried (largest backward error of s as an eigenvalue {best:.3e})",
        rcond=best,
    )


def _balanced(P):
    """D1 P D2 for the positive diagonal D1 that scales the rows of the
    stacked coefficients [P_0 ... P_k] to unit norm and the D2 that then
    scales their columns so; a zero row or column stays zero.  It has P's
    eigenvalues and is regular exactly when P is."""
    C = np.stack(P.coeffs)
    for axes in ((0, 2), (0, 1)):
        norms = np.linalg.norm(C, axis=axes, keepdims=True)
        C = C / np.where(norms > 0.0, norms, 1.0)
    return MatrixPolynomial(tuple(C), P.basis)


def _solve(factors, B, transpose=False):
    """M^-1 B, or M^-T B with ``transpose``, from M's row-scaled inverse
    (matpoly._scaled_inverse): with D = diag(1 / rows), M^-1 = (D M)^-1 D
    and M^-T = D (D M)^-T, so either is one GEMM (see _real_matmul)."""
    inverse, rows = factors
    if transpose:
        return _real_matmul(inverse.T, B) / rows[:, None]
    return _real_matmul(inverse, B / rows[:, None])


def _solve_scaled(M, rows, B):
    """M^-1 B by an LU solve of the row-scaled D M, D = diag(1 / rows):
    (D M)^-1 (D B), real, on [Re B, Im B] when B is complex.  Its error does
    not grow with cond(M) as that of the product by an explicit inverse
    (_solve) does."""
    scaled = M / rows[:, None]
    return _real_columns(lambda V: np.linalg.solve(scaled, V / rows[:, None]), B)


def _real_matmul(M, V):
    """M @ V for real M, as one real GEMM on [Re V, Im V] when V is complex."""
    return _real_columns(M.__matmul__, V)


def _real_columns(apply, V):
    """apply(V) for a real linear map ``apply`` of columns, applied once to
    [Re V, Im V] side by side when V is complex."""
    if not np.iscomplexobj(V):
        return apply(V)
    m = V.shape[1]
    R = apply(np.hstack([V.real, V.imag]))
    return R[:, :m] + 1j * R[:, m:]


def _structured_residuals(route, lams, U, norms):
    """||(X*lam_j + Y) u_j|| / ((||X|| |lam_j| + ||Y||) ||u_j||) for every column
    u_j of U, whose norms are ``norms``, and ||X u_j|| / (||X|| ||u_j||) where
    lam_j is infinite, where (X, Y) is the route's M2 pencil L = F^T S, whose
    right eigenvectors S^-1 z are not P-sized.

    One GEMM with S, and F(lam_j)^T (S u_j) read off the anchor's structure,
    X = diag(c*P_k, I) and Y = kron(Ys, I_n) below the first block row, so
    no kn x kn product is formed."""
    F = route.F
    n, k, m = F.n, F.k, U.shape[1]
    lams = np.asarray(lams, dtype=complex)
    SU = _real_matmul(route.multiplier, U)
    infinite = np.isinf(lams)
    V = np.where(infinite, 0.0, SU) if infinite.any() else SU  # Y's operand
    weights = np.where(infinite, 1.0, lams)  # X's: (lam, 1) becomes (1, 0)
    R = F.Y[:n].T @ V[:n] + (F.Y[n::n, ::n].T @ V[n:].reshape(k - 1, n * m)).reshape(-1, m)
    R[:n] += (F.X[:n, :n].T @ SU[:n]) * weights
    R[n:] += SU[n:] * weights
    nx = np.linalg.norm(route.L.X)
    scales = np.where(infinite, nx, nx * np.abs(lams) + np.linalg.norm(route.L.Y))
    return np.linalg.norm(R, axis=0) / (norms * np.maximum(scales, 1e-300))


def _residuals_from_p(route, lams, Phi, x, px, eta, scale):
    """eta_L of the right eigenvectors Phi kron x of the anchor or of an M1
    pencil, from P-sized data at every eigenvalue in solver order: the k x m
    ``Phi`` (e_1 at an infinite eigenvalue), the n x m vectors ``x`` of P,
    their residuals ``px`` = P(lam) x (c*P_k x at an infinite eigenvalue),
    their eta_P ``eta`` and its scales ``scale``, sum_i |phi_i| ||P_i||_F.

    F(lam) (Phi kron x) is [P(lam) x; delta kron x], where delta = M(lam)
    Phi are the k - 1 recurrence residuals of the computed Phi (M = Xs*lam +
    Ys, with Xs = [0, I]), and ||Phi kron x|| = ||Phi|| ||x||.  At an
    infinite eigenvalue F(lam) is X alone, (lam, 1) becomes (1, 0), and
    X (e_1 kron x) is [c*P_k x; 0].  For the anchor ||P(lam) x|| / ||x|| is
    eta * scale, so no n-vector is read again; for M1 the residual is one
    real GEMM by T, at one eigenvalue of each conjugate pair (_conjugates):
    T is real, so the other column, the conjugate, has the same residual."""
    F = route.F
    n = F.n
    beta = ~np.isinf(lams)
    alpha = np.where(beta, lams, 1.0)
    delta = Phi[1:] * alpha + (F.Y[n::n, ::n] @ Phi) * beta
    nx, ny = np.linalg.norm(route.L.X), np.linalg.norm(route.L.Y)
    scales = np.maximum(nx * np.abs(alpha) + ny * beta, 1e-300) * np.linalg.norm(Phi, axis=0)
    if route.side == "anchor":
        return np.hypot(eta * scale, np.linalg.norm(delta, axis=0)) / scales
    keep, lower = _conjugates(lams)
    x, m = x[:, keep], np.count_nonzero(keep)
    W = np.empty((F.k * n, m), dtype=complex)
    W[:n] = px[:, keep]
    W[n:] = (delta[:, None, keep] * x).reshape(-1, m)
    residual = (np.linalg.norm(_real_matmul(route.multiplier, W), axis=0)
                / (scales[keep] * np.linalg.norm(x, axis=0)))
    return _conjugated(residual, keep, lower)


def _companion_solve(route, left=False):
    """The eigvals rung at shift infinity (module docstring): the certified
    solve of the route's anchor, mapped to its pencil and to P, or None when
    c*P_k fails its gate or the rung is refused.  The anchor's eigenvalues
    come from the companion matrix (_rung), the eigenvectors from P at them
    (_from_p), as at a finite shift.  The rung is refused when eigvals
    raises (on a companion matrix that is not finite, too), when an
    eigenvalue is not finite or is classed infinite, when a P(lam_j) stays
    singular once moved (_p_vectors), or when _from_p finds the certificate
    missed."""
    if not _regular_rcond(route.lead[0], route.P.n):
        return None
    try:
        # eigvals raises on a matrix that is not finite
        lams = _rung(route, np.inf)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(lams)):
        return None
    try:
        return _from_p(route, lams, left, certify=True)
    except np.linalg.LinAlgError:
        return None


def _from_p(route, lams, left, certify=False):
    """The sorted record (Eigentriples) of the route's pencil L and of P at
    the anchor's eigenvalues ``lams``, given in solver order, with P's
    eigenvectors solved from P there: the one step after either shift.
    The eigenvalues solved at (_conjugates) take the rows of _rhs in turn,
    row i for the i-th of them in _order.  With ``certify`` (the rung at
    shift infinity) None as soon as the eta_P of the side that eig solves
    misses the certificate once repaired, before the other side is solved,
    and None when eta_L misses it, before the sort (module docstring).

    P is evaluated once, at one eigenvalue of each conjugate pair
    (_evaluate_at), and x_j and y_j are solved from it one side at a time
    (_p_vectors): one inverse-iteration step from the eigenvalue, one move
    of a singular matrix, and a column whose eta_P misses the certificate
    solved again; a P(lam_j) at rounding level is solved as I, so u_j =
    b_j.  At an infinite eigenvalue P is weighted by c e_0, so the matrix
    solved is c*P_k and eta_P reads ||c*P_k x|| / (|c| ||P_k||_F ||x||),
    and F's right eigenvector is e_1 kron x.  Raises LinAlgError
    when a matrix stays singular once moved.

    The anchor's left eigenvectors Z, built from the y_j (_anchor_left), are
    mapped once to L's eigenvectors on their side: Z itself for the anchor,
    T^-T Z for M1 (_solve), and S^-1 Z for M2 (_solve_scaled), which are L's
    right ones, as L = F^T S.  The first blocks of Z over the norms of
    those vectors are their block sums, P's vectors on that side; on the
    structured side, Phi kron x, which is not formed, they are the unit x
    (P's left ones for M2).  The residuals come from P-sized data
    (_residuals_from_p), and for M2 from S^-1 Z (_structured_residuals).
    Columns are normalized in solver order, then put in _order (np.take)."""
    P, F = route.P, route.F
    k = P.k
    m2 = route.side == "M2"
    order = _order(lams)
    infinite = np.isinf(lams)
    phi = phi_vector(P.basis, k + 1, np.where(infinite, 0.0, lams))
    Phi = phi[1:]
    if infinite.any():
        Phi = Phi.copy()
        Phi[:, infinite] = np.eye(k, 1)
        phi[:, infinite] = np.eye(k + 1, 1) * leading_multiplier(P.basis, k)
    scale = P.evaluation_scale(lams, phi[::-1])
    # the conjugate of an eigenvalue has the conjugate vectors, and the same
    # eta_P: solve at one of each pair, then conjugate (_conjugates)
    keep, lower = _conjugates(lams)
    kept, phi_kept, scale_kept = lams[keep], phi[:, keep], scale[keep]
    values = _evaluate_at(P, phi_kept)
    bound = _certified_bound(P.k * P.n)
    # every vector is an eigenvector of a P(lam_j) at rounding level against
    # its scale, so the copies of a multiple eigenvalue keep their own b_j;
    # tested before _p_vectors moves a singular matrix, for both sides alike,
    # with einsum on views, which makes no m x n x n temporary
    squares = sum(np.einsum("mij,mij->m", part, part) for part in (values.real, values.imag))
    values[np.sqrt(squares) <= bound * scale_kept] = np.eye(P.n)
    # the kept eigenvalues take the rows of _rhs one each, in sorted order, so
    # that the copies of a semisimple multiple eigenvalue get independent
    # vectors wherever they sort
    rows = np.empty(lams.size, dtype=int)
    rows[order[keep[order]]] = np.arange(kept.size)
    b = _rhs(P.n, kept.size)[rows[keep]]
    # eig solves one side of P, y on P^T for M2 and x otherwise, and the
    # rung stands or falls by it alone.  It is solved, checked and repaired
    # before recover's other side is touched, so both commands solve it alike
    first = _p_vectors(P, values, phi_kept, scale_kept, b, "left" if m2 else "right")
    if certify and not np.all(first[1] <= bound):
        return None
    second = (None, None, None)
    if left:
        second = _p_vectors(P, values, phi_kept, scale_kept, b, "right" if m2 else "left")
    (X, eta_x, px), (Y, eta_y, _) = (second, first) if m2 else (first, second)
    Z = None if Y is None else _anchor_left(F, kept, Phi[:, keep], Y)
    X, px, eta_x, Z, eta_y = (None if a is None else _conjugated(a, keep, lower)
                              for a in (X, px, eta_x, Z, eta_y))
    mapped = Z
    if route.side == "M1" and Z is not None:
        mapped = _solve(route.scaled[1], Z, transpose=True)
    elif m2:
        mapped = _solve_scaled(route.multiplier, route.scaled[1][1], Z)
    norms = None if mapped is None else np.linalg.norm(mapped, axis=0)
    sums = None if Z is None else Z[:P.n] / norms
    if m2:
        residual = _structured_residuals(route, lams, mapped, norms)
    else:
        residual = _residuals_from_p(route, lams, Phi, X, px, eta_x, scale)
    if certify and not np.all(residual <= bound):
        return None
    structured = summed = None
    if X is not None:
        structured = _OfP(np.take(X / np.linalg.norm(X, axis=0), order, axis=1), eta_x[order])
    if sums is not None:
        summed = _OfP(np.take(sums, order, axis=1) + 0.0, eta_y[order])
    # on P^T (M2) x is P's left eigenvector and the block sums its right one
    p_right, p_left = (summed, structured) if m2 else (structured, summed)
    return Eigentriples(lams[order], residual[order], p_right, p_left)


def _certified_bound(size):
    return _CERTIFIED_ETA * size * np.finfo(float).eps


def _conjugates(lams):
    """(keep, lower): a mask of the eigenvalues to solve at and the indices
    of the others, each the exact conjugate of the one before it.  geev
    gives the complex eigenvalues of a real matrix as such pairs, the one
    with positive imaginary part first."""
    lower = np.flatnonzero(lams.imag < 0.0)
    keep = np.ones(lams.size, dtype=bool)
    if lower.size and lower[0] > 0 and np.array_equal(lams[lower], np.conj(lams[lower - 1])):
        keep[lower] = False
    else:
        lower = lower[:0]
    return keep, lower


def _conjugated(a, keep, lower):
    """The columns (the last axis) of ``a``, given at the eigenvalues
    ``keep`` of _conjugates, at every eigenvalue: at each of ``lower`` the
    conjugate of the column before it."""
    if not lower.size:
        return a
    out = np.empty(a.shape[:-1] + keep.shape, dtype=a.dtype)
    out[..., keep] = a
    out[..., lower] = np.conj(out[..., lower - 1])
    return out


def _p_vectors(P, values, phi, scale, b, side):
    """(U, eta, R): P's eigenvectors on ``side`` ("right", or "left", the
    null vectors of the transposes) as the columns of the n x m U, with
    their eta_P and residuals as _eta gives them, ``phi`` and ``scale`` as
    _eta takes them.  ``values`` holds the m matrices M_j (_evaluate_at):
    P(lam_j), or c*P_k at an infinite lam_j (_from_p).

    u_j is one inverse-iteration step, M_j u_j = b_j (M_j^T u_j = b_j for
    "left"), b_j being row j of ``b``.  An M_j that is singular, so that its
    LU has a zero pivot or its solution is not finite, is scaled to unit
    Frobenius norm (unless zero) and moved by i d I, d being _SHIFT_ULPS
    ulps, in ``values`` itself, so that the other side sees it moved, and
    the batch is solved again; LinAlgError when that leaves one singular.
    A column whose eta_P then misses the certificate is solved again from
    M_j^-1, unless one of those M_j has no inverse; it may still miss it,
    and the caller judges eta."""
    matrices = values if side == "right" else values.transpose(0, 2, 1)
    b = b[:, :, None]
    try:
        U = np.linalg.solve(matrices, b)[:, :, 0]
        singular = ~np.isfinite(U).all(axis=1)
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(matrices)[0] == 0.0
        if not singular.any():
            singular[:] = True
    if singular.any():
        # the imaginary part of the move makes a zero pivot as unlikely as
        # for any complex matrix
        size = np.linalg.norm(values[singular], axis=(1, 2))
        values[singular] /= np.where(size > 0.0, size, 1.0)[:, None, None]
        values[singular] += 1j * _SHIFT_ULPS * np.finfo(float).eps * np.eye(P.n)
        U = np.linalg.solve(matrices, b)[:, :, 0]
        if not np.isfinite(U).all():
            raise np.linalg.LinAlgError("a moved P(lam) is singular")
    U = U.T
    eta, R = _eta(P, phi, scale, U, side)
    bad = ~(eta <= _certified_bound(P.k * P.n))
    if not bad.any():
        return U, eta, R
    try:
        inverse = np.linalg.inv(values[bad])
    except np.linalg.LinAlgError:
        return U, eta, R
    # M^-1 is about x y^T / sigma_min: each column is a multiple of x and
    # each row one of y; the largest is the most accurate
    right = side == "right"
    best = np.argmax(np.linalg.norm(inverse, axis=1 if right else 2), axis=1)
    rows = np.arange(inverse.shape[0])
    U[:, bad] = (inverse[rows, :, best] if right else inverse[rows, best, :]).T
    eta[bad], R[:, bad] = _eta(P, phi[:, bad], scale[bad], U[:, bad], side)
    return U, eta, R


def _evaluate_at(P, phi):
    """P(lam_j) at the m points of ``phi``, phi_vector(basis, k + 1) there,
    as an m x n x n array: one real GEMM of the stacked coefficients
    [P_k ... P_0] with the real and imaginary parts of phi."""
    n, m = P.n, phi.shape[1]
    stacked = np.stack(P.coeffs[::-1]).reshape(P.k + 1, n * n)
    # column j of phi as two adjacent real columns, so that the product's
    # columns read as complex numbers again
    product = stacked.T @ np.ascontiguousarray(phi).view(float)
    return product.view(complex).T.reshape(m, n, n)


def _rhs(n, m):
    """m fixed complex right-hand sides of length n for the solves from P, the
    rows of an m x n array, row i the same for every m: _from_p solves the
    i-th eigenvalue it solves at, in sorted order, against row i."""
    draws = np.random.default_rng(_RHS_SEED).standard_normal((m, 2, n))
    return draws[:, 0] + 1j * draws[:, 1]


def _anchor_left(F, lams, Phi, Y):
    """The anchor's left eigenvectors z_j, z_j^T F(lam_j) = 0, whose first
    blocks are the left eigenvectors y_j of P (the columns of Y); ``Phi``
    holds the factors Phi of F's right eigenvectors Phi kron x there
    (_from_p).  At an infinite eigenvalue F(lam) is X = diag(c*P_k, I)
    alone, and z = e_1 kron y.

    Block column i of z^T F(lam) = 0 reads
    (lam X_0i + Y_0i)^T y + sum_r M_ri z_(r+1) = 0, with M = Xs*lam + Ys the
    scalar recurrence rows, k equations for the k - 1 blocks z_2 .. z_k.
    As z^T F(lam) (Phi_k(lam) kron I_n) = y^T P(lam), the residual of y
    lands in the one equation left out, divided by its weight in Phi_k.  So
    the equation of the largest |phi_i| is left out and the other k - 1 are
    solved, one (k - 1) x (k - 1) scalar system per eigenvalue, nonsingular
    because the null vector Phi_k of M is not zero there.  (Forward
    substitution, which leaves out the last one, of weight phi_0 = 1, would
    scale the residual up by max |phi_i| where |lam| > 1.)"""
    n, k, m = F.n, F.k, Y.shape[1]
    infinite = np.isinf(lams)
    if infinite.any():
        Z = np.zeros((k * n, m), dtype=complex)
        Z[:n] = Y
        finite = ~infinite
        if finite.any():
            Z[:, finite] = _anchor_left(F, lams[finite], Phi[:, finite], Y[:, finite])
        return Z
    G = _real_matmul(F.Y[:n].T, Y)  # (lam X_0i + Y_0i)^T y, block by block
    G[:n] += _real_matmul(F.X[:n, :n].T, Y) * lams
    # the k - 1 rows kept of M^T = Xs^T lam + Ys^T, an m x (k - 1) x (k - 1)
    # array: Xs = [0, I] puts lam one place left of the diagonal of M^T
    kept = np.arange(k - 1) + (np.arange(k - 1) >= np.argmax(np.abs(Phi), axis=0)[:, None])
    equations = F.Y[n::n, ::n].T[kept].astype(complex)
    j, i = np.nonzero(kept)
    equations[j, i, kept[j, i] - 1] += lams[j]
    rhs = np.negative(G.reshape(k, n, m).transpose(2, 0, 1))
    blocks = np.linalg.solve(equations, np.take_along_axis(rhs, kept[:, :, None], axis=1))
    Z = np.empty((k * n, m), dtype=complex)
    Z[:n] = Y
    Z[n:] = blocks.transpose(1, 2, 0).reshape((k - 1) * n, m)
    return Z


def _eigenvalues(alpha, beta):
    """alpha_j / beta_j as a complex array, numpy's quotient, and complex
    infinity where |beta_j| <= _INF_TOL (|alpha_j| + |beta_j|), the sizes
    taken by hypot."""
    a, b = np.asarray(alpha, dtype=complex), np.asarray(beta, dtype=complex)
    size = np.hypot(b.real, b.imag)
    infinite = size <= _INF_TOL * (np.hypot(a.real, a.imag) + size)
    # beta = 0 divides by zero; such an eigenvalue is infinite
    with np.errstate(all="ignore"):
        lams = a / b
    lams[infinite] = np.inf
    return lams


class _OfP(NamedTuple):
    """Eigenvectors of P on one side, as the solve from P found them: the
    n x m ``vectors`` as recovery returns them and their backward errors
    ``eta`` (eta_P)."""

    vectors: np.ndarray
    eta: np.ndarray


@dataclass(frozen=True, eq=False)
class Eigentriples:
    """Every eigentriple of one pencil and the eigenvectors of P, sorted, as
    columns: what pencil_eigen returns.

    ``eigenvalues`` holds the m eigenvalues (complex infinity for infinite
    ones) and ``residual`` the m normalized right residuals of the pencil.
    ``p_right`` and ``p_left`` hold P's right and left eigenvectors (_OfP):
    on the structured side the unit vectors x solved from P, and on the
    other side the block sums (v kron I_n)^T w of the pencil's unit
    eigenvectors w as they are (the anchor and M1: the structured side is
    P's right side; M2: its left side), each with its backward errors eta_P.
    The pencil's own eigenvectors, phi(lam) kron x on the structured side,
    are not kept.  ``p_left`` is None when no left vectors were asked for,
    and both are None in a record not made by pencil_eigen.  recover_right
    and recover_left check and return them.  Every array is C-contiguous,
    and column j of each belongs to eigenvalues[j]; infinite eigenvalues'
    vectors are eigenvectors of the reversal at zero."""

    eigenvalues: np.ndarray
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
    that also holds P's eigenvectors, solved from P, with their backward
    errors; recover_right and recover_left check them against a tolerance.

    L = T F (F^T S for M2) is regular exactly when P is regular and the
    multiplier T (or S) is nonsingular, as the paper shows after Mackey,
    Mackey, Mehl and Mehrmann (SIMAX 28, 2006), so the two are tested apart.
    The multiplier counts as nonsingular when its reciprocal condition
    number (the exact 1-norm one, from its inverse, rows scaled to unit
    norm) is above 10 * kn * eps; P is regular when the rung at shift
    infinity is kept, as it needs c*P_k to pass the same test at n, and
    otherwise when the finite shift finds a real s with P(s) not singular to
    within 10 * kn * eps (_shift).  Either failure raises
    SingularPencilError, which carries the multiplier's rcond or the
    largest backward error of s as an eigenvalue that _shift saw.

    With left false ``p_left`` is None.  Residuals are ||(X*lam + Y) u|| /
    (||X|| |lam| + ||Y||) for unit right vectors u (||X u|| / ||X|| at
    infinite eigenvalues), read off the anchor.  Columns are sorted by
    (real, imag) with infinite eigenvalues last; real parts equal up to
    rounding are ordered by imaginary part (_order).

    With and without ``left`` the rung solves at the same shift, as its
    certificate reads only what both solves compute, so ``eig`` and
    ``recover`` print the same eigenvalues.  The vectors of P on the side
    that ``eig`` solves, from which the residuals come, are solved first and
    do not depend on ``left`` either, at either shift, so the residuals are
    the same too: ``eig`` and ``recover --random 5,8,1`` both print
    2.589455432076529e-16 for the first eigenvalue, and ``--random 6,8,1``
    1.7843552459841404e-15.
    """
    route = _route(P, factor)
    if route.scaled is not None and not _regular_rcond(route.scaled[0], route.L.X.shape[0]):
        raise SingularPencilError(
            f"pencil is singular: the row-scaled rcond of its multiplier is {route.scaled[0]:.3e} "
            f"(threshold 10*kn*eps)",
            rcond=route.scaled[0],
        )
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
                nullside)[0]


def _eta(P, phi, scale, U, nullside="right"):
    """(eta, R): backward_errors from ``phi``, phi_vector(basis, k + 1) at
    the eigenvalues (phi_k first), and the scales sum_i |phi_i| ||P_i||_F
    made from it, and the n x m residuals R themselves, the columns
    P(lam_j) u_j (u_j^T P(lam_j) for "left").  The GEMM reads phi kron U as
    real numbers, each complex column as two real ones side by side, and
    its product as complex again."""
    n, m = U.shape
    coeffs = P.coeffs[::-1]
    stacked = np.hstack(coeffs) if nullside == "right" else np.vstack(coeffs).T
    kron = np.multiply(phi[:, None, :], U, order="C")  # U may be in any layout
    R = (stacked @ kron.view(float).reshape(phi.shape[0] * n, 2 * m)).view(complex)
    return np.linalg.norm(R, axis=0) / (np.maximum(scale, 1e-300) * np.linalg.norm(U, axis=0)), R


def recover_right(spectrum: Eigentriples, tol: float = 1e-6) -> np.ndarray:
    """P's right eigenvectors, the n x m columns of ``spectrum.p_right``,
    column j for eigenvalue j, once every column passes ``tol``.

    For the anchor and M1 they are the unit vectors solved from P, for M2
    the block sums, as they are.  A column whose backward error eta_P
    (backward_errors, or at an infinite eigenvalue ||P_k u|| / (||P_k||_F
    ||u||)) is not at most tol raises RecoveryError, which names the first
    failing column and its eigenvalue.  The check reads values the solve
    recorded; nothing is computed again."""
    return _checked(spectrum.eigenvalues, spectrum.p_right, "right", tol)


def recover_left(spectrum: Eigentriples, tol: float = 1e-6) -> np.ndarray:
    """P's left eigenvectors u, u^T P(lam) = 0, the n x m columns of
    ``spectrum.p_left``, checked as recover_right checks the right ones: the
    block sums, as they are, for the anchor and M1, and the unit vectors
    solved from P^T for M2.  A near-zero sum signals that the exclusion
    condition failed; a zero one fails.  Raises RecoveryError when the
    pencil was solved without left eigenvectors."""
    return _checked(spectrum.eigenvalues, spectrum.p_left, "left", tol)


def _checked(lams, side, name, tol):
    """The vectors of ``side`` (an _OfP) once the eta_P of every column is at
    most tol; RecoveryError for the first column that fails."""
    if side is None:
        raise RecoveryError(f"the solve found no {name} eigenvectors of P")
    bad = np.flatnonzero(~(side.eta <= tol))
    if bad.size:
        j = bad[0]
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
    poly = trim_poly(v[::-1] @ to_monomial(P.basis, P.k - 1))
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
    return EigenvalueExclusionReport(excluded, roots, min_distance, float(v[0]),
                                     spec.infinite_count)
