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

Two rungs find F's eigenvalues, the second tried when the first is refused
or not tried, and one path finds every eigenvector, from P at them:

- the eigvals rung (``_companion_solve``), tried when the row-scaled rcond
  of c*P_k clears 10 * n * eps: geev without vectors on the companion
  (comrade, colleague) matrix -X^-1 Y, whose first block row is one GEMM by
  the n x n row-scaled inverse of c*P_k.  Two eigenvalues that agree to
  sqrt(eps) relative send a problem to QZ.
- QZ on F itself (G for M2), eigenvalues only, with scipy, which is backward
  stable for P (Lawrence, Van Barel and Van Dooren, SIMAX 37, 2016) and
  gives the infinite eigenvalues of a singular P_k.

One eigenvector path (``_from_p``) serves both.  Every right eigenvector of
the anchor is phi(lam) kron x with P(lam) x = 0, the eigenvector result of
the paper, so x is one n x n solve: P(lam_j) at all kn eigenvalues is one
GEMM, and one batched solve per side gives the right vectors x_j and the
left ones y_j of P (one of each conjugate pair, the other by conjugation),
with a column whose backward error eta_P misses the certificate solved
again.  At an infinite eigenvalue the matrix is c*P_k, whose null vectors
are x and y, and F's eigenvectors are e_1 kron x.  An exactly singular
matrix is solved a few ulps off (``_null_vectors``), with lam_j reported as
it is.  The rung solves every column against one fixed right-hand side; QZ,
which serves multiple eigenvalues, solves the j-th eigenvalue in sorted
order against the (j mod n)-th of n fixed ones, so that a semisimple
multiple eigenvalue gets independent vectors.  The anchor's left
eigenvectors are built from the y_j (``_anchor_left``).  Its right ones
stay P-sized until they are written: the residual of phi kron x is
[P(lam) x; delta kron x], delta the recurrence residuals of the computed
phi, and ||phi kron x|| = ||phi|| ||x||, so eta_L of the anchor and of M1
comes from P(lam) x, which eta_P's GEMM already forms
(``_residuals_from_p``), and the unit vectors are written once, sorted.

The eigvals rung is kept only under a certificate that reads what ``eig``
and ``recover`` both compute, so that the two keep or refuse it together:
every eigenvalue is finite, and at every one eta_P (see
``backward_errors``) of P's eigenvector on the side that ``eig`` solves (x,
or y on P^T for M2), once repaired, and eta_L, the residual that
pencil_eigen reports, are at most 10 * kn * eps.  The other side of a
``recover`` is repaired too and then judged by its tolerance alone, as after
QZ, where nothing is refused: a column that misses the certificate is kept,
and recovery judges it.

numpy.linalg serves every solve but QZ: the inverses, eigvals and the
batched solves.  scipy.linalg is imported only by QZ (``_qz``), so ``eig``
and ``recover`` never load it where the eigvals rung is certified.

``_from_p`` ends by mapping F's eigenvectors to L's, which have the
anchor's eigenvalues.  The anchor's left eigenvectors z are mapped once, to
L's vectors on their side: z itself for the anchor, T^-T z for M1, and for
M2, where F is G, S^-1 z, an LU solve on the row-scaled S, which are L's
right vectors.  The other side is phi kron x: F's right eigenvectors for the
anchor and M1, and for M2 G's right eigenvectors, which are L's left ones,
so for M2 the two sides swap in one statement.  Residuals come from P-sized
data for the anchor and M1, and for M2 from S^-1 z, read off the anchor's
structure and one GEMM by S (``_structured_residuals``).

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
the basis once, whichever rung ran.
A failure names the first failing column.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ansatz import AnsatzFactor, _factorization
from .basis import phi_vector, to_monomial
from .errors import DimensionMismatchError, RecoveryError, SingularPencilError
from .matpoly import (
    MatrixPolynomial,
    _regular_rcond,
    _scaled_inverse,
    require_ansatz_degree,
    sampled_regularity,
)
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
# Seed of the points at which pencil_eigen tests regularity.
_REGULARITY_SEED = 90210
# Seed of the right-hand sides of the solves from P (_rhs).
_RHS_SEED = 20161
# ulps by which _null_vectors moves a singular matrix: of max(|lam|, 1) in
# lam, or along I once the matrix is scaled to unit norm.
_SHIFT_ULPS = 4.0


def qz_solve(route: _Route, left: bool) -> Eigentriples:
    """The sorted eigentriples of the route's pencil L and the eigenvectors of
    P, solved through its anchor F (module docstring): the eigenvalues of the
    certified eigvals rung or else of QZ on F, which agree to within the
    eigenvalues' condition numbers times their backward errors, not bit for
    bit, and the eigenvectors from P at them (_from_p).  With left false
    ``left`` is None in the result."""
    spectrum = _companion_solve(route, left)
    if spectrum is None:
        lams = _qz(route.F.X, route.F.Y)
        # the j-th eigenvalue in sorted order takes right-hand side j mod n,
        # so neighbours in that order, such as the copies of a semisimple
        # multiple eigenvalue, get independent vectors
        place = np.empty(lams.size, dtype=int)
        place[_order(lams)] = np.arange(lams.size)
        spectrum = _from_p(route, lams, left, place % route.P.n)
    return spectrum


def _qz(X, Y):
    """The eigenvalues (_eigenvalues) of the pair (Y, -X), X*lam + Y = 0, in
    solver order, from scipy's QZ without eigenvectors."""
    import scipy.linalg  # off the import path: numpy.linalg has no QZ

    return _eigenvalues(*scipy.linalg.eigvals(Y, -X, homogeneous_eigvals=True))


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


def _unit_kron(Phi, unit, order):
    """The unit vectors (Phi / ||Phi||) kron u, Phi taken in ``order`` and u
    the columns of ``unit``, which are in that order already: the anchor's
    right eigenvectors, kn x m and C-contiguous."""
    Phi = np.take(Phi, order, axis=1)
    Phi /= np.linalg.norm(Phi, axis=0)
    (k, m), n = Phi.shape, unit.shape[0]
    return np.multiply(Phi[:, None, :], unit).reshape(k * n, m)


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
    """The eigvals rung (module docstring): the certified solve of the
    route's anchor, mapped to its pencil and to P, or None when c*P_k fails
    its gate or the rung is refused.  The anchor's eigenvalues come from
    geev without vectors on the companion matrix, the eigenvectors from P
    at them (_from_p), every column solved against the first right-hand
    side of _rhs.  The eigenvalues w are read as _eigenvalues(w, 1), so
    that one quotient and one infinity rule serve both rungs.  The rung is
    refused when eigvals raises (on a companion matrix that is not finite,
    too), when an eigenvalue is not finite or is classed infinite, when two
    agree to within sqrt(eps) relative (_has_close_pair), when a P(lam_j)
    stays singular, or when _from_p finds the certificate missed."""
    P, F = route.P, route.F
    n = P.n
    rcond, inverse = route.lead
    if not _regular_rcond(rcond, n):
        return None
    # only the first block row of -X^-1 Y differs from -Y
    A = np.negative(F.Y, order="F")
    A[:n] = -_solve(inverse, F.Y[:n])
    try:
        # eigvals raises on a matrix that is not finite
        lams = _eigenvalues(np.linalg.eigvals(A), 1.0)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(lams)) or _has_close_pair(lams):
        return None
    try:
        return _from_p(route, lams, left, np.zeros(lams.size, dtype=int), certify=True)
    except np.linalg.LinAlgError:
        return None


def _from_p(route, lams, left, rows, certify=False):
    """The sorted record (Eigentriples) of the route's pencil L and of P at
    the anchor's eigenvalues ``lams``, given in solver order, with P's
    eigenvectors solved from P there, eigenvalue j against row rows[j] of
    _rhs: the one step after either solver.  With ``certify`` (the eigvals
    rung) None as soon as the eta_P of the side that eig solves misses the
    certificate after _repair, before the other side is mapped, and None
    when eta_L misses it, before the sort (module docstring).

    x_j and y_j are one inverse-iteration step from the eigenvalue
    (_null_vectors), at one eigenvalue of each conjugate pair, and a column
    whose eta_P misses the certificate is solved again (_repair).  At an
    infinite eigenvalue P is weighted by c e_0, so the matrix solved is
    c*P_k and eta_P reads ||c*P_k x|| / (|c| ||P_k||_F ||x||), and F's right
    eigenvector is e_1 kron x.  Raises LinAlgError when a matrix stays
    singular at its shift.

    The anchor's left eigenvectors Z, built from the y_j (_anchor_left), are
    mapped once to L's eigenvectors on their side: Z itself for the anchor,
    T^-T Z for M1 (_solve), and S^-1 Z for M2 (_solve_scaled), which are L's
    right ones, as L = F^T S.  The first blocks of Z over the norms of
    those vectors are their block sums, P's vectors on that side.  The
    structured side is the unit Phi kron x, written once, sorted
    (_unit_kron), with x itself as P's vectors on it.  The residuals come
    from P-sized data (_residuals_from_p), and for M2 from S^-1 Z
    (_structured_residuals).  On P^T (M2) the structured side is the left
    one, so there the two sides swap.  Every column is normalized in solver
    order, Z in place, and then all are put in the order of ``_order``
    (np.take, which writes C-contiguous arrays)."""
    P, F = route.P, route.F
    k = P.k
    # eig solves one side of P, y on P^T for M2 and x otherwise.  It is
    # solved first, so that a P(lam_j) that recover's other side moves
    # (_null_vectors) is moved after it, and both commands solve it alike
    eig = 1 if route.side == "M2" else 0
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
    values, vectors = _null_vectors(P, kept, phi_kept, (eig, 1 - eig) if left else (eig,),
                                    _rhs(P.n)[rows[keep]])
    checks = [None if V is None else _eta(P, phi_kept, scale_kept, V, side)
              for V, side in zip(vectors, _SIDES)]
    _repair(P, phi_kept, scale_kept, values, vectors, checks)
    # the rung stands or falls by eig's side alone, so that eig and recover
    # keep it alike
    bound = _certified_bound(P.k * P.n)
    if certify and not np.all(checks[eig][0] <= bound):
        return None
    X, Y = vectors
    Z = None if Y is None else _anchor_left(F, kept, Phi[:, keep], Y)
    (eta_x, px), (eta_y, _) = (check or (None, None) for check in checks)
    X, px, eta_x, Z, eta_y = (None if a is None else _conjugated(a, keep, lower)
                              for a in (X, px, eta_x, Z, eta_y))
    mapped = Z
    if route.side == "M1" and Z is not None:
        mapped = _solve(route.scaled[1], Z, transpose=True)
    elif route.side == "M2":
        mapped = _solve_scaled(route.multiplier, route.scaled[1][1], Z)
    norms = None if mapped is None else np.linalg.norm(mapped, axis=0)
    sums = None if Z is None else Z[:P.n] / norms
    if route.side == "M2":
        residual = _structured_residuals(route, lams, mapped, norms)
    else:
        residual = _residuals_from_p(route, lams, Phi, X, px, eta_x, scale)
    if certify and not np.all(residual <= bound):
        return None
    order = _order(lams)
    if mapped is not None:
        mapped /= norms
        mapped = np.take(mapped, order, axis=1)
    kron = structured = summed = None
    if X is not None:
        unit = np.take(X / np.linalg.norm(X, axis=0), order, axis=1)
        structured = _OfP(unit, eta_x[order])
        kron = _unit_kron(Phi, unit, order)
    if sums is not None:
        summed = _OfP(np.take(sums, order, axis=1) + 0.0, eta_y[order])
    # on P^T (M2) the structured side is L's left one and x is P's left eigenvector
    sides = ((kron, structured), (mapped, summed))
    (right, p_right), (left_vecs, p_left) = sides[::-1] if route.side == "M2" else sides
    return Eigentriples(lams[order], right, left_vecs, residual[order], p_right, p_left)


def _certified_bound(size):
    return _CERTIFIED_ETA * size * np.finfo(float).eps


_SIDES = ("right", "left")


def _repair(P, phi, scale, values, vectors, checks):
    """Solve again, in place, every column of ``vectors`` (right, left;
    None for a side not solved) whose eta_P in ``checks`` (_eta's (eta,
    residuals) of each side) misses the certificate: x_j from the largest
    column of P(lam_j)^-1 and y_j from its largest row, with ``values`` the
    P(lam_j) and ``phi`` and ``scale`` as _eta takes them.  The checks of the
    columns solved again are updated in place; a column may still miss the
    certificate, and none is solved again when a P(lam_j) has no inverse.
    The caller judges the checks."""
    bound = _certified_bound(P.k * P.n)
    bad = [None if check is None else ~(check[0] <= bound) for check in checks]
    redone = np.logical_or.reduce([b for b in bad if b is not None])
    if not redone.any():
        return
    try:
        inverse = np.linalg.inv(values[redone])
    except np.linalg.LinAlgError:
        return
    for axis, (V, b) in enumerate(zip(vectors, bad)):
        if b is None or not b.any():
            continue
        # P^-1 is about x y^T / sigma_min: each column is a multiple of x
        # and each row one of y; the largest is the most accurate
        inv = inverse[b[redone]]
        best = np.argmax(np.linalg.norm(inv, axis=1 + axis), axis=1)
        rows = np.arange(inv.shape[0])
        V[:, b] = (inv[rows, :, best] if axis == 0 else inv[rows, best, :]).T
        eta, residuals = checks[axis]
        eta[b], residuals[:, b] = _eta(P, phi[:, b], scale[b], V[:, b], _SIDES[axis])


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


def _null_vectors(P, lams, phi, sides, b):
    """(the matrices M_j as an m x n x n array, [X, Y]): the solutions x_j
    of M_j x_j = b_j and y_j of M_j^T y_j = b_j, as the columns of n x m
    arrays, for the ``sides`` (0 right, 1 left), solved in that order, and
    None for the others.
    ``phi`` weighs P's coefficients at the eigenvalues ``lams`` (_from_p),
    so M_j is P(lam_j), or c*P_k at an infinite lam_j, and b_j is row j of
    ``b``.

    Where an M_j is singular, so that its LU has a zero pivot or its
    solution is not finite, it is moved, solved again, and the array holds
    it moved: a finite lam_j to lam_j + i d, d being _SHIFT_ULPS ulps of
    max(|lam_j|, 1); c*P_k, and a P(lam_j) still singular there, scaled to
    unit Frobenius norm (unless zero) and moved by i d I, d that many ulps.
    Raises LinAlgError when that leaves it singular."""
    values = _evaluate_at(P, phi)
    b = b[:, :, None]
    ulps = _SHIFT_ULPS * np.finfo(float).eps
    vectors = [None, None]
    for side in sides:
        matrices = values if side == 0 else values.transpose(0, 2, 1)
        for attempt in range(3):
            try:
                solution = np.linalg.solve(matrices, b)[:, :, 0]
                singular = ~np.isfinite(solution).all(axis=1)
            except np.linalg.LinAlgError:
                singular = np.linalg.slogdet(matrices)[0] == 0.0
                if not singular.any():
                    singular[:] = True
            if not singular.any():
                vectors[side] = solution.T
                break
            if attempt == 2:
                raise np.linalg.LinAlgError("a moved P(lam) is singular")
            # the imaginary part of the move makes a zero pivot as unlikely
            # as for any complex matrix
            along = singular if attempt else singular & np.isinf(lams)
            at = singular & ~along
            if at.any():
                shifts = lams[at] + 1j * ulps * np.maximum(np.abs(lams[at]), 1.0)
                values[at] = _evaluate_at(P, phi_vector(P.basis, P.k + 1, shifts))
            if along.any():
                size = np.linalg.norm(values[along], axis=(1, 2))
                values[along] /= np.where(size > 0.0, size, 1.0)[:, None, None]
                values[along] += 1j * ulps * np.eye(P.n)
    return values, vectors


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


@functools.lru_cache(maxsize=64)
def _rhs(n):
    """n fixed complex right-hand sides of the solves from P, the rows of an
    n x n array, the same on every call for a given n: the eigvals rung
    solves every column against row 0, QZ the j-th eigenvalue in sorted
    order against row j mod n."""
    rng = np.random.default_rng(_RHS_SEED)
    b = np.array([rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(n)])
    b.setflags(write=False)
    return b


def _has_close_pair(lams):
    """Whether two of the eigenvalues agree to within sqrt(eps) relative,
    |lam_i - lam_j| <= sqrt(eps) max(|lam_i|, |lam_j|).  Such a pair has
    moduli within that factor, so with the moduli sorted only neighbours up
    to the first offset at which none is that close need a look."""
    rel = np.sqrt(np.finfo(float).eps)
    order = np.argsort(np.abs(lams), kind="stable")
    z, modulus = lams[order], np.abs(lams[order])
    for offset in range(1, z.size):
        near = modulus[:-offset] >= (1.0 - rel) * modulus[offset:]
        if not near.any():
            return False
        i = np.flatnonzero(near)
        if np.any(np.abs(z[i + offset] - z[i]) <= rel * modulus[i + offset]):
            return True
    return False


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
    ones), ``right`` and ``left`` the pencil's unit eigenvectors as the
    columns of kn x m arrays (``left`` None when no left vectors were asked
    for), and ``residual`` the m normalized right residuals.  ``p_right``
    and ``p_left`` hold P's right and left eigenvectors (_OfP): on the
    structured side the unit vectors solved from P, and on the other side
    the block sums (v kron I_n)^T w of the unit eigenvectors w as they are
    (the anchor and M1: the structured side is P's right side; M2: its left
    side), each with its backward errors eta_P.  ``p_left`` is None when no
    left vectors were asked for, and both are None in a record not made by
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
    that also holds P's eigenvectors, solved from P, with their backward
    errors; recover_right and recover_left check them against a tolerance.

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

    With and without ``left`` the same rung solves, as its certificate reads
    only what both solves compute, so ``eig`` and ``recover`` print the same
    eigenvalues.  The vectors of P on the side that ``eig`` solves, from
    which the residuals come, are solved first and do not depend on
    ``left`` either, after either solver, so the residuals are the same
    too: ``eig`` and ``recover --random 5,8,1`` both print
    2.589455432076529e-16 for the first eigenvalue, and ``--random 6,8,1``
    1.7843552459841404e-15.
    """
    route = _route(P, factor)
    size = route.L.X.shape[0]
    if not (_regular_rcond(route.lead[0], route.P.n)
            and (route.scaled is None or _regular_rcond(route.scaled[0], size))):
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
