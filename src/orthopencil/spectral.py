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

Two rungs find F's eigentriples, the second tried when the first is
refused or not tried:

- the eigvals rung (``_companion_solve``), tried when the row-scaled rcond
  of c*P_k clears 10 * n * eps: geev without vectors on the companion
  (comrade, colleague) matrix -X^-1 Y, whose first block row is one GEMM by
  the n x n row-scaled inverse of c*P_k, gives the eigenvalues, and P
  gives the eigenvectors.  Every right eigenvector of the anchor is
  phi(lam) kron x with P(lam) x = 0, the eigenvector result of the paper,
  so x is one n x n solve: P(lam_j) at all kn eigenvalues is one GEMM,
  and one batched solve per side gives the right vectors x_j and the left
  ones y_j of P (one of each conjugate pair, the other by conjugation).
  The anchor's left eigenvectors are built from the y_j (``_anchor_left``).
  Its right ones stay P-sized until they are written: the residual of
  phi kron x is [P(lam) x; delta kron x], delta the recurrence residuals
  of the computed phi, and ||phi kron x|| = ||phi|| ||x||, so eta_L of the
  anchor and of M1 comes from P(lam) x, which eta_P's GEMM already forms
  (``_residuals_from_p``), and the unit vectors are written once, sorted.
  Two eigenvalues that agree to sqrt(eps) relative send a problem to QZ,
  which gives independent vectors where one solve would repeat one x; an
  exactly singular P(lam_j) is solved at a shift a few ulps off, with
  lam_j reported as it is.
- QZ on F itself (G for M2), with scipy, which is backward stable for P
  (Lawrence, Van Barel and Van Dooren, SIMAX 37, 2016) and gives the
  infinite eigenvalues of a singular P_k.

The eigvals rung is kept only under a certificate at every eigenvalue:
eta_L, the residual that pencil_eigen reports, and the backward error eta_P
of each eigenvector of P solved (see ``backward_errors``) are at most
10 * kn * eps, and no eigenvalue is classed infinite.

numpy.linalg serves every solve but QZ: the inverses, eigvals and the
batched solves.  scipy.linalg is imported only by QZ (``_qz``), so ``eig``
and ``recover`` never load it where the eigvals rung is certified.

Both rungs go through one step after the solve (``_through_anchor``),
which maps F's eigenvectors to L's, which have the anchor's eigenvalues:
F's right eigenvectors and left eigenvectors T^-T z for F's left ones z
(M1), and G's right eigenvectors as left ones and S^-1 z, an LU solve on
the row-scaled S, for G's left ones z as right ones (M2).  Residuals are
read off the anchor's structure and one GEMM by the multiplier, on the
eigvals rung off P-sized data for the anchor and M1.

The same step reads the eigenvectors of P off the sorted record, on the
route's polynomial (P, or P^T for M2, so that one set of formulas serves
both sides).  On the eigvals rung they are the solved x_j and the first
blocks y_j of the anchor's left eigenvectors, with the eta_P the rung
computed.  After QZ, L's Kronecker-structured eigenvectors,
phi(lam) kron x (right for the anchor and M1, left for M2), give one side
by their Kronecker fit, and the first block of z, which is the block sum
(v kron I_n)^T of L's eigenvector on the other side, gives the other, free
of the cancellation that forming that sum from L's eigenvector suffers when
T is ill-conditioned.  One ``phi_vector`` of length k + 1 at the
eigenvalues (0 at infinite ones) serves the fit, its mismatch, the scale
sum_i |phi_i| ||P_i||_F and eta_P on both sides, each side one GEMM
(``_of_p``).  The record keeps them as P's right and left eigenvectors
(``Eigentriples.p_right`` and ``p_left``); for M2 the vectors of P^T's
right side are P's left ones and the block sums are P's right ones.

The certificate reads eta_L and eta_P from the record.  Recovery reads it
too: ``recover_right(spectrum, tol)`` and
``recover_left(spectrum, tol)`` check the recorded mismatch and eta_P of
every column against tol and return P's n x m eigenvectors, so a
``recover`` evaluates the basis once, whichever rung ran, and fits once
after QZ.
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
# Seed of the eigvals rung's right-hand side (_rhs).
_RHS_SEED = 20161
# ulps of max(|lam|, 1) by which the eigvals rung moves its shifts when a
# P(lam_j) is exactly singular.
_SHIFT_ULPS = 4.0


def qz_solve(route: _Route, left: bool) -> Eigentriples:
    """The sorted eigentriples of the route's pencil L and the eigenvectors of
    P, solved through its anchor F (module docstring) by the certified
    eigvals rung or else QZ on F, which agree to within the eigenvalues'
    condition numbers times their backward errors, not bit for bit; either
    solve goes through the one post-solve step, _through_anchor.  With left
    false ``left`` is None in the result."""
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
        R = R.astype(complex, copy=False)  # real for real vectors; lams is complex
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


def _through_anchor(route, lams, R, Z, left, known=None):
    """The sorted record (Eigentriples) of the route's pencil L and of P from
    the eigenvalues ``lams`` of its anchor F and its right and left
    eigenvectors ``R`` and ``Z`` (columns, z^T F(lam) = 0, None for a side not
    solved), the one step after either rung: the map and the residuals of
    the module docstring, every column normalized in solver order and then all
    put in the order of ``_order`` (np.take, which writes C-contiguous
    arrays), and P's eigenvectors read off the sorted columns (_of_p).  The
    vectors are normalized in place, R and Z included.

    ``known`` (_FromP) comes from the eigvals rung, with R None: the vectors
    x of the route's polynomial that F's right eigenvectors phi kron x are
    made of, and the eta_P of x and of the first blocks of Z.  Then x itself
    is P's structured side, with no fit and no mismatch, and nothing of
    _of_p is computed again.  F's right eigenvectors are written once, unit
    and sorted (_unit_kron), and for the anchor and M1 their residuals come
    from P(lam) x and the recurrence residuals of phi (_residuals_from_p)."""
    n = route.P.n
    right, left_vecs = R, Z
    if route.side == "M2":
        right, left_vecs = _solve_scaled(route.multiplier, route.scaled[1][1], Z), R
    elif left and route.side == "M1":
        left_vecs = _solve(route.scaled[1], Z, transpose=True)
    right_norms = None if right is None else np.linalg.norm(right, axis=0)
    left_norms = None if left_vecs is None else np.linalg.norm(left_vecs, axis=0)
    sums = None
    if route.side == "M2":
        sums = Z[:n] / right_norms
    elif left:
        sums = Z[:n] / left_norms
    if right is None:
        residual = _residuals_from_p(route, lams, known)
    else:
        residual = _structured_residuals(route, lams, right, right_norms)
    order = _order(lams)
    lams = lams[order]
    if right is not None:
        right /= right_norms
        right = np.take(right, order, axis=1)
    if left_vecs is not None:
        left_vecs /= left_norms
        left_vecs = np.take(left_vecs, order, axis=1)
    if sums is not None:
        sums = np.take(sums, order, axis=1)
    if known is None:
        # on P^T (M2) the fit gives P's left eigenvectors and the sums its right ones
        fitted, summed = _of_p(route.P, lams, left_vecs if route.side == "M2" else right, sums)
    else:
        fitted = summed = None
        if known.x is not None:
            unit = np.take(known.x / np.linalg.norm(known.x, axis=0), order, axis=1)
            fitted = _OfP(unit, known.eta_x[order], None)
            if route.side == "M2":
                left_vecs = _unit_kron(known.phi, unit, order)
            else:
                right = _unit_kron(known.phi, unit, order)
        if sums is not None:
            summed = _OfP(sums + 0.0, known.eta_y[order], None)
    p_right, p_left = (summed, fitted) if route.side == "M2" else (fitted, summed)
    return Eigentriples(lams, right, left_vecs, residual[order], p_right, p_left)


class _FromP(NamedTuple):
    """What the eigvals rung solved, at every eigenvalue in solver order:
    ``phi``, phi_vector(basis, k + 1) there (phi_k first); the right
    vectors ``x`` of the route's polynomial (n x m, None when not solved),
    their residuals ``px`` = P(lam) x, their eta_P ``eta_x`` and its scales
    sum_i |phi_i| ||P_i||_F; and ``eta_y``, the eta_P of the first blocks of
    the anchor's left eigenvectors (None when not solved)."""

    phi: np.ndarray
    x: np.ndarray | None
    px: np.ndarray | None
    eta_x: np.ndarray | None
    scale: np.ndarray
    eta_y: np.ndarray | None


def _unit_kron(phi, unit, order):
    """The unit vectors (Phi / ||Phi||) kron u, Phi = phi[1:] taken in
    ``order`` and u the columns of ``unit``, which are in that order
    already: the anchor's right eigenvectors, kn x m and C-contiguous."""
    Phi = np.take(phi[1:], order, axis=1)
    Phi /= np.linalg.norm(Phi, axis=0)
    (k, m), n = Phi.shape, unit.shape[0]
    return np.multiply(Phi[:, None, :], unit).reshape(k * n, m)


def _residuals_from_p(route, lams, known):
    """eta_L of the right eigenvectors phi kron x of the anchor or of an M1
    pencil, from P-sized data (``known``, a _FromP): F(lam) (Phi kron x) is
    [P(lam) x; delta kron x], where delta = M(lam) Phi are the k - 1
    recurrence residuals of the computed Phi = phi[1:] (M = Xs*lam + Ys,
    with Xs = [0, I]), and ||Phi kron x|| = ||Phi|| ||x||.  For the anchor
    ||P(lam) x|| / ||x|| is eta_P times its scale, so no n-vector is read
    again; for M1 the residual is one real GEMM by T, at one eigenvalue of
    each conjugate pair (_conjugates): T is real, so the other column, the
    conjugate, has the same residual."""
    F = route.F
    n = F.n
    Phi = known.phi[1:]
    delta = Phi[1:] * lams + F.Y[n::n, ::n] @ Phi
    nx, ny = np.linalg.norm(route.L.X), np.linalg.norm(route.L.Y)
    scales = np.maximum(nx * np.abs(lams) + ny, 1e-300) * np.linalg.norm(Phi, axis=0)
    if route.side == "anchor":
        return np.hypot(known.eta_x * known.scale, np.linalg.norm(delta, axis=0)) / scales
    keep, lower = _conjugates(lams)
    x, m = known.x[:, keep], np.count_nonzero(keep)
    W = np.empty((F.k * n, m), dtype=complex)
    W[:n] = known.px[:, keep]
    W[n:] = (delta[:, None, keep] * x).reshape(-1, m)
    residual = (np.linalg.norm(_real_matmul(route.multiplier, W), axis=0)
                / (scales[keep] * np.linalg.norm(x, axis=0)))
    return _conjugated(residual, keep, lower)


def _companion_solve(route, left=False):
    """The eigvals rung (module docstring): the certified solve of the
    route's anchor, mapped to its pencil and to P, or None when c*P_k fails
    its gate or the rung is refused.  The anchor's eigenvalues come from
    geev without vectors on the companion matrix, the eigenvectors from P
    at them: x_j and y_j are one inverse-iteration step from the eigenvalue
    (_null_vectors), and a column whose eta_P misses the certificate is
    solved again (_repair).  The rung is refused when an eigenvalue is not
    finite or is classed infinite, when two agree to within sqrt(eps)
    relative (_has_close_pair), or when a repaired column or the record
    misses the certificate (_certified), which reads eta_L and the eta_P of
    each side of P solved."""
    P, F = route.P, route.F
    n, k = P.n, P.k
    rcond, inverse = route.lead
    if not rcond > 10.0 * n * np.finfo(float).eps:
        return None
    first = _solve(inverse, F.Y[:n])
    if not np.all(np.isfinite(first)):
        return None
    # only the first block row of -X^-1 Y differs from -Y
    A = np.negative(F.Y, order="F")
    A[:n] = -first
    try:
        lams = _companion_eigenvalues(np.linalg.eigvals(A))
    except np.linalg.LinAlgError:
        return None
    if lams is None or _has_close_pair(lams):
        return None
    want_left, want_right = route.anchor_sides(left)
    phi = phi_vector(P.basis, k + 1, lams)
    scale = P.evaluation_scale(lams, phi[::-1])
    # the conjugate of an eigenvalue has the conjugate vectors, and the same
    # eta_P: solve at one of each pair, then conjugate (_conjugates)
    keep, lower = _conjugates(lams)
    kept, phi_kept, scale_kept = lams[keep], phi[:, keep], scale[keep]
    try:
        values, vectors = _null_vectors(P, kept, phi_kept, (want_right, want_left))
    except np.linalg.LinAlgError:
        return None
    checks = [None if V is None else _eta(P, phi_kept, scale_kept, V, side)
              for V, side in zip(vectors, _SIDES)]
    if not _repair(P, phi_kept, scale_kept, values, vectors, checks):
        return None
    X, Y = vectors
    Z = None if Y is None else _anchor_left(F, kept, phi_kept, Y)
    (eta_x, px), (eta_y, _) = (check or (None, None) for check in checks)
    X, px, eta_x, Z, eta_y = (None if a is None else _conjugated(a, keep, lower)
                              for a in (X, px, eta_x, Z, eta_y))
    spectrum = _through_anchor(route, lams, None, Z, left,
                               known=_FromP(phi, X, px, eta_x, scale, eta_y))
    return spectrum if _certified(spectrum) else None


def _certified(spectrum):
    """Whether eta_L and the eta_P of each side of P solved are at most
    _CERTIFIED_ETA * kn * eps in every column."""
    bound = _certified_bound(spectrum.right.shape[0])
    checked = [spectrum.residual] + [side.eta for side in (spectrum.p_right, spectrum.p_left)
                                     if side is not None]
    return all(np.all(values <= bound) for values in checked)


def _certified_bound(size):
    return _CERTIFIED_ETA * size * np.finfo(float).eps


def _companion_eigenvalues(w):
    """The eigenvalues w of a companion matrix as QZ's alpha / beta would
    give them, or None when one is not finite or would be classed infinite."""
    if not np.all(np.isfinite(w)) or np.any(_INF_TOL * (np.abs(w) + 1.0) >= 1.0):
        return None
    # w / (1 + 0j) as Python's complex division rounds it, the form QZ's
    # alpha / beta takes (_eigenvalues): w itself, with the sign of a zero
    # part as re + im*0 and im - re*0 give it (0.0 for geev's -0.0 + 0j)
    return np.stack((w.real + w.imag * 0.0, w.imag - w.real * 0.0), axis=-1).view(complex)[:, 0]


_SIDES = ("right", "left")


def _repair(P, phi, scale, values, vectors, checks):
    """Solve again, in place, every column of ``vectors`` (right, left;
    None for a side not solved) whose eta_P in ``checks`` (_eta's (eta,
    residuals) of each side) misses the certificate: x_j from the largest
    column of P(lam_j)^-1 and y_j from its largest row, with ``values`` the
    P(lam_j) and ``phi`` and ``scale`` as _eta takes them.  The checks of the
    columns solved again are updated in place.  False when a column still
    misses it or a P(lam_j) has no inverse."""
    bound = _certified_bound(P.k * P.n)
    bad = [None if check is None else ~(check[0] <= bound) for check in checks]
    redone = np.logical_or.reduce([b for b in bad if b is not None])
    if not redone.any():
        return True
    try:
        inverse = np.linalg.inv(values[redone])
    except np.linalg.LinAlgError:
        return False
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
        if not np.all(eta <= bound):
            return False
    return True


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


def _null_vectors(P, lams, phi, solved):
    """(P(lam_j) as an m x n x n array, [X, Y]): the solutions x_j of
    P(lam_j) x_j = b and y_j of P(lam_j)^T y_j = b, as the columns of n x m
    arrays, for the sides ``solved`` (right, left) and None for the others;
    ``phi`` is phi_vector(basis, k + 1) at the eigenvalues ``lams``.

    Where a P(lam_j) is exactly singular, so that its LU has a zero pivot
    and cannot solve, it is formed and solved at lam_j + i d, d being
    _SHIFT_ULPS ulps of max(|lam_j|, 1), and the array holds it there.
    Raises LinAlgError when that is singular too."""
    values = _evaluate_at(P, phi)
    b = _rhs(P.n)
    vectors = [None, None]
    for side in (0, 1):
        if not solved[side]:
            continue
        matrices = values if side == 0 else values.transpose(0, 2, 1)
        try:
            vectors[side] = np.linalg.solve(matrices, b).T
            continue
        except np.linalg.LinAlgError:
            pass
        singular = np.linalg.slogdet(matrices)[0] == 0.0
        if not singular.any():
            singular[:] = True
        # the imaginary part of P there makes a zero pivot as unlikely as for
        # any complex matrix
        shifts = lams[singular] + 1j * _SHIFT_ULPS * np.finfo(float).eps * np.maximum(
            np.abs(lams[singular]), 1.0)
        values[singular] = _evaluate_at(P, phi_vector(P.basis, P.k + 1, shifts))
        vectors[side] = np.linalg.solve(matrices, b).T
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
    """The fixed complex right-hand side of the eigvals rung's solves, the
    same on every call for a given n."""
    rng = np.random.default_rng(_RHS_SEED)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
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


def _anchor_left(F, lams, phi, Y):
    """The anchor's left eigenvectors z_j, z_j^T F(lam_j) = 0, whose first
    blocks are the left eigenvectors y_j of P (the columns of Y); ``phi`` is
    phi_vector(basis, k + 1) at the eigenvalues.

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
    G = _real_matmul(F.Y[:n].T, Y)  # (lam X_0i + Y_0i)^T y, block by block
    G[:n] += _real_matmul(F.X[:n, :n].T, Y) * lams
    # the k - 1 rows kept of M^T = Xs^T lam + Ys^T, an m x (k - 1) x (k - 1)
    # array: Xs = [0, I] puts lam one place left of the diagonal of M^T
    kept = np.arange(k - 1) + (np.arange(k - 1) >= np.argmax(np.abs(phi[1:]), axis=0)[:, None])
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
    eigenvectors they were fitted to, or None for block sums and for the
    vectors the eigvals rung solves from P, which are fitted to nothing."""

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
    anchor's eigenvectors by the post-solve step: on the structured side
    the unit vectors the eigvals rung solves from P, or else the unit
    Kronecker fit of the pencil's eigenvectors, with its mismatch, and on
    the other side the block sums (v kron I_n)^T w of the unit eigenvectors
    w as they are (the anchor and M1: the structured side is P's right
    side; M2: its left side), each with its backward errors eta_P.  ``p_left`` is None when no left
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
    that also holds P's eigenvectors, with their backward errors and, after
    QZ, the Kronecker mismatch of the fitted side; recover_right and
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

    With and without ``left`` the same rung solves, unless the certificate
    refuses the left side alone, so ``eig`` and ``recover`` print the same
    eigenvalues.  On the eigvals rung the right vectors do not depend on
    ``left`` either, so the residuals are the same too: ``eig`` and
    ``recover --random 5,8,1`` both print 2.589455432076529e-16 for the
    first eigenvalue, and ``--random 6,8,1`` 1.7843552459841404e-15.  QZ
    finds both sides in one call.
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
        residual = _eta(P, phi, scale, V, nullside)[0]
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
    linearization.  On the eigvals rung they are the unit vectors solved
    from P, with no mismatch to check.  For M2 they are the block sums, as
    they are.  Then a
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
