"""Spectrum references for tests: spectrum matching and QZ on a pencil's own matrices.

``compare_spectra`` pairs two spectra's finite eigenvalues; it is kept out of
the package so that importing orthopencil never loads scipy.optimize.
``spectrum_of`` reads the Spectrum of pencil_eigen's eigenvalue column.
``qz_on_pencil`` solves a pencil by QZ on its own (X, Y), with dense
residuals, as a reference for ``pencil_eigen``, which solves every pencil
through the anchor of its polynomial; it returns a sorted, columnar
PencilTriples, which holds the pencil's own kn-sized eigenvectors, as
pencil_eigen's Eigentriples does not.  The pencil's eigenvectors at
pencil_eigen's eigenvalues are ``kron_vectors`` on the structured side,
phi(lam) kron x from P's vectors x in the record (the paper's eigenvector
result), and ``null_vectors`` on the other, from an SVD of the pencil at
each eigenvalue; ``pencil_vectors`` gives both sides of a record, and
``phase_misfit`` compares vectors known up to a unit factor.
``condition_numbers`` gives each eigenvalue's condition number from
qz_on_pencil's two-sided vectors, the scale of the distance between two
backward-stable solves' eigenvalues.
``sort_triples`` is the sort rule of
``pencil_eigen`` written out eigenvalue by eigenvalue, the reference for the
permutation (``spectral._order``) that the library computes on arrays.
``block_sum`` is the paper's block sum (v kron I_n)^T U of pencil
eigenvectors.  ``kron_fit`` fits phi(lam) kron u to Kronecker-structured
pencil eigenvectors, such as QZ's, with the mismatch of the fit: the paper's
recovery result, which pencil_eigen does not need, as it solves P's
eigenvectors from P.  ``p_eta`` is eta_P of given vectors of P, and
``recovered`` a record of P's eigenvectors made from given pencil
eigenvectors by that fit, for recover_right and recover_left to check.
``sampled_regularity`` is a regularity test of a matrix function by its
rcond at random points, independent of the finite shift (spectral._shift)
that gives pencil_eigen's verdict on P, and ``is_block_symmetric`` measures
a pencil's block asymmetry.  The library and the CLI use none of them.
"""

import cmath
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from orthopencil import (
    anchor_pencil,
    block_transpose,
    eval_pencil,
    make_m1,
    make_m2,
    phi_vector,
    spectral,
)
from orthopencil.matpoly import _regular_rcond, _scaled_inverse
from orthopencil.spectral import backward_errors
from orthopencil.oracle import Spectrum


def qz_on_pencil(L, left=True):
    """Eigentriples of the pencil L from scipy's QZ on (L.Y, -L.X), sorted as
    pencil_eigen sorts its own (sort_triples), with unit vectors, left ones
    z^T L(lam) = 0, and the dense residuals ||(X*lam + Y) u|| / (||X|| |lam|
    + ||Y||) (||X u|| / ||X|| at infinite eigenvalues)."""
    out = scipy.linalg.eig(L.Y, -L.X, left=left, right=True, homogeneous_eigvals=True)
    right = out[-1] / np.linalg.norm(out[-1], axis=0)
    lefts = np.conj(out[1]) / np.linalg.norm(out[1], axis=0) if left else None
    values = spectral._eigenvalues(*out[0])
    infinite = np.isinf(values)
    R = (L.X @ right) * np.where(infinite, 1.0, values) + (L.Y @ right) * ~infinite
    nx = np.linalg.norm(L.X)
    scales = np.where(infinite, nx, nx * np.abs(values) + np.linalg.norm(L.Y))
    residuals = np.linalg.norm(R, axis=0) / np.maximum(scales, 1e-300)
    order = sort_triples(values)
    return PencilTriples(values[order], right[:, order],
                         None if lefts is None else lefts[:, order], residuals[order])


def condition_numbers(L, triples):
    """The absolute condition number (||X|| |lam| + ||Y||) ||z|| ||u|| / |z^T X u|
    of every eigenvalue of the pencil L in ``triples`` (qz_on_pencil with
    left vectors), from its two-sided unit vectors: to first order a
    perturbation of L of relative size eta moves lam by at most eta times
    it."""
    lams = triples.eigenvalues
    pairing = np.abs(np.einsum("im,im->m", triples.left, L.X @ triples.right))
    with np.errstate(divide="ignore"):  # an infinite eigenvalue may pair to 0
        return (np.linalg.norm(L.X) * np.abs(lams) + np.linalg.norm(L.Y)) / pairing


@dataclass(frozen=True, eq=False)
class PencilTriples:
    """A pencil's sorted eigenvalues, its unit right and left eigenvectors
    as the columns of kn x m arrays (``left`` None when not asked for) and
    its right residuals, as qz_on_pencil solves them."""

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray | None
    residual: np.ndarray


def kron_vectors(P, lams, U):
    """The unit phi(lam_j) kron u_j for the columns u_j of U (n x m), phi =
    phi_vector(basis, k) there, or e_1 at an infinite eigenvalue: the
    eigenvectors of a linearization of P on its structured side, by the
    paper's eigenvector result, from P's vectors u_j on that side."""
    lams = np.asarray(lams, dtype=complex).reshape(-1)
    infinite = np.isinf(lams)
    phi = phi_vector(P.basis, P.k, np.where(infinite, 0.0, lams))
    phi[:, infinite] = np.eye(P.k, 1)
    W = (phi[:, None, :] * np.asarray(U)).reshape(P.k * P.n, lams.size)
    return W / np.linalg.norm(W, axis=0)


def null_vectors(L, lams, side="right"):
    """The unit null vectors of L(lam_j) = X lam_j + Y ("right"), or of its
    transpose ("left"), X alone at an infinite lam_j, from an SVD: the
    singular vector of the least singular value, kn x m.  It is the
    eigenvector up to a unit factor where the eigenvalue is geometrically
    simple."""
    columns = []
    for lam in np.asarray(lams, dtype=complex).reshape(-1):
        M = L.X.astype(complex) if np.isinf(lam) else eval_pencil(L, lam)
        M = M.T if side == "left" else M
        columns.append(np.linalg.svd(M)[2][-1].conj())
    return np.array(columns, dtype=complex).reshape(-1, L.X.shape[0]).T


def pencil_vectors(P, triples, factor=None):
    """(right, left): unit eigenvectors, kn x m, of the pencil that
    pencil_eigen(P, factor) solved, at the record's eigenvalues.  The
    structured side (right for the anchor and M1, left for M2) is
    kron_vectors of the record's unit vectors of P on that side, None for
    the left side of M2 solved without left vectors; the other side is
    null_vectors of the pencil."""
    lams = triples.eigenvalues
    if factor is not None and factor.side == "M2":
        structured = triples.p_left
        return (null_vectors(make_m2(P, factor), lams),
                None if structured is None else kron_vectors(P, lams, structured.vectors))
    L = anchor_pencil(P) if factor is None else make_m1(P, factor)
    return kron_vectors(P, lams, triples.p_right.vectors), null_vectors(L, lams, "left")


def phase_misfit(A, B):
    """min over theta of ||a_j - e^(i theta) b_j|| for the columns a_j of A
    and b_j of B: their distance once b_j is turned to a_j's phase."""
    A, B = np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)
    inner = np.einsum("im,im->m", B.conj(), A)
    return np.linalg.norm(A - B * np.exp(1j * np.angle(inner)), axis=0)


def block_sum(v, U):
    """(v kron I_n)^T U: the sums of v_i times the i-th block of each column of U (kn x m)."""
    k, (kn, m) = len(v), U.shape
    return np.tensordot(np.asarray(v, dtype=float), U.reshape(k, kn // k, m), 1)


def kron_fit(P, lams, W):
    """(U, mismatch): the least-squares fit u_j = sum_i conj(phi_ij) w_ij /
    sum_i |phi_ij|^2 of phi_j kron u_j to the k blocks w_ij of each column
    w_j of W (kn x m), eigenvectors of a linearization of P whose structured
    side W is, normalized, and the relative mismatch ||phi_j kron u_j - w_j||
    / ||w_j||; phi is phi_vector(basis, k), or e_1 at an infinite
    eigenvalue, where u is w's first block."""
    lams = np.asarray(lams, dtype=complex).reshape(-1)
    W = np.asarray(W, dtype=complex)
    k, n = P.k, P.n
    infinite = np.isinf(lams)
    phi = phi_vector(P.basis, k, np.where(infinite, 0.0, lams))
    phi[:, infinite] = np.eye(k, 1)
    blocks = W.reshape(k, n, -1)
    U = np.einsum("im,iam->am", phi.conj(), blocks) / np.sum(np.abs(phi) ** 2, axis=0)
    misfit = (phi[:, None, :] * U - blocks).reshape(k * n, -1)
    mismatch = np.linalg.norm(misfit, axis=0) / np.linalg.norm(W, axis=0)
    return U / np.linalg.norm(U, axis=0), mismatch


def p_eta(P, lams, U, nullside="right"):
    """eta_P of the columns of U (n x m) as vectors of P on ``nullside``:
    backward_errors at finite eigenvalues, ||P_k u|| / (||P_k||_F ||u||) at
    infinite ones; NaN for a zero column."""
    lams = np.asarray(lams, dtype=complex).reshape(-1)
    U = np.asarray(U, dtype=complex)
    infinite = np.isinf(lams)
    lead = P.coeffs[-1] if nullside == "right" else P.coeffs[-1].T
    eta = np.empty(lams.size)
    with np.errstate(invalid="ignore"):
        eta[~infinite] = backward_errors(P, lams[~infinite], U[:, ~infinite], nullside)
        eta[infinite] = np.linalg.norm(lead @ U[:, infinite], axis=0) / (
            np.linalg.norm(lead) * np.linalg.norm(U[:, infinite], axis=0))
    return eta


def recovered(P, lams, W, sums=None):
    """A record whose right eigenvectors of P are fitted to the
    Kronecker-structured pencil eigenvectors W (kn x m) and whose left ones
    are ``sums`` (n x m), each with its eta_P (kron_fit, p_eta); its
    residuals are placeholders."""
    lams = np.asarray(lams, dtype=complex).reshape(-1)
    U = kron_fit(P, lams, W)[0]
    right = spectral._OfP(U, p_eta(P, lams, U))
    left = None
    if sums is not None:
        sums = np.asarray(sums, dtype=complex) + 0.0
        left = spectral._OfP(sums, p_eta(P, lams, sums, "left"))
    return spectral.Eigentriples(lams, np.zeros(lams.size), right, left)


# Finite eigenvalues whose real parts are chained by steps of at most this
# many ulps of their modulus are ordered by imaginary part (see sort_triples).
ORDER_ULPS = 8


def sort_triples(values):
    """The indices of the eigenvalues ``values`` sorted by (real, imag), with
    infinite ones last in solver order.

    A run of real parts, each within ORDER_ULPS ulps of the one before it,
    is one group, ordered by imaginary part: the two members of a conjugate
    pair whose computed real parts differ in the last bits are then always
    listed negative-imaginary first, whatever other eigenvalues lie between
    them.  Equal real parts keep the (real, imag) order."""
    values = [complex(z) for z in values]
    finite = sorted((j for j, z in enumerate(values) if not cmath.isinf(z)),
                    key=lambda j: (values[j].real, values[j].imag))
    tol = ORDER_ULPS * np.finfo(float).eps
    group, prev = -1, None
    keyed = []
    for j in finite:
        z = values[j]
        if prev is None or z.real - prev.real > tol * max(abs(prev), abs(z)):
            group += 1
        prev = z
        keyed.append(((group, z.imag, z.real), j))
    keyed.sort(key=lambda pair: pair[0])
    return [j for _, j in keyed] + [j for j, z in enumerate(values) if cmath.isinf(z)]


def spectrum_of(triples) -> Spectrum:
    """The finite eigenvalues and the infinite count of pencil_eigen's columns."""
    infinite = np.isinf(triples.eigenvalues)
    return Spectrum(triples.eigenvalues[~infinite], int(infinite.sum()))


@dataclass(frozen=True)
class SpectrumComparison:
    matched: bool
    max_distance: float
    pairs: tuple
    infinite_match: bool
    size_mismatch: bool


def compare_spectra(a: Spectrum, b: Spectrum, tol: float = 1e-6) -> SpectrumComparison:
    """Optimal bipartite matching of the finite eigenvalues by distance.

    Symmetric in its arguments.  Lists of unequal length are matched up to the
    shorter length and flagged.  (A greedy nearest-pair matching would do for
    well separated spectra; the assignment solver is exact and just as cheap
    at these sizes.)
    """
    fa, fb = a.finite, b.finite
    size_mismatch = fa.size != fb.size
    if fa.size == 0 or fb.size == 0:
        return SpectrumComparison(
            matched=not size_mismatch and a.infinite_count == b.infinite_count,
            max_distance=0.0,
            pairs=(),
            infinite_match=a.infinite_count == b.infinite_count,
            size_mismatch=size_mismatch,
        )
    cost = np.abs(fa.reshape(-1, 1) - fb.reshape(1, -1))
    rows, cols = linear_sum_assignment(cost)
    pairs = tuple((int(r), int(c)) for r, c in zip(rows, cols))
    max_distance = float(cost[rows, cols].max())
    infinite_match = a.infinite_count == b.infinite_count
    matched = (not size_mismatch) and infinite_match and max_distance <= tol
    return SpectrumComparison(matched, max_distance, pairs, infinite_match, size_mismatch)


@dataclass(frozen=True)
class RegularityVerdict:
    """Outcome of the sampled regularity test (probabilistic).

    ``rcond`` is the largest reciprocal condition number seen, ``witness``
    the point where it was seen and ``trials`` the number of points
    evaluated."""

    regular: bool
    witness: complex | None
    rcond: float
    trials: int


# Points of the disk |lam| < 2 at which the regularity test evaluates M(lam).
REGULARITY_POINTS = 3


def sampled_regularity(evaluate, size: int, rng) -> RegularityVerdict:
    """Regularity of the size x size matrix function evaluate(lam).

    M(lam) is inverted at up to REGULARITY_POINTS random points of the
    disk |lam| < 2; it is regular as soon as one point has
    rcond(M(lam)) > 10 * size * eps, rows scaled to unit norm first.  The
    test is invariant to the scale of every row, and it does not read large
    matrices as singular: rcond of a random regular matrix decays only
    polynomially with its size, where the scaled determinant decays
    exponentially.  A singular matrix function gives rcond at rounding level
    (an exactly singular M(lam) gives 0) at every point.
    """
    best, witness = -1.0, None
    for trial in range(1, REGULARITY_POINTS + 1):
        r = 2.0 * np.sqrt(rng.uniform())
        lam = complex(r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        value = _scaled_inverse(evaluate(lam))[0]
        if value > best:
            best, witness = value, lam
        if _regular_rcond(value, size):
            return RegularityVerdict(True, lam, value, trial)
    return RegularityVerdict(False, witness, best, REGULARITY_POINTS)


@dataclass(frozen=True)
class BlockSymmetryReport:
    symmetric: bool
    max_asymmetry: float


def is_block_symmetric(L, tol: float = 0.0) -> BlockSymmetryReport:
    """Max-abs deviation between each block and its mirror, over both
    coefficients; with block size 1 this is ordinary matrix symmetry."""
    asym = max(
        float(np.max(np.abs(L.X - block_transpose(L.X, L.n)))),
        float(np.max(np.abs(L.Y - block_transpose(L.Y, L.n)))),
    )
    return BlockSymmetryReport(asym <= tol, asym)
