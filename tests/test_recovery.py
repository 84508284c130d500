"""Batched eigenvector recovery against the per-eigenvalue formula it replaced."""

import numpy as np
import pytest

from orthopencil import (
    AnsatzFactor,
    MatrixPolynomial,
    RecoveryError,
    anchor_pencil,
    build_dm_pencil,
    check_linearization,
    make_m1,
    make_m2,
    pencil_eigen,
    phi_vector,
    recover_left,
    recover_right,
    reversal_monomial,
)
from conftest import ALL_KINDS, random_problem

RTOL = 1e-12


def _recover_one(P, eigenvalue, w, tol=1e-6, nullside="right"):
    """The per-eigenvalue recovery: least-squares fit over the blocks, the
    Kronecker mismatch, and the residual scaled by sum |phi_i| ||P_i||."""
    n, k = P.n, P.k
    blocks = w.reshape(k, n)
    if np.isinf(eigenvalue):
        u = blocks[0]
        if np.linalg.norm(blocks[1:]) > tol * np.linalg.norm(w):
            raise RecoveryError("not e_1 kron u")
        lead = reversal_monomial(P)[0]
        scale = max(float(np.linalg.norm(lead)), 1e-300)
        res = lead @ u if nullside == "right" else u @ lead
    else:
        phi = phi_vector(P.basis, k, eigenvalue)
        u = (phi.conj() @ blocks) / np.vdot(phi, phi).real
        recon = np.kron(phi.reshape(-1, 1), u.reshape(-1, 1)).reshape(-1)
        if np.linalg.norm(w - recon) / np.linalg.norm(w) > tol:
            raise RecoveryError("not phi kron u")
        scale = max(P.evaluation_scale(eigenvalue), 1e-300)
        Pa = P.evaluate(eigenvalue)
        res = Pa @ u if nullside == "right" else u @ Pa
    if np.linalg.norm(res) > tol * scale * np.linalg.norm(u):
        raise RecoveryError("residual")
    return u / np.linalg.norm(u)


def _structured_side(P, rng, side):
    """Eigenvalues and the kn x kn matrix of Kronecker-structured eigenvectors
    of a random strong linearization on ``side``."""
    k, n = P.k, P.n
    while True:
        f = AnsatzFactor(rng.uniform(-1, 1, k), rng.uniform(-1, 1, (k * n, (k - 1) * n)), side)
        if check_linearization(f).is_strong_linearization:
            break
    triples = pencil_eigen(make_m1(P, f) if side == "M1" else make_m2(P, f), P, f)
    lams = np.array([t.eigenvalue for t in triples])
    W = np.stack([t.right if side == "M1" else t.left for t in triples], axis=1)
    return lams, W


def _assert_matches_reference(P, lams, W, nullside):
    U = recover_right(P, lams, W, nullside=nullside)
    assert U.shape == (P.n, lams.size)
    for j, lam in enumerate(lams):
        ref = _recover_one(P, lam, W[:, j], nullside=nullside)
        assert np.linalg.norm(U[:, j] - ref) <= RTOL * np.linalg.norm(ref), (j, lam)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("side", ("M1", "M2"))
def test_batched_recovery_matches_per_eigenvalue_formula(rng, kind, side):
    P = random_problem(rng, 3, 4, kind)
    lams, W = _structured_side(P, rng, side)
    # right eigenvectors carry the structure for M1, left ones for M2
    _assert_matches_reference(P, lams, W, "right" if side == "M1" else "left")


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batched_recovery_on_block_symmetric_pencils(rng, kind):
    # a block-symmetric pencil carries the structure on both sides
    P = random_problem(rng, 2, 5, kind)
    f, L = build_dm_pencil(P, rng.uniform(-1, 1, 5))
    triples = pencil_eigen(L, P, f)
    lams = np.array([t.eigenvalue for t in triples])
    for nullside, attr in (("right", "right"), ("left", "left")):
        W = np.stack([getattr(t, attr) for t in triples], axis=1)
        _assert_matches_reference(P, lams, W, nullside)


@pytest.mark.parametrize("kind", ("chebyshev1", "legendre", "degree_graded"))
def test_batched_recovery_with_infinite_eigenvalues(rng, kind):
    P = random_problem(rng, 3, 4, kind)
    coeffs = list(P.coeffs)
    coeffs[-1] = coeffs[-1].copy()
    coeffs[-1][:, 0] = 0.0  # singular P_k: infinite eigenvalues
    P = MatrixPolynomial(tuple(coeffs), P.basis)
    triples = pencil_eigen(anchor_pencil(P), P)
    lams = np.array([t.eigenvalue for t in triples])
    assert np.isinf(lams).any() and np.isfinite(lams).any()
    _assert_matches_reference(P, lams, np.stack([t.right for t in triples], axis=1), "right")


def test_single_eigenvalue_is_the_one_column_case(rng):
    P = random_problem(rng, 3, 4, "chebyshev2")
    lams, W = _structured_side(P, rng, "M1")
    U = recover_right(P, lams, W)
    for j in (0, lams.size - 1):
        u = recover_right(P, lams[j], W[:, j])
        assert u.shape == (P.n,)
        assert np.array_equal(u, recover_right(P, lams[j:j + 1], W[:, j:j + 1])[:, 0])
        assert np.linalg.norm(u - U[:, j]) <= RTOL * np.linalg.norm(u)
    assert recover_right(P, lams[:0], W[:, :0]).shape == (P.n, 0)


def test_one_bad_column_is_named(rng):
    P = random_problem(rng, 3, 4, "legendre")
    lams, W = _structured_side(P, rng, "M1")
    W = W.copy()
    W[:, 5] = rng.standard_normal(W.shape[0]) + 1j * rng.standard_normal(W.shape[0])
    with pytest.raises(RecoveryError, match=r"column 5 \(eigenvalue .*not phi kron u"):
        recover_right(P, lams, W)


def test_residual_failure_names_the_first_column(rng):
    P = random_problem(rng, 3, 4, "chebyshev1")
    lams, W = _structured_side(P, rng, "M1")
    # structured vectors of P checked against another polynomial
    Q = MatrixPolynomial(P.coeffs[:-1] + (2.0 * P.coeffs[-1],), P.basis)
    with pytest.raises(RecoveryError, match=r"column 0 \(eigenvalue .*residual"):
        recover_right(Q, lams, W)


def test_shape_mismatch_is_rejected(rng):
    P = random_problem(rng, 2, 3)
    with pytest.raises(RecoveryError, match="must be 6 x 2"):
        recover_right(P, np.array([0.5, 1.0]), np.ones((6, 3)))


@pytest.mark.parametrize("m", (0, 1, 7))
def test_batched_recover_left_is_the_blockwise_sum(rng, m):
    k, n = 4, 3
    v = rng.uniform(-1, 1, k)
    U = rng.standard_normal((k * n, m)) + 1j * rng.standard_normal((k * n, m))
    out = recover_left(v, U)
    assert out.shape == (n, m)
    for j in range(m):
        u = U[:, j]
        expected = sum(v[i] * u[i * n:(i + 1) * n] for i in range(k))
        assert np.linalg.norm(out[:, j] - expected) <= 1e-12 * np.linalg.norm(u)
        assert np.linalg.norm(recover_left(v, u) - out[:, j]) <= 1e-12 * np.linalg.norm(u)


def test_infinite_column_outside_the_leading_nullspace_is_named(rng):
    P = random_problem(rng, 3, 4, "legendre")
    coeffs = list(P.coeffs)
    coeffs[-1] = coeffs[-1].copy()
    coeffs[-1][:, 0] = 0.0  # P_k e_1 = 0
    P = MatrixPolynomial(tuple(coeffs), P.basis)
    lams = np.array([np.inf, np.inf], dtype=complex)
    W = np.zeros((12, 2), dtype=complex)
    W[0, 0] = 1.0  # e_1 kron e_1: in the nullspace
    W[1, 1] = 1.0  # e_1 kron e_2: not
    assert np.array_equal(recover_right(P, lams[:1], W[:, :1])[:, 0], [1.0, 0.0, 0.0])
    with pytest.raises(RecoveryError, match=r"column 1 \(eigenvalue .*residual"):
        recover_right(P, lams, W)


@pytest.mark.parametrize("side", ("M1", "M2"))
def test_recover_left_checks_the_other_side(rng, side):
    # the block sums are eigenvectors of P on the side opposite the
    # Kronecker structure: left ones for M1, right ones for M2
    P = random_problem(rng, 3, 4, "chebyshev2")
    k, n = P.k, P.n
    f = AnsatzFactor(rng.uniform(-1, 1, k), rng.uniform(-1, 1, (k * n, (k - 1) * n)), side)
    triples = pencil_eigen(make_m1(P, f) if side == "M1" else make_m2(P, f), P, f)
    lams = np.array([t.eigenvalue for t in triples])
    U = np.stack([t.left if side == "M1" else t.right for t in triples], axis=1)
    nullside = "left" if side == "M1" else "right"
    sums = recover_left(f.v, U, P, lams, nullside=nullside)
    assert np.array_equal(sums, recover_left(f.v, U))
    with pytest.raises(RecoveryError, match=r"column 0 \(eigenvalue .*residual"):
        recover_left(f.v, U, P, lams, tol=1e-30, nullside=nullside)
    bad = U.copy()
    bad[:, 3] = rng.standard_normal(k * n)
    with pytest.raises(RecoveryError, match=r"column 3 \(eigenvalue .*residual"):
        recover_left(f.v, bad, P, lams, nullside=nullside)
    # a zero sum has no direction at all: it fails rather than passing as NaN
    zero = U.copy()
    zero[:, 1] = 0.0
    with pytest.raises(RecoveryError, match=r"column 1 \(eigenvalue .*residual nan"):
        recover_left(f.v, zero, P, lams, nullside=nullside)


def test_recover_left_checks_infinite_columns_by_the_lead(rng):
    P = random_problem(rng, 3, 4, "legendre")
    coeffs = list(P.coeffs)
    coeffs[-1] = coeffs[-1].copy()
    coeffs[-1][0] = 0.0  # e_1^T P_k = 0
    P = MatrixPolynomial(tuple(coeffs), P.basis)
    v = np.eye(4)[0]
    lams = np.array([np.inf, np.inf], dtype=complex)
    U = np.zeros((12, 2), dtype=complex)
    U[0, 0] = 1.0  # e_1^T annihilates P_k from the left
    U[1, 1] = 1.0  # e_2^T does not
    assert np.array_equal(recover_left(v, U[:, :1], P, lams[:1]), U[:3, :1])
    with pytest.raises(RecoveryError, match=r"column 1 \(eigenvalue .*residual"):
        recover_left(v, U, P, lams)
