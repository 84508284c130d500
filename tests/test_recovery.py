"""P's eigenvectors: the paper's recovery result on QZ's pencil
eigenvectors, and recover_right and recover_left on the record.

pencil_eigen solves P's eigenvectors from P at the eigenvalues, so it fits
nothing to a pencil eigenvector.  The paper's result stays checked here: QZ
on a pencil's own matrices (spectra.qz_on_pencil) gives kn-sized
eigenvectors, and on the structured side each is phi(lam) kron x with x an
eigenvector of P, by the batched fit (spectra.kron_fit) and by the
per-eigenvalue formula.  Tests of given pencil eigenvectors make a record
from that fit (spectra.recovered) for recover_right and recover_left to
check; P^T stands for P where the structured vectors are left ones, as the
solve passes it for an M2 pencil."""

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
    monomial_coefficients,
    pencil_eigen,
    phi_vector,
    recover_left,
    recover_right,
    spectral,
)
from conftest import ALL_KINDS, random_problem
from spectra import (
    block_sum,
    kron_fit,
    p_eta,
    pencil_vectors,
    phase_misfit,
    qz_on_pencil,
    recovered,
)

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
        lead = monomial_coefficients(P)[-1]
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
    """QZ's eigenvalues and kn x kn matrix of Kronecker-structured
    eigenvectors of a random strong linearization L on ``side``, solved on
    L's own matrices, and pencil_eigen's record of L."""
    k, n = P.k, P.n
    while True:
        f = AnsatzFactor(rng.uniform(-1, 1, k), rng.uniform(-1, 1, (k * n, (k - 1) * n)), side)
        if check_linearization(f).is_strong_linearization:
            break
    triples = qz_on_pencil(make_m1(P, f) if side == "M1" else make_m2(P, f))
    return triples.eigenvalues, triples.right if side == "M1" else triples.left, pencil_eigen(P, f)


def _transposed(P):
    return MatrixPolynomial(tuple(c.T for c in P.coeffs), P.basis)


def _assert_matches_reference(P, lams, W, nullside, record=None):
    """The batched fit of W, in C and in Fortran order, is the per-eigenvalue
    one, which also checks that W is phi kron u with u an eigenvector of P.
    With ``record``, pencil_eigen's of the same pencil, u is parallel to the
    vector of P the record holds at the nearest eigenvalue."""
    Q = P if nullside == "right" else _transposed(P)
    for V in (W, np.asfortranarray(W)):
        U = recover_right(recovered(Q, lams, V))
        assert U.shape == (P.n, lams.size)
        for j, lam in enumerate(lams):
            ref = _recover_one(P, lam, W[:, j], nullside=nullside)
            assert np.linalg.norm(U[:, j] - ref) <= RTOL * np.linalg.norm(ref), (j, lam)
    if record is None:
        return
    ours = (record.p_right if nullside == "right" else record.p_left).vectors
    for j, lam in enumerate(lams):
        near = (np.argmin(np.abs(record.eigenvalues - lam)) if np.isfinite(lam)
                else np.argmax(np.isinf(record.eigenvalues)))
        cosine = abs(np.vdot(ours[:, near], U[:, j])) / np.linalg.norm(ours[:, near])
        assert cosine >= 1.0 - 1e-8, (j, lam)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("side", ("M1", "M2"))
def test_batched_recovery_matches_per_eigenvalue_formula(rng, kind, side):
    # the paper's recovery result on QZ's eigenvectors of L = T F (M1) and
    # L = F^B S (M2): right eigenvectors carry the structure for M1, left
    # ones for M2, and the fitted u is the vector pencil_eigen solves from P
    P = random_problem(rng, 3, 4, kind)
    lams, W, record = _structured_side(P, rng, side)
    _assert_matches_reference(P, lams, W, "right" if side == "M1" else "left", record)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batched_recovery_on_block_symmetric_pencils(rng, kind):
    # a block-symmetric pencil carries the structure on both sides
    P = random_problem(rng, 2, 5, kind)
    f, _ = build_dm_pencil(P, rng.uniform(-1, 1, 5))
    triples = qz_on_pencil(make_m1(P, f))
    for nullside, W in (("right", triples.right), ("left", triples.left)):
        _assert_matches_reference(P, triples.eigenvalues, W, nullside)


def _singular_lead(P, axis=1):
    """P with the first column (axis 1) or row (axis 0) of P_k zeroed, so
    that e_1 is a right (left) null vector of P_k: infinite eigenvalues."""
    coeffs = list(P.coeffs)
    coeffs[-1] = coeffs[-1].copy()
    if axis:
        coeffs[-1][:, 0] = 0.0
    else:
        coeffs[-1][0] = 0.0
    return MatrixPolynomial(tuple(coeffs), P.basis)


@pytest.mark.parametrize("kind", ("chebyshev1", "legendre", "degree_graded"))
def test_batched_recovery_with_infinite_eigenvalues(rng, kind):
    # QZ's right eigenvectors of the anchor are e_1 kron u at its infinite
    # eigenvalues, and pencil_eigen's vectors of P there are e_1, the null
    # vector of P_k, as u is
    P = _singular_lead(random_problem(rng, 3, 4, kind))
    triples = qz_on_pencil(anchor_pencil(P))
    lams = triples.eigenvalues
    assert np.isinf(lams).any() and np.isfinite(lams).any()
    _assert_matches_reference(P, lams, triples.right, "right", pencil_eigen(P))


def test_single_eigenvalue_is_the_one_column_case(rng):
    P = random_problem(rng, 3, 4, "chebyshev2")
    lams, W, _ = _structured_side(P, rng, "M1")
    U = recover_right(recovered(P, lams, W))
    for j in (0, lams.size - 1):
        u = recover_right(recovered(P, lams[j:j + 1], W[:, j:j + 1]))
        assert u.shape == (P.n, 1)
        assert np.linalg.norm(u[:, 0] - U[:, j]) <= RTOL * np.linalg.norm(u)
    assert recover_right(recovered(P, lams[:0], W[:, :0])).shape == (P.n, 0)


def test_one_bad_column_is_named(rng):
    P = random_problem(rng, 3, 4, "legendre")
    lams, W, _ = _structured_side(P, rng, "M1")
    W = W.copy()
    W[:, 5] = rng.standard_normal(W.shape[0]) + 1j * rng.standard_normal(W.shape[0])
    assert kron_fit(P, lams, W)[1][5] > 0.1
    with pytest.raises(RecoveryError, match=r"column 5 \(eigenvalue .*residual"):
        recover_right(recovered(P, lams, W))


def test_residual_failure_names_the_first_column(rng):
    P = random_problem(rng, 3, 4, "chebyshev1")
    lams, W, _ = _structured_side(P, rng, "M1")
    # structured vectors of P checked against another polynomial
    Q = MatrixPolynomial(P.coeffs[:-1] + (2.0 * P.coeffs[-1],), P.basis)
    with pytest.raises(RecoveryError, match=r"column 0 \(eigenvalue .*residual"):
        recover_right(recovered(Q, lams, W))


def test_left_vectors_of_a_right_only_solve_are_an_error(rng):
    P = random_problem(rng, 2, 3)
    triples = pencil_eigen(P, left=False)
    assert recover_right(triples).shape == (2, 6)
    with pytest.raises(RecoveryError, match="no left eigenvectors"):
        recover_left(triples)


@pytest.mark.parametrize("m", (0, 1, 7))
def test_batched_recover_left_is_the_blockwise_sum(rng, m):
    # the block sum of the tests' helper, column by column, and recover_left
    # returns the sums the record holds as they are
    k, n = 4, 3
    P = random_problem(rng, n, k, "legendre")
    v = rng.uniform(-1, 1, k)
    U = rng.standard_normal((k * n, m)) + 1j * rng.standard_normal((k * n, m))
    out = block_sum(v, U)
    assert out.shape == (n, m)
    for j in range(m):
        u = U[:, j]
        expected = sum(v[i] * u[i * n:(i + 1) * n] for i in range(k))
        assert np.linalg.norm(out[:, j] - expected) <= 1e-12 * np.linalg.norm(u)
    lams = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    W = np.kron(np.ones((k, 1)), out)  # any kn x m; only the left side is read
    assert np.array_equal(recover_left(recovered(P, lams, W, out), tol=np.inf), out)


def _misplaced(monkeypatch, side, wrong):
    """Make the solve from P return ``wrong`` as every vector of P on
    ``side`` ("right" or "left") at an infinite eigenvalue, with its eta_P,
    and keep it: the repair, which would solve it again, is skipped."""
    inner = spectral._p_vectors

    def solve(P, values, phi, scale, b, solved):
        U, eta, R = inner(P, values, phi, scale, b, solved)
        if solved == side:
            # phi is c e_0 (phi_k first) at an infinite eigenvalue, so phi_0 is 0
            U[:, phi[-1] == 0.0] = wrong[:, None]
            eta, R = spectral._eta(P, phi, scale, U, side)
        return U, eta, R

    monkeypatch.setattr(spectral, "_p_vectors", solve)


def test_infinite_column_outside_the_leading_nullspace_is_named(rng, monkeypatch):
    # eta_P at an infinite eigenvalue is ||P_k u|| / (||P_k||_F ||u||): the
    # solve from P finds u = e_1 in the null space of P_k, and a u outside it
    # is named by recover_right
    P = _singular_lead(random_problem(rng, 3, 4, "legendre"))
    triples = pencil_eigen(P)
    infinite = np.flatnonzero(np.isinf(triples.eigenvalues))
    assert infinite.size == 1
    U = recover_right(triples, tol=1e-14)
    assert np.allclose(np.abs(U[:, infinite[0]]), [1.0, 0.0, 0.0], rtol=0, atol=1e-14)
    _misplaced(monkeypatch, "right", np.array([0.0, 1.0, 0.0]))
    with pytest.raises(RecoveryError, match=rf"column {infinite[0]} \(eigenvalue .*residual"):
        recover_right(pencil_eigen(P))


def test_recover_left_checks_infinite_columns_by_the_lead(rng, monkeypatch):
    P = _singular_lead(random_problem(rng, 3, 4, "legendre"), axis=0)  # e_1^T P_k = 0
    triples = pencil_eigen(P)
    infinite = np.flatnonzero(np.isinf(triples.eigenvalues))
    assert infinite.size == 1
    Y = recover_left(triples, tol=1e-14)
    assert np.allclose(np.abs(Y[:, infinite[0]]) / np.linalg.norm(Y[:, infinite[0]]),
                       [1.0, 0.0, 0.0], rtol=0, atol=1e-14)
    assert p_eta(P, triples.eigenvalues, Y, "left").max() <= 100 * 12 * np.finfo(float).eps
    _misplaced(monkeypatch, "left", np.array([0.0, 1.0, 0.0]))  # e_2^T does not annihilate P_k
    with pytest.raises(RecoveryError, match=rf"column {infinite[0]} \(eigenvalue .*residual"):
        recover_left(pencil_eigen(P))


@pytest.mark.parametrize("side", ("M1", "M2"))
def test_recover_left_checks_the_other_side(rng, side):
    # the block sums are eigenvectors of P on the side opposite the
    # Kronecker structure: left ones for M1, right ones for M2
    P = random_problem(rng, 3, 4, "chebyshev2")
    k, n = P.k, P.n
    f = AnsatzFactor(rng.uniform(-1, 1, k), rng.uniform(-1, 1, (k * n, (k - 1) * n)), side)
    triples = pencil_eigen(P, f)
    lams = triples.eigenvalues
    # on P^T for M2, as the post-solve step works: its left vectors are P's right ones
    right, left = pencil_vectors(P, triples, f)
    Q, W, U = (P, right, left) if side == "M1" else (_transposed(P), left, right)
    sums = block_sum(f.v, U)
    # the record's vectors on that side are these sums, up to a unit factor
    ours = recover_left(triples) if side == "M1" else recover_right(triples)
    assert np.all(phase_misfit(ours, sums) <= 100 * k * n * np.finfo(float).eps)
    assert np.array_equal(recover_left(recovered(Q, lams, W, sums)), sums)
    with pytest.raises(RecoveryError, match=r"column 0 \(eigenvalue .*residual"):
        recover_left(recovered(Q, lams, W, sums), tol=1e-30)
    bad = U.copy()
    bad[:, 3] = rng.standard_normal(k * n)
    with pytest.raises(RecoveryError, match=r"column 3 \(eigenvalue .*residual"):
        recover_left(recovered(Q, lams, W, block_sum(f.v, bad)))
    # a zero sum has no direction at all: it fails rather than passing as NaN
    zero = U.copy()
    zero[:, 1] = 0.0
    with pytest.raises(RecoveryError, match=r"column 1 \(eigenvalue .*residual nan"):
        recover_left(recovered(Q, lams, W, block_sum(f.v, zero)))
