import numpy as np
import pytest

from orthopencil import (
    DimensionMismatchError,
    MatrixPolynomial,
    Pencil,
    anchor_pencil,
    block_transpose,
    builtin_basis,
    eval_pencil,
    pencil_block_transpose,
    phi_vector,
    sample_points,
)
from conftest import ALL_KINDS, BASIS_KINDS, monomial_dg_basis, random_problem, stepped_dg_basis


def _cheb3(rng, n=2):
    return random_problem(rng, n, 3, "chebyshev1")


def _kron_phi(P, lam):
    return np.kron(phi_vector(P.basis, P.k, lam).reshape(-1, 1), np.eye(P.n))


def _poly_row(F):
    """The anchor's first block row: the n x kn pencil reconstructing P."""
    return F.X[: F.n], F.Y[: F.n]


def _recurrence_rows(F):
    """The anchor's block rows 2..k: the pencil annihilating Phi_k kron I_n."""
    return F.X[F.n :], F.Y[F.n :]


def _scalar_anchor(kind, k):
    return anchor_pencil(MatrixPolynomial(tuple(np.ones((1, 1)) for _ in range(k + 1)),
                                          builtin_basis(kind)))


def test_poly_row_chebyshev_golden(rng):
    P = _cheb3(rng)
    mX, mY = _poly_row(anchor_pencil(P))
    n = P.n
    P0, P1, P2, P3 = P.coeffs
    assert np.array_equal(mX[:, :n], 2 * P3)
    assert np.array_equal(mX[:, n:], np.zeros((n, 2 * n)))
    assert np.array_equal(mY[:, :n], P2)
    assert np.array_equal(mY[:, n : 2 * n], P1 - P3)
    assert np.array_equal(mY[:, 2 * n :], P0)


def test_poly_row_monomial_golden(rng):
    P = random_problem(rng, 2, 4, "monomial")
    mX, mY = _poly_row(anchor_pencil(P))
    n = P.n
    assert np.array_equal(mX[:, :n], P.coeffs[4])
    for j in range(4):
        expected = P.coeffs[3 - j]
        assert np.array_equal(mY[:, j * n : (j + 1) * n], expected)


def test_poly_row_reconstructs_polynomial(rng):
    for kind in BASIS_KINDS:
        P = random_problem(rng, 2, 4, kind)
        mX, mY = _poly_row(anchor_pencil(P))
        for lam in rng.uniform(-1.5, 1.5, 5):
            lhs = (mX * lam + mY) @ _kron_phi(P, lam)
            assert np.allclose(lhs, P.evaluate(lam), atol=1e-12)


def test_recurrence_rows_chebyshev_golden():
    X, Y = _recurrence_rows(_scalar_anchor("chebyshev1", 3))
    lam = 0.77
    M = X * lam + Y
    assert np.allclose(M, [[-0.5, lam, -0.5], [0.0, -1.0, lam]])


def test_recurrence_rows_monomial_golden():
    X, Y = _recurrence_rows(_scalar_anchor("monomial", 3))
    lam = 0.3
    assert np.allclose(X * lam + Y, [[-1.0, lam, 0.0], [0.0, -1.0, lam]])


def test_recurrence_rows_annihilate_basis_vector(rng):
    for kind in ALL_KINDS:
        P = random_problem(rng, 2, 5, kind)
        X, Y = _recurrence_rows(anchor_pencil(P))
        for lam in rng.uniform(-1.5, 1.5, 5):
            out = (X * lam + Y) @ _kron_phi(P, lam)
            assert np.max(np.abs(out)) < 1e-12


def test_anchor_identity_across_bases(rng):
    for kind in ALL_KINDS:
        for (n, k) in [(1, 2), (3, 3), (5, 8), (2, 5)]:
            P = random_problem(rng, n, k, kind)
            F = anchor_pencil(P)
            e1 = np.zeros((k, 1))
            e1[0] = 1.0
            scale = max(np.max(np.abs(c)) for c in P.coeffs)
            for lam in sample_points(k + 1):
                lhs = eval_pencil(F, lam) @ _kron_phi(P, lam)
                rhs = np.kron(e1, P.evaluate(lam))
                assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(scale, 1.0)


def test_monomial_anchor_is_frobenius_companion(rng):
    P = random_problem(rng, 2, 4, "monomial")
    F = anchor_pencil(P)
    n, k = P.n, P.k
    X = np.zeros((k * n, k * n))
    X[:n, :n] = P.coeffs[k]
    X[n:, n:] = np.eye((k - 1) * n)
    Y = np.zeros((k * n, k * n))
    for j in range(k):
        Y[:n, j * n : (j + 1) * n] = P.coeffs[k - 1 - j]
    Y[n:, : (k - 1) * n] -= np.eye((k - 1) * n)
    assert np.array_equal(F.X, X)
    assert np.array_equal(F.Y, Y)


def test_anchor_x_sparsity_pattern(rng):
    P = random_problem(rng, 3, 4, "legendre")
    F = anchor_pencil(P)
    n, k = P.n, P.k
    a, _, _ = P.basis.recurrence(k - 1)
    expected = np.zeros_like(F.X)
    expected[:n, :n] = (1.0 / a) * P.coeffs[k]
    for r in range(1, k):
        expected[r * n : (r + 1) * n, r * n : (r + 1) * n] = np.eye(n)
    assert np.array_equal(F.X, expected)


def test_degree_graded_anchor_golden(rng):
    dg = stepped_dg_basis(4)
    n = 2
    coeffs = tuple(rng.integers(-3, 4, (n, n)).astype(float) for _ in range(5))
    P = MatrixPolynomial(coeffs, dg)
    G = anchor_pencil(P)
    P0, P1, P2, P3, P4 = coeffs
    I, Z = np.eye(n), np.zeros((n, n))
    Yexp = np.block([
        [P3, P2, P1, P0 + P4],
        [-I, Z, Z, I],
        [Z, -I, Z, I],
        [Z, Z, -I, I],
    ])
    Xexp = np.block([
        [P4, Z, Z, Z],
        [Z, I, Z, Z],
        [Z, Z, I, Z],
        [Z, Z, Z, I],
    ])
    assert np.array_equal(G.X, Xexp)
    assert np.array_equal(G.Y, Yexp)


def test_degree_graded_anchor_identity(rng):
    dg = stepped_dg_basis(4)
    coeffs = tuple(rng.uniform(-1, 1, (3, 3)) for _ in range(5))
    P = MatrixPolynomial(coeffs, dg)
    G = anchor_pencil(P)
    e1 = np.zeros((4, 1))
    e1[0] = 1.0
    for lam in sample_points(5):
        lhs = eval_pencil(G, lam) @ _kron_phi(P, lam)
        rhs = np.kron(e1, P.evaluate(lam))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_monomial_as_degree_graded_matches_three_term(rng):
    k, n = 4, 2
    coeffs = tuple(rng.uniform(-1, 1, (n, n)) for _ in range(k + 1))
    P3t = MatrixPolynomial(coeffs, builtin_basis("monomial"))
    Pdg = MatrixPolynomial(coeffs, monomial_dg_basis(k))
    F = anchor_pencil(P3t)
    G = anchor_pencil(Pdg)
    assert np.array_equal(F.X, G.X)
    assert np.array_equal(F.Y, G.Y)


def test_basis_type_dispatch_errors():
    with pytest.raises(ValueError):
        anchor_pencil(MatrixPolynomial((np.eye(2), np.eye(2)), builtin_basis("monomial")))


def test_block_transpose_basics(rng):
    A = rng.uniform(-1, 1, (6, 6))
    assert np.array_equal(block_transpose(A, 1), A.T)
    assert np.array_equal(block_transpose(block_transpose(A, 2), 2), A)
    B = rng.uniform(-1, 1, (6, 4))
    assert block_transpose(B, 2).shape == (4, 6)
    assert np.array_equal(block_transpose(B, 2)[0:2, 2:4], B[2:4, 0:2])
    with pytest.raises(DimensionMismatchError):
        block_transpose(rng.uniform(-1, 1, (5, 5)), 2)


def test_eval_and_reversal(rng):
    P = _cheb3(rng)
    F = anchor_pencil(P)
    assert np.array_equal(eval_pencil(F, 0.0), F.Y)
    assert np.array_equal(eval_pencil(F, 1.0), F.X + F.Y)


def test_reversal_nullvectors_have_first_block_form(rng):
    # with a rank-deficient leading coefficient, the reversal Y*lam + X at 0,
    # which is X, has right nullvectors supported on the first block only
    coeffs = [rng.uniform(-1, 1, (3, 3)) for _ in range(4)]
    coeffs[-1][2] = coeffs[-1][0]
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("chebyshev1"))
    F = anchor_pencil(P)
    _, s, Vh = np.linalg.svd(F.X)
    null = Vh[-1].conj()
    assert s[-1] < 1e-12 * s[0]
    assert np.max(np.abs(null[P.n :])) < 1e-10


def test_pencil_validation():
    with pytest.raises(DimensionMismatchError):
        Pencil(np.eye(4), np.eye(5), n=2, k=2)


def test_sample_points_distinct():
    pts = sample_points(9)
    assert len(set(np.round(pts, 12))) == 9
    assert np.max(np.abs(pts)) <= 1.5


def test_block_transpose_swaps_ansatz_sides(rng):
    from orthopencil import AnsatzFactor, make_m2, verify_membership

    P = _cheb3(rng)
    f = AnsatzFactor(rng.standard_normal(3), rng.standard_normal((6, 4)), "M2")
    L2 = make_m2(P, f)
    swapped = pencil_block_transpose(L2)
    report = verify_membership(swapped, P, side="M1")
    assert report.member
    assert np.allclose(report.v, f.v, atol=1e-10)


def test_anchor_dispatch(rng):
    # one builder for both families: X is diag(c * P_k, I) with c = 1 / alpha_{k-1}
    # for a three-term basis and c = 1 for a (monic) degree-graded one
    P = _cheb3(rng)
    dg = MatrixPolynomial(
        tuple(rng.uniform(-1, 1, (2, 2)) for _ in range(4)), stepped_dg_basis(3)
    )
    for Q, c in ((P, 2.0), (dg, 1.0)):
        F = anchor_pencil(Q)
        expected = np.eye(6)
        expected[:2, :2] = c * Q.coeffs[3]
        assert np.array_equal(F.X, expected)
