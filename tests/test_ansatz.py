import numpy as np
import pytest

from orthopencil import (
    AnsatzFactor,
    DimensionMismatchError,
    MatrixPolynomial,
    anchor_pencil,
    builtin_basis,
    check_linearization,
    dimension_m,
    eval_pencil,
    identity_factor,
    make_m1,
    make_m2,
    multiplier_matrix,
    pencil_block_transpose,
    phi_vector,
    recover_factors,
    sample_points,
    to_monomial,
    verify_membership,
)
from conftest import BASIS_KINDS, random_problem


def _random_factor(rng, k, n, side="M1"):
    return AnsatzFactor(rng.standard_normal(k), rng.standard_normal((k * n, (k - 1) * n)), side)


def _ansatz_residual(P, L, v, side):
    eye = np.eye(P.n)
    worst = 0.0
    for lam in sample_points(P.k + 1):
        phi = phi_vector(P.basis, P.k, lam)
        if side == "M1":
            lhs = eval_pencil(L, lam) @ np.kron(phi.reshape(-1, 1), eye)
            rhs = np.kron(v.reshape(-1, 1), P.evaluate(lam))
        else:
            lhs = np.kron(phi.reshape(1, -1), eye) @ eval_pencil(L, lam)
            rhs = np.kron(v.reshape(1, -1), P.evaluate(lam))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def test_identity_factor_reproduces_anchor(rng):
    P = random_problem(rng, 2, 3)
    F = anchor_pencil(P)
    L = make_m1(P, identity_factor(3, 2))
    assert np.array_equal(L.X, F.X)
    assert np.array_equal(L.Y, F.Y)


def test_ansatz_identity_random_factors(rng):
    for kind in BASIS_KINDS:
        P = random_problem(rng, 2, 4, kind)
        f = _random_factor(rng, 4, 2)
        L = make_m1(P, f)
        scale = max(np.max(np.abs(c)) for c in P.coeffs) * max(
            np.linalg.norm(phi_vector(P.basis, 4, lam)) for lam in sample_points(5)
        )
        assert _ansatz_residual(P, L, f.v, "M1") <= 1e-10 * scale


def test_m2_identity_and_block_transpose_relation(rng):
    P = random_problem(rng, 2, 3, "legendre")
    f = _random_factor(rng, 3, 2, side="M2")
    L2 = make_m2(P, f)
    assert _ansatz_residual(P, L2, f.v, "M2") <= 1e-10
    f1 = AnsatzFactor(f.v, f.B, "M1")
    L1 = make_m1(P, f1)
    LB = pencil_block_transpose(L1)
    assert np.allclose(L2.X, LB.X, atol=1e-13)
    assert np.allclose(L2.Y, LB.Y, atol=1e-13)


def test_identity_factor_m2(rng):
    P = random_problem(rng, 2, 3)
    L = make_m2(P, identity_factor(3, 2, side="M2"))
    FB = pencil_block_transpose(anchor_pencil(P))
    assert np.allclose(L.X, FB.X) and np.allclose(L.Y, FB.Y)


def test_recover_round_trip(rng):
    for kind in ("chebyshev1", "monomial", "newton"):
        P = random_problem(rng, 3, 4, kind)
        f = _random_factor(rng, 4, 3)
        g = recover_factors(make_m1(P, f), P)
        assert np.max(np.abs(g.v - f.v)) <= 1e-12 * max(1.0, np.max(np.abs(f.v)))
        assert np.max(np.abs(g.B - f.B)) <= 1e-12


def test_recover_round_trip_m2(rng):
    P = random_problem(rng, 2, 3)
    f = _random_factor(rng, 3, 2, side="M2")
    g = recover_factors(make_m2(P, f), P, side="M2")
    assert np.allclose(g.v, f.v, atol=1e-12)
    assert np.allclose(g.B, f.B, atol=1e-12)


def test_recover_anchor_gives_unit_vector(rng):
    P = random_problem(rng, 2, 4)
    f = recover_factors(anchor_pencil(P), P)
    assert np.allclose(f.v, np.eye(4)[0], atol=1e-14)
    expected_B = np.vstack([np.zeros((2, 6)), np.eye(6)])
    assert np.array_equal(f.B, expected_B)


def test_recover_robust_to_zero_entries_in_leading_coefficient(rng):
    coeffs = [rng.uniform(-1, 1, (3, 3)) for _ in range(4)]
    coeffs[-1][0, :] = 0.0  # zero first row, P_k still nonzero
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("chebyshev1"))
    f = _random_factor(rng, 3, 3)
    g = recover_factors(make_m1(P, f), P)
    assert np.allclose(g.v, f.v, atol=1e-11)


def test_verify_membership_anchor(rng):
    P = random_problem(rng, 2, 3)
    F = anchor_pencil(P)
    report = verify_membership(F, P)
    assert report.member and report.residual <= 1e-12
    assert np.allclose(report.v, [1.0, 0.0, 0.0], atol=1e-13)


def test_verify_membership_detects_perturbation(rng):
    P = random_problem(rng, 2, 3)
    F = anchor_pencil(P)
    Y = F.Y.copy()
    Y[3, 1] += 1.0
    broken = type(F)(F.X, Y, F.n, F.k)
    assert not verify_membership(broken, P).member


def test_verify_membership_m2(rng):
    P = random_problem(rng, 2, 3)
    f = _random_factor(rng, 3, 2, side="M2")
    report = verify_membership(make_m2(P, f), P, side="M2")
    assert report.member
    assert np.allclose(report.v, f.v, atol=1e-10)


@pytest.mark.parametrize("kind", ("monomial", "chebyshev1", "legendre"))
def test_verify_membership_anchor_of_a_power(kind):
    # P(x) = x^k I_2 vanishes at the sample point next to 0 that k + 1
    # Chebyshev points have for even k; the residual's scale must not
    # vanish with it
    basis = builtin_basis(kind)
    for k in range(2, 7):
        c = np.linalg.solve(to_monomial(basis, k).T, np.eye(k + 1)[k])
        P = MatrixPolynomial(tuple(ci * np.eye(2) for ci in c), basis)
        F = anchor_pencil(P)
        assert verify_membership(F, P, side="M1").member
        assert verify_membership(pencil_block_transpose(F), P, side="M2").member


def test_check_linearization_identity_and_zero():
    f = identity_factor(3, 2)
    chk = check_linearization(f)
    assert chk.is_strong_linearization and chk.rank == 6 and chk.deficiency == 0
    zero = AnsatzFactor(np.zeros(3), np.zeros((6, 4)))
    chk0 = check_linearization(zero)
    assert chk0.rank == 0 and chk0.deficiency == 6


def test_check_linearization_anti_triangular_case(rng):
    # with v = e_3 the multiplier is block-anti-triangular and its rank is
    # controlled by the leading coefficient
    from orthopencil import build_dm

    coeffs = [rng.uniform(-1, 1, (2, 2)) for _ in range(4)]
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("chebyshev1"))
    e3 = np.eye(3)[2]
    assert check_linearization(build_dm(P, e3)).is_strong_linearization

    coeffs[-1] = np.outer([1.0, 2.0], [0.5, -1.0])  # rank one
    Psing = MatrixPolynomial(tuple(coeffs), builtin_basis("chebyshev1"))
    chk = check_linearization(build_dm(Psing, e3))
    assert not chk.is_strong_linearization
    assert chk.deficiency >= 1


def test_dimension_formula():
    assert dimension_m(3, 2) == 27
    assert dimension_m(2, 1) == 4
    assert dimension_m(4, 2) == 52
    with pytest.raises(ValueError):
        dimension_m(1, 1)


def _generator_rank(P):
    k, n = P.k, P.n
    columns = []
    for i in range(k):
        f = AnsatzFactor(np.eye(k)[i], np.zeros((k * n, (k - 1) * n)))
        L = make_m1(P, f)
        columns.append(np.concatenate([L.X.ravel(), L.Y.ravel()]))
    for s in range(k * n):
        for t in range((k - 1) * n):
            B = np.zeros((k * n, (k - 1) * n))
            B[s, t] = 1.0
            L = make_m1(P, AnsatzFactor(np.zeros(k), B))
            columns.append(np.concatenate([L.X.ravel(), L.Y.ravel()]))
    return np.linalg.matrix_rank(np.column_stack(columns))


def test_empirical_dimension_matches_formula(rng):
    for (k, n) in [(2, 1), (3, 2)]:
        P = random_problem(rng, n, k, "chebyshev1")
        assert _generator_rank(P) == dimension_m(k, n)


def test_genericity_of_full_rank_factors(rng):
    P = random_problem(rng, 2, 3)
    passes = sum(
        check_linearization(_random_factor(rng, 3, 2)).is_strong_linearization
        for _ in range(200)
    )
    assert passes == 200


def test_rank_deficient_factor_gives_singular_pencil(rng):
    P = random_problem(rng, 2, 3)
    v = rng.standard_normal(3)
    B = rng.standard_normal((6, 4))
    B[:, 1] = np.kron(v, np.eye(2)[:, 0])  # collinear with a column of v kron I
    f = AnsatzFactor(v, B)
    assert not check_linearization(f).is_strong_linearization
    L = make_m1(P, f)
    for lam in rng.uniform(-2, 2, 10):
        M = eval_pencil(L, lam)
        scale = float(np.prod(np.linalg.norm(M, axis=1)))
        assert abs(np.linalg.det(M)) <= 1e-10 * scale


def test_dimension_mismatch_errors(rng):
    P = random_problem(rng, 2, 3)
    f = _random_factor(rng, 4, 2)
    with pytest.raises(DimensionMismatchError):
        make_m1(P, f)
    with pytest.raises(ValueError):
        make_m2(P, AnsatzFactor(f.v, f.B, "M1"))
    with pytest.raises(DimensionMismatchError):
        AnsatzFactor(np.ones(3), np.ones((6, 5)))


def test_multiplier_matrix_layout(rng):
    f = identity_factor(3, 2)
    assert np.array_equal(multiplier_matrix(f), np.eye(6))
    g = _random_factor(rng, 3, 2)
    M = multiplier_matrix(g)
    assert np.array_equal(M[:, 2:], g.B)
    assert np.array_equal(M[0:2, 0:2], g.v[0] * np.eye(2))
