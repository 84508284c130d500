import numpy as np
import pytest

from orthopencil import (
    AnsatzFactor,
    MatrixPolynomial,
    OpCounter,
    anchor_pencil,
    build_dm,
    build_dm_generic,
    build_dm_pencil,
    builtin_basis,
    dm_basis,
    eval_pencil,
    is_block_symmetric,
    make_m1,
    multiplier_matrix,
    recover_factors,
    verify_membership,
)
from conftest import BASIS_KINDS, monomial_dg_basis, random_problem, stepped_dg_basis


def _cheb_problem(rng, n=2, k=3):
    coeffs = tuple(rng.integers(-4, 5, (n, n)).astype(float) for _ in range(k + 1))
    if np.max(np.abs(coeffs[-1])) == 0.0:
        return _cheb_problem(rng, n, k)
    return MatrixPolynomial(coeffs, builtin_basis("chebyshev1"))


def test_chebyshev_unit_vector_golden(rng):
    P = _cheb_problem(rng)
    P0, P1, P2, P3 = P.coeffs
    I, Z = np.eye(2), np.zeros((2, 2))
    expected = {
        0: np.block([[I, Z, Z], [Z, 2 * (P3 - P1), -2 * P0], [Z, -2 * P0, P3 - P1]]),
        1: np.block([[Z, 2 * P3, Z], [I, 2 * P2, 2 * P3], [Z, 2 * P3, P2 - P0]]),
        2: np.block([[Z, Z, 2 * P3], [Z, 4 * P3, 2 * P2], [I, 2 * P2, P3 + P1]]),
    }
    for j, M in expected.items():
        f = build_dm(P, np.eye(3)[j])
        assert np.array_equal(multiplier_matrix(f), M)


def test_closed_form_matches_generic_solver(rng):
    for kind in BASIS_KINDS + ("newton", "custom"):
        for k in (2, 3, 4, 6):
            nodes = rng.uniform(-1, 1, k + 1) if kind == "newton" else None
            P = random_problem(rng, 2, k, kind, nodes=nodes)
            v = rng.standard_normal(k)
            closed = build_dm(P, v)
            generic = build_dm_generic(P, v)
            scale = max(np.max(np.abs(closed.B)), 1.0)
            assert np.max(np.abs(closed.B - generic.B)) <= 1e-11 * scale
            # the pencil builder (generic solver) against the closed form's pencil
            _, L = build_dm_pencil(P, v)
            ref = make_m1(P, closed)
            for got, want in ((L.X, ref.X), (L.Y, ref.Y)):
                scale = max(np.max(np.abs(want)), 1.0)
                assert np.max(np.abs(got - want)) <= 1e-11 * scale


def test_degree_graded_example_formulas(rng):
    dg = stepped_dg_basis(4)
    coeffs = tuple(rng.uniform(-1, 1, (2, 2)) for _ in range(5))
    P = MatrixPolynomial(coeffs, dg)
    v = rng.uniform(-1, 1, 4)
    f = build_dm_generic(P, v)
    n = 2
    B = f.B
    blk = lambda i, j: B[(i - 1) * n : i * n, (j - 1) * n : j * n]
    P0, P1, P2, P3, P4 = coeffs
    B21 = -v[0] * P2 + v[2] * P4 + v[1] * P3
    B31 = -v[0] * P1 + v[3] * P4 + v[2] * P3
    B41 = -v[0] * (P0 + P4) - v[1] * P4 - v[2] * P4 - v[3] * P4 + v[3] * P3
    B32 = -v[1] * P1 + v[2] * P2 + B41
    B42 = -v[1] * (P0 + P4) - B21 - B31 - B41 + v[3] * P2
    B43 = -v[2] * (P0 + P4) - B31 - B32 - B42 + v[3] * P1
    for (i, j), expected in {
        (2, 1): B21, (3, 1): B31, (4, 1): B41,
        (3, 2): B32, (4, 2): B42, (4, 3): B43,
        (2, 2): B31, (2, 3): B41, (3, 3): B42,
    }.items():
        assert np.allclose(blk(i, j), expected, atol=1e-12)
    assert np.array_equal(blk(1, 1), v[1] * P4)
    assert np.array_equal(blk(1, 3), v[3] * P4)


def test_monomial_agrees_across_basis_families(rng):
    k, n = 4, 2
    coeffs = tuple(rng.uniform(-1, 1, (n, n)) for _ in range(k + 1))
    v = rng.standard_normal(k)
    f3t = build_dm(MatrixPolynomial(coeffs, builtin_basis("monomial")), v)
    fdg = build_dm_generic(MatrixPolynomial(coeffs, monomial_dg_basis(k)), v)
    assert np.allclose(f3t.B, fdg.B, atol=1e-12)


def test_recurrence_consistent_on_grid_diagonal(rng):
    # the column recurrence also holds for the aliased diagonal blocks i == j
    P = random_problem(rng, 2, 5, "chebyshev1")
    v = rng.standard_normal(5)
    f = build_dm(P, v)
    k, n = 5, 2
    B = np.zeros((k + 1, k, n, n))
    for i in range(1, k + 1):
        for j in range(1, k):
            B[i, j] = f.B[(i - 1) * n : i * n, (j - 1) * n : j * n]
    recur = [P.basis.recurrence(j) for j in range(k)]
    a = lambda j: recur[j][0] if j >= 0 else 0.0
    b = lambda j: recur[j][1] if j >= 0 else 0.0
    g = lambda j: recur[j][2] if j >= 0 else 0.0
    for j in range(3, k):
        i = j
        acc = g(k - i + 1) * B[i - 1, j - 1] + (b(k - i) - b(k - j)) * B[i, j - 1]
        acc = acc + a(k - i - 1) * B[i + 1, j - 1] - g(k - j + 1) * B[i, j - 2]
        acc = acc + v[i - 1] * P.coeffs[k - j] - v[j - 1] * P.coeffs[k - i]
        assert np.allclose(B[i, j], acc / a(k - j - 1), atol=1e-10)


def test_pencil_is_exactly_block_symmetric(rng):
    for kind in ("chebyshev1", "legendre"):
        P = random_problem(rng, 3, 4, kind)
        v = rng.standard_normal(4)
        factor, L = build_dm_pencil(P, v)
        report = is_block_symmetric(L)
        assert report.symmetric and report.max_asymmetry == 0.0
        direct = make_m1(P, factor)
        scale = max(np.max(np.abs(direct.Y)), 1.0)
        assert np.max(np.abs(L.Y - direct.Y)) <= 1e-12 * scale
        assert np.array_equal(L.X, direct.X)


def test_degree_graded_pencil_block_symmetric(rng):
    dg = stepped_dg_basis(4)
    P = MatrixPolynomial(tuple(rng.uniform(-1, 1, (2, 2)) for _ in range(5)), dg)
    _, L = build_dm_pencil(P, rng.standard_normal(4))
    assert is_block_symmetric(L).symmetric


def test_double_membership_and_factor_relation(rng):
    # the same pencil is a member on both sides with equal v, and the M2
    # factor recovered from it carries the same free block
    P = random_problem(rng, 2, 4, "chebyshev2")
    v = rng.standard_normal(4)
    factor, L = build_dm_pencil(P, v)
    m1 = verify_membership(L, P, side="M1")
    m2 = verify_membership(L, P, side="M2")
    assert m1.member and m2.member
    assert np.allclose(m1.v, m2.v, atol=1e-12)
    f2 = recover_factors(L, P, side="M2")
    assert np.allclose(f2.v, factor.v, atol=1e-12)
    assert np.allclose(f2.B, factor.B, atol=1e-12)


def test_anchor_is_not_block_symmetric(rng):
    P = random_problem(rng, 2, 3)
    assert not is_block_symmetric(anchor_pencil(P), tol=1e-12).symmetric


def test_scalar_case_coincides_with_matrix_symmetry(rng):
    P = random_problem(rng, 1, 4)
    _, L = build_dm_pencil(P, rng.standard_normal(4))
    assert np.array_equal(L.X, L.X.T)
    assert np.array_equal(L.Y, L.Y.T)


def test_dm_basis_linearity(rng):
    P = random_problem(rng, 2, 3)
    basis_factors = dm_basis(P)
    assert len(basis_factors) == 3
    v = np.array([2.0, 1.0, 0.0])
    combo = build_dm(P, v)
    stacked = 2.0 * basis_factors[0].B + 1.0 * basis_factors[1].B
    assert np.allclose(combo.B, stacked, atol=1e-12)


def test_dm_dimension_is_k(rng):
    for k in (2, 3, 4, 5):
        P = random_problem(rng, 2, k)
        vecs = []
        for f in dm_basis(P):
            L = make_m1(P, f)
            vecs.append(np.concatenate([L.X.ravel(), L.Y.ravel()]))
        assert np.linalg.matrix_rank(np.column_stack(vecs)) == k


def test_differences_are_block_symmetric_never_skew(rng):
    P = random_problem(rng, 2, 4)
    v = rng.standard_normal(4)
    w = rng.standard_normal(4)
    _, Lv = build_dm_pencil(P, v)
    _, Lw = build_dm_pencil(P, w)
    diff = type(Lv)(Lv.X - Lw.X, Lv.Y - Lw.Y, Lv.n, Lv.k)
    assert is_block_symmetric(diff).symmetric
    assert np.max(np.abs(diff.X)) > 1e-8  # nonzero, hence not skew-symmetric


def test_uniqueness_rederive_and_perturb(rng):
    P = random_problem(rng, 2, 3)
    v = rng.standard_normal(3)
    f1 = build_dm(P, v)
    f2 = build_dm(P, v)
    assert np.array_equal(f1.B, f2.B)
    # re-derive from the pencil: recovered v regenerates the same B
    _, L = build_dm_pencil(P, v)
    rec = recover_factors(L, P)
    f3 = build_dm(P, rec.v)
    assert np.allclose(f3.B, f1.B, atol=1e-10)
    # perturbing a single block breaks block-symmetry (membership survives by
    # construction, so symmetry is what pins uniqueness)
    Bbad = f1.B.copy()
    Bbad[2:4, 0:2] += 0.37
    Lbad = make_m1(P, AnsatzFactor(v, Bbad))
    assert verify_membership(Lbad, P).member
    assert not is_block_symmetric(Lbad, tol=1e-10).symmetric


def test_singular_polynomial_gives_singular_dm_pencils(rng):
    coeffs = [rng.uniform(-1, 1, (3, 3)) for _ in range(4)]
    for c in coeffs:
        c[:, 0] = 0.0
    coeffs[-1][1, 1] = 1.0
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("chebyshev1"))
    for f in dm_basis(P):
        L = make_m1(P, f)
        for lam in rng.uniform(-2, 2, 10):
            M = eval_pencil(L, lam)
            scale = max(float(np.prod(np.linalg.norm(M, axis=1))), 1e-300)
            assert abs(np.linalg.det(M)) <= 1e-8 * scale


def test_operation_count_is_quadratic_in_k(rng):
    for k in (3, 5, 8):
        P = random_problem(rng, 2, k, "chebyshev1")
        counter = OpCounter()
        build_dm(P, rng.standard_normal(k), counter=counter)
        assert counter.scalar_matrix_mults <= 8 * k * k + 10
        counter2 = OpCounter()
        build_dm_generic(P, rng.standard_normal(k), counter=counter2)
        assert counter2.scalar_matrix_mults <= 12 * k * k + 10


def test_dispatch_errors(rng):
    dg = MatrixPolynomial(
        tuple(rng.uniform(-1, 1, (2, 2)) for _ in range(4)), stepped_dg_basis(3)
    )
    with pytest.raises(TypeError):
        build_dm(dg, np.ones(3))
    linear = MatrixPolynomial((np.eye(2), np.eye(2)), builtin_basis("monomial"))
    with pytest.raises(ValueError):
        build_dm(linear, np.ones(1))
    with pytest.raises(ValueError):
        build_dm_generic(linear, np.ones(1))
