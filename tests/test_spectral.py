import numpy as np
import pytest

from orthopencil import (
    AnsatzFactor,
    Eigentriple,
    MatrixPolynomial,
    Pencil,
    RecoveryError,
    SingularPencilError,
    anchor_pencil,
    build_dm,
    build_dm_pencil,
    builtin_basis,
    check_linearization,
    compare_spectra,
    eigenvalue_exclusion,
    eval_pencil,
    exclusion_left,
    identity_factor,
    make_m1,
    make_m2,
    multiplier_matrix,
    pencil_eigen,
    phi_vector,
    recover_left,
    recover_right,
    reference_spectrum,
    spectrum_of,
)
from orthopencil.spectral import GeneralizedEigenResult
from conftest import BASIS_KINDS, random_problem

EPS = np.finfo(float).eps


def _full_rank_factor(rng, k, n, side="M1"):
    while True:
        f = AnsatzFactor(rng.standard_normal(k), rng.standard_normal((k * n, (k - 1) * n)), side)
        if check_linearization(f).is_strong_linearization:
            return f


def test_diagonal_pencil_eigenvalues():
    D = np.diag([1.0, -2.0, 0.5, 3.0])
    L = Pencil(np.eye(4), -D, n=2, k=2)
    triples = pencil_eigen(L)
    got = sorted(t.eigenvalue.real for t in triples)
    assert np.allclose(got, sorted(np.diag(D)))
    assert all(t.residual <= 1e-12 for t in triples)


def test_scalar_monomial_companion_roots():
    # p = lam^2 - 3 lam + 2 = (lam - 1)(lam - 2)
    P = MatrixPolynomial(
        (np.array([[2.0]]), np.array([[-3.0]]), np.array([[1.0]])), builtin_basis("monomial")
    )
    triples = pencil_eigen(anchor_pencil(P))
    got = sorted(t.eigenvalue.real for t in triples)
    assert np.allclose(got, [1.0, 2.0], atol=1e-12)


def test_singular_pencil_is_a_verdict():
    L = Pencil(np.zeros((4, 4)), np.zeros((4, 4)), n=2, k=2)
    with pytest.raises(SingularPencilError):
        pencil_eigen(L)


def test_infinite_count_matches_oracle(rng):
    coeffs = [rng.uniform(-1, 1, (3, 3)) for _ in range(4)]
    coeffs[-1][2] = coeffs[-1][0]  # rank-deficient leading coefficient
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("chebyshev1"))
    spec = reference_spectrum(P)
    assert spec.infinite_count >= 1
    ps = spectrum_of(pencil_eigen(anchor_pencil(P)))
    assert ps.infinite_count == spec.infinite_count
    assert compare_spectra(ps, spec, tol=1e-6).matched


def test_recover_right_scalar_basis_vector():
    P = MatrixPolynomial(
        (np.array([[2.0]]), np.array([[-3.0]]), np.array([[1.0]])), builtin_basis("monomial")
    )
    for t in pencil_eigen(anchor_pencil(P)):
        u = recover_right(P, t.eigenvalue, t.right)
        assert abs(abs(u[0]) - 1.0) < 1e-12
        # the pencil eigenvector itself must be proportional to Phi_k(alpha)
        phi = phi_vector(P.basis, 2, t.eigenvalue)
        ratio = t.right / phi
        assert np.max(np.abs(ratio - ratio[0])) < 1e-10


def test_recover_right_residuals(rng):
    for n in (2, 3, 4):
        P = random_problem(rng, n, 3, "chebyshev1")
        for t in pencil_eigen(anchor_pencil(P)):
            u = recover_right(P, t.eigenvalue, t.right)
            Pa = P.evaluate(t.eigenvalue)
            assert np.linalg.norm(Pa @ u) <= 1e-6 * np.linalg.norm(Pa)


def test_recover_right_infinite(rng):
    coeffs = [rng.uniform(-1, 1, (3, 3)) for _ in range(4)]
    coeffs[-1][:, 0] = 0.0
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("legendre"))
    triples = [t for t in pencil_eigen(anchor_pencil(P)) if t.is_infinite]
    assert triples
    from orthopencil import reversal_monomial

    lead = reversal_monomial(P)[0]
    for t in triples:
        u = recover_right(P, t.eigenvalue, t.right)
        assert np.linalg.norm(lead @ u) <= 1e-8 * max(np.linalg.norm(lead), 1.0)


def test_recover_right_rejects_non_kronecker(rng):
    P = random_problem(rng, 2, 3)
    spec = reference_spectrum(P)
    alpha = spec.finite[0]
    w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    with pytest.raises(RecoveryError):
        recover_right(P, alpha, w)


def test_recover_left_blockwise_sum(rng):
    u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(recover_left(v, u), u[:2])
    # Kronecker-structured left vector: recovery scales y by the inner product
    phi = phi_vector(builtin_basis("chebyshev1"), 3, 0.7)
    y = rng.standard_normal(2)
    u2 = np.kron(phi, y)
    v2 = rng.standard_normal(3)
    expected = (phi @ v2) * y
    assert np.allclose(recover_left(v2, u2), expected)


def test_recover_left_residuals(rng):
    P = random_problem(rng, 3, 3, "legendre")
    f = _full_rank_factor(rng, 3, 3)
    L = make_m1(P, f)
    for t in pencil_eigen(L):
        if t.is_infinite:
            continue
        w = recover_left(f.v, t.left)
        Pa = P.evaluate(t.eigenvalue)
        assert np.linalg.norm(w @ Pa) <= 1e-6 * np.linalg.norm(Pa) * np.linalg.norm(w)
        assert np.linalg.norm(w) > 1e-8


def test_left_recovery_bijective_images(rng):
    # distinct eigenvalues: all kn left eigenvectors map to nonzero left
    # eigenvectors of P
    P = random_problem(rng, 2, 3, "chebyshev1")
    f = _full_rank_factor(rng, 3, 2)
    triples = pencil_eigen(make_m1(P, f))
    values = np.array([t.eigenvalue for t in triples])
    sep = min(
        abs(a - b) for i, a in enumerate(values) for b in values[i + 1 :]
    )
    assert sep > 1e-6
    for t in triples:
        w = recover_left(f.v, t.left)
        assert np.linalg.norm(w) > 1e-6


def test_exclusion_left_anchor_passes(rng):
    P = random_problem(rng, 2, 3)
    report = exclusion_left(P, identity_factor(3, 2))
    assert report.passed and report.rank_full
    assert report.min_margin > 1e-3


def test_exclusion_left_detects_rank_deficiency(rng):
    P = random_problem(rng, 2, 3)
    v = rng.standard_normal(3)
    B = rng.standard_normal((6, 4))
    B[:, 0] = np.kron(v, np.eye(2)[:, 1])
    f = AnsatzFactor(v, B)
    report = exclusion_left(P, f)
    assert not report.passed and not report.rank_full
    assert report.witness is not None
    # the witness annihilates both the multiplier and v kron I
    q = report.witness
    assert np.linalg.norm(q @ multiplier_matrix(f)) <= 1e-8
    assert np.linalg.norm(recover_left(v, q)) <= 1e-8


def test_exclusion_left_m2_dual(rng):
    P = random_problem(rng, 2, 3, "legendre")
    f = _full_rank_factor(rng, 3, 2, side="M2")
    report = exclusion_left(P, f)
    assert report.passed and report.rank_full
    # deficient stacked multiplier: block row 1 of B^B collinear with v^T kron I
    Bbad = f.B.copy()
    E = np.outer(np.eye(2)[:, 0], np.eye(2)[:, 0])
    for i in range(3):
        Bbad[2 * i : 2 * i + 2, 0:2] = f.v[i] * E
    bad = AnsatzFactor(f.v, Bbad, "M2")
    assert not check_linearization(bad).is_strong_linearization
    report2 = exclusion_left(P, bad)
    assert not report2.passed and report2.witness is not None


def test_m2_rank_condition_lives_on_its_own_side(rng):
    # block-transposition does not preserve rank: a factor whose M1-style
    # matrix [v kron I, B] is singular can still parameterize a perfectly
    # good transposed-ansatz linearization, and vice versa
    from orthopencil import side_multiplier

    P = random_problem(rng, 2, 3, "legendre")
    f = _full_rank_factor(rng, 3, 2, side="M2")
    Bbad = f.B.copy()
    Bbad[:, 2] = np.kron(f.v, np.eye(2)[:, 0])
    bad = AnsatzFactor(f.v, Bbad, "M2")
    m1_style = np.linalg.matrix_rank(multiplier_matrix(bad))
    assert m1_style < 6
    chk = check_linearization(bad)
    assert chk.is_strong_linearization  # the stacked multiplier is regular
    assert np.linalg.matrix_rank(side_multiplier(bad)) == 6
    ps = spectrum_of(pencil_eigen(make_m2(P, bad)))
    assert compare_spectra(ps, reference_spectrum(P), tol=1e-6).matched


def test_eigenvector_inclusion_anchor_to_member(rng):
    # every right eigenvector of the anchor is an eigenvector of any member,
    # rank-deficient factors included
    P = random_problem(rng, 2, 3)
    F = anchor_pencil(P)
    v = rng.standard_normal(3)
    B = rng.standard_normal((6, 4))
    B[:, 1] = np.kron(v, np.eye(2)[:, 0])
    L = make_m1(P, AnsatzFactor(v, B))
    for t in pencil_eigen(F):
        if t.is_infinite:
            M = L.X
        else:
            M = eval_pencil(L, t.eigenvalue)
        assert np.linalg.norm(M @ t.right) <= 1e-8 * max(1.0, np.linalg.norm(M))


def test_linearization_iff_shared_eigenvectors(rng):
    P = random_problem(rng, 2, 3)
    F = anchor_pencil(P)
    f = _full_rank_factor(rng, 3, 2)
    L = make_m1(P, f)
    for t in pencil_eigen(L):
        M = F.X if t.is_infinite else eval_pencil(F, t.eigenvalue)
        assert np.linalg.norm(M @ t.right) <= 1e-7 * max(1.0, np.linalg.norm(M))
    # rank-deficient factor: an eigenvector of the member that is not an
    # eigenvector of the anchor exists by construction
    v = rng.standard_normal(3)
    B = rng.standard_normal((6, 4))
    B[:, 3] = np.kron(v, np.eye(2)[:, 1])
    bad = AnsatzFactor(v, B)
    Lbad = make_m1(P, bad)
    null = np.linalg.svd(multiplier_matrix(bad))[2][-1]
    beta = 2.7  # any point away from the spectrum
    z = np.linalg.solve(eval_pencil(F, beta), null.astype(complex))
    assert np.linalg.norm(eval_pencil(Lbad, beta) @ z) <= 1e-8 * np.linalg.norm(z)
    assert np.linalg.norm(eval_pencil(F, beta) @ z) > 1e-3 * np.linalg.norm(z)


def _dyadic_scalar_cheb():
    # p = (lam - 2)(lam - 1/2)(lam + 1); all basis-change arithmetic is dyadic,
    # so the eigenvalue 2 and the constructed violation below are exact
    coeffs = (
        np.array([[0.25]]),
        np.array([[-0.75]]),
        np.array([[-0.75]]),
        np.array([[0.25]]),
    )
    return MatrixPolynomial(coeffs, builtin_basis("chebyshev1"))


def test_eigenvalue_exclusion_constructed_violation():
    P = _dyadic_scalar_cheb()
    v = np.array([0.0, 1.0, -2.0])  # v-polynomial is T_1 - 2 T_0 = lam - 2
    report = eigenvalue_exclusion(P, v)
    assert not report.excluded
    assert report.min_distance <= 1e-10
    chk = check_linearization(build_dm(P, v))
    assert not chk.is_strong_linearization


def test_eigenvalue_exclusion_random_agreement(rng):
    P = random_problem(rng, 2, 3, "chebyshev1")
    for _ in range(25):
        v = rng.standard_normal(3)
        verdict = eigenvalue_exclusion(P, v).excluded
        rank_ok = check_linearization(build_dm(P, v)).is_strong_linearization
        assert verdict == rank_ok


def test_eigenvalue_exclusion_infinity_clause(rng):
    coeffs = [rng.uniform(-1, 1, (2, 2)) for _ in range(4)]
    coeffs[-1][0] = 0.0  # singular leading coefficient: infinite eigenvalues
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("monomial"))
    assert reference_spectrum(P).infinite_count >= 1
    v0 = np.array([0.0, 0.7, 0.3])
    report = eigenvalue_exclusion(P, v0)
    assert not report.excluded  # v_1 = 0 while infinity is an eigenvalue
    v1 = np.array([1.0, 0.7, 0.3])
    report2 = eigenvalue_exclusion(P, v1)
    assert report2.excluded == (report2.min_distance > 1e-8)


def test_eigenvalue_exclusion_rejects_zero_vector(rng):
    P = random_problem(rng, 2, 3)
    with pytest.raises(ValueError):
        eigenvalue_exclusion(P, np.zeros(3))


def test_spectrum_equality_random_members(rng):
    P = random_problem(rng, 2, 3, "legendre")
    ref = reference_spectrum(P)
    for _ in range(3):
        f = _full_rank_factor(rng, 3, 2)
        ps = spectrum_of(pencil_eigen(make_m1(P, f)))
        assert compare_spectra(ps, ref, tol=1e-6).matched


def test_eigentriple_fields(rng):
    P = random_problem(rng, 2, 2)
    t = pencil_eigen(anchor_pencil(P))[0]
    assert isinstance(t, Eigentriple)
    assert abs(np.linalg.norm(t.right) - 1.0) < 1e-12
    assert abs(np.linalg.norm(t.left) - 1.0) < 1e-12
    assert not t.is_infinite


def test_exclusion_left_singular_polynomial_sampled_path(rng):
    # common zero column: P is singular, so even full-rank factors give
    # singular pencils; the verdict then comes from sampled nullvectors
    coeffs = [rng.uniform(-1, 1, (3, 3)) for _ in range(4)]
    for c in coeffs:
        c[:, 1] = 0.0
    coeffs[-1][0, 0] = 1.0
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("chebyshev1"))
    report = exclusion_left(P, identity_factor(3, 3))
    assert report.rank_full
    assert report.passed and report.min_margin > 1e-6
    # a rank-deficient factor on the same singular P fails with a witness
    v = rng.standard_normal(3)
    B = rng.standard_normal((9, 6))
    B[:, 4] = np.kron(v, np.eye(3)[:, 2])
    bad = exclusion_left(P, AnsatzFactor(v, B))
    assert not bad.passed and not bad.rank_full and bad.witness is not None


@pytest.mark.parametrize("kind", BASIS_KINDS)
def test_pencil_eigen_regular_at_large_sizes(kind):
    # the scaled-determinant test flagged these regular pencils as singular:
    # |det| over the row-norm product decays exponentially with kn
    rng = np.random.default_rng(4096)
    for n, k in ((50, 6), (16, 15)):
        P = random_problem(rng, n, k, kind)
        _, dm = build_dm_pencil(P, rng.uniform(-1.0, 1.0, k))
        for L in (anchor_pencil(P), dm):
            triples = pencil_eigen(L, left=False)
            assert len(triples) == k * n
            assert max(t.residual for t in triples) <= 100 * k * n * EPS


def test_singular_verdicts_at_large_size(rng):
    n, k = 40, 5
    coeffs = [rng.uniform(-1, 1, (n, n)) for _ in range(k + 1)]
    for c in coeffs:
        c[:, 3] = 0.0
    zero_column = MatrixPolynomial(tuple(coeffs), builtin_basis("legendre"))
    P = random_problem(rng, n, k, "chebyshev2")
    v = rng.standard_normal(k)
    B = rng.standard_normal((k * n, (k - 1) * n))
    B[:, 7] = np.kron(v, np.eye(n)[:, 2])  # [v kron I, B] loses rank
    for L in (anchor_pencil(zero_column), make_m1(P, AnsatzFactor(v, B))):
        with pytest.raises(SingularPencilError) as exc:
            pencil_eigen(L, left=False)
        assert exc.value.rcond <= 10 * k * n * EPS


def _scaled(P, s):
    return MatrixPolynomial(tuple(s * c for c in P.coeffs), P.basis)


@pytest.mark.parametrize("s", (1e-12, 1e12))
def test_regularity_verdict_ignores_the_scale_of_P(rng, s):
    # the recurrence rows of the anchor pencil stay O(1) while the rows of P
    # scale with s; kn = 240 is checked up to the verdict, kn = 12 solved
    P = random_problem(rng, 4, 3, "chebyshev2")
    triples = pencil_eigen(anchor_pencil(_scaled(P, s)), left=False)
    assert len(triples) == 12
    assert max(t.residual for t in triples) <= 100 * 12 * EPS
    calls = []

    def no_qz(X, Y, left):
        calls.append(X.shape[0])
        raise RuntimeError("regularity test passed")

    with pytest.raises(RuntimeError, match="regularity test passed"):
        pencil_eigen(anchor_pencil(_scaled(random_problem(rng, 40, 6, "legendre"), s)),
                     solver=no_qz, left=False)
    assert calls == [240]
    coeffs = [s * rng.uniform(-1, 1, (40, 40)) for _ in range(7)]
    for c in coeffs:
        c[:, 3] = 0.0
    zero_column = MatrixPolynomial(tuple(coeffs), builtin_basis("legendre"))
    with pytest.raises(SingularPencilError):
        pencil_eigen(anchor_pencil(zero_column), solver=no_qz, left=False)


def test_residuals_match_per_pair_formula(rng):
    # kn = 90 spans two column blocks; the rank-deficient leading
    # coefficient adds infinite eigenvalues
    n, k = 10, 9
    coeffs = [rng.uniform(-1, 1, (n, n)) for _ in range(k + 1)]
    coeffs[-1][:, 0] = 0.0
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("chebyshev1"))
    L = anchor_pencil(P)
    triples = pencil_eigen(L)
    assert any(t.is_infinite for t in triples)
    nx, ny = np.linalg.norm(L.X), np.linalg.norm(L.Y)
    for t in triples:
        if t.is_infinite:
            old = np.linalg.norm(L.X @ t.right) / nx
        else:
            lam = t.eigenvalue
            old = np.linalg.norm((L.X * lam + L.Y) @ t.right) / (nx * abs(lam) + ny)
        assert abs(t.residual - old) <= k * n * EPS


def test_right_only_solve_is_bit_identical(rng):
    for kind in ("monomial", "legendre"):
        L = anchor_pencil(random_problem(rng, 6, 8, kind))
        both = pencil_eigen(L)
        right = pencil_eigen(L, left=False)
        assert [t.eigenvalue for t in right] == [t.eigenvalue for t in both]
        for a, b in zip(right, both):
            assert np.array_equal(a.right, b.right)
            assert a.left is None and b.left is not None


def _fixed_solver(values):
    """A solver that reports the given eigenvalues of a diagonal pencil."""
    values = np.array(values, dtype=complex)

    def solver(X, Y, left):
        finite = np.isfinite(values)
        alpha = np.where(finite, values, 1.0)
        beta = finite.astype(complex)
        vecs = np.eye(values.size, dtype=complex)
        return GeneralizedEigenResult(alpha, beta, vecs, vecs.copy() if left else None)

    return solver


def _regular_pencil(size):
    return Pencil(np.eye(size), np.zeros((size, size)), n=1, k=size)


def test_conjugate_pair_order_ignores_last_bit_noise():
    x, y = 0.3, 1.7
    up = np.nextafter(x, 1.0)
    for plus_re, minus_re in ((x, up), (up, x)):
        solver = _fixed_solver([complex(plus_re, y), complex(minus_re, -y), -2.0])
        triples = pencil_eigen(_regular_pencil(3), solver=solver)
        assert [t.eigenvalue for t in triples] == [
            -2.0, complex(minus_re, -y), complex(plus_re, y)]
        # the eigenvectors travel with their eigenvalues
        assert [int(np.argmax(abs(t.right))) for t in triples] == [2, 1, 0]


def test_conjugate_pair_with_a_real_eigenvalue_between():
    # a real eigenvalue within rounding of the pair's real part joins the
    # pair's group instead of splitting it; near 1 the grouping tolerance is
    # 8 ulps, so x + 9 ulps is only reached through x + 7 ulps
    x, y = 1.0, 1e-3
    ulps = [x]
    for _ in range(9):
        ulps.append(np.nextafter(ulps[-1], 2.0))
    for real, a, b in ((x, ulps[7], ulps[9]), (x, ulps[9], ulps[7]),
                       (ulps[8], x, ulps[9]), (ulps[8], ulps[9], x)):
        solver = _fixed_solver([complex(a, y), complex(real, 0.0), complex(b, -y)])
        got = [t.eigenvalue for t in pencil_eigen(_regular_pencil(3), solver=solver)]
        assert got == [complex(b, -y), complex(real, 0.0), complex(a, y)]


def test_equal_real_parts_keep_report_order():
    values = [1 + 2j, np.inf, 0.5 - 1j, 1.0, 0.5 + 1j, 1 - 2j, 2.0, np.nextafter(2.0, 3.0)]
    triples = pencil_eigen(_regular_pencil(len(values)), solver=_fixed_solver(values))
    got = [t.eigenvalue for t in triples]
    finite = sorted((complex(v) for v in values if np.isfinite(v)),
                    key=lambda z: (z.real, z.imag))
    assert got[:-1] == finite
    assert np.isinf(got[-1])


def test_recover_uses_every_block():
    # recover-deep op "recover/blocksym-M2 chebyshev1 n=8 k=12": reading u
    # from the single largest block left a backward error of 2.7e-12 on a
    # left eigenvector, above 100 * kn * eps = 2.1e-12
    P = random_problem(np.random.default_rng(1616616104), 8, 12, "chebyshev1")
    v = np.array([-0.32359245204972065, -0.14392855808892335, 0.4422038344681012,
                  -0.9370933374078141, -0.8972755604144227, -0.18231299812313306,
                  -0.022939886269559784, 0.28674659278957404, -0.42119525449294115,
                  0.756397300596402, -0.5131338786908735, -0.020625086527533254])
    f, _ = build_dm_pencil(P, v)
    L = make_m2(P, AnsatzFactor(f.v, f.B, "M2"))
    worst = 0.0
    for t in pencil_eigen(L):
        x = recover_right(P, t.eigenvalue, t.left, nullside="left")
        eta = np.linalg.norm(x @ P.evaluate(t.eigenvalue)) / P.evaluation_scale(t.eigenvalue)
        worst = max(worst, eta)
    assert worst <= 100 * P.k * P.n * EPS
