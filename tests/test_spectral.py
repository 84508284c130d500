import numpy as np
import pytest

from orthopencil import (
    AnsatzFactor,
    Eigentriple,
    MatrixPolynomial,
    RecoveryError,
    SingularPencilError,
    anchor_pencil,
    build_dm,
    build_dm_pencil,
    builtin_basis,
    check_linearization,
    eigenvalue_exclusion,
    eval_pencil,
    identity_factor,
    make_m1,
    make_m2,
    multiplier_matrix,
    pencil_eigen,
    phi_vector,
    recover_left,
    recover_right,
    reference_spectrum,
    side_multiplier,
    spectrum_of,
)
from orthopencil import spectral
from orthopencil.matpoly import sampled_regularity
from orthopencil.spectral import GeneralizedEigenResult
from spectra import compare_spectra
from conftest import BASIS_KINDS, random_problem

EPS = np.finfo(float).eps


def _full_rank_factor(rng, k, n, side="M1"):
    while True:
        f = AnsatzFactor(rng.standard_normal(k), rng.standard_normal((k * n, (k - 1) * n)), side)
        if check_linearization(f).is_strong_linearization:
            return f


def test_diagonal_pencil_eigenvalues():
    # P = diag((lam - 1)(lam + 2), (lam - 1/2)(lam - 3))
    P = MatrixPolynomial((np.diag([-2.0, 1.5]), np.diag([1.0, -3.5]), np.eye(2)),
                         builtin_basis("monomial"))
    triples = pencil_eigen(anchor_pencil(P), P)
    got = sorted(t.eigenvalue.real for t in triples)
    assert np.allclose(got, [-2.0, 0.5, 1.0, 3.0])
    assert all(t.residual <= 1e-12 for t in triples)


def test_scalar_monomial_companion_roots():
    # p = lam^2 - 3 lam + 2 = (lam - 1)(lam - 2)
    P = MatrixPolynomial(
        (np.array([[2.0]]), np.array([[-3.0]]), np.array([[1.0]])), builtin_basis("monomial")
    )
    triples = pencil_eigen(anchor_pencil(P), P)
    got = sorted(t.eigenvalue.real for t in triples)
    assert np.allclose(got, [1.0, 2.0], atol=1e-12)


def test_singular_pencil_is_a_verdict():
    # P = (1 + lam + lam^2) e_1 e_1^T vanishes in its second row and column
    E = np.diag([1.0, 0.0])
    P = MatrixPolynomial((E, E, E), builtin_basis("monomial"))
    with pytest.raises(SingularPencilError):
        pencil_eigen(anchor_pencil(P), P)


def test_infinite_count_matches_oracle(rng):
    coeffs = [rng.uniform(-1, 1, (3, 3)) for _ in range(4)]
    coeffs[-1][2] = coeffs[-1][0]  # rank-deficient leading coefficient
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("chebyshev1"))
    spec = reference_spectrum(P)
    assert spec.infinite_count >= 1
    ps = spectrum_of(pencil_eigen(anchor_pencil(P), P))
    assert ps.infinite_count == spec.infinite_count
    assert compare_spectra(ps, spec, tol=1e-6).matched


def test_recover_right_scalar_basis_vector():
    P = MatrixPolynomial(
        (np.array([[2.0]]), np.array([[-3.0]]), np.array([[1.0]])), builtin_basis("monomial")
    )
    for t in pencil_eigen(anchor_pencil(P), P):
        u = recover_right(P, t.eigenvalue, t.right)
        assert abs(abs(u[0]) - 1.0) < 1e-12
        # the pencil eigenvector itself must be proportional to Phi_k(alpha)
        phi = phi_vector(P.basis, 2, t.eigenvalue)
        ratio = t.right / phi
        assert np.max(np.abs(ratio - ratio[0])) < 1e-10


def test_recover_right_residuals(rng):
    for n in (2, 3, 4):
        P = random_problem(rng, n, 3, "chebyshev1")
        for t in pencil_eigen(anchor_pencil(P), P):
            u = recover_right(P, t.eigenvalue, t.right)
            Pa = P.evaluate(t.eigenvalue)
            assert np.linalg.norm(Pa @ u) <= 1e-6 * np.linalg.norm(Pa)


def test_recover_right_infinite(rng):
    coeffs = [rng.uniform(-1, 1, (3, 3)) for _ in range(4)]
    coeffs[-1][:, 0] = 0.0
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("legendre"))
    triples = [t for t in pencil_eigen(anchor_pencil(P), P) if t.is_infinite]
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
    for t in pencil_eigen(L, P, f):
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
    triples = pencil_eigen(make_m1(P, f), P, f)
    values = np.array([t.eigenvalue for t in triples])
    sep = min(
        abs(a - b) for i, a in enumerate(values) for b in values[i + 1 :]
    )
    assert sep > 1e-6
    for t in triples:
        w = recover_left(f.v, t.left)
        assert np.linalg.norm(w) > 1e-6


def _exclusion_margins(P, f):
    """||(v kron I_n)^T w|| for the unit left eigenvectors w of the M1 pencil
    of f (right ones for M2), solved through P's anchor.  The pencil is a
    strong linearization iff none is zero."""
    L = make_m1(P, f) if f.side == "M1" else make_m2(P, f)
    vecs = np.stack([t.left if f.side == "M1" else t.right for t in pencil_eigen(L, P, f)], axis=1)
    return np.linalg.norm(recover_left(f.v, vecs), axis=0)


def _assert_singular_with_witness(P, f):
    """The rank test refuses f, pencil_eigen finds its pencil singular, and a
    null vector q of the side multiplier (left for M1, right for M2)
    annihilates v kron I_n and the pencil at every point."""
    assert not check_linearization(f).is_strong_linearization
    L = make_m1(P, f) if f.side == "M1" else make_m2(P, f)
    with pytest.raises(SingularPencilError):
        pencil_eigen(L, P, f)
    A = side_multiplier(f)
    if f.side == "M1":
        q = np.linalg.svd(A)[0][:, -1]
        assert np.linalg.norm(q @ A) <= 1e-8
        assert np.linalg.norm(q @ eval_pencil(L, 0.7 + 0.2j)) <= 1e-8 * np.linalg.norm(L.Y)
    else:
        q = np.linalg.svd(A)[2][-1]
        assert np.linalg.norm(A @ q) <= 1e-8
        assert np.linalg.norm(eval_pencil(L, 0.7 + 0.2j) @ q) <= 1e-8 * np.linalg.norm(L.Y)
    assert np.linalg.norm(recover_left(f.v, q)) <= 1e-8


def test_exclusion_left_anchor_passes(rng):
    P = random_problem(rng, 2, 3)
    f = identity_factor(3, 2)
    assert check_linearization(f).is_strong_linearization
    assert _exclusion_margins(P, f).min() > 1e-3


def test_exclusion_left_detects_rank_deficiency(rng):
    P = random_problem(rng, 2, 3)
    v = rng.standard_normal(3)
    B = rng.standard_normal((6, 4))
    B[:, 0] = np.kron(v, np.eye(2)[:, 1])
    _assert_singular_with_witness(P, AnsatzFactor(v, B))


def test_exclusion_left_m2_dual(rng):
    P = random_problem(rng, 2, 3, "legendre")
    f = _full_rank_factor(rng, 3, 2, side="M2")
    assert check_linearization(f).is_strong_linearization
    assert _exclusion_margins(P, f).min() > 1e-8
    # deficient stacked multiplier: block row 1 of B^B collinear with v^T kron I
    Bbad = f.B.copy()
    E = np.outer(np.eye(2)[:, 0], np.eye(2)[:, 0])
    for i in range(3):
        Bbad[2 * i : 2 * i + 2, 0:2] = f.v[i] * E
    _assert_singular_with_witness(P, AnsatzFactor(f.v, Bbad, "M2"))


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
    ps = spectrum_of(pencil_eigen(make_m2(P, bad), P, bad))
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
    for t in pencil_eigen(F, P):
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
    for t in pencil_eigen(L, P, f):
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


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_eigenvalue_exclusion_rejects_non_finite_v(rng, bad):
    P = random_problem(rng, 2, 3)
    with pytest.raises(ValueError, match="must be finite"):
        eigenvalue_exclusion(P, np.array([bad, 1.0, 1.0]))


def test_spectrum_equality_random_members(rng):
    P = random_problem(rng, 2, 3, "legendre")
    ref = reference_spectrum(P)
    for _ in range(3):
        f = _full_rank_factor(rng, 3, 2)
        ps = spectrum_of(pencil_eigen(make_m1(P, f), P, f))
        assert compare_spectra(ps, ref, tol=1e-6).matched


def test_eigentriple_fields(rng):
    P = random_problem(rng, 2, 2)
    t = pencil_eigen(anchor_pencil(P), P)[0]
    assert isinstance(t, Eigentriple)
    assert abs(np.linalg.norm(t.right) - 1.0) < 1e-12
    assert abs(np.linalg.norm(t.left) - 1.0) < 1e-12
    assert not t.is_infinite


def test_exclusion_left_singular_polynomial_sampled_path(rng):
    # common zero column: P is singular, so even full-rank factors give
    # singular pencils; P_k is singular too, so the sampled regularity test
    # gives the verdict
    coeffs = [rng.uniform(-1, 1, (3, 3)) for _ in range(4)]
    for c in coeffs:
        c[:, 1] = 0.0
    coeffs[-1][0, 0] = 1.0
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("chebyshev1"))
    f = identity_factor(3, 3)
    assert check_linearization(f).is_strong_linearization
    with pytest.raises(SingularPencilError) as exc:
        pencil_eigen(make_m1(P, f), P, f)
    assert exc.value.rcond <= 10 * 9 * EPS
    # a rank-deficient factor on the same singular P has a witness
    v = rng.standard_normal(3)
    B = rng.standard_normal((9, 6))
    B[:, 4] = np.kron(v, np.eye(3)[:, 2])
    _assert_singular_with_witness(P, AnsatzFactor(v, B))


@pytest.mark.parametrize("kind", BASIS_KINDS)
def test_pencil_eigen_regular_at_large_sizes(kind):
    # the scaled-determinant test flagged these regular pencils as singular:
    # |det| over the row-norm product decays exponentially with kn; the
    # sampled test that pencil_eigen falls back on does not
    rng = np.random.default_rng(4096)
    for n, k in ((50, 6), (16, 15)):
        P = random_problem(rng, n, k, kind)
        f, dm = build_dm_pencil(P, rng.uniform(-1.0, 1.0, k))
        for L, factor in ((anchor_pencil(P), None), (dm, f)):
            assert sampled_regularity(lambda lam: eval_pencil(L, lam), k * n, rng).regular
            triples = pencil_eigen(L, P, factor, left=False)
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
    f = AnsatzFactor(v, B)
    for L, Q, factor in ((anchor_pencil(zero_column), zero_column, None),
                         (make_m1(P, f), P, f)):
        with pytest.raises(SingularPencilError) as exc:
            pencil_eigen(L, Q, factor, left=False)
        assert exc.value.rcond <= 10 * k * n * EPS


def _scaled(P, s):
    return MatrixPolynomial(tuple(s * c for c in P.coeffs), P.basis)


@pytest.mark.parametrize("s", (1e-12, 1e12))
def test_regularity_verdict_ignores_the_scale_of_P(rng, monkeypatch, s):
    # the recurrence rows of the anchor pencil stay O(1) while the rows of P
    # scale with s; kn = 240 is checked up to the verdict, kn = 12 solved
    P = _scaled(random_problem(rng, 4, 3, "chebyshev2"), s)
    triples = pencil_eigen(anchor_pencil(P), P, left=False)
    assert len(triples) == 12
    assert max(t.residual for t in triples) <= 100 * 12 * EPS
    calls = []

    def no_qz(X, Y, left, anchor, **kwargs):
        calls.append(X.shape[0])
        raise RuntimeError("regularity test passed")

    monkeypatch.setattr(spectral, "qz_solve", no_qz)
    P = _scaled(random_problem(rng, 40, 6, "legendre"), s)
    F = anchor_pencil(P)
    # the gate on c*P_k passes, and so does the sampled test it falls back on
    assert sampled_regularity(lambda lam: eval_pencil(F, lam), 240, rng).regular
    with pytest.raises(RuntimeError, match="regularity test passed"):
        pencil_eigen(F, P, left=False)
    assert calls == [240]
    coeffs = [s * rng.uniform(-1, 1, (40, 40)) for _ in range(7)]
    for c in coeffs:
        c[:, 3] = 0.0
    zero_column = MatrixPolynomial(tuple(coeffs), builtin_basis("legendre"))
    with pytest.raises(SingularPencilError):
        pencil_eigen(anchor_pencil(zero_column), zero_column, left=False)


def test_residuals_match_per_pair_formula(rng):
    # kn = 90 spans two column blocks; the rank-deficient leading
    # coefficient adds infinite eigenvalues
    n, k = 10, 9
    coeffs = [rng.uniform(-1, 1, (n, n)) for _ in range(k + 1)]
    coeffs[-1][:, 0] = 0.0
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("chebyshev1"))
    L = anchor_pencil(P)
    triples = pencil_eigen(L, P)
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
    # the eigenvalues bit for bit, by geev (numpy's without left vectors,
    # scipy's with them) and, for the ill-conditioned lead, by QZ on the anchor
    q1, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    lead = q1 @ np.diag(np.logspace(0.0, -5.0, 6)) @ q1.T
    ill = random_problem(rng, 6, 8, "chebyshev1")
    ill = MatrixPolynomial(ill.coeffs[:-1] + (lead,), ill.basis)
    for P in (random_problem(rng, 6, 8, "monomial"), random_problem(rng, 6, 8, "legendre"), ill):
        L = anchor_pencil(P)
        both = pencil_eigen(L, P)
        right = pencil_eigen(L, P, left=False)
        assert [t.eigenvalue for t in right] == [t.eigenvalue for t in both]
        for a, b in zip(right, both):
            assert np.linalg.norm(a.right - b.right) <= 48 * EPS
            assert abs(a.residual - b.residual) <= 48 * EPS
            assert a.left is None and b.left is not None


def _fixed_solve(monkeypatch, values):
    """pencil_eigen of a scalar polynomial of degree len(values) whose solve
    (spectral.qz_solve) reports the given eigenvalues, in that order, the
    j-th with eigenvector e_j."""
    values = np.array(values, dtype=complex)
    finite = np.isfinite(values)

    def solve(X, Y, left, anchor, **kwargs):
        vecs = np.eye(values.size, dtype=complex)
        return GeneralizedEigenResult(np.where(finite, values, 1.0), finite.astype(complex), vecs,
                                      vecs.copy() if left else None,
                                      residual=np.zeros(values.size))

    monkeypatch.setattr(spectral, "qz_solve", solve)
    P = MatrixPolynomial(tuple(np.ones((1, 1)) for _ in range(values.size + 1)),
                         builtin_basis("monomial"))
    return pencil_eigen(anchor_pencil(P), P)


def test_conjugate_pair_order_ignores_last_bit_noise(monkeypatch):
    x, y = 0.3, 1.7
    up = np.nextafter(x, 1.0)
    for plus_re, minus_re in ((x, up), (up, x)):
        triples = _fixed_solve(monkeypatch, [complex(plus_re, y), complex(minus_re, -y), -2.0])
        assert [t.eigenvalue for t in triples] == [
            -2.0, complex(minus_re, -y), complex(plus_re, y)]
        # the eigenvectors travel with their eigenvalues
        assert [int(np.argmax(abs(t.right))) for t in triples] == [2, 1, 0]


def test_conjugate_pair_with_a_real_eigenvalue_between(monkeypatch):
    # a real eigenvalue within rounding of the pair's real part joins the
    # pair's group instead of splitting it; near 1 the grouping tolerance is
    # 8 ulps, so x + 9 ulps is only reached through x + 7 ulps
    x, y = 1.0, 1e-3
    ulps = [x]
    for _ in range(9):
        ulps.append(np.nextafter(ulps[-1], 2.0))
    for real, a, b in ((x, ulps[7], ulps[9]), (x, ulps[9], ulps[7]),
                       (ulps[8], x, ulps[9]), (ulps[8], ulps[9], x)):
        triples = _fixed_solve(monkeypatch, [complex(a, y), complex(real, 0.0), complex(b, -y)])
        assert [t.eigenvalue for t in triples] == [complex(b, -y), complex(real, 0.0), complex(a, y)]


def test_equal_real_parts_keep_report_order(monkeypatch):
    values = [1 + 2j, np.inf, 0.5 - 1j, 1.0, 0.5 + 1j, 1 - 2j, 2.0, np.nextafter(2.0, 3.0)]
    got = [t.eigenvalue for t in _fixed_solve(monkeypatch, values)]
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
    f = AnsatzFactor(f.v, f.B, "M2")
    L = make_m2(P, f)
    worst = 0.0
    for t in pencil_eigen(L, P, f):
        x = recover_right(P, t.eigenvalue, t.left, nullside="left")
        eta = np.linalg.norm(x @ P.evaluate(t.eigenvalue)) / P.evaluation_scale(t.eigenvalue)
        worst = max(worst, eta)
    assert worst <= 100 * P.k * P.n * EPS
