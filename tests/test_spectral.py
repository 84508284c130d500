import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthopencil import (
    AnsatzFactor,
    MatrixPolynomial,
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
    monomial_coefficients,
    multiplier_matrix,
    pencil_eigen,
    phi_vector,
    recover_left,
    recover_right,
    reference_spectrum,
    side_multiplier,
)
from orthopencil import spectral
from spectra import (
    block_sum,
    compare_spectra,
    kron_vectors,
    null_vectors,
    p_eta,
    phase_misfit,
    sampled_regularity,
    sort_triples,
    spectrum_of,
)
from conftest import ALL_KINDS, BASIS_KINDS, random_problem

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
    triples = pencil_eigen(P)
    got = np.sort(triples.eigenvalues.real)
    assert np.allclose(got, [-2.0, 0.5, 1.0, 3.0])
    assert np.all(triples.residual <= 1e-12)


def test_scalar_monomial_companion_roots():
    # p = lam^2 - 3 lam + 2 = (lam - 1)(lam - 2)
    P = MatrixPolynomial(
        (np.array([[2.0]]), np.array([[-3.0]]), np.array([[1.0]])), builtin_basis("monomial")
    )
    triples = pencil_eigen(P)
    got = np.sort(triples.eigenvalues.real)
    assert np.allclose(got, [1.0, 2.0], atol=1e-12)


def test_singular_pencil_is_a_verdict():
    # P = (1 + lam + lam^2) e_1 e_1^T vanishes in its second row and column
    E = np.diag([1.0, 0.0])
    P = MatrixPolynomial((E, E, E), builtin_basis("monomial"))
    with pytest.raises(SingularPencilError):
        pencil_eigen(P)


def test_infinite_count_matches_oracle(rng):
    coeffs = [rng.uniform(-1, 1, (3, 3)) for _ in range(4)]
    coeffs[-1][2] = coeffs[-1][0]  # rank-deficient leading coefficient
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("chebyshev1"))
    spec = reference_spectrum(P)
    assert spec.infinite_count >= 1
    ps = spectrum_of(pencil_eigen(P))
    assert ps.infinite_count == spec.infinite_count
    assert compare_spectra(ps, spec, tol=1e-6).matched


def test_recover_right_scalar_basis_vector():
    P = MatrixPolynomial(
        (np.array([[2.0]]), np.array([[-3.0]]), np.array([[1.0]])), builtin_basis("monomial")
    )
    triples = pencil_eigen(P)
    U = recover_right(triples)
    assert np.all(np.abs(np.abs(U[0]) - 1.0) < 1e-12)
    # the anchor's right eigenvectors, from an SVD, are proportional to
    # Phi_k(alpha), and so phi kron x of the record's x is one of them
    W = null_vectors(anchor_pencil(P), triples.eigenvalues)
    ratio = W / phi_vector(P.basis, 2, triples.eigenvalues)
    assert np.max(np.abs(ratio - ratio[0])) < 1e-10
    assert np.all(phase_misfit(kron_vectors(P, triples.eigenvalues, U), W) < 1e-12)


def test_recover_right_residuals(rng):
    for n in (2, 3, 4):
        P = random_problem(rng, n, 3, "chebyshev1")
        triples = pencil_eigen(P)
        U = recover_right(triples)
        for Pa, u in zip(P.evaluate(triples.eigenvalues), U.T):
            assert np.linalg.norm(Pa @ u) <= 1e-6 * np.linalg.norm(Pa)


def test_recover_right_infinite(rng):
    coeffs = [rng.uniform(-1, 1, (3, 3)) for _ in range(4)]
    coeffs[-1][:, 0] = 0.0
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("legendre"))
    triples = pencil_eigen(P)
    infinite = np.isinf(triples.eigenvalues)
    assert infinite.any()
    lead = monomial_coefficients(P)[-1]
    U = recover_right(triples)[:, infinite]
    assert np.all(np.linalg.norm(lead @ U, axis=0) <= 1e-8 * max(np.linalg.norm(lead), 1.0))


def test_recover_left_blockwise_sum(rng):
    # the block sum (v kron I_n)^T u that the tests take as the paper's formula
    u = rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))
    v = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(block_sum(v, u), u[:2])
    # Kronecker-structured left vector: the sum scales y by the inner product
    phi = phi_vector(builtin_basis("chebyshev1"), 3, 0.7)
    y = rng.standard_normal(2)
    u2 = np.kron(phi, y).reshape(-1, 1)
    v2 = rng.standard_normal(3)
    expected = (phi @ v2) * y
    assert np.allclose(block_sum(v2, u2)[:, 0], expected)
    # the record's left vectors of the anchor are these sums with v = e_1 of
    # its unit left eigenvectors, up to a unit factor
    P = random_problem(rng, 2, 3, "chebyshev1")
    triples = pencil_eigen(P)
    W = null_vectors(anchor_pencil(P), triples.eigenvalues, "left")
    assert np.all(phase_misfit(recover_left(triples), block_sum(v, W)) <= 1e-12)


def test_recover_left_residuals(rng):
    P = random_problem(rng, 3, 3, "legendre")
    f = _full_rank_factor(rng, 3, 3)
    triples = pencil_eigen(P, f)
    finite = ~np.isinf(triples.eigenvalues)
    W = block_sum(f.v, null_vectors(make_m1(P, f), triples.eigenvalues[finite], "left"))
    for Pa, w in zip(P.evaluate(triples.eigenvalues[finite]), W.T):
        assert np.linalg.norm(w @ Pa) <= 1e-6 * np.linalg.norm(Pa) * np.linalg.norm(w)
        assert np.linalg.norm(w) > 1e-8
    # and the record's left vectors of P are those sums, up to a unit factor
    assert np.all(phase_misfit(recover_left(triples)[:, finite], W) <= 1e-10)


def test_left_recovery_bijective_images(rng):
    # distinct eigenvalues: all kn left eigenvectors map to nonzero left
    # eigenvectors of P
    P = random_problem(rng, 2, 3, "chebyshev1")
    f = _full_rank_factor(rng, 3, 2)
    triples = pencil_eigen(P, f)
    values = triples.eigenvalues
    sep = min(
        abs(a - b) for i, a in enumerate(values) for b in values[i + 1 :]
    )
    assert sep > 1e-6
    W = null_vectors(make_m1(P, f), values, "left")
    assert np.all(np.linalg.norm(block_sum(f.v, W), axis=0) > 1e-6)


def _exclusion_margins(P, f):
    """||(v kron I_n)^T w|| for the unit left eigenvectors w of the M1 pencil
    of f (right ones for M2), at the eigenvalues solved through P's anchor.
    The pencil is a strong linearization iff none is zero."""
    triples = pencil_eigen(P, f)
    L = make_m1(P, f) if f.side == "M1" else make_m2(P, f)
    vecs = null_vectors(L, triples.eigenvalues, "left" if f.side == "M1" else "right")
    return np.linalg.norm(block_sum(f.v, vecs), axis=0)


def _assert_singular_with_witness(P, f):
    """The rank test refuses f, pencil_eigen finds its pencil singular, and a
    null vector q of the side multiplier (left for M1, right for M2)
    annihilates v kron I_n and the pencil at every point."""
    assert not check_linearization(f).is_strong_linearization
    L = make_m1(P, f) if f.side == "M1" else make_m2(P, f)
    with pytest.raises(SingularPencilError):
        pencil_eigen(P, f)
    A = side_multiplier(f)
    if f.side == "M1":
        q = np.linalg.svd(A)[0][:, -1]
        assert np.linalg.norm(q @ A) <= 1e-8
        assert np.linalg.norm(q @ eval_pencil(L, 0.7 + 0.2j)) <= 1e-8 * np.linalg.norm(L.Y)
    else:
        q = np.linalg.svd(A)[2][-1]
        assert np.linalg.norm(A @ q) <= 1e-8
        assert np.linalg.norm(eval_pencil(L, 0.7 + 0.2j) @ q) <= 1e-8 * np.linalg.norm(L.Y)
    assert np.linalg.norm(block_sum(f.v, q.reshape(-1, 1))) <= 1e-8


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
    ps = spectrum_of(pencil_eigen(P, bad))
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
    triples = pencil_eigen(P)
    W = kron_vectors(P, triples.eigenvalues, triples.p_right.vectors)
    for lam, u in zip(triples.eigenvalues, W.T):
        if np.isinf(lam):
            M = L.X
        else:
            M = eval_pencil(L, lam)
        assert np.linalg.norm(M @ u) <= 1e-8 * max(1.0, np.linalg.norm(M))


def test_linearization_iff_shared_eigenvectors(rng):
    P = random_problem(rng, 2, 3)
    F = anchor_pencil(P)
    f = _full_rank_factor(rng, 3, 2)
    triples = pencil_eigen(P, f)
    W = kron_vectors(P, triples.eigenvalues, triples.p_right.vectors)
    for lam, u in zip(triples.eigenvalues, W.T):
        M = F.X if np.isinf(lam) else eval_pencil(F, lam)
        assert np.linalg.norm(M @ u) <= 1e-7 * max(1.0, np.linalg.norm(M))
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
        ps = spectrum_of(pencil_eigen(P, f))
        assert compare_spectra(ps, ref, tol=1e-6).matched


def test_eigentriple_fields(rng):
    P = random_problem(rng, 2, 2)
    triples = pencil_eigen(P)
    # every array of the record is P-sized: n x m vectors, m numbers
    assert [field.name for field in dataclasses.fields(triples)] == [
        "eigenvalues", "residual", "p_right", "p_left"]
    assert triples.eigenvalues.shape == triples.residual.shape == (4,)
    for side in (triples.p_right, triples.p_left):
        assert side.vectors.shape == (2, 4) and side.eta.shape == (4,)
    assert np.all(np.abs(np.linalg.norm(triples.p_right.vectors, axis=0) - 1.0) < 1e-12)
    assert not np.isinf(triples.eigenvalues).any()


def test_exclusion_left_singular_polynomial_sampled_path(rng):
    # common zero column: P is singular, so even full-rank factors give
    # singular pencils; P_k is singular too, so the finite shift gives the
    # verdict
    coeffs = [rng.uniform(-1, 1, (3, 3)) for _ in range(4)]
    for c in coeffs:
        c[:, 1] = 0.0
    coeffs[-1][0, 0] = 1.0
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("chebyshev1"))
    f = identity_factor(3, 3)
    assert check_linearization(f).is_strong_linearization
    with pytest.raises(SingularPencilError) as exc:
        pencil_eigen(P, f)
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
    # sampled reference test does not, and pencil_eigen solves them
    rng = np.random.default_rng(4096)
    for n, k in ((50, 6), (16, 15)):
        P = random_problem(rng, n, k, kind)
        f, dm = build_dm_pencil(P, rng.uniform(-1.0, 1.0, k))
        for L, factor in ((anchor_pencil(P), None), (dm, f)):
            assert sampled_regularity(lambda lam: eval_pencil(L, lam), k * n, rng).regular
            triples = pencil_eigen(P, factor, left=False)
            assert triples.eigenvalues.size == k * n
            assert triples.residual.max() <= 100 * k * n * EPS


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
    for Q, factor in ((zero_column, None), (P, f)):
        with pytest.raises(SingularPencilError) as exc:
            pencil_eigen(Q, factor, left=False)
        assert exc.value.rcond <= 10 * k * n * EPS


def _scaled(P, s):
    return MatrixPolynomial(tuple(s * c for c in P.coeffs), P.basis)


@pytest.mark.parametrize("s", (1e-12, 1e12))
def test_regularity_verdict_ignores_the_scale_of_P(rng, monkeypatch, s):
    # the recurrence rows of the anchor pencil stay O(1) while the rows of P
    # scale with s; kn = 240 is checked up to the verdict, which qz_solve
    # makes before the rung, kn = 12 solved
    P = _scaled(random_problem(rng, 4, 3, "chebyshev2"), s)
    triples = pencil_eigen(P, left=False)
    assert triples.eigenvalues.size == 12
    assert triples.residual.max() <= 100 * 12 * EPS
    calls = []

    def no_solve(route, shift):
        calls.append((route.L.X.shape[0], shift))
        raise RuntimeError("regularity test passed")

    monkeypatch.setattr(spectral, "_rung", no_solve)
    P = _scaled(random_problem(rng, 40, 6, "legendre"), s)
    F = anchor_pencil(P)
    # the gate on c*P_k passes, and so does the sampled reference test
    assert sampled_regularity(lambda lam: eval_pencil(F, lam), 240, rng).regular
    # with a zero column in P_k alone, P stays regular, and the finite shift
    # says so
    coeffs = [c.copy() for c in P.coeffs]
    coeffs[-1][:, 3] = 0.0
    singular_lead = MatrixPolynomial(tuple(coeffs), P.basis)
    for Q in (P, singular_lead):
        with pytest.raises(RuntimeError, match="regularity test passed"):
            pencil_eigen(Q, left=False)
    assert [size for size, _ in calls] == [240, 240]
    assert np.isinf(calls[0][1]) and np.isfinite(calls[1][1])
    coeffs = [s * rng.uniform(-1, 1, (40, 40)) for _ in range(7)]
    for c in coeffs:
        c[:, 3] = 0.0
    zero_column = MatrixPolynomial(tuple(coeffs), builtin_basis("legendre"))
    with pytest.raises(SingularPencilError):
        pencil_eigen(zero_column, left=False)


def _corner():
    """P of degree 3, 3 x 3, in chebyshev1, with a zero column in P_k."""
    c = np.random.default_rng(7).uniform(-1.0, 1.0, (4, 3, 3))
    c[-1][:, 0] = 0.0
    return MatrixPolynomial(tuple(c), builtin_basis("chebyshev1"))


def _in_other_units(P, axis, index, scale):
    """P with row (``axis`` "row") or column ``index`` of every P_i times scale."""
    c = np.stack(P.coeffs)
    if axis == "row":
        c[:, index, :] *= scale
    else:
        c[:, :, index] *= scale
    return MatrixPolynomial(tuple(c), P.basis)


def _verdict(P, factor=None):
    """("solved", infinite count) or ("singular", None) of pencil_eigen."""
    try:
        triples = pencil_eigen(P, factor, left=False)
    except SingularPencilError:
        return "singular", None
    return "solved", int(np.isinf(triples.eigenvalues).sum())


def test_verdicts_on_a_row_or_column_of_P_in_other_units():
    # P_k is singular, so the finite shift decides; it measures P with its
    # rows and columns scaled to unit norm, so a column of P at 1e-15 does not
    # read as singular on the anchor.  The block-symmetric factor of P with a
    # row at 1e-15 has a multiplier with rcond 4.8e-17, below 10 kn eps, which
    # check_linearization refuses too, so M1 is singular; M2 solves on P^T,
    # where the row is a column
    v = (0.5, -1.0, 0.25)
    P = _corner()
    f = build_dm_pencil(P, v)[0]
    sides = [None] + [AnsatzFactor(f.v, f.B, side) for side in ("M1", "M2")]
    assert [_verdict(P, factor) for factor in sides] == [("solved", 1)] * 3
    assert _verdict(_in_other_units(P, "column", 2, 1e-15)) == ("solved", 1)
    P = _in_other_units(P, "row", 2, 1e-15)
    f = build_dm_pencil(P, v)[0]
    assert not check_linearization(f).is_strong_linearization
    assert _verdict(P) == _verdict(P, AnsatzFactor(f.v, f.B, "M2")) == ("solved", 1)
    with pytest.raises(SingularPencilError) as exc:
        pencil_eigen(P, f)
    assert 1e-17 < exc.value.rcond <= 10 * 9 * EPS


@settings(max_examples=30)
@given(kind=st.sampled_from(ALL_KINDS), seed=st.integers(0, 2**31), n=st.integers(2, 4),
       k=st.integers(2, 4), axis=st.sampled_from(("row", "column")), index=st.integers(0, 3),
       e=st.integers(0, 50))
def test_anchor_verdict_ignores_the_units_of_a_row_or_column(kind, seed, n, k, axis, index, e):
    # with P_k singular the finite shift decides; scaling one row or column
    # of P by a power of 2 moves neither its verdict nor the infinite count
    Q = random_problem(np.random.default_rng(seed), n, k, kind)
    c = np.stack(Q.coeffs)
    c[-1][:, 0] = 0.0
    P = MatrixPolynomial(tuple(c), Q.basis)
    assert _verdict(_in_other_units(P, axis, index % n, 2.0 ** -e)) == _verdict(P)


def test_residuals_match_per_pair_formula(rng):
    # kn = 90 spans two column blocks; the rank-deficient leading
    # coefficient adds infinite eigenvalues
    n, k = 10, 9
    coeffs = [rng.uniform(-1, 1, (n, n)) for _ in range(k + 1)]
    coeffs[-1][:, 0] = 0.0
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("chebyshev1"))
    L = anchor_pencil(P)
    triples = pencil_eigen(P)
    assert np.isinf(triples.eigenvalues).any()
    nx, ny = np.linalg.norm(L.X), np.linalg.norm(L.Y)
    W = kron_vectors(P, triples.eigenvalues, triples.p_right.vectors)
    for lam, u, residual in zip(triples.eigenvalues, W.T, triples.residual):
        if np.isinf(lam):
            old = np.linalg.norm(L.X @ u) / nx
        else:
            old = np.linalg.norm((L.X * lam + L.Y) @ u) / (nx * abs(lam) + ny)
        assert abs(residual - old) <= k * n * EPS


@pytest.mark.parametrize("k", (2, 3, 4))
@pytest.mark.parametrize("left", (False, True))
def test_zero_eigenvalues_carry_no_sign_bit(k, left):
    # x^k I_2: every eigenvalue is a multiple zero, which the eigvals rung
    # finds exactly on the companion matrix; pencil_eigen reports them as the
    # division of alpha by beta rounds them, which here leaves no sign bit,
    # so eig prints "re": 0.0 and "im": 0.0
    P = MatrixPolynomial((np.zeros((2, 2)),) * k + (np.eye(2),), builtin_basis("monomial"))
    lams = pencil_eigen(P, left=left).eigenvalues
    assert lams.size == 2 * k and np.all(lams == 0)
    assert not np.signbit(lams.real).any() and not np.signbit(lams.imag).any()


def test_right_only_solve_is_bit_identical(rng):
    # the eigenvalues bit for bit, by the eigvals rung at shift infinity
    # and, for the ill-conditioned lead, at a finite shift
    q1, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    lead = q1 @ np.diag(np.logspace(0.0, -5.0, 6)) @ q1.T
    ill = random_problem(rng, 6, 8, "chebyshev1")
    ill = MatrixPolynomial(ill.coeffs[:-1] + (lead,), ill.basis)
    for P in (random_problem(rng, 6, 8, "monomial"), random_problem(rng, 6, 8, "legendre"), ill):
        both = pencil_eigen(P)
        right = pencil_eigen(P, left=False)
        assert right.eigenvalues.tolist() == both.eigenvalues.tolist()
        assert np.all(np.linalg.norm(right.p_right.vectors - both.p_right.vectors, axis=0)
                      <= 48 * EPS)
        assert np.all(np.abs(right.residual - both.residual) <= 48 * EPS)
        assert right.p_left is None and both.p_left is not None


def _dense_residuals(L, lams, W):
    """||(X*lam_j + Y) w_j|| / (||X|| |lam_j| + ||Y||) for the unit columns
    w_j of W, at finite eigenvalues lam_j."""
    R = np.einsum("mrc,cm->rm", [eval_pencil(L, lam) for lam in lams], W)
    nx, ny = np.linalg.norm(L.X), np.linalg.norm(L.Y)
    return np.linalg.norm(R, axis=0) / (nx * np.abs(lams) + ny)


def _fixed_solve(monkeypatch, values):
    """pencil_eigen of a scalar polynomial of degree len(values) whose anchor
    solve (spectral._rung at a finite shift, with the rung refused at
    infinity) reports the given eigenvalues, in that order."""
    values = np.array(values, dtype=complex)
    finite = np.isfinite(values)

    def solve(route, shift):
        return spectral._eigenvalues(np.where(finite, values, 1.0), finite.astype(complex))

    monkeypatch.setattr(spectral, "_companion_solve", lambda *a: None)
    monkeypatch.setattr(spectral, "_rung", solve)
    P = MatrixPolynomial(tuple(np.ones((1, 1)) for _ in range(values.size + 1)),
                         builtin_basis("monomial"))
    return pencil_eigen(P)


def test_conjugate_pair_order_ignores_last_bit_noise(monkeypatch):
    x, y = 0.3, 1.7
    up = np.nextafter(x, 1.0)
    for plus_re, minus_re in ((x, up), (up, x)):
        triples = _fixed_solve(monkeypatch, [complex(plus_re, y), complex(minus_re, -y), -2.0])
        assert triples.eigenvalues.tolist() == [
            -2.0, complex(minus_re, -y), complex(plus_re, y)]
        # the numbers of each column travel with its eigenvalue: its eta_P
        # and its residual are those of lam_j and of phi(lam_j) kron x_j
        lams, x = triples.eigenvalues, triples.p_right.vectors
        P = MatrixPolynomial(tuple(np.ones((1, 1)) for _ in range(4)), builtin_basis("monomial"))
        assert np.allclose(triples.p_right.eta, p_eta(P, lams, x), rtol=1e-14, atol=0)
        assert np.allclose(triples.residual, _dense_residuals(anchor_pencil(P), lams,
                                                              kron_vectors(P, lams, x)),
                           rtol=1e-12, atol=0)


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
        assert triples.eigenvalues.tolist() == [complex(b, -y), complex(real, 0.0), complex(a, y)]


def test_equal_real_parts_keep_report_order(monkeypatch):
    values = [1 + 2j, np.inf, 0.5 - 1j, 1.0, 0.5 + 1j, 1 - 2j, 2.0, np.nextafter(2.0, 3.0)]
    got = _fixed_solve(monkeypatch, values).eigenvalues.tolist()
    finite = sorted((complex(v) for v in values if np.isfinite(v)),
                    key=lambda z: (z.real, z.imag))
    assert got[:-1] == finite
    assert np.isinf(got[-1])


def _ulps_away(x, count):
    for _ in range(abs(count)):
        x = np.nextafter(x, np.inf if count > 0 else -np.inf)
    return float(x)


@st.composite
def _eigenvalue_lists(draw):
    """Eigenvalues as _eigenvalues gives them: real ones, conjugate pairs
    whose real parts differ by 0 to 8 ulps (sometimes with a real one within
    a few ulps between or beside them), exact ties and complex infinities,
    in any order."""
    parts = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    values = []
    for _ in range(draw(st.integers(0, 10))):
        shape = draw(st.sampled_from(("real", "pair", "pair", "tie", "infinite")))
        x = draw(parts)
        if shape == "real":
            values.append(complex(x, 0.0))
        elif shape == "pair":
            y = draw(st.floats(1e-9, 1e3))
            values += [complex(x, y), complex(_ulps_away(x, draw(st.integers(-8, 8))), -y)]
            if draw(st.booleans()):
                values.append(complex(_ulps_away(x, draw(st.integers(-9, 9))), 0.0))
        elif shape == "tie":
            z = draw(st.sampled_from(values)) if values else complex(x, draw(parts))
            values += [z, z]
        else:
            values.append(complex(np.inf))
    return draw(st.permutations(values))


@settings(max_examples=300)
@given(values=_eigenvalue_lists())
def test_sort_permutation_is_the_triple_rule(values):
    # spectral._order on the eigenvalue array against the rule written out
    # eigenvalue by eigenvalue (spectra.sort_triples)
    values = np.array(values, dtype=complex)
    assert spectral._order(values).tolist() == sort_triples(values)


# Parts of alpha and beta: any float of modulus up to 1e300 (so that Python's
# abs cannot overflow), signed zeros, and round values that make ties.
_PARTS = st.one_of(
    st.floats(-1e300, 1e300, allow_nan=False),
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, 1e-8, 1e-300, -1e300)))


@st.composite
def _homogeneous_pairs(draw):
    """(alpha, beta) with beta drawn freely, with |Re beta| = |Im beta|, or
    within a few ulps of the infinity threshold |beta| = 1e-8 (|alpha| + |beta|)."""
    a = complex(draw(_PARTS), draw(_PARTS))
    shape = draw(st.sampled_from(("free", "tie", "threshold")))
    if shape == "free":
        b = complex(draw(_PARTS), draw(_PARTS))
    elif shape == "tie":
        x = draw(_PARTS)
        b = complex(x, draw(st.sampled_from((x, -x))))
    else:
        size = _ulps_away(1e-8 / (1 - 1e-8) * abs(a), draw(st.integers(-4, 4)))
        b = size * complex(draw(st.sampled_from((1.0, -1.0, 0.6, -0.8))),
                           draw(st.sampled_from((0.0, -0.0, 0.8, -0.6))))
    return a, b


@settings(max_examples=300)
@given(pairs=st.lists(_homogeneous_pairs(), max_size=12))
def test_eigenvalues_are_numpys_complex_division(pairs):
    # spectral._eigenvalues bit for bit: numpy's a / b, pair by pair, and
    # complex infinity where abs(b) <= 1e-8 (abs(a) + abs(b)), abs as Python
    # gives it (hypot)
    alpha = np.array([a for a, _ in pairs], dtype=complex)
    beta = np.array([b for _, b in pairs], dtype=complex)
    got = spectral._eigenvalues(alpha, beta)
    with np.errstate(all="ignore"):
        want = np.array([complex(np.inf) if abs(b) <= 1e-8 * (abs(a) + abs(b))
                         else np.complex128(a) / np.complex128(b) for a, b in pairs],
                        dtype=complex)
    assert got.shape == want.shape
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


_SMALL_PARTS = st.one_of(st.floats(-1e7, 1e7, allow_nan=False), st.sampled_from((0.0, -0.0)))


@settings(max_examples=300)
@given(parts=st.lists(st.tuples(_SMALL_PARTS, _SMALL_PARTS), max_size=12))
def test_companion_eigenvalues_keep_their_signed_zeros(parts):
    # the eigvals rung reads eigvals' w as _eigenvalues(w, 1): w itself, with
    # the sign of a zero part as re + im*0 and im - re*0 give it (0.0 for
    # geev's -0.0 + 0j), for complex w and for the real array eigvals
    # returns when every eigenvalue is real
    w = np.array([complex(re, im) for re, im in parts], dtype=complex).reshape(-1)
    for values in (w, w.real.copy()):
        want = np.stack((values.real + values.imag * 0.0, values.imag - values.real * 0.0),
                        axis=-1).view(complex)[:, 0]
        got = spectral._eigenvalues(values, 1.0)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def _dense_eta(P, lams, U, side):
    """||P(lam_j) u_j|| (||u_j^T P(lam_j)|| for "left") / (sum_i |phi_i(lam_j)|
    ||P_i||_F ||u_j||) from P.evaluate."""
    values = P.evaluate(lams)
    R = np.einsum("mrc,cm->rm" if side == "right" else "mcr,cm->rm", values, U)
    return np.linalg.norm(R, axis=0) / (P.evaluation_scale(lams) * np.linalg.norm(U, axis=0))


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("side", ("right", "left"))
def test_backward_errors_match_the_evaluated_polynomial(rng, kind, side):
    # the single GEMM of [P_k ... P_0] (their transposes for "left") with
    # phi kron U against the evaluated polynomial, at random points and
    # vectors and at P's eigenpairs, for m = 0, 1 and kn columns, with the
    # vectors in C and in Fortran order and as a transposed view
    n, k = 4, 5
    P = random_problem(rng, n, k, kind)
    spectrum = pencil_eigen(P)
    pairs = [(spectrum.eigenvalues,
              spectrum.p_right.vectors if side == "right" else spectrum.p_left.vectors)]
    for m in (0, 1, k * n):
        lams = 2.0 * (rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m))
        pairs.append((lams, rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))))
    pairs += [(lams, np.asfortranarray(U)) for lams, U in pairs]
    pairs += [(lams, np.ascontiguousarray(U.T).T) for lams, U in pairs[:len(pairs) // 2]]
    for lams, U in pairs:
        eta = spectral.backward_errors(P, lams, U, side)
        assert eta.shape == (lams.size,)
        assert np.all(np.abs(eta - _dense_eta(P, lams, U, side)) <= 10 * (k + 1) * n * EPS)


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
    triples = pencil_eigen(P, f)
    lams = triples.eigenvalues
    X = recover_left(triples)
    eta = np.linalg.norm(np.einsum("cm,mcr->rm", X, P.evaluate(lams)), axis=0) / (
        P.evaluation_scale(lams))
    assert eta.max() <= 100 * P.k * P.n * EPS
