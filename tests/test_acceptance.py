"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest -s tests/test_acceptance.py` to see the lines on a green run
(plain `pytest` shows them only for failing criteria).
"""

from contextlib import contextmanager

import numpy as np
import pytest

from orthopencil import (
    AnsatzFactor,
    MatrixPolynomial,
    anchor_pencil,
    build_dm,
    build_dm_generic,
    build_dm_pencil,
    builtin_basis,
    check_linearization,
    dimension_m,
    eigenvalue_exclusion,
    eval_pencil,
    identity_factor,
    is_block_symmetric,
    make_m1,
    make_m2,
    multiplier_matrix,
    pencil_eigen,
    phi_vector,
    recover_factors,
    recover_left,
    recover_right,
    reference_spectrum,
    sample_points,
    verify_membership,
)
from orthopencil.matpoly import sampled_regularity
from spectra import compare_spectra, spectrum_of
from conftest import random_problem, stepped_dg_basis


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"[criterion {num:02d}] FAIL  {description}")
        raise
    print(f"[criterion {num:02d}] PASS  {description}")


def _integer_cheb_problem(rng, n=2, k=3):
    while True:
        coeffs = tuple(rng.integers(-4, 5, (n, n)).astype(float) for _ in range(k + 1))
        if np.max(np.abs(coeffs[-1])) > 0:
            return MatrixPolynomial(coeffs, builtin_basis("chebyshev1"))


def test_criterion_01_golden_chebyshev_anchor():
    rng = np.random.default_rng(101)
    with criterion(1, "golden Chebyshev anchor reproduced exactly"):
        P = _integer_cheb_problem(rng)
        P0, P1, P2, P3 = P.coeffs
        F = anchor_pencil(P)
        n = 2
        I, Z = np.eye(n), np.zeros((n, n))
        Xexp = np.block([[2 * P3, Z, Z], [Z, I, Z], [Z, Z, I]])
        Yexp = np.block([
            [P2, P1 - P3, P0],
            [-0.5 * I, Z, -0.5 * I],
            [Z, -I, Z],
        ])
        assert np.array_equal(F.X, Xexp)
        assert np.array_equal(F.Y, Yexp)


def test_criterion_02_golden_dm_matrices():
    rng = np.random.default_rng(102)
    with criterion(2, "golden block-symmetric factors for v = e1, e2, e3"):
        P = _integer_cheb_problem(rng)
        P0, P1, P2, P3 = P.coeffs
        I, Z = np.eye(2), np.zeros((2, 2))
        expected = [
            np.block([[I, Z, Z], [Z, 2 * (P3 - P1), -2 * P0], [Z, -2 * P0, P3 - P1]]),
            np.block([[Z, 2 * P3, Z], [I, 2 * P2, 2 * P3], [Z, 2 * P3, P2 - P0]]),
            np.block([[Z, Z, 2 * P3], [Z, 4 * P3, 2 * P2], [I, 2 * P2, P3 + P1]]),
        ]
        for build in (build_dm, build_dm_generic):
            for j in range(3):
                f = build(P, np.eye(3)[j])
                assert np.array_equal(multiplier_matrix(f), expected[j])


def test_criterion_03_golden_degree_graded_anchor():
    rng = np.random.default_rng(103)
    with criterion(3, "golden degree-graded anchor for k = 4 reproduced exactly"):
        dg = stepped_dg_basis(4)
        coeffs = tuple(rng.integers(-4, 5, (2, 2)).astype(float) for _ in range(5))
        P = MatrixPolynomial(coeffs, dg)
        G = anchor_pencil(P)
        P0, P1, P2, P3, P4 = coeffs
        I, Z = np.eye(2), np.zeros((2, 2))
        Xexp = np.block([[P4, Z, Z, Z], [Z, I, Z, Z], [Z, Z, I, Z], [Z, Z, Z, I]])
        Yexp = np.block([
            [P3, P2, P1, P0 + P4],
            [-I, Z, Z, I],
            [Z, -I, Z, I],
            [Z, Z, -I, I],
        ])
        assert np.array_equal(G.X, Xexp)
        assert np.array_equal(G.Y, Yexp)


def test_criterion_04_ansatz_identity():
    rng = np.random.default_rng(104)
    kinds = ("monomial", "chebyshev1", "legendre", "newton")
    with criterion(4, "ansatz identity on 50 random instances (both sides)"):
        for trial in range(50):
            kind = kinds[trial % len(kinds)]
            k = int(rng.integers(2, 7))
            n = int(rng.integers(1, 5))
            P = random_problem(rng, n, k, kind)
            v = rng.standard_normal(k)
            B = rng.standard_normal((k * n, (k - 1) * n))
            pts = sample_points(k + 1)
            scale = max(np.max(np.abs(c)) for c in P.coeffs) * max(
                np.linalg.norm(phi_vector(P.basis, k, lam)) for lam in pts
            )
            eye = np.eye(n)
            L1 = make_m1(P, AnsatzFactor(v, B, "M1"))
            L2 = make_m2(P, AnsatzFactor(v, B, "M2"))
            for lam in pts:
                phi = phi_vector(P.basis, k, lam)
                right = np.kron(phi.reshape(-1, 1), eye)
                err1 = eval_pencil(L1, lam) @ right - np.kron(v.reshape(-1, 1), P.evaluate(lam))
                err2 = np.kron(phi.reshape(1, -1), eye) @ eval_pencil(L2, lam) - np.kron(
                    v.reshape(1, -1), P.evaluate(lam)
                )
                assert np.max(np.abs(err1)) <= 1e-10 * scale
                assert np.max(np.abs(err2)) <= 1e-10 * scale


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
    return int(np.linalg.matrix_rank(np.column_stack(columns)))


def test_criterion_05_space_dimensions():
    rng = np.random.default_rng(105)
    with criterion(5, "ansatz-space dimension k(k-1)n^2 + k; symmetric subspace has dim k"):
        # k(k-1)n^2 + k evaluates to 27, 4, 52 for these shapes
        for (k, n) in [(3, 2), (2, 1), (4, 2)]:
            P = random_problem(rng, n, k, "chebyshev1")
            assert _generator_rank(P) == dimension_m(k, n)
        assert dimension_m(3, 2) == 27
        assert dimension_m(2, 1) == 4
        assert dimension_m(4, 2) == 52
        for k in (2, 3, 4, 5):
            P = random_problem(rng, 2, k, "legendre")
            vecs = []
            for f in [build_dm_generic(P, e) for e in np.eye(P.k)]:
                L = make_m1(P, f)
                vecs.append(np.concatenate([L.X.ravel(), L.Y.ravel()]))
            assert int(np.linalg.matrix_rank(np.column_stack(vecs))) == k


def _well_separated_problem(rng, n, k, kind):
    while True:
        P = random_problem(rng, n, k, kind)
        try:
            spec = reference_spectrum(P)
        except Exception:
            continue
        roots = spec.finite
        if roots.size >= 2:
            dist = np.abs(roots.reshape(-1, 1) - roots.reshape(1, -1))
            np.fill_diagonal(dist, np.inf)
            if dist.min() < 1e-4:
                continue
        return P, spec


def _full_rank_factor(rng, k, n):
    while True:
        f = AnsatzFactor(rng.standard_normal(k), rng.standard_normal((k * n, (k - 1) * n)))
        if check_linearization(f).is_strong_linearization:
            return f


def _spectral_instances(seed, count=25):
    rng = np.random.default_rng(seed)
    kinds = ("monomial", "chebyshev1", "legendre", "newton")
    out = []
    for trial in range(count):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(2, 6))
        P, spec = _well_separated_problem(rng, n, k, kinds[trial % 4])
        factors = [identity_factor(k, n)] + [_full_rank_factor(rng, k, n) for _ in range(3)]
        out.append((P, spec, factors))
    return out


def test_criterion_06_and_07_spectral_agreement_and_recovery():
    instances = _spectral_instances(106)
    with criterion(6, "anchor and random members match the oracle spectrum to 1e-6"):
        for P, spec, factors in instances:
            for f in factors:
                triples = pencil_eigen(P, f)
                rep = compare_spectra(spectrum_of(triples), spec, tol=1e-6)
                assert rep.matched, f"max distance {rep.max_distance:.3e}"
        # forced infinite eigenvalues: counts must match the oracle
        rng = np.random.default_rng(1060)
        for trial in range(6):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(2, 5))
            while True:
                coeffs = [rng.uniform(-1, 1, (n, n)) for _ in range(k + 1)]
                coeffs[-1][n - 1] = coeffs[-1][0]
                P = MatrixPolynomial(tuple(coeffs), builtin_basis("chebyshev1"))
                try:
                    spec = reference_spectrum(P)
                    break
                except Exception:
                    continue
            assert spec.infinite_count >= 1
            for f in [identity_factor(k, n), _full_rank_factor(rng, k, n)]:
                ps = spectrum_of(pencil_eigen(P, f))
                assert ps.infinite_count == spec.infinite_count
                assert compare_spectra(ps, spec, tol=1e-6).matched

    with criterion(7, "right/left eigenvector recovery residuals below 1e-6"):
        for P, spec, factors in instances:
            triples = pencil_eigen(P, factors[1])
            finite = ~np.isinf(triples.eigenvalues)
            lams = triples.eigenvalues[finite]
            U = recover_right(triples, tol=1e-6)[:, finite]
            W = recover_left(triples, tol=1e-6)[:, finite]
            for lam, Pa, u, w in zip(lams, P.evaluate(lams), U.T, W.T):
                scale = max(P.evaluation_scale(lam), 1e-300)
                assert np.linalg.norm(Pa @ u) <= 1e-6 * scale
                assert np.linalg.norm(w @ Pa) <= 1e-6 * scale


def test_criterion_08_rank_condition_vs_determinant():
    rng = np.random.default_rng(108)
    kinds = ("monomial", "chebyshev1", "legendre", "chebyshev2")
    with criterion(8, "full-rank factors give regular pencils; deficient ones singular"):
        for trial in range(100):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(2, 5))
            P = random_problem(rng, n, k, kinds[trial % 4])
            f = _full_rank_factor(rng, k, n)
            L = make_m1(P, f)
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            M = eval_pencil(L, lam)
            scale = float(np.prod(np.linalg.norm(M, axis=1)))
            assert abs(np.linalg.det(M)) > 1e-10 * scale
        for trial in range(20):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(2, 5))
            P = random_problem(rng, n, k, kinds[trial % 4])
            v = rng.standard_normal(k)
            B = rng.standard_normal((k * n, (k - 1) * n))
            col = int(rng.integers(0, (k - 1) * n))
            B[:, col] = np.kron(v, np.eye(n)[:, int(rng.integers(0, n))])
            f = AnsatzFactor(v, B)
            assert not check_linearization(f).is_strong_linearization
            L = make_m1(P, f)
            for lam in rng.uniform(-2, 2, 10):
                M = eval_pencil(L, lam)
                scale = float(np.prod(np.linalg.norm(M, axis=1)))
                assert abs(np.linalg.det(M)) <= 1e-10 * scale


def test_criterion_09_block_symmetry_and_double_membership():
    rng = np.random.default_rng(109)
    with criterion(9, "constructed pencils exactly block-symmetric with double membership"):
        cases = []
        for kind in ("monomial", "chebyshev1", "chebyshev2", "legendre"):
            cases.append(random_problem(rng, int(rng.integers(1, 4)), int(rng.integers(2, 6)), kind))
        cases.append(
            MatrixPolynomial(
                tuple(rng.uniform(-1, 1, (2, 2)) for _ in range(5)), stepped_dg_basis(4)
            )
        )
        for P in cases:
            v = rng.standard_normal(P.k)
            factor, L = build_dm_pencil(P, v)
            rep = is_block_symmetric(L)
            assert rep.symmetric and rep.max_asymmetry == 0.0
            m1 = verify_membership(L, P, side="M1")
            m2 = verify_membership(L, P, side="M2")
            assert m1.member and m2.member
            assert np.allclose(m1.v, m2.v, atol=1e-12)
            f2 = recover_factors(L, P, side="M2")
            assert np.allclose(f2.v, factor.v, atol=1e-12)
            assert np.allclose(f2.B, factor.B, atol=1e-12)


def test_criterion_10_singular_polynomial_dm_pencils():
    rng = np.random.default_rng(110)
    with criterion(10, "every symmetric-space pencil of a singular P is singular"):
        for trial in range(10):
            n = int(rng.integers(2, 4))
            k = int(rng.integers(2, 5))
            coeffs = [rng.uniform(-1, 1, (n, n)) for _ in range(k + 1)]
            col = int(rng.integers(0, n))
            for c in coeffs:
                c[:, col] = 0.0
            if np.max(np.abs(coeffs[-1])) == 0.0:
                coeffs[-1][0, (col + 1) % n] = 1.0
            P = MatrixPolynomial(tuple(coeffs), builtin_basis("chebyshev1"))
            for f in [build_dm_generic(P, e) for e in np.eye(P.k)]:
                L = make_m1(P, f)
                # L(lam) has a zero column, so every sampled LU has an exactly zero pivot
                verdict = sampled_regularity(lambda lam: eval_pencil(L, lam), L.X.shape[0], rng)
                assert not verdict.regular and verdict.rcond == 0.0


def _dyadic_scalar_cheb():
    # (lam - 2)(lam - 1/2)(lam + 1) expressed with dyadic coefficients
    return MatrixPolynomial(
        (
            np.array([[0.25]]),
            np.array([[-0.75]]),
            np.array([[-0.75]]),
            np.array([[0.25]]),
        ),
        builtin_basis("chebyshev1"),
    )


def test_criterion_11_eigenvalue_exclusion():
    rng = np.random.default_rng(111)
    with criterion(11, "exclusion violations force rank failure; random verdicts agree"):
        scalar = _dyadic_scalar_cheb()
        # n = 2: diagonal with a second dyadic cubic (lam - 3)(lam + 1/2)(lam - 1),
        # so the determinant has six distinct exactly representable roots
        q = np.array([-0.25, 1.75, -1.75, 0.25])
        diag_coeffs = tuple(
            np.diag([scalar.coeffs[i][0, 0], q[i]]) for i in range(4)
        )
        matrix = MatrixPolynomial(diag_coeffs, builtin_basis("chebyshev1"))
        v = np.array([0.0, 1.0, -2.0])  # v-polynomial lam - 2 vanishes at the eigenvalue 2
        for P in (scalar, matrix):
            report = eigenvalue_exclusion(P, v)
            assert not report.excluded
            chk = check_linearization(build_dm(P, v))
            L = make_m1(P, build_dm(P, v))
            singular_pencil = not sampled_regularity(lambda lam: eval_pencil(L, lam),
                                                     L.X.shape[0], rng).regular
            assert (not chk.is_strong_linearization) or singular_pencil
        for _ in range(25):
            P = random_problem(rng, 2, 3, "chebyshev1")
            v = rng.standard_normal(3)
            verdict = eigenvalue_exclusion(P, v).excluded
            rank_ok = check_linearization(build_dm(P, v)).is_strong_linearization
            assert verdict == rank_ok
