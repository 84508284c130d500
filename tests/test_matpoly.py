import numpy as np
import pytest

from orthopencil import (
    DimensionMismatchError,
    MatrixPolynomial,
    builtin_basis,
    det_poly,
    monomial_coefficients,
    reversal_monomial,
)
from orthopencil.matpoly import sampled_regularity
from conftest import ALL_KINDS, BASIS_KINDS, random_problem


def test_constant_identity_polynomial():
    P = MatrixPolynomial((np.eye(2),), builtin_basis("chebyshev1"))
    for lam in (0.0, 1.3, -2.0 + 0.5j):
        assert np.allclose(P.evaluate(lam), np.eye(2))


def test_scalar_chebyshev_t2():
    P = MatrixPolynomial(
        (np.zeros((1, 1)), np.zeros((1, 1)), np.ones((1, 1))), builtin_basis("chebyshev1")
    )
    assert P.evaluate(0.3)[0, 0] == pytest.approx(2 * 0.09 - 1)


def test_construction_validation():
    b = builtin_basis("monomial")
    with pytest.raises(ValueError):
        MatrixPolynomial((np.eye(2), np.zeros((2, 2))), b)  # zero leading coefficient
    with pytest.raises(DimensionMismatchError):
        MatrixPolynomial((np.ones((2, 3)),), b)
    with pytest.raises(DimensionMismatchError):
        MatrixPolynomial((np.eye(2), np.eye(3)), b)
    with pytest.raises(TypeError):
        MatrixPolynomial((np.eye(2), np.eye(2)), basis="monomial")


def test_coefficients_are_read_only(rng):
    P = random_problem(rng, 2, 3)
    with pytest.raises(ValueError):
        P.coeffs[0][0, 0] = 99.0


def test_evaluate_matches_monomial_conversion(rng):
    for kind in BASIS_KINDS:
        P = random_problem(rng, 3, 4, kind)
        A = monomial_coefficients(P)
        for _ in range(20):
            lam = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            direct = P.evaluate(lam)
            horner = np.zeros((3, 3), dtype=complex)
            for Am in A[::-1]:
                horner = horner * lam + Am
            scale = max(np.max(np.abs(direct)), 1.0)
            assert np.max(np.abs(direct - horner)) <= 1e-10 * scale


def test_reversal_monomial_examples():
    b = builtin_basis("monomial")
    A = np.array([[2.0, 0.0], [1.0, 3.0]])
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    C = np.eye(2)
    P = MatrixPolynomial((C, B, A), b)
    rev = reversal_monomial(P)
    # x^2 P(1/x) = C x^2 + B x + A, ascending [A, B, C]
    assert np.array_equal(rev[0], A)
    assert np.array_equal(rev[1], B)
    assert np.array_equal(rev[2], C)


def test_reversal_at_zero_is_leading_monomial_coefficient(rng):
    P = random_problem(rng, 2, 3, "legendre")
    rev = reversal_monomial(P)
    assert np.allclose(rev[0], monomial_coefficients(P)[-1])


def test_reversal_scalar_chebyshev_t2():
    P = MatrixPolynomial(
        (np.zeros((1, 1)), np.zeros((1, 1)), np.ones((1, 1))), builtin_basis("chebyshev1")
    )
    rev = reversal_monomial(P)
    # T_2 = 2x^2 - 1, reversal is -x^2 + 2
    assert np.allclose(rev.reshape(-1), [2.0, 0.0, -1.0])


def test_is_regular_identity():
    P = MatrixPolynomial((np.eye(3),), builtin_basis("chebyshev1"))
    verdict = sampled_regularity(P.evaluate, P.n, np.random.default_rng(2024))
    assert verdict.regular and verdict.witness is not None


def test_is_regular_zero_column_is_singular(rng):
    coeffs = [rng.uniform(-1, 1, (3, 3)) for _ in range(4)]
    for c in coeffs:
        c[:, 1] = 0.0
    coeffs[-1][0, 0] = 1.0  # keep the leading coefficient nonzero
    P = MatrixPolynomial(tuple(coeffs), builtin_basis("chebyshev1"))
    assert not sampled_regularity(P.evaluate, P.n, rng).regular


def test_is_regular_random_chebyshev(rng):
    P = random_problem(rng, 3, 3, "chebyshev1")
    assert sampled_regularity(P.evaluate, P.n, rng).regular


def test_is_regular_at_n50(rng):
    # the scaled-determinant test read some of these as singular
    for kind in ALL_KINDS:
        for k in (2, 6):
            P = random_problem(rng, 50, k, kind)
            verdict = sampled_regularity(P.evaluate, P.n, np.random.default_rng(2024))
            assert verdict.regular and verdict.trials <= 3
            assert verdict.rcond > 10 * 50 * np.finfo(float).eps


def test_is_regular_ignores_row_units(rng):
    # one row of P in other units must not read as singular, nor a scaled
    # singular P as regular
    P = random_problem(rng, 50, 4, "legendre")
    for s in (1e-12, 1e12):
        coeffs = [c.copy() for c in P.coeffs]
        for c in coeffs:
            c[7] *= s
        Q = MatrixPolynomial(tuple(coeffs), P.basis)
        assert sampled_regularity(Q.evaluate, Q.n, np.random.default_rng(2024)).regular
        for c in coeffs:
            c[:, 3] = 0.0
        Q = MatrixPolynomial(tuple(coeffs), P.basis)
        assert not sampled_regularity(Q.evaluate, Q.n, np.random.default_rng(2024)).regular


def test_determinant_matches_oracle_pointwise(rng):
    P = random_problem(rng, 3, 3, "legendre")
    det = det_poly(P)
    for _ in range(10):
        lam = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        direct = np.linalg.det(P.evaluate(lam))
        value = np.polynomial.polynomial.polyval(lam, det.coeffs)
        assert abs(direct - value) <= 1e-8 * max(abs(direct), 1.0)
