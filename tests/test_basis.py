import numpy as np
import pytest

from orthopencil import (
    BasisCoefficientError,
    DegreeGradedBasis,
    ThreeTermBasis,
    builtin_basis,
    phi_vector,
    to_monomial,
)
from orthopencil.basis import _phi_sequence
from conftest import BASIS_KINDS, stepped_dg_basis


def test_monomial_powers():
    b = builtin_basis("monomial")
    assert _phi_sequence(b, 3, 2.0)[3] == 8.0
    assert _phi_sequence(b, 0, 17.0)[0] == 1.0


def test_chebyshev1_recurrence_shape():
    # phi_1 = lam and phi_{j+1} = 2 lam phi_j - phi_{j-1} for j >= 1
    b = builtin_basis("chebyshev1")
    lam = 0.37
    phi = _phi_sequence(b, 8, lam)
    assert phi[1] == pytest.approx(lam)
    for j in range(1, 8):
        assert phi[j + 1] == pytest.approx(2 * lam * phi[j] - phi[j - 1], rel=1e-14)


def test_chebyshev1_cosine_identity():
    b = builtin_basis("chebyshev1")
    x = 0.3
    assert _phi_sequence(b, 2, x)[2] == pytest.approx(np.cos(2 * np.arccos(x)), rel=1e-14)
    assert _phi_sequence(b, 2, x)[2] == pytest.approx(-0.82)


def test_chebyshev2_sine_identity():
    b = builtin_basis("chebyshev2")
    theta = 1.1
    x = np.cos(theta)
    for j in range(6):
        expected = np.sin((j + 1) * theta) / np.sin(theta)
        assert _phi_sequence(b, j, x)[j] == pytest.approx(expected, rel=1e-12)


def test_legendre_value():
    # P_2(x) = (3 x^2 - 1) / 2 evaluated directly
    b = builtin_basis("legendre")
    assert _phi_sequence(b, 2, 0.5)[2] == pytest.approx(-0.125)
    xs = np.linspace(-1, 1, 7)
    for x in xs:
        assert _phi_sequence(b, 2, x)[2] == pytest.approx((3 * x * x - 1) / 2, abs=1e-14)


def test_newton_products():
    nodes = (0.5, -1.0, 2.0)
    b = builtin_basis("newton", nodes=nodes)
    lam = 1.25
    assert _phi_sequence(b, 2, lam)[2] == pytest.approx((lam - 0.5) * (lam + 1.0))
    assert _phi_sequence(b, 3, lam)[3] == pytest.approx((lam - 0.5) * (lam + 1.0) * (lam - 2.0))


def test_phi_zero_is_one_for_all_specs():
    specs = [builtin_basis(kind) for kind in BASIS_KINDS] + [stepped_dg_basis(4)]
    for spec in specs:
        assert _phi_sequence(spec, 0, 0.73)[0] == 1.0


def test_degree_graded_example_values():
    # phi_2 = lam^2 + lam + 1 for the stepped basis
    dg = stepped_dg_basis(4)
    for lam in (0.0, 1.0, -2.0, 0.5 + 0.5j):
        assert _phi_sequence(dg, 2, lam)[2] == pytest.approx(lam * lam + lam + 1)
    row = to_monomial(dg, 2)[2]
    assert np.allclose(row, [1.0, 1.0, 1.0])


def test_phi_vector_descending_order():
    b = builtin_basis("monomial")
    assert np.allclose(phi_vector(b, 3, 2.0), [4.0, 2.0, 1.0])
    c = builtin_basis("chebyshev1")
    assert np.allclose(phi_vector(c, 3, 0.5), [-0.5, 0.5, 1.0])


def test_phi_vector_last_entry_one(rng):
    for kind in BASIS_KINDS:
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        vec = phi_vector(builtin_basis(kind), 5, lam)
        assert vec[-1] == 1.0


def test_to_monomial_identity_for_monomials():
    assert np.array_equal(to_monomial(builtin_basis("monomial"), 5), np.eye(6))


def test_to_monomial_chebyshev_row():
    C = to_monomial(builtin_basis("chebyshev1"), 2)
    assert np.allclose(C[2], [-1.0, 0.0, 2.0])


def test_recurrence_invariant_random_points(rng):
    # alpha_j phi_{j+1} = (lam - beta_j) phi_j - gamma_j phi_{j-1}
    for kind in BASIS_KINDS + ("newton",):
        nodes = rng.uniform(-1, 1, 12) if kind == "newton" else None
        b = builtin_basis(kind, nodes=nodes)
        for _ in range(5):
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            phi = _phi_sequence(b, 10, lam)
            for j in range(10):
                a, beta, g = b.recurrence(j)
                lhs = a * phi[j + 1]
                rhs = (lam - beta) * phi[j]
                if j >= 1:
                    rhs -= g * phi[j - 1]
                assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_to_monomial_matches_recurrence_eval(rng):
    specs = [builtin_basis(kind) for kind in BASIS_KINDS]
    specs.append(builtin_basis("newton", nodes=rng.uniform(-1, 1, 13)))
    specs.append(stepped_dg_basis(12))
    for spec in specs:
        deg = 12
        C = to_monomial(spec, deg)
        for _ in range(20):
            lam = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            powers = lam ** np.arange(deg + 1)
            for j in (1, 5, deg):
                direct = _phi_sequence(spec, j, lam)[j]
                via_monomial = C[j] @ powers
                assert abs(direct - via_monomial) <= 1e-10 * max(abs(direct), 1.0)


def test_degree_gradedness_of_conversion(rng):
    for kind in BASIS_KINDS:
        C = to_monomial(builtin_basis(kind), 9)
        for i in range(10):
            assert C[i, i] != 0.0
            assert np.all(C[i, i + 1 :] == 0.0)


def test_custom_basis_roundtrip_against_builtin():
    cheb = builtin_basis("chebyshev1")
    table = [cheb.recurrence(j) for j in range(7)]
    custom = ThreeTermBasis(
        kind="custom",
        alpha=tuple(t[0] for t in table),
        beta=tuple(t[1] for t in table),
        gamma=tuple(t[2] for t in table),
    )
    for j in range(8):
        assert _phi_sequence(custom, j, 0.3)[j] == pytest.approx(_phi_sequence(cheb, j, 0.3)[j])
    with pytest.raises(BasisCoefficientError):
        _phi_sequence(custom, 8, 0.3)


def test_gamma0_is_never_read():
    # a nonsense gamma_0 entry has no effect because phi_{-1} = 0
    base = ThreeTermBasis(kind="custom", alpha=(1.0, 0.5), beta=(0.0, 0.0), gamma=(0.0, 0.5))
    spiked = ThreeTermBasis(kind="custom", alpha=(1.0, 0.5), beta=(0.0, 0.0), gamma=(99.0, 0.5))
    for j in range(3):
        assert _phi_sequence(base, j, 0.7)[j] == _phi_sequence(spiked, j, 0.7)[j]


def test_basis_validation_errors():
    with pytest.raises(ValueError):
        builtin_basis("hermite")
    with pytest.raises(ValueError):
        builtin_basis("newton")
    with pytest.raises(ValueError):
        ThreeTermBasis(kind="custom", alpha=(1.0, 0.0))
    with pytest.raises(ValueError):
        DegreeGradedBasis(shift=(0.0, 0.0), lower=((1.0, 2.0),))
    with pytest.raises(BasisCoefficientError):
        _phi_sequence(stepped_dg_basis(3), 5, 1.0)
