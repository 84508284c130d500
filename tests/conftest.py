import numpy as np
import pytest
from hypothesis import settings

from orthopencil import DegreeGradedBasis, MatrixPolynomial, ThreeTermBasis, builtin_basis

# Property tests run the same few examples on every run: a small, derandomized
# sweep with no example database and no per-example deadline (a reference QZ at kn = 240
# takes a good part of a second on a slow host).
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=6,
                          database=None)
settings.load_profile("tier1")

BASIS_KINDS = ("monomial", "chebyshev1", "chebyshev2", "legendre")
# every basis kind: the random CLI kinds plus the table-driven ones
ALL_KINDS = BASIS_KINDS + ("newton", "custom", "degree_graded")


def random_problem(rng, n, k, kind="chebyshev1", nodes=None):
    if kind == "newton":
        nodes = nodes if nodes is not None else rng.uniform(-1.0, 1.0, k + 1)
        basis = builtin_basis("newton", nodes=nodes)
    elif kind == "custom":
        basis = ThreeTermBasis(
            kind="custom",
            alpha=rng.uniform(0.5, 1.5, k),
            beta=rng.uniform(-0.5, 0.5, k),
            gamma=(0.0,) + tuple(rng.uniform(0.1, 0.9, k - 1)),
        )
    elif kind == "degree_graded":
        basis = DegreeGradedBasis(
            shift=rng.uniform(-0.5, 0.5, k),
            lower=tuple(rng.uniform(-0.3, 0.3, i - 1) for i in range(2, k + 1)),
        )
    else:
        basis = builtin_basis(kind)
    coeffs = tuple(rng.uniform(-1.0, 1.0, (n, n)) for _ in range(k + 1))
    return MatrixPolynomial(coeffs, basis)


def stepped_dg_basis(k):
    """Degree-graded basis with phi_i = lam * phi_{i-1} + 1.

    The i = 1 step has no constant-tail coefficients, so phi_1 = lam + 1
    forces shift_1 = -1; every later step carries a single phi_0 coefficient.
    """
    shift = (-1.0,) + (0.0,) * (k - 1)
    lower = tuple((1.0,) + (0.0,) * (i - 2) for i in range(2, k + 1))
    return DegreeGradedBasis(shift=shift, lower=lower)


def monomial_dg_basis(k):
    shift = (0.0,) * k
    lower = tuple((0.0,) * (i - 1) for i in range(2, k + 1))
    return DegreeGradedBasis(shift=shift, lower=lower)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
