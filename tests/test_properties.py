"""Property tests over basis kind x pencil side x size, up to kn = 240.

Every pencil is solved as the CLI solves it, by pencil_eigen(P, factor)
through the anchor of P.  The right vectors of an M1/M2 solve are also
checked on the pencil make_m1/make_m2 builds from (P, factor), with a dense
residual, so the pencil the solve forms is the one users build.
"""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from orthopencil import AnsatzFactor, make_m1, make_m2, pencil_eigen
from conftest import ALL_KINDS, random_problem

EPS = np.finfo(float).eps
# (n, k): kn from 6 to 240
SHAPES = ((2, 3), (4, 5), (6, 8), (10, 12), (25, 8), (40, 6))


def _problem(rng, kind, side, n, k):
    """(P, factor): a random P and no factor, or a random M1/M2 factor."""
    P = random_problem(rng, n, k, kind)
    if side == "anchor":
        return P, None
    # a random factor has full rank almost surely, so the pencil is regular
    return P, AnsatzFactor(rng.uniform(-1.0, 1.0, k),
                           rng.uniform(-1.0, 1.0, (k * n, (k - 1) * n)), side)


def _dense_residuals(L, triples):
    """||L(lam) u|| / ((||X|| |lam| + ||Y||) ||u||) of every right vector u on
    L's own matrices (||X u|| / (||X|| ||u||) at infinite eigenvalues)."""
    nx, ny = np.linalg.norm(L.X), np.linalg.norm(L.Y)
    out = []
    for lam, u in zip(triples.eigenvalues, triples.right.T):
        if np.isinf(lam):
            r = np.linalg.norm(L.X @ u) / nx
        else:
            r = np.linalg.norm((L.X * lam + L.Y) @ u) / (nx * abs(lam) + ny)
        out.append(r / np.linalg.norm(u))
    return np.array(out)


@given(kind=st.sampled_from(ALL_KINDS), side=st.sampled_from(("anchor", "M1", "M2")),
       shape=st.sampled_from(SHAPES), seed=st.integers(0, 2**32 - 1))
@example(kind="monomial", side="M2", shape=(40, 6), seed=1)
def test_regular_pencils_solve_with_small_residuals(kind, side, shape, seed):
    n, k = shape
    P, f = _problem(np.random.default_rng(seed), kind, side, n, k)
    triples = pencil_eigen(P, f, left=False)  # raises SingularPencilError on a false verdict
    assert triples.eigenvalues.size == k * n
    assert triples.residual.max() <= 100 * k * n * EPS
    if f is not None:
        # the pencil solved is the one users build from (P, f)
        L = make_m1(P, f) if side == "M1" else make_m2(P, f)
        assert _dense_residuals(L, triples).max() <= 100 * k * n * EPS
