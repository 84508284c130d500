"""Property tests over basis kind x pencil side x size, up to kn = 240.

Every pencil is solved as the CLI solves it: through the anchor of its
polynomial, with its factor.
"""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from orthopencil import AnsatzFactor, anchor_pencil, make_m1, make_m2, pencil_eigen
from conftest import ALL_KINDS, random_problem

EPS = np.finfo(float).eps
# (n, k): kn from 6 to 240
SHAPES = ((2, 3), (4, 5), (6, 8), (10, 12), (25, 8), (40, 6))


def _pencil(rng, kind, side, n, k):
    """(L, P, factor): a random P and its anchor pencil or a random M1/M2 pencil."""
    P = random_problem(rng, n, k, kind)
    if side == "anchor":
        return anchor_pencil(P), P, None
    # a random factor has full rank almost surely, so the pencil is regular
    f = AnsatzFactor(rng.uniform(-1.0, 1.0, k), rng.uniform(-1.0, 1.0, (k * n, (k - 1) * n)), side)
    return (make_m1(P, f) if side == "M1" else make_m2(P, f)), P, f


@given(kind=st.sampled_from(ALL_KINDS), side=st.sampled_from(("anchor", "M1", "M2")),
       shape=st.sampled_from(SHAPES), seed=st.integers(0, 2**32 - 1))
@example(kind="monomial", side="M2", shape=(40, 6), seed=1)
def test_regular_pencils_solve_with_small_residuals(kind, side, shape, seed):
    n, k = shape
    L, P, f = _pencil(np.random.default_rng(seed), kind, side, n, k)
    triples = pencil_eigen(L, P, f, left=False)  # raises SingularPencilError on a false verdict
    assert len(triples) == k * n
    assert max(t.residual for t in triples) <= 100 * k * n * EPS
