"""Property tests over basis kind x pencil side x size, up to kn = 240.

Every pencil is solved as the CLI solves it, by pencil_eigen(P, factor)
through the anchor of P, on whichever rung serves it: the eigvals rung
(eigenvectors from P at geev's eigenvalues) or QZ.  The right vectors of an
M1/M2 solve are also checked on the pencil make_m1/make_m2 builds from
(P, factor), with a dense residual, so the pencil the solve forms is the one
users build; every residual the eigvals rung reports is that dense residual
up to rounding.  The left vectors of every two-sided solve are checked with
the dense left residual on the same pencil (the anchor's own for no
factor).  The reference eigenvalues come from QZ on the pencil's own
matrices (``spectra.qz_on_pencil``), which shares no solver with the anchor
route.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from orthopencil import AnsatzFactor, anchor_pencil, make_m1, make_m2, pencil_eigen, spectral
from conftest import ALL_KINDS, random_problem
from spectra import qz_on_pencil

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


def _dense_residuals(L, triples, left=False):
    """||L(lam) u|| / ((||X|| |lam| + ||Y||) ||u||) of every right vector u on
    L's own matrices (||X u|| / (||X|| ||u||) at infinite eigenvalues), or
    with ``left`` ||w^T L(lam)|| / ((||X|| |lam| + ||Y||) ||w||) of every left
    vector w (||w^T X|| / (||X|| ||w||) at infinite eigenvalues)."""
    X, Y = (L.X.T, L.Y.T) if left else (L.X, L.Y)
    nx, ny = np.linalg.norm(X), np.linalg.norm(Y)
    out = []
    for lam, u in zip(triples.eigenvalues, (triples.left if left else triples.right).T):
        if np.isinf(lam):
            r = np.linalg.norm(X @ u) / nx
        else:
            r = np.linalg.norm((X * lam + Y) @ u) / (nx * abs(lam) + ny)
        out.append(r / np.linalg.norm(u))
    return np.array(out)


def _condition(L, triples):
    """The absolute condition number (||X|| |lam| + ||Y||) ||z|| ||u|| / |z^T X u|
    of every eigenvalue of the pencil L, from the two-sided unit vectors."""
    lams = triples.eigenvalues
    pairing = np.abs(np.einsum("im,im->m", triples.left, L.X @ triples.right))
    return (np.linalg.norm(L.X) * np.abs(lams) + np.linalg.norm(L.Y)) / pairing


@given(kind=st.sampled_from(ALL_KINDS), side=st.sampled_from(("anchor", "M1", "M2")),
       shape=st.sampled_from(SHAPES), seed=st.integers(0, 2**32 - 1))
@example(kind="monomial", side="M2", shape=(40, 6), seed=1)
@example(kind="legendre", side="M2", shape=(10, 12), seed=2)
@example(kind="newton", side="M1", shape=(25, 8), seed=4)
@example(kind="custom", side="anchor", shape=(10, 12), seed=5)
@example(kind="monomial", side="anchor", shape=(40, 6), seed=0)
@example(kind="custom", side="M2", shape=(4, 5), seed=1)
def test_regular_pencils_solve_with_small_residuals(kind, side, shape, seed):
    n, k = shape
    P, f = _problem(np.random.default_rng(seed), kind, side, n, k)
    bound = 10 * k * n * EPS
    served, inner = [], spectral._companion_solve

    def spy(*args):
        served.append(inner(*args))
        return served[-1]

    # raises SingularPencilError on a false verdict
    with mock.patch.object(spectral, "_companion_solve", spy):
        triples = pencil_eigen(P, f, left=False)
        both = pencil_eigen(P, f, left=True)
    assert triples.eigenvalues.size == k * n
    # the certificate reads only what both solves compute, so the same rung
    # serves with and without left vectors and gives the same eigenvalues
    # and residuals, bit for bit
    certified = [out is not None for out in served]
    assert certified[0] == certified[1]
    assert triples.eigenvalues.tobytes() == both.eigenvalues.tobytes()
    assert triples.residual.tobytes() == both.residual.tobytes()
    # a certified rung meets eta_L <= 10 kn eps in every column, and so does
    # eta_P of P's right vectors, the side that eig solves; QZ, which no
    # certificate guards, still has small residuals
    for record in (triples, both):
        etas = (record.residual, record.p_right.eta)
        assert max(e.max() for e in etas) <= (bound if certified[0] else 10 * bound)
    # P's left vectors, which only recover solves and judges by its tol
    assert both.p_left.eta.max() <= 100 * k * n * EPS
    if f is not None:
        # the pencil solved is the one users build from (P, f)
        L = make_m1(P, f) if side == "M1" else make_m2(P, f)
        assert _dense_residuals(L, triples).max() <= 100 * k * n * EPS
    else:
        L = anchor_pencil(P)
    # the left vectors too are L's, whichever side the solve maps them to
    assert _dense_residuals(L, both, left=True).max() <= 100 * k * n * EPS
    # eta_L on the eigvals rung, read off P-sized data for the anchor and M1,
    # is the dense residual of the stored unit vector up to rounding
    for record in served:
        if record is not None:
            assert np.all(np.abs(record.residual - _dense_residuals(L, record)) <= k * n * EPS)
    # the eigenvalues agree with QZ's on L to within twice the certified
    # backward error times each eigenvalue's condition number
    reference = qz_on_pencil(L)
    kappa = _condition(L, reference)
    for record in (triples, both):
        dist = np.abs(record.eigenvalues[:, None] - reference.eigenvalues[None, :])
        nearest = dist.argmin(axis=1)
        assert np.all(dist.min(axis=1) <= 2 * bound * kappa[nearest])
        assert np.all(dist.min(axis=0) <= 2 * bound * kappa)
