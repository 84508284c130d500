"""Property tests over basis kind x pencil side x size, up to kn = 240.

Every pencil is solved as the CLI solves it, by pencil_eigen(P, factor)
through the anchor of P, on whichever rung serves it: the eigvals rung
(eigenvectors from P at geev's eigenvalues) or QZ.  The pencil's
eigenvectors, which the record does not keep, are built from it: phi kron x
of P's vectors on the structured side (``spectra.kron_vectors``), and SVD
null vectors on the other (``spectra.null_vectors``, at a sample of the
eigenvalues).  Both are checked with a dense residual on the pencil
make_m1/make_m2 builds from (P, factor) (the anchor's own for no factor), so
the pencil the solve forms is the one users build; every residual the
eigvals rung reports is the dense residual of the vector it describes up to
rounding: phi kron x, or for M2 the mapped S^-1 Z that
``spectral._structured_residuals`` reads.  The reference eigenvalues come
from QZ on the pencil's own matrices (``spectra.qz_on_pencil``), which
shares no solver with the anchor route.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from orthopencil import AnsatzFactor, anchor_pencil, make_m1, make_m2, pencil_eigen, spectral
from conftest import ALL_KINDS, random_problem
from spectra import kron_vectors, null_vectors, qz_on_pencil

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


def _dense_residuals(L, lams, U, left=False):
    """||L(lam) u|| / ((||X|| |lam| + ||Y||) ||u||) of every column u of U as
    a right vector on L's own matrices (||X u|| / (||X|| ||u||) at infinite
    eigenvalues), or with ``left`` ||u^T L(lam)|| / ((||X|| |lam| + ||Y||)
    ||u||) as a left vector (||u^T X|| / (||X|| ||u||) at infinite
    eigenvalues)."""
    X, Y = (L.X.T, L.Y.T) if left else (L.X, L.Y)
    nx, ny = np.linalg.norm(X), np.linalg.norm(Y)
    out = []
    for lam, u in zip(lams, U.T):
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
    mapped, structured_residuals = [], spectral._structured_residuals

    def spy(*args):
        # a certified M2 record's residuals are those of the last call to
        # _structured_residuals, made during this solve
        record = inner(*args)
        served.append((record, mapped[-1] if mapped else None))
        return record

    def spy_residuals(*args):
        # M2's eigenvalues, its mapped S^-1 Z and their norms in solver
        # order, and the residuals reported for them
        mapped.append((*args[1:], structured_residuals(*args)))
        return mapped[-1][3]

    # raises SingularPencilError on a false verdict
    with mock.patch.object(spectral, "_companion_solve", spy), \
            mock.patch.object(spectral, "_structured_residuals", spy_residuals):
        triples = pencil_eigen(P, f, left=False)
        both = pencil_eigen(P, f, left=True)
    assert triples.eigenvalues.size == k * n
    # the certificate reads only what both solves compute, so the same rung
    # serves with and without left vectors and gives the same eigenvalues
    # and residuals, bit for bit
    certified = [record is not None for record, _ in served]
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
    # L's eigenvectors: phi kron x of P's vectors in the record on the
    # structured side (right for the anchor and M1, left for M2), and the
    # SVD's null vectors on the other, at a sample of the eigenvalues
    m2 = side == "M2"
    L = anchor_pencil(P) if f is None else (make_m2(P, f) if m2 else make_m1(P, f))
    lams = both.eigenvalues
    sample = np.unique(np.linspace(0, lams.size - 1, 8).astype(int))
    structured = kron_vectors(P, lams, (both.p_left if m2 else both.p_right).vectors)
    other = null_vectors(L, lams[sample], "right" if m2 else "left")
    # the pencil solved is the one users build from (P, f)
    assert _dense_residuals(L, lams, structured, left=m2).max() <= 100 * k * n * EPS
    assert _dense_residuals(L, lams[sample], other, left=not m2).max() <= 100 * k * n * EPS
    # eta_L on the eigvals rung is the dense residual up to rounding of the
    # vector it describes: phi kron x, read off P-sized data, for the anchor
    # and M1, and for M2, whose right vectors are not structured, the mapped
    # S^-1 Z that _structured_residuals was given, put in the record's order
    for record, call in served:
        if record is None:
            continue
        if m2:
            # the record reports, in its order, the residuals computed for
            # the vectors and norms passed; those residuals, exact at random
            # points (test_structured_residuals_match_the_dense_pencil), are
            # the dense ones up to rounding
            values, U, norms, out = call
            order = spectral._order(values)
            assert record.eigenvalues.tobytes() == values[order].tobytes()
            assert record.residual.tobytes() == out[order].tobytes()
            assert np.allclose(norms, np.linalg.norm(U, axis=0), rtol=k * n * EPS, atol=0)
            dense = _dense_residuals(L, values[order], U[:, order])
            assert np.all(np.abs(record.residual - dense) <= k * n * EPS)
        else:
            dense = _dense_residuals(L, lams, kron_vectors(P, lams, record.p_right.vectors))
            assert np.all(np.abs(record.residual - dense) <= k * n * EPS)
    # the eigenvalues agree with QZ's on L to within twice the certified
    # backward error times each eigenvalue's condition number
    reference = qz_on_pencil(L)
    kappa = _condition(L, reference)
    for record in (triples, both):
        dist = np.abs(record.eigenvalues[:, None] - reference.eigenvalues[None, :])
        nearest = dist.argmin(axis=1)
        assert np.all(dist.min(axis=1) <= 2 * bound * kappa[nearest])
        assert np.all(dist.min(axis=0) <= 2 * bound * kappa)
