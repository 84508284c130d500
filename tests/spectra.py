"""Spectrum references for tests: spectrum matching and QZ on a pencil's own matrices.

``compare_spectra`` pairs two spectra's finite eigenvalues; it is kept out of
the package so that importing orthopencil never loads scipy.optimize.
``qz_on_pencil`` solves a pencil by QZ on its own (X, Y), with dense
residuals, as a reference for ``pencil_eigen``, which solves every pencil
through the anchor of its polynomial.  The library and the CLI use neither.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from orthopencil import spectral
from orthopencil.oracle import Spectrum


def qz_on_pencil(L, left=True):
    """Eigentriples of the pencil L from scipy's QZ on (L.Y, -L.X), sorted as
    pencil_eigen sorts its own, with unit vectors, left ones z^T L(lam) = 0,
    and the dense residuals ||(X*lam + Y) u|| / (||X|| |lam| + ||Y||)
    (||X u|| / ||X|| at infinite eigenvalues)."""
    out = scipy.linalg.eig(L.Y, -L.X, left=left, right=True, homogeneous_eigvals=True)
    right = out[-1] / np.linalg.norm(out[-1], axis=0)
    lefts = np.conj(out[1]) / np.linalg.norm(out[1], axis=0) if left else None
    lams = spectral._eigenvalues(*out[0])
    values = np.array(lams, dtype=complex)
    infinite = np.isinf(values)
    R = (L.X @ right) * np.where(infinite, 1.0, values) + (L.Y @ right) * ~infinite
    nx = np.linalg.norm(L.X)
    scales = np.where(infinite, nx, nx * np.abs(values) + np.linalg.norm(L.Y))
    residuals = np.linalg.norm(R, axis=0) / np.maximum(scales, 1e-300)
    return spectral._sort_triples([
        spectral.Eigentriple(lams[j], right[:, j], None if lefts is None else lefts[:, j],
                             float(residuals[j]))
        for j in range(len(lams))])


@dataclass(frozen=True)
class SpectrumComparison:
    matched: bool
    max_distance: float
    pairs: tuple
    infinite_match: bool
    size_mismatch: bool


def compare_spectra(a: Spectrum, b: Spectrum, tol: float = 1e-6) -> SpectrumComparison:
    """Optimal bipartite matching of the finite eigenvalues by distance.

    Symmetric in its arguments.  Lists of unequal length are matched up to the
    shorter length and flagged.  (A greedy nearest-pair matching would do for
    well separated spectra; the assignment solver is exact and just as cheap
    at these sizes.)
    """
    fa, fb = a.finite, b.finite
    size_mismatch = fa.size != fb.size
    if fa.size == 0 or fb.size == 0:
        return SpectrumComparison(
            matched=not size_mismatch and a.infinite_count == b.infinite_count,
            max_distance=0.0,
            pairs=(),
            infinite_match=a.infinite_count == b.infinite_count,
            size_mismatch=size_mismatch,
        )
    cost = np.abs(fa.reshape(-1, 1) - fb.reshape(1, -1))
    rows, cols = linear_sum_assignment(cost)
    pairs = tuple((int(r), int(c)) for r, c in zip(rows, cols))
    max_distance = float(cost[rows, cols].max())
    infinite_match = a.infinite_count == b.infinite_count
    matched = (not size_mismatch) and infinite_match and max_distance <= tol
    return SpectrumComparison(matched, max_distance, pairs, infinite_match, size_mismatch)
