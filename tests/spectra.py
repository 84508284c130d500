"""Spectrum matching for tests: pairs two spectra's finite eigenvalues.

Kept out of the package so that importing orthopencil never loads
scipy.optimize; the library and the CLI compare no spectra.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from orthopencil.oracle import Spectrum


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
