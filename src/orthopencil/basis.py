"""Polynomial bases defined by recurrence coefficients.

Two families are supported.  A three-term basis satisfies

    alpha_j * phi_{j+1}(x) = (x - beta_j) * phi_j(x) - gamma_j * phi_{j-1}(x)

with phi_{-1} = 0, phi_0 = 1 and alpha_j != 0.  A (monic) degree-graded basis
satisfies

    phi_i(x) = (x - shift_i) * phi_{i-1}(x) + sum_{j=0}^{i-2} lower_i^j * phi_j(x)

for i >= 1, where the sum is empty for i = 1.  Built-in three-term kinds are
generated lazily from closed-form rules; custom tables must be long enough for
any degree requested.

Both families answer one question, ``step(i) -> (a_i, s_i, {j: c_ij})``:

    a_i * phi_i(x) = (x - s_i) * phi_{i-1}(x) + sum_j c_ij * phi_j(x),  j <= i-2

A three-term basis gives (alpha_{i-1}, beta_{i-1}, {i-2: -gamma_{i-1}}) and a
degree-graded one (1, shift_i, lower_i).  Everything downstream (evaluation,
the change to monomials, the anchor pencil, the block-symmetric solver) is
written against ``step`` and never asks which family it holds.

Evaluation uses the forward recurrence, which is adequate for the small
degrees (k <= ~20) this package targets.  The argument x may be complex, and
it may be an array of points, evaluated elementwise by the same arithmetic;
the recurrence coefficients are always real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisCoefficientError

__all__ = [
    "ThreeTermBasis",
    "DegreeGradedBasis",
    "builtin_basis",
    "phi_vector",
    "to_monomial",
]

BUILTIN_KINDS = ("monomial", "chebyshev1", "chebyshev2", "legendre", "newton", "custom")


@dataclass(frozen=True)
class ThreeTermBasis:
    """A polynomial basis given by three-term recurrence coefficients.

    The coefficients and the Newton nodes must be finite."""

    kind: str
    alpha: tuple = ()
    beta: tuple = ()
    gamma: tuple = ()
    nodes: tuple = ()

    def __post_init__(self):
        if self.kind not in BUILTIN_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}")
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))
        object.__setattr__(self, "nodes", tuple(float(x) for x in self.nodes))
        if not np.isfinite(self.alpha + self.beta + self.gamma + self.nodes).all():
            raise ValueError("basis coefficients and nodes must be finite")
        if self.kind == "newton" and not self.nodes:
            raise ValueError("newton basis requires interpolation nodes")
        if self.kind == "custom":
            if not self.alpha:
                raise ValueError("custom basis requires explicit alpha coefficients")
            if any(a == 0.0 for a in self.alpha):
                raise ValueError("alpha_j must be nonzero for every j")

    def recurrence(self, j: int) -> tuple[float, float, float]:
        """Return (alpha_j, beta_j, gamma_j); gamma_0 is 0 by convention."""
        if j < 0:
            raise ValueError("recurrence index must be nonnegative")
        kind = self.kind
        if kind == "monomial":
            return 1.0, 0.0, 0.0
        if kind == "chebyshev1":
            return (1.0 if j == 0 else 0.5), 0.0, (0.0 if j == 0 else 0.5)
        if kind == "chebyshev2":
            return 0.5, 0.0, (0.0 if j == 0 else 0.5)
        if kind == "legendre":
            return (j + 1.0) / (2 * j + 1.0), 0.0, j / (2 * j + 1.0)
        if kind == "newton":
            if j >= len(self.nodes):
                raise BasisCoefficientError(
                    f"newton basis has {len(self.nodes)} nodes, index {j} requested"
                )
            return 1.0, self.nodes[j], 0.0
        if j >= len(self.alpha):
            raise BasisCoefficientError(
                f"custom basis supplies coefficients up to j={len(self.alpha) - 1}, "
                f"index {j} requested"
            )
        beta = self.beta[j] if j < len(self.beta) else 0.0
        gamma = self.gamma[j] if 0 < j < len(self.gamma) else 0.0
        return self.alpha[j], beta, gamma

    def step(self, i: int) -> tuple[float, float, dict]:
        """(a_i, s_i, {j: c_ij}) of the recurrence producing phi_i, i >= 1.

        The gamma term is kept when gamma is zero, so the anchor's recurrence
        rows hold -gamma = -0.0 there, as the three-term formula gives.
        """
        a, b, g = self.recurrence(i - 1)
        return a, b, ({i - 2: -g} if i >= 2 else {})


@dataclass(frozen=True)
class DegreeGradedBasis:
    """A monic degree-graded basis; ``shift[i-1]`` shifts step i, ``lower[i-2]``
    holds the coefficients of phi_0 .. phi_{i-2} in step i.  All of them must
    be finite."""

    shift: tuple = ()
    lower: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "shift", tuple(float(s) for s in self.shift))
        object.__setattr__(
            self, "lower", tuple(tuple(float(c) for c in row) for row in self.lower)
        )
        if not np.isfinite(self.shift + sum(self.lower, ())).all():
            raise ValueError("basis coefficients must be finite")
        for idx, row in enumerate(self.lower):
            i = idx + 2
            if len(row) != i - 1:
                raise ValueError(
                    f"lower[{idx}] must have length {i - 1} (coefficients for step {i})"
                )
        if len(self.lower) > max(len(self.shift) - 1, 0):
            raise ValueError("lower table extends beyond the supplied shifts")

    def step(self, i: int) -> tuple[float, float, dict]:
        """(1, shift_i, {j: lower_i^j}) of the recurrence producing phi_i, i >= 1;
        the lower coefficients are empty for i = 1."""
        if i < 1 or i > len(self.shift):
            raise BasisCoefficientError(
                f"degree-graded basis supplies shifts up to i={len(self.shift)}, "
                f"index {i} requested"
            )
        if i - 2 >= len(self.lower):
            raise BasisCoefficientError(
                f"degree-graded basis supplies lower rows up to i={len(self.lower) + 1}, "
                f"index {i} requested"
            )
        lower = self.lower[i - 2] if i >= 2 else ()
        return 1.0, self.shift[i - 1], dict(enumerate(lower))


BasisSpec = ThreeTermBasis | DegreeGradedBasis


def builtin_basis(kind: str, nodes=None) -> ThreeTermBasis:
    """Construct one of the built-in three-term bases.

    Closed-form coefficients: monomial alpha_j = 1, beta_j = gamma_j = 0;
    Chebyshev (1st kind) alpha_0 = 1, alpha_j = gamma_j = 1/2 for j >= 1;
    Chebyshev (2nd kind) alpha_j = 1/2, gamma_j = 1/2 for j >= 1;
    Legendre alpha_j = (j+1)/(2j+1), gamma_j = j/(2j+1);
    Newton with nodes x_j: alpha_j = 1, beta_j = x_j.
    """
    if kind == "custom":
        raise ValueError("custom bases are built directly from coefficient tables")
    if kind == "newton":
        if nodes is None or len(nodes) == 0:
            raise ValueError("newton basis requires interpolation nodes")
        return ThreeTermBasis(kind="newton", nodes=tuple(nodes))
    if kind not in BUILTIN_KINDS:
        raise ValueError(f"unknown basis kind {kind!r}")
    return ThreeTermBasis(kind=kind)


def _phi_sequence(spec: BasisSpec, jmax: int, lam) -> list:
    """Values [phi_0(lam), ..., phi_jmax(lam)] by forward recurrence.

    For an array lam every value is an array of lam's shape; each point
    gets the arithmetic a scalar lam gets."""
    values = [1.0 + 0.0 * lam]
    for i in range(1, jmax + 1):
        a, s, lower = spec.step(i)
        nxt = (lam - s) * values[-1]
        for j, c in lower.items():
            # subtracting -c keeps the three-term update (x - beta) phi - gamma phi
            # bit for bit, signed zeros of complex arguments included
            nxt = nxt - (-c) * values[j]
        values.append(nxt / a)
    return values


def phi_vector(spec: BasisSpec, k: int, lam) -> np.ndarray:
    """The stacked basis vector [phi_{k-1}(lam), ..., phi_1(lam), phi_0(lam)].

    Entries are in descending degree order; the last entry is always 1.  For
    a 1-D array of m points the result is k x m, one column per point.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    seq = _phi_sequence(spec, k - 1, lam)
    return np.array(seq[::-1], dtype=complex)


def to_monomial(spec: BasisSpec, k: int) -> np.ndarray:
    """Change-of-basis matrix C with phi_i(x) = sum_m C[i, m] x**m.

    C is (k+1) x (k+1) lower triangular; C[0, 0] = 1 and C[i, i] is the
    leading coefficient of phi_i (1 for degree-graded bases).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    C = np.zeros((k + 1, k + 1))
    C[0, 0] = 1.0
    for i in range(1, k + 1):
        a, s, lower = spec.step(i)
        row = np.zeros(k + 1)
        row[1 : i + 1] = C[i - 1, :i]
        row = row - s * C[i - 1]
        for j, c in lower.items():
            row = row + c * C[j]
        C[i] = row / a
    return C
