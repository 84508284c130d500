"""Linearizations of matrix polynomials in orthogonal and degree-graded bases.

The package builds the anchor pencil of a matrix polynomial P, parameterizes
the pencil spaces defined by the right/left ansatz identities, and constructs
the block-symmetric members: each is the M1 pencil ``make_m1`` forms from
a factor whose free block solves the symmetry equations.  Every pencil of P,
the anchor or an M1/M2 member, is solved through P's anchor by
``pencil_eigen(P, factor)``, which forms the pencil from P and the factor
itself.  It returns one sorted, columnar ``Eigentriples`` (eigenvalues,
the pencil's residuals, and P's eigenvectors with their backward errors, as
arrays, one column per eigenvalue): the eigenvalues come from eigvals on
the companion matrix where that solve is certified and else from eigvals on
(s X + Y)^-1 X, the anchor (X, Y) at a real shift s, and every eigenvector
from P at them, on one path;
``recover_right`` and ``recover_left`` check P's eigenvectors in the record
against a tolerance and return them.  A brute-force spectral oracle gives
an independent reference spectrum.
"""

from .ansatz import (
    AnsatzFactor,
    check_linearization,
    dimension_m,
    identity_factor,
    make_m1,
    make_m2,
    multiplier_matrix,
    recover_factors,
    side_multiplier,
    verify_membership,
)
from .basis import (
    DegreeGradedBasis,
    ThreeTermBasis,
    builtin_basis,
    phi_vector,
    to_monomial,
)
from .blocksym import (
    build_dm,
    build_dm_generic,
    build_dm_pencil,
)
from .errors import (
    BasisCoefficientError,
    DimensionMismatchError,
    OrthopencilError,
    RecoveryError,
    SingularMatrixPolynomialError,
    SingularPencilError,
)
from .matpoly import MatrixPolynomial, monomial_coefficients
from .oracle import (
    ScalarPoly,
    Spectrum,
    det_poly,
    poly_roots,
    reference_spectrum,
)
from .pencil import (
    Pencil,
    anchor_pencil,
    block_transpose,
    eval_pencil,
    pencil_block_transpose,
    sample_points,
)
from .spectral import (
    Eigentriples,
    eigenvalue_exclusion,
    pencil_eigen,
    recover_left,
    recover_right,
)

__version__ = "0.1.0"
