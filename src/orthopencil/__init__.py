"""Linearizations of matrix polynomials in orthogonal and degree-graded bases.

The package builds the anchor pencils of a matrix polynomial, parameterizes
the pencil spaces defined by the right/left ansatz identities, constructs the
block-symmetric members, recovers eigenvectors, and cross-checks everything
against a brute-force spectral oracle.
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
    eval_phi,
    phi_vector,
    to_monomial,
)
from .blocksym import (
    OpCounter,
    build_dm,
    build_dm_generic,
    build_dm_pencil,
    dm_basis,
    is_block_symmetric,
)
from .errors import (
    BasisCoefficientError,
    DimensionMismatchError,
    OrthopencilError,
    RecoveryError,
    SingularMatrixPolynomialError,
    SingularPencilError,
)
from .matpoly import MatrixPolynomial, is_regular, monomial_coefficients, reversal_monomial
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
    leading_principal,
    pencil_block_transpose,
    reversal_pencil,
    sample_points,
)
from .spectral import (
    Eigentriple,
    eigenvalue_exclusion,
    exclusion_left,
    pencil_eigen,
    qz_solve,
    recover_left,
    recover_right,
    spectrum_of,
)

__version__ = "0.1.0"
