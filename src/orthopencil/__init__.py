"""Linearizations of matrix polynomials in orthogonal and degree-graded bases.

The package builds the anchor pencil of a matrix polynomial P, parameterizes
the pencil spaces defined by the right/left ansatz identities, and constructs
the block-symmetric members.  Every pencil of P, the anchor or an M1/M2
member, is solved through P's anchor (``pencil_eigen(L, P, factor)``), and
P's eigenvectors are recovered from it.  A brute-force spectral oracle gives
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
    pencil_block_transpose,
    sample_points,
)
from .spectral import (
    Eigentriple,
    eigenvalue_exclusion,
    pencil_eigen,
    qz_solve,
    recover_left,
    recover_right,
    spectrum_of,
)

__version__ = "0.1.0"
