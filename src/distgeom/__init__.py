"""Distance-geometry matrix families, realizability certification, and
exact symbolic determinant factorization.

The package has three layers: domain types and matrix builders (generic
over floats, exact rationals and sparse polynomials), numeric/exact
analysis (definiteness, cone membership, spectral embedding, volumes,
form identities), and exact symbolic factorization of the structured
determinants with verified certificates.
"""

from types import ModuleType as _ModuleType

from .core import (
    DimensionMismatch,
    DistanceVector,
    DistgeomError,
    InputFormatError,
    MassParams,
    NotEmbeddableError,
    PairIndex,
    PairSpace,
    PointConfiguration,
    ResourceCapError,
    VerificationError,
    affine_rank,
    distances,
    elementary_symmetric,
    is_singular,
)
from .builders import (
    GenericEntryTable,
    Matrix,
    bordered,
    cayley_menger,
    edm,
    lift_reduced,
    nbody_matrix,
    reduced_edm,
    w_matrix,
)
from .analysis import (
    DefinitenessReport,
    EmbeddingResult,
    MEMBER_BOUNDARY,
    MEMBER_INTERIOR,
    MEMBER_OUTSIDE,
    VERDICT_INDEFINITE,
    VERDICT_PD,
    VERDICT_PSD,
    biquadratic_form,
    cone_membership,
    definiteness,
    determinant,
    edm_quadratic_form,
    embed,
    gram_quadratic_form,
    mass_quadratic_form,
    nbody_quartic_form,
    pair_products,
    reduced_quadratic_form,
    simplex_volume_sq,
)
from .polys import SparsePoly, VarTable, exact_divide, poly_det, variables
from .factorization import (
    FactorizationCertificate,
    IdentityReport,
    SignDictionaryReport,
    annihilates,
    factor_nbody,
    factor_w,
    heron_check,
    kernel_witness,
    mass_distance_table,
    nbody_sigma_value,
    sign_dictionary,
    symbolic_bordered_masses_det,
    symbolic_cm_det,
    symbolic_nbody_det,
)

__version__ = "0.1.0"

# The public names are the ones the imports above bind, less the submodules.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
