"""Distance-geometry matrix families, realizability certification, and
exact symbolic determinant factorization.

The package has three layers: domain types and matrix builders (generic
over floats, exact rationals and sparse polynomials), numeric/exact
analysis (definiteness, cone membership, spectral embedding, volumes,
form identities), and exact symbolic factorization of the structured
determinants with verified certificates.

`import distgeom` loads no submodule: each public name below imports the
submodule that defines it on first access (PEP 562), so a caller compiles
only the layers it reaches.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOMES = {
    **dict.fromkeys((
        "DimensionMismatch", "DistanceVector", "DistgeomError", "InputFormatError",
        "MassParams", "NotEmbeddableError", "PairIndex", "PairSpace",
        "PointConfiguration", "ResourceCapError", "VerificationError",
        "affine_rank", "distances", "elementary_symmetric", "is_singular",
    ), "core"),
    **dict.fromkeys((
        "GenericEntryTable", "Matrix", "bordered", "cayley_menger", "edm",
        "lift_reduced", "nbody_matrix", "reduced_edm", "w_matrix",
    ), "builders"),
    **dict.fromkeys((
        "DefinitenessReport", "EmbeddingResult", "MEMBER_BOUNDARY",
        "MEMBER_INTERIOR", "MEMBER_OUTSIDE", "VERDICT_INDEFINITE", "VERDICT_PD",
        "VERDICT_PSD", "biquadratic_form", "cone_membership", "definiteness",
        "determinant", "edm_quadratic_form", "embed", "gram_quadratic_form",
        "mass_quadratic_form", "nbody_quartic_form", "pair_products",
        "reduced_quadratic_form", "simplex_volume_sq",
    ), "analysis"),
    **dict.fromkeys(("SparsePoly", "VarTable", "exact_divide", "poly_det", "variables"), "polys"),
    **dict.fromkeys((
        "FactorizationCertificate", "IdentityReport", "SignDictionaryReport",
        "annihilates", "factor_nbody", "factor_w", "heron_check", "kernel_witness",
        "mass_distance_table", "nbody_sigma_value", "sign_dictionary",
        "symbolic_bordered_masses_det", "symbolic_cm_det", "symbolic_nbody_det",
    ), "factorization"),
}

__all__ = list(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
