"""schemelab: coherent configurations and association schemes at desk scale.

Construction of the classical pseudocyclic families, numerical Wedderburn
decomposition of adjacency algebras, explicit one-point extensions via
splitting sets with a Weisfeiler-Leman closure oracle, schurity/separability
testing, and 2-design extraction.

The public names below are resolved on first access (PEP 562), so importing
the package, or one of its modules, loads only the modules that are read.
"""

import importlib

from . import errors

__version__ = "0.1.0"

_EXPORTS = {
    "cc_core": (
        "CoherentConfig",
        "IntersectionTensor",
        "canonicalize_colors",
        "complex_product",
        "indistinguishing_number",
        "indistinguishing_numbers",
        "is_commutative",
        "is_equivalenced",
        "is_pseudocyclic_combinatorial",
        "is_symmetric",
        "partition_bijection",
        "reg_number",
        "reg_numbers",
        "same_partition",
        "scheme_indistinguishing_number",
        "validate_config",
    ),
    "permgroup": (
        "PermutationGroup",
        "automorphism_group",
        "group_closure",
        "is_frobenius",
        "orbital_scheme",
        "point_stabilizer_orbits",
    ),
    "constructors": (
        "FiniteField",
        "affine_plane_from_lines",
        "affine_scheme",
        "cyclotomic_scheme",
        "frobenius_example_scheme",
        "hollman_scheme",
        "passman_scheme",
        "regular_scheme",
    ),
    "spectral": (
        "SpectralDecomposition",
        "decompose",
        "frame_number",
        "is_pseudocyclic_spectral",
        "terwilliger_dimension",
        "verify_afm_identity",
    ),
    "extension": (
        "check_pair_condition",
        "check_triple_condition",
        "coherent_closure",
        "explicit_extension",
        "is_semiregular",
        "point_partition",
        "semiregularity_report",
        "splitting_set",
    ),
    "analysis": (
        "ColorBijection",
        "Design",
        "algebraic_automorphism_group",
        "algebraic_fusion",
        "algebraic_isomorphism",
        "design_from_scheme",
        "extend_algebraic_iso",
        "fuse",
        "is_schurian",
        "is_separable_desk",
        "recognize_affine",
        "t_condition",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_MODULE_OF))
