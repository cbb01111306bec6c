"""schemelab: coherent configurations and association schemes at desk scale.

Construction of the classical pseudocyclic families, numerical Wedderburn
decomposition of adjacency algebras, explicit one-point extensions via
splitting sets with a Weisfeiler-Leman closure oracle, schurity/separability
testing, and 2-design extraction.
"""

from .cc_core import (
    CoherentConfig,
    IntersectionTensor,
    canonicalize_colors,
    complex_product,
    indistinguishing_number,
    indistinguishing_numbers,
    is_commutative,
    is_equivalenced,
    is_pseudocyclic_combinatorial,
    is_symmetric,
    partition_bijection,
    reg_number,
    reg_numbers,
    same_partition,
    scheme_indistinguishing_number,
    validate_config,
)
from .permgroup import (
    PermutationGroup,
    automorphism_group,
    group_closure,
    is_frobenius,
    orbital_scheme,
    point_stabilizer_orbits,
)
from .constructors import (
    FiniteField,
    affine_plane_from_lines,
    affine_scheme,
    cyclotomic_scheme,
    frobenius_example_scheme,
    hollman_scheme,
    passman_scheme,
    regular_scheme,
)
from .spectral import (
    SpectralDecomposition,
    decompose,
    frame_number,
    is_pseudocyclic_spectral,
    terwilliger_dimension,
    verify_afm_identity,
)
from .extension import (
    ExtensionResult,
    check_pair_condition,
    check_triple_condition,
    coherent_closure,
    explicit_extension,
    is_semiregular,
    point_partition,
    semiregularity_report,
    splitting_set,
)
from .analysis import (
    ColorBijection,
    Design,
    algebraic_automorphism_group,
    algebraic_fusion,
    algebraic_isomorphism,
    design_from_scheme,
    extend_algebraic_iso,
    fuse,
    is_schurian,
    is_separable_desk,
    recognize_affine,
    t_condition,
)
from . import errors

__version__ = "0.1.0"
