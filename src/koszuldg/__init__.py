"""Exact-arithmetic engine for torsion DG modules over polynomial
cohomology rings: Koszul duality, bigraded Ext, the finite Adams spectral
sequence, and change of groups, everything over the rationals with
reproducible windowed certificates."""

from .grlin import GradedMap, GradedVS, Window
from .algebra import (
    ChainMap,
    DGModule,
    ExtAlgebra,
    FreeDGModule,
    GroupData,
    PolyAlgebra,
    basic_injective,
    catalog,
    direct_sum,
    ext_algebra,
    fibre,
    gamma_m,
    hom_from_free,
    homology,
    homology_dims,
    homology_module,
    koszul_model,
    mapping_cone,
    matlis_dual,
    named_group,
    poly_algebra,
    poly_as_module,
    residue_field,
    tensor_over_ext,
    to_degreewise,
)
from .resolve import (
    BigradedTable,
    ext_bigraded,
    hilbert_function,
    injective_resolution,
    minimal_free_resolution,
    rhom_homology,
    tor_betti,
)
from .duality import (
    cartan_map,
    double_centralizer_check,
    end_dga,
    formality_map,
    functor_S,
    functor_T,
    hom_to_k,
    k_lambda,
    recognize_k,
    roundtrip_check,
)
from .adams import (
    adams_tower,
    e2_page,
    injective_case_check,
    realize_injective,
    whitehead_detect,
)
from .groups import (
    RingMap,
    adjunction_check,
    catalog_ring_maps,
    coextend_scalars,
    derived_dual,
    extend_scalars,
    r_shriek_left,
    r_upper_shriek,
    restrict_scalars,
    ring_map,
    shift_law_check,
)
from .modfile import parse_module, parse_module_file, print_module

__version__ = "0.1.0"
