"""Exact solvers and matrix certificates for zero forcing and its q-analogue.

Core surface: bitmask graphs (:mod:`zqforce.graphs`), the adversarial game
solver (:mod:`zqforce.game`), bipartite contraction criteria
(:mod:`zqforce.contraction`), threshold-graph formulas and certificates
(:mod:`zqforce.threshold`), symmetric spectral checks and family
certificates (:mod:`zqforce.spectral`), and named-family generators with a
known-values registry (:mod:`zqforce.families`).
"""

from .graphs import (
    Graph,
    build_graph,
    ccr_closure,
    parse_edge_list,
    parse_graph6,
    to_graph6,
    uncoloured_components,
)
from .game import (
    InfeasibleError,
    ZqResult,
    admissible_families,
    psd_closure,
    rule3_closure,
    z0_number,
    z_number,
    zq_chain,
    zq_number,
)
from .contraction import (
    ContractedBigraph,
    bipartite_contraction,
    degree_one_witness,
    max_matching,
)
from .threshold import (
    CreationSequence,
    build_threshold_graph,
    certificate_matrix,
    parse_creation_sequence,
    zq_formula,
)
from .spectral import (
    Inertia,
    book_certificate,
    bipartite_prism_certificate,
    in_Sq,
    inertia,
    kneser_certificate,
    nullity,
    srg_certificate,
)
from .families import (
    FamilySpec,
    KnownValue,
    cartesian_product,
    generate,
    kneser_structure_check,
    known_values,
    probe_conjecture,
    reproduce_report,
)

__version__ = "0.1.0"
