"""Chord diagrams, circle graphs, and exact weight-system computations.

The library computes the signed even-cycle weight systems, the mod-2
cycle-count weight system, the GF(2) nondegeneracy indicator, and the
universal sl2 weight system (by two independent methods), together with
projections onto primitive elements and a verification harness for the
4-term, 2-term, mutation, and parity identities they satisfy.
"""

from .diagrams import (
    ChordDiagram,
    DiagramError,
    MutationKind,
    Share,
    apply_mutation,
    canonical_code,
    enumerate_diagrams,
    find_shares,
    format_diagram,
    parse_diagram,
    random_diagram,
)
from .fourterm import (
    RelationQuadruple,
    VerificationReport,
    diagram_four_term,
    verify_weight_system,
)
from .graphs import (
    GraphError,
    SimpleGraph,
    cycle_sign,
    enumerate_cycles,
    enumerate_graphs,
    format_graph,
    gf2_rank,
    graph_canonical_mask,
    intersection_graph,
    parse_graph,
    realize_diagram,
    sign_matrix,
)
from .invariants import (
    FIVE_WHEEL,
    THREE_PRISM,
    e_l_parity,
    r_k,
    r_k_graph,
    r_k_via_wc,
    sl2_graph_extension_check,
    sl2_on_graph,
    sl2_projected,
    sl2_projected_batch,
    w_c,
)
from .partitions import partition_log_full
from .polynomials import IntPolynomial
from .sl2 import sl2_oracle, sl2_recursive

__version__ = "0.1.0"

__all__ = [
    "ChordDiagram",
    "DiagramError",
    "FIVE_WHEEL",
    "GraphError",
    "IntPolynomial",
    "MutationKind",
    "RelationQuadruple",
    "Share",
    "SimpleGraph",
    "THREE_PRISM",
    "VerificationReport",
    "apply_mutation",
    "canonical_code",
    "cycle_sign",
    "diagram_four_term",
    "e_l_parity",
    "enumerate_cycles",
    "enumerate_diagrams",
    "enumerate_graphs",
    "find_shares",
    "format_diagram",
    "format_graph",
    "gf2_rank",
    "graph_canonical_mask",
    "intersection_graph",
    "parse_diagram",
    "parse_graph",
    "partition_log_full",
    "r_k",
    "r_k_graph",
    "r_k_via_wc",
    "random_diagram",
    "realize_diagram",
    "sign_matrix",
    "sl2_graph_extension_check",
    "sl2_on_graph",
    "sl2_oracle",
    "sl2_projected",
    "sl2_projected_batch",
    "sl2_recursive",
    "verify_weight_system",
    "w_c",
]
