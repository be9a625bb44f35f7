"""Simplicity of Leavitt path algebras and of their commutator Lie algebras.

The package models finite directed multigraphs, decides simplicity and pure
infinite simplicity of the associated path algebra, decides simplicity of the
commutator Lie algebra over any prime subfield by two independent routes
(B-vector span membership and K-theoretic order/divisibility of the unit
class), and certifies positive membership verdicts with exact symbolic
commutator witnesses in the Cohn path algebra.
"""

__version__ = "0.1.0"

from .analysis import (
    NoCycle,
    NoExitCycle,
    SimplicityReport,
    Unreached,
    cycle_vertices,
    find_cycle_without_exit,
    is_purely_infinite_simple,
    is_simple_lpa,
    is_trivial_lpa,
    reachability,
    simplicity_reports,
)
from .cohn import (
    CohnElement,
    CohnTerm,
    CommutatorIdentity,
    CommutatorWitnessReport,
    PathWord,
    PreconditionError,
    VertexWitness,
    commutator,
    path_bracket_witness,
    n_generator,
    trace_vector,
    verify_witness,
    vertex_witness,
)
from .graph import (
    EdgeId,
    Graph,
    GraphError,
    GraphParseError,
    VertexId,
    adjacency_matrix,
    b_vectors,
    family,
    family_names,
    graph_from_adjacency,
    m_matrix,
    parse_graph,
    serialize_graph,
)
from .linalg import (
    FieldSpec,
    K0Presentation,
    SmithDecomposition,
    class_order,
    cokernel,
    is_p_divisible,
    is_prime,
    smith_normal_form,
    span_membership,
)
from .verdict import (
    INAPPLICABLE,
    NOT_SIMPLE,
    SIMPLE,
    GraphInvariants,
    KpReport,
    LieVerdict,
    kp_consistency,
    leavitt_closed_form,
    lie_simplicity,
    lie_simplicity_via_k0,
    matrix_lie_simplicity,
    pointed_iso_decision,
    vertex_combination_in_commutator,
)

__all__ = [
    "__version__",
    # graph
    "VertexId", "EdgeId", "Graph", "GraphError", "GraphParseError",
    "adjacency_matrix", "b_vectors", "m_matrix", "graph_from_adjacency",
    "parse_graph", "serialize_graph", "family", "family_names",
    # analysis
    "Unreached", "NoExitCycle", "NoCycle", "SimplicityReport",
    "reachability", "cycle_vertices", "find_cycle_without_exit", "simplicity_reports",
    "is_simple_lpa", "is_purely_infinite_simple", "is_trivial_lpa",
    # linalg
    "FieldSpec", "K0Presentation", "SmithDecomposition",
    "span_membership", "smith_normal_form", "cokernel",
    "class_order", "is_p_divisible", "is_prime",
    # cohn
    "PathWord", "CohnTerm", "CohnElement", "PreconditionError",
    "commutator", "trace_vector", "n_generator", "verify_witness",
    "VertexWitness", "vertex_witness",
    "CommutatorIdentity", "CommutatorWitnessReport", "path_bracket_witness",
    # verdict
    "SIMPLE", "NOT_SIMPLE", "INAPPLICABLE", "GraphInvariants", "LieVerdict", "KpReport",
    "lie_simplicity", "matrix_lie_simplicity", "leavitt_closed_form",
    "lie_simplicity_via_k0", "vertex_combination_in_commutator",
    "pointed_iso_decision", "kp_consistency",
]
