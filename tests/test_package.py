import importlib

import lpa_lie

MODULES = ("analysis", "cohn", "graph", "linalg", "verdict")

# the names the package exported before its list was built from the modules
PINNED = (
    "__version__",
    "VertexId", "EdgeId", "Graph", "GraphError", "GraphParseError",
    "adjacency_matrix", "b_vectors", "m_matrix", "graph_from_adjacency",
    "parse_graph", "serialize_graph", "family", "family_names",
    "Unreached", "NoExitCycle", "NoCycle", "SimplicityReport",
    "reachability", "simplicity_reports", "is_trivial_lpa",
    "FieldSpec", "K0Presentation", "SmithDecomposition",
    "smith_normal_form", "cokernel",
    "class_order", "is_p_divisible", "is_prime",
    "PathWord", "CohnTerm", "CohnElement", "PreconditionError",
    "commutator", "trace_vector", "n_generator",
    "VertexWitness", "vertex_witness",
    "SIMPLE", "NOT_SIMPLE", "INAPPLICABLE", "GraphInvariants", "LieVerdict", "KpReport",
    "lie_simplicity", "matrix_lie_simplicity", "leavitt_closed_form",
    "lie_simplicity_via_k0", "vertex_combination_in_commutator",
    "pointed_iso_decision", "kp_consistency",
)


def test_public_names_are_unique():
    assert len(lpa_lie.__all__) == len(set(lpa_lie.__all__))


def test_public_names_are_the_module_lists():
    expected = {"__version__"}
    for name in MODULES:
        module = importlib.import_module(f"lpa_lie.{name}")
        expected.update(module.__all__)
        for public in module.__all__:
            assert getattr(lpa_lie, public) is getattr(module, public)
    assert set(lpa_lie.__all__) == expected


def test_no_public_name_is_lost():
    assert set(PINNED) <= set(lpa_lie.__all__)
