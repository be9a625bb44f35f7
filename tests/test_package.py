import importlib
import importlib.util
from pathlib import Path

import lpa_lie

MODULES = ("analysis", "cohn", "graph", "linalg", "verdict")

# the names the package exported before its list was built from the modules
PINNED = (
    "__version__",
    "VertexId", "EdgeId", "Graph", "GraphError", "GraphParseError",
    "b_vectors", "m_matrix", "graph_from_adjacency",
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
    "lie_simplicity_via_k0",
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


def _bench_tracing():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    importlib.import_module("lpa_lie.cli")  # install() wraps every layer's module
    return tracing


def test_bench_tracer_finds_every_name_it_wraps():
    # the traced benchmark wraps package names given as strings, so a name
    # it lists that the package lost fails here, not only in a traced run
    tracing = _bench_tracing()
    original = lpa_lie.smith_normal_form
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert {"Graph.build", "smith_normal_form"} <= tracer.calls.keys()
    finally:
        tracer.uninstall()
    assert lpa_lie.smith_normal_form is original is lpa_lie.linalg.smith_normal_form
    assert tracing._max_bits(lpa_lie.smith_normal_form([[2]])) == 2


def test_every_front_end_builds_each_graph_through_graph_build(tmp_path, capsys):
    # the traced benchmark counts graphs by the calls of Graph.build: it divides
    # the Smith forms by that count and sums num_edges over it, so a front end
    # that went round it, or through it twice, would skew both
    tracing = _bench_tracing()
    cli = importlib.import_module("lpa_lie.cli")
    json_graph = tmp_path / "g.json"
    json_graph.write_text('{"vertices": ["a", "b"], "adjacency": [[1, 1], [1, 0]]}')
    text_graph = tmp_path / "g.graph"
    text_graph.write_text("vertex a\nvertex b\nedge a a 2\nedge-label f a b\nedge b a\n")
    front_ends = [
        lambda: lpa_lie.parse_graph("vertex a\nvertex b\nedge a b 3\nedge-label f b a\n"),
        lambda: lpa_lie.graph_from_adjacency(["a", "b"], [[0, 2], [1, 0]]),
        lambda: lpa_lie.family("line", [3]),
        lambda: lpa_lie.family("rose", [2]),
        lambda: cli.main(["analyze", "--json", str(json_graph)]),
        lambda: cli.main(["analyze", "--json", str(text_graph)]),
    ]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for front_end in front_ends:
            before = tracer.calls["Graph.build"]
            front_end()
            assert tracer.calls["Graph.build"] == before + 1
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out.count('"schema"') == 2
