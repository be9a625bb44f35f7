import random
import re
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import (
    all_edges,
    random_graph,
    random_labelled_graph,
    reference_parse,
    reference_serialize,
    time_limit,
)
from lpa_lie import (
    SIMPLE,
    FieldSpec,
    Graph,
    GraphError,
    GraphInvariants,
    GraphParseError,
    b_vectors,
    family,
    family_names,
    graph_from_adjacency,
    lie_simplicity,
    m_matrix,
    VertexId,
    parse_graph,
    serialize_graph,
)
from lpa_lie.graph import _RunBuilder

EXAMPLE4_TEXT = """\
# the standard four-vertex example
vertex v1
vertex v2
vertex v3
vertex v4

edge v1 v1
edge v1 v2
edge v2 v1
edge v2 v4
edge v3 v2
edge v3 v3
edge v4 v3
"""


adjacency_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda m: st.lists(
        st.lists(st.integers(min_value=0, max_value=3), min_size=m, max_size=m),
        min_size=m,
        max_size=m,
    )
)


def graph_from(adj):
    return graph_from_adjacency([f"v{i + 1}" for i in range(len(adj))], adj)


# -- parsing ----------------------------------------------------------------


def test_parse_multiplicity_expansion():
    g = parse_graph("vertex v\nedge v v 2\n")
    assert g.num_vertices == 1
    assert g.num_edges == 2
    assert [e.label for e in all_edges(g)] == ["v_v_1", "v_v_2"]
    assert all(e.source == e.target == g.vertices[0] for e in all_edges(g))


def test_parse_example4_file():
    g = parse_graph(EXAMPLE4_TEXT)
    assert g.num_vertices == 4
    assert g.num_edges == 7
    assert g.counts == family("example4").counts


def test_parse_readme_graph_input_example():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Graph input", 1)[1].split("```\n", 2)[1]
    g = parse_graph(block)
    assert [v.label for v in g.vertices] == ["v1", "v2"]
    assert [(e.label, e.source.label, e.target.label) for e in all_edges(g)] == [
        ("v1_v2_1", "v1", "v2"), ("v1_v2_2", "v1", "v2"), ("v1_v2_3", "v1", "v2"), ("f", "v2", "v1"),
    ]


def assert_parse_error(text, message):
    """``parse_graph`` and the reference parser both refuse ``text`` with ``message``."""
    for parse in (parse_graph, reference_parse):
        with pytest.raises(GraphParseError) as exc:
            parse(text)
        assert str(exc.value) == message


def test_parse_undeclared_vertex():
    with pytest.raises(GraphParseError) as exc:
        parse_graph("edge a b 1\n")
    assert exc.value.line == 1
    assert "undeclared" in str(exc.value)
    # the column is that of the token, not of the first match of its text
    assert_parse_error("vertex a\nedge a e\n", "line 2, column 8: undeclared vertex 'e'")
    assert_parse_error("vertex ab\nedge ab b\n", "line 2, column 9: undeclared vertex 'b'")


def test_parse_duplicate_vertex():
    with pytest.raises(GraphParseError, match="duplicate vertex"):
        parse_graph("vertex a\nvertex a\n")
    assert_parse_error("vertex e\nvertex e\n", "line 2, column 8: duplicate vertex label 'e'")


def test_parse_no_vertices():
    with pytest.raises(GraphParseError, match="no vertices"):
        parse_graph("# nothing here\n")


def test_parse_bad_multiplicity():
    with pytest.raises(GraphParseError, match="multiplicity"):
        parse_graph("vertex a\nedge a a 0\n")
    with pytest.raises(GraphParseError, match="multiplicity"):
        parse_graph("vertex a\nedge a a x\n")
    assert_parse_error(
        "vertex v10\nvertex v2\nedge v10 v2 0\n",
        "line 3, column 13: multiplicity must be >= 1, got 0",
    )
    # past 4,300 digits int() converts nothing; the error quotes 20 characters
    assert_parse_error(
        f"vertex a\nedge a a {'9' * 5000}\n",
        "line 2, column 10: multiplicity '99999999999999999999...' has more than 4300 digits",
    )
    assert_parse_error(
        f"vertex a\nedge a a +0{'9' * 4300}\n",
        "line 2, column 10: multiplicity '+0999999999999999999...' has more than 4300 digits",
    )


def test_parse_unknown_directive_reports_position():
    with pytest.raises(GraphParseError) as exc:
        parse_graph("vertex a\nfrobnicate a\n")
    assert exc.value.line == 2


def test_parse_edge_label_directive():
    g = parse_graph("vertex a\nvertex b\nedge-label f a b\nedge a b 1\n")
    assert [e.label for e in all_edges(g)] == ["f", "a_b_1"]
    assert_parse_error("vertex a\nedge-label e a\n", "line 2: expected: edge-label <name> <src> <dst>")


def test_parse_duplicate_edge_label():
    cases = [
        (
            "vertex a\nedge-label f a a\nedge-label f a a\n",
            ["a"],
            [(0, 0, "f", 1), (0, 0, "f", 1)],
            "line 3, column 12: duplicate edge label 'f'",
        ),
        # the label's column, not that of the "e" in "edge-label"
        (
            "vertex a\nvertex b\nedge-label e a b\nedge-label e a b\n",
            ["a", "b"],
            [(0, 1, "e", 1), (0, 1, "e", 1)],
            "line 4, column 12: duplicate edge label 'e'",
        ),
        # an auto-generated label colliding with an explicit one is also rejected
        (
            "vertex a\nedge-label a_a_1 a a\nedge a a 1\n",
            ["a"],
            [(0, 0, "a_a_1", 1), (0, 0, 1, 1)],
            "line 3: duplicate edge label 'a_a_1'",
        ),
        # auto labels of different vertex pairs can coincide: a_b -> c and a -> b_c
        (
            "vertex a\nvertex a_b\nvertex b_c\nvertex c\nedge a_b c\nedge a b_c\n",
            ["a", "a_b", "b_c", "c"],
            [(1, 3, 1, 1), (0, 2, 1, 1)],
            "line 6: duplicate edge label 'a_b_c_1'",
        ),
    ]
    for text, vertices, runs, message in cases:
        with pytest.raises(GraphParseError) as parsed:
            parse_graph(text)
        assert str(parsed.value) == message
        # the parser reports the graph's own message, placed at its line
        with pytest.raises(GraphError) as built:
            Graph.build(vertices, runs)
        assert str(built.value) == message.split(": ", 1)[1]


VERTEX_NAMES = ("a", "b", "c", "a_b", "b_c", "a_b_c", "x_1")


@st.composite
def directive_scripts(draw):
    """Graph text mixing multiplicities, explicit labels that may look automatic,
    and vertex labels containing ``_``; some scripts are malformed."""
    declared = draw(st.lists(st.sampled_from(VERTEX_NAMES), max_size=5, unique=True))
    ends = st.sampled_from(declared or VERTEX_NAMES)
    names = st.one_of(
        st.sampled_from(("f", "g", "a_b_0", "a_b_01", "_1", "a__1", "a_b_c_d")),
        st.builds("{}_{}_{}".format, ends, ends, st.integers(1, 6)),
        st.builds("{}_{}".format, st.sampled_from(VERTEX_NAMES), st.integers(1, 6)),
    )
    lines = st.one_of(
        st.builds("edge {} {}".format, ends, ends),
        # int() takes "1_0" and the Arabic-Indic three, and no 4,301 digits; the
        # multiplicity rule refuses all three
        st.builds(
            "edge {} {} {}".format, ends, ends,
            st.one_of(st.integers(1, 4), st.sampled_from(("1_0", "\u0663", "1" * 4301))),
        ),
        st.builds("edge-label {} {} {}".format, names, ends, ends),
    )
    body = draw(st.lists(lines, max_size=12))
    # now and then a late vertex (possibly a duplicate) or an undeclared end
    extra = draw(st.sampled_from((None, None, "vertex c", "vertex a_b", "edge a zz")))
    if extra is not None:
        body.insert(draw(st.integers(0, len(body))), extra)
    return "\n".join([f"vertex {v}" for v in declared] + body) + "\n"


@given(directive_scripts())
@settings(max_examples=400, deadline=None)
def test_runs_match_the_per_edge_reference(text):
    try:
        labels, specs = reference_parse(text)
    except GraphParseError as exc:
        with pytest.raises(GraphParseError) as got:
            parse_graph(text)
        assert (str(got.value), got.value.line, got.value.column) == (
            str(exc), exc.line, exc.column
        )
        return
    g = parse_graph(text)
    assert [(e.index, e.label, e.source.label, e.target.label) for e in all_edges(g)] == [
        (i, *spec) for i, spec in enumerate(specs)
    ]
    assert g.num_edges == len(specs)
    index = {label: i for i, label in enumerate(labels)}
    assert g == Graph.build(labels, [(index[s], index[d], lbl, 1) for lbl, s, d in specs])
    assert all(n == 1 for _, _, first, n in g.runs if isinstance(first, str))
    assert serialize_graph(g) == reference_serialize(g)
    for v in g.vertices:
        out = tuple(e for e in all_edges(g) if e.source == v)
        assert g.out_edges(v) == out
        assert g.out_degree(v) == len(out)
        assert [g.counts[v.index][w.index] for w in g.vertices] == [
            sum(1 for e in out if e.target == w) for w in g.vertices
        ]


def test_explicit_auto_label_is_the_same_edge():
    g = parse_graph("vertex a\nvertex b\nedge a b 2\nedge-label a_b_3 a b\n")
    assert g == parse_graph("vertex a\nvertex b\nedge a b 3\n")
    assert g.runs == ((0, 1, 1, 3),)
    assert Graph.build(["a", "b"], [(0, 1, "a_b_1", 1)]) == Graph.build(["a", "b"], [(0, 1, 1, 1)])
    # an auto run that starts past its pair's count comes from text too, and
    # is written back as the lines it was read from
    text = "vertex a\nvertex b\nedge-label a_b_5 a b\nedge-label a_b_6 a b\n"
    g = parse_graph(text)
    assert g.runs == ((0, 1, 5, 2),)
    assert serialize_graph(g) == text


def test_two_vertex_family_at_a_million_edges():
    with time_limit(5):
        g = family("two_vertex", [100, 100, 100])
        assert g.num_edges == 1_010_202
        assert serialize_graph(g) == (
            "vertex v1\nvertex v2\n"
            "edge v1 v1 1000001\nedge v1 v2 100\nedge v2 v1 10000\nedge v2 v2 101\n"
        )
        inv = GraphInvariants(g)
        assert inv.simplicity.verdict and inv.pure_infinite_simplicity.verdict
        assert inv.b_vectors == ((1_000_000, 100), (10_000, 100))
        assert inv.k0.invariant_factors == (100, 990_000)
        assert lie_simplicity(inv, FieldSpec(5)).status == SIMPLE


def test_parse_a_trillion_parallel_loops():
    with time_limit(5):
        g = parse_graph("vertex a\nedge a a 1000000000000")
        assert g.num_edges == 10**12
        assert b_vectors(g) == [[10**12 - 1]]
        assert g.out_degree(g.vertices[0]) == 10**12


# -- derived data -------------------------------------------------------------


def test_adjacency_examples():
    assert family("rose", [3]).counts == ((3,),)
    assert family("two_vertex", [2, 2, 2]).counts == ((9, 2), (4, 3))
    assert family("line", [2]).counts == ((0, 1), (0, 0))


def test_b_vectors_example4():
    assert b_vectors(family("example4")) == [
        [0, 1, 0, 0],
        [1, -1, 0, 1],
        [0, 1, 0, 0],
        [0, 0, 1, -1],
    ]


def test_b_vectors_rose_and_line():
    assert b_vectors(family("rose", [5])) == [[4]]
    assert b_vectors(family("line", [2])) == [[-1, 1], [0, 0]]


def test_b_vectors_prime_set():
    assert b_vectors(family("prime_set", [6]))[3] == [0, 0, 1, 6]


def test_m_matrix_examples():
    assert m_matrix(family("two_vertex", [2, 2, 2])) == [[-8, -4], [-2, -2]]
    assert m_matrix(graph_from_adjacency(["v"], [[0]])) == [[1]]
    assert m_matrix(family("example4")) == [
        [0, -1, 0, 0],
        [-1, 1, -1, 0],
        [0, 0, 0, -1],
        [0, -1, 0, 1],
    ]


def test_m_matrix_two_vertex_general():
    for u in (2, 3):
        for v in (2, 3):
            for p in (2, 3):
                g = family("two_vertex", [u, v, p])
                assert m_matrix(g) == [[-p * u * v, -p * u], [-u, -u]]


# -- families -----------------------------------------------------------------


def test_family_matrix_rose():
    g = family("matrix_rose", [3, 2])
    assert g.num_vertices == 2
    cross = [e for e in all_edges(g) if e.source.label == "v1"]
    loops = [e for e in all_edges(g) if e.source.label == "v2"]
    assert len(cross) == 1 and all(e.target.label == "v2" for e in cross)
    assert len(loops) == 3 and all(e.target.label == "v2" for e in loops)


def test_family_prime_set():
    g = family("prime_set", [6])
    assert g.num_vertices == 4
    loops_at_v4 = [e for e in all_edges(g) if e.source.label == "v4" and e.target.label == "v4"]
    assert len(loops_at_v4) == 7


def test_family_rose_one_loop():
    g = family("rose", [1])
    assert g.num_vertices == 1 and g.num_edges == 1
    (e,) = all_edges(g)
    assert e.source == e.target


def test_family_line_is_its_adjacency_graph():
    for d in (1, 2, 5, 40):
        labels = [f"v{i}" for i in range(1, d + 1)]
        adj = [[1 if j == i + 1 else 0 for j in range(d)] for i in range(d)]
        assert family("line", [d]) == graph_from_adjacency(labels, adj)


def test_family_counts():
    for n in range(1, 5):
        assert family("rose", [n]).num_edges == n
        for d in range(2, 5):
            if n >= 2:
                assert family("matrix_rose", [n, d]).num_edges == d - 1 + n
    # out-degrees come with the runs: the V x V counts are never built (the
    # smaller line fails first, before its counts grow large)
    for d in (4000, 100_000):
        with time_limit(5):
            g = family("line", [d])
            assert g.num_edges == d - 1
            assert g.sinks() == (g.vertices[-1],)
        assert "counts" not in vars(g) and "_adjacency" not in vars(g)


def test_family_parameter_errors():
    for name, params, message in (
        ("prime_set", [0], "prime_set(q) requires q >= 1"),
        ("two_vertex", [1, 2, 2], "two_vertex(u, v, p) requires u, v, p >= 2"),
        ("rose", [2.0], "family parameters must be integers (rose(n): one vertex with n loops, n >= 1)"),
    ):
        with pytest.raises(GraphError) as exc:
            family(name, params)
        assert str(exc.value) == message
    with pytest.raises(GraphError):
        family("rose", [0])
    with pytest.raises(GraphError):
        family("matrix_rose", [1, 2])
    with pytest.raises(GraphError):
        family("two_vertex", [2, 2])
    with pytest.raises(GraphError):
        family("nope", [1])
    with pytest.raises(GraphError):
        family("example4", [1])
    assert set(family_names()) == {
        "example4",
        "line",
        "matrix_rose",
        "prime_set",
        "rose",
        "two_vertex",
    }


# -- serialization -------------------------------------------------------------


def test_serialize_rose2():
    assert serialize_graph(family("rose", [2])) == "vertex v1\nedge v1 v1 2\n"


def test_serialize_round_trip_families():
    cases = [
        family("example4"),
        family("rose", [4]),
        family("line", [3]),
        family("matrix_rose", [3, 4]),
        family("two_vertex", [2, 3, 2]),
        family("prime_set", [6]),
    ]
    for g in cases:
        assert parse_graph(serialize_graph(g)) == g


def test_serialize_idempotent_on_hand_written_text():
    text = "vertex a\nvertex b\nedge-label f a b\nedge a b 2\nedge b a 1\n"
    once = serialize_graph(parse_graph(text))
    twice = serialize_graph(parse_graph(once))
    assert once == twice


def test_serialize_keeps_explicit_labels():
    g = Graph.build(["a", "b"], [(0, 1, "f", 1), (1, 0, "g", 1)])
    text = serialize_graph(g)
    assert "edge-label f a b" in text
    assert parse_graph(text) == g


@given(directive_scripts())
@settings(max_examples=400, deadline=None)
def test_serialize_writes_at_most_a_line_per_directive(text):
    try:
        g = parse_graph(text)
    except GraphParseError:
        return
    out = serialize_graph(g)
    assert parse_graph(out) == g
    directives = [line for line in text.splitlines() if line.split()]
    assert out.count("\n") <= len(directives)


def test_serialize_a_trillion_edges_after_a_named_one():
    text = "vertex a\nvertex b\nedge-label x a b\nedge a b 1000000000000\n"
    with time_limit(2):
        g = parse_graph(text)
        assert serialize_graph(g) == text
        assert parse_graph(serialize_graph(g)) == g


# -- structural invariants -------------------------------------------------------


@given(adjacency_matrices)
@settings(max_examples=60, deadline=None)
def test_m_plus_a_transpose_is_identity(adj):
    g = graph_from(adj)
    a = g.counts
    m = m_matrix(g)
    n = g.num_vertices
    for i in range(n):
        for j in range(n):
            assert m[i][j] + a[j][i] == (1 if i == j else 0)


@given(adjacency_matrices)
@settings(max_examples=60, deadline=None)
def test_b_vector_shape(adj):
    g = graph_from(adj)
    a = g.counts
    bv = b_vectors(g)
    for i, v in enumerate(g.vertices):
        if g.is_sink(v):
            assert bv[i] == [0] * g.num_vertices
        else:
            for j in range(g.num_vertices):
                assert bv[i][j] == a[i][j] - (1 if i == j else 0)


@given(adjacency_matrices)
@settings(max_examples=60, deadline=None)
def test_m_columns_are_negated_b_vectors_without_sinks(adj):
    g = graph_from(adj)
    if g.sinks():
        return
    m = m_matrix(g)
    bv = b_vectors(g)
    for i in range(g.num_vertices):
        assert [m[j][i] for j in range(g.num_vertices)] == [-x for x in bv[i]]


@given(adjacency_matrices)
@settings(max_examples=60, deadline=None)
def test_round_trip_preserves_everything(adj):
    g = graph_from(adj)
    back = parse_graph(serialize_graph(g))
    assert back == g


def test_round_trip_random_graphs():
    rng = random.Random(20240817)
    for _ in range(50):
        g = random_graph(rng)
        assert parse_graph(serialize_graph(g)) == g


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph((), ())
    with pytest.raises(GraphError, match="^duplicate vertex label 'a'$"):
        Graph.build(["a", "a"], [])
    with pytest.raises(GraphError):
        Graph.build(["a"], [(0, 5, "e", 1)])
    with pytest.raises(GraphError, match="^vertex 'a' has index 1, expected 0$"):
        Graph((VertexId(1, "a"),), ())
    with pytest.raises(GraphError, match="^no vertex labeled 'zz'$"):
        Graph.build(["a"]).vertex("zz")
    with pytest.raises(GraphError):
        graph_from_adjacency(["a"], [[0, 1]])
    with pytest.raises(GraphError):
        graph_from_adjacency(["a"], [[-1]])


class Count(IntEnum):
    TWO = 2


def test_adjacency_entries_follow_the_integer_rule():
    # an int subclass other than bool is a count, and a row holding one
    # still has its other entries checked; an error names the first bad entry
    # in row-major order, also when it is falsy and so would make no run
    g = graph_from_adjacency(["a", "b"], [[0, Count.TWO], [1, 0]])
    assert g.counts == ((0, 2), (1, 0))
    for bad in (True, 1.0, -1, 0.0, False):
        for adj, at in (
            ([[1, 0, 0], [0, bad, -1], [2, 0, 0]], "(1, 1)"),
            ([[Count.TWO, 0, bad], [0, 0, 0], [0, 0, 0]], "(0, 2)"),
        ):
            with pytest.raises(
                GraphError, match=f"^adjacency entry {re.escape(at)} must be a non-negative integer$"
            ):
                graph_from_adjacency(["a", "b", "c"], adj)


def test_a_run_with_an_unknown_end_is_named_as_given():
    # an auto run holds vertex indices, so it is quoted as the run, not as a label
    a, b = VertexId(0, "a"), VertexId(1, "b")
    with pytest.raises(GraphError, match=r"^auto run \(0, 5, 1, 1\) references unknown vertex 5$"):
        Graph((a, b), ((0, 5, 1, 1),))
    with pytest.raises(GraphError, match="^edge 'e' references unknown vertex 5$"):
        Graph((a, b), ((0, 5, "e", 1),))


def test_a_vertex_that_is_not_a_vertex_id_is_refused():
    with pytest.raises(GraphError, match="^vertex 0 is 'a', not a VertexId$"):
        Graph(("a",), ())
    # vertices given as a list are kept as a tuple, so the graph hashes
    g = Graph([VertexId(0, "a")], ())
    assert g == Graph.build(["a"]) and hash(g) == hash(Graph.build(["a"]))


def test_a_vertex_label_that_is_not_a_string_is_refused():
    for label in (1, None, ("a",), b"a"):
        with pytest.raises(GraphError, match=f"^bad vertex label {re.escape(repr(label))}$"):
            Graph.build([label], [])
    with pytest.raises(GraphError, match="^bad vertex label 1$"):
        graph_from_adjacency([1], [[0]])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_graph_runs_are_the_build_format(seed):
    rng = random.Random(seed)
    for g in (random_labelled_graph(rng), random_graph(rng)):
        labels = [v.label for v in g.vertices]
        # canonical runs are a fixed point of the run builder
        again = Graph.build(labels, g.runs)
        assert again == g and again.runs == g.runs
        adj = [list(row) for row in g.counts]
        runs = [(i, j, 1, c) for i, row in enumerate(adj) for j, c in enumerate(row) if c]
        assert graph_from_adjacency(labels, adj) == Graph.build(labels, runs)


def test_every_whitespace_code_point_in_a_label_is_refused():
    whitespace = [chr(c) for c in range(0x110000) if chr(c).isspace()]
    assert {" ", "\t", "\x1c", "\x85", "\u3000"} <= set(whitespace)
    for ch in whitespace:
        for label in (ch, f"a{ch}", f"{ch}a", f"a{ch}b"):
            with pytest.raises(GraphError, match=f"^bad vertex label {re.escape(repr(label))}$"):
                Graph.build(["a", label], [])
            with pytest.raises(GraphError, match=f"^bad edge label {re.escape(repr(label))}$"):
                Graph.build(["a"], [(0, 0, label, 1)])
    with pytest.raises(GraphError, match="^bad edge label ''$"):
        Graph.build(["a"], [(0, 0, "", 1)])


def test_labels_free_of_whitespace_are_accepted():
    # every 97th code point, the zero-width space and the byte-order mark;
    # the surrogates among them are refused, as UTF-8 cannot encode them
    for c in (*range(1, 0x110000, 97), 0x200B, 0xFEFF):
        ch = chr(c)
        if ch.isspace():
            continue
        if 0xD800 <= c <= 0xDFFF:
            with pytest.raises(GraphError, match=f"^bad vertex label {re.escape(repr(f'x{ch}'))}$"):
                Graph.build(["a", f"x{ch}"], [])
        else:
            g = Graph.build(["a", f"x{ch}"], [(0, 1, f"e{ch}", 1)])
            assert g.vertices[1].label == f"x{ch}"


def test_a_label_that_utf8_cannot_encode_is_refused():
    # a lone surrogate reaches a label through a JSON escape, or through
    # standard input read with the surrogateescape handler
    for label in ("\ud800", "a\udfffb", "\udc80"):
        message = f"bad vertex label {re.escape(repr(label))}$"
        with pytest.raises(GraphError, match=f"^{message}"):
            graph_from_adjacency([label], [[2]])
        with pytest.raises(GraphError, match=f"^line 2, column 8: {message}"):
            parse_graph(f"vertex a\nvertex {label}\n")
        with pytest.raises(GraphError, match=f"^bad edge label {re.escape(repr(label))}$"):
            Graph.build(["a"], [(0, 0, label, 1)])
        with pytest.raises(GraphError, match=f"^line 2, column 12: bad edge label {re.escape(repr(label))}$"):
            parse_graph(f"vertex a\nedge-label {label} a a\n")


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_edge_by_index_is_the_enumerated_edge(seed):
    rng = random.Random(seed)
    for g in (random_labelled_graph(rng), random_graph(rng)):
        edges = all_edges(g)
        order = list(range(len(edges)))
        rng.shuffle(order)
        # looked up in any order, before or after out_edges named the source
        if order and rng.random() < 0.5:
            g.out_edges(edges[order[0]].source)
        for i in order:
            assert g.edge(i) == edges[i]
        for i in (-1, g.num_edges):
            with pytest.raises(GraphError, match=f"^no edge with index {i}$"):
                g.edge(i)


def test_auto_edges_are_numbered_below_10_4300():
    # past 10^4300 an auto label would read as a plain one and could be claimed twice
    nines = "9" * 4300
    text = f"vertex a\nvertex b\nedge a b {nines}\nedge a b {nines}\nedge-label a_b_1{'0' * 4300} a b\n"
    with pytest.raises(GraphParseError) as exc:
        parse_graph(text)
    assert str(exc.value) == "line 4: edges from 'a' to 'b' would be numbered past 10^4300"
    assert (exc.value.line, exc.value.column) == (4, None)
    g = parse_graph(f"vertex a\nvertex b\nedge a b {nines}\n")
    assert g.edge(g.num_edges - 1).label == f"a_b_{nines}"
    # a label of 4,301 digits is a plain label, not an auto edge
    text = f"vertex a\nvertex b\nedge-label a_b_1{'0' * 4300} a b\n"
    g = parse_graph(text)
    assert g.runs == ((0, 1, f"a_b_1{'0' * 4300}", 1),)
    assert serialize_graph(g) == text and parse_graph(serialize_graph(g)) == g


def test_edge_of_a_trillion_loops_names_only_its_source():
    g = parse_graph("vertex a\nvertex b\nedge a b 2\nedge b b 1000000000000\n")
    with time_limit(2):
        assert g.edge(1).label == "a_b_2"
        for i in (-1, g.num_edges):
            with pytest.raises(GraphError, match=f"^no edge with index {i}$"):
                g.edge(i)


# Labels where "a_b -> c" and "a -> b_c" share the prefix of their auto labels.
BUILDER_LABELS = ["a", "b", "c", "a_b", "b_c"]
run_ends = st.one_of(st.integers(-1, 5), st.booleans())
builder_runs = st.one_of(
    st.tuples(run_ends, run_ends, st.one_of(st.integers(-1, 4), st.booleans()), st.integers(-1, 3)),
    st.tuples(
        run_ends,
        run_ends,
        st.one_of(
            st.builds("{}_{}_{}".format, st.sampled_from(BUILDER_LABELS),
                      st.sampled_from(BUILDER_LABELS), st.integers(1, 4)),
            st.sampled_from(["e", "f", "", "e f", None]),
        ),
        st.sampled_from([1, 1, 1, 0, 2, True]),
    ),
    st.sampled_from([(0, 1), [0, 1, 1, 1], "e", ("e", 0, 1)]),
)
BUILDER_CASES = [
    # the a_b -> c / a -> b_c prefix clash
    ([(3, 2, 1, 1), (0, 4, 1, 1)], "duplicate edge label 'a_b_c_1'"),
    ([(0, 4, "a_b_c_2", 1), (3, 2, 1, 2)], "duplicate edge label 'a_b_c_2'"),
    # an explicit label equal to its own auto label is that auto edge, and merges
    ([(0, 1, 1, 1), (0, 1, "a_b_2", 1), (0, 1, 3, 2)], ((0, 1, 1, 4),)),
    ([(0, 1, "a_b_1", 1), (0, 1, 1, 1)], "duplicate edge label 'a_b_1'"),
    # continuations merge; a gap or another pair in between does not
    ([(0, 1, 1, 2), (0, 1, 3, 1), (1, 0, 1, 1), (0, 1, 4, 1), (0, 1, 6, 1)],
     ((0, 1, 1, 3), (1, 0, 1, 1), (0, 1, 4, 1), (0, 1, 6, 1))),
    # bool, negative and out-of-range entries
    ([(True, 0, 1, 1)], "auto run (True, 0, 1, 1) references unknown vertex True"),
    ([(0, -1, 1, 1)], "auto run (0, -1, 1, 1) references unknown vertex -1"),
    ([(0, 5, "e", 1)], "edge 'e' references unknown vertex 5"),
    ([(0, 1, True, 1)], "auto run (0, 1, True, 1) needs a positive integer first_k and multiplicity"),
    ([(0, 1, 1, 0)], "auto run (0, 1, 1, 0) needs a positive integer first_k and multiplicity"),
    ([(0, 1, -1, 2)], "auto run (0, 1, -1, 2) needs a positive integer first_k and multiplicity"),
    ([(0, 1)], "bad edge run (0, 1)"),
    # int() converts no auto label numbered 10^4300 or past, so no run reaches it
    ([(0, 1, 10**4300 - 1, 1)], ((0, 1, 10**4300 - 1, 1),)),
    ([(0, 1, 1, 10**4300 - 1), (0, 1, 10**4300, 1)], "edges from 'a' to 'b' would be numbered past 10^4300"),
    ([(0, 1, 2, 10**4300 - 1)], "edges from 'a' to 'b' would be numbered past 10^4300"),
    # one layout: a named run is one edge, and the old (label, src, dst) is no run
    ([(0, 1, "e", 2)], "named edge run (0, 1, 'e', 2) needs count 1"),
    ([(0, 1, "e", True)], "named edge run (0, 1, 'e', True) needs count 1"),
    ([("e", 0, 1)], "bad edge run ('e', 0, 1)"),
    # a named run never merges with the auto run after it
    ([(0, 1, "e", 1), (0, 1, 1, 1)], ((0, 1, "e", 1), (0, 1, 1, 1))),
]


def build_both_ways(labels, runs):
    """``(runs, out-degrees)`` or the ``GraphError`` text, from ``Graph.build`` and run by run."""
    try:
        g = Graph.build(labels, runs)
        whole = (g.runs, tuple(g.out_degree(v) for v in g.vertices))
    except GraphError as exc:
        whole = str(exc)
    builder = _RunBuilder()
    for label in labels:
        builder.add_vertex(label)
    try:
        for run in runs:
            builder.extend((run,))
        one_by_one = (tuple(builder.runs), tuple(builder.out_degrees))
    except GraphError as exc:
        one_by_one = str(exc)
    return whole, one_by_one


@pytest.mark.parametrize("runs, expected", BUILDER_CASES)
def test_building_at_once_is_adding_run_by_run(runs, expected):
    whole, one_by_one = build_both_ways(BUILDER_LABELS, runs)
    assert whole == one_by_one
    assert (whole if isinstance(whole, str) else whole[0]) == expected


@given(st.lists(st.sampled_from(BUILDER_LABELS), min_size=1, max_size=5, unique=True),
       st.lists(builder_runs, max_size=8))
@settings(max_examples=400, deadline=None)
def test_building_at_once_is_adding_run_by_run_hypothesis(labels, runs):
    whole, one_by_one = build_both_ways(labels, runs)
    assert whole == one_by_one
