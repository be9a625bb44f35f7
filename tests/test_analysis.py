import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from _gen import (
    _reference_paths,
    random_graph,
    reference_cycle_vertices,
    reference_cycle_without_exit,
    reference_unreached_pairs,
)

from lpa_lie import (
    NoCycle,
    NoExitCycle,
    SimplicityReport,
    Unreached,
    family,
    graph_from_adjacency,
    is_trivial_lpa,
    reachability,
    simplicity_reports,
)
from lpa_lie.analysis import _closure, _exitless_cycle


def cycle_vertices(g):
    """The vertices on a cycle: the diagonal bits of the transitive closure."""
    return {v for v, row in zip(g.vertices, _closure(g)) if row >> v.index & 1}


def exitless_cycle(g):
    """``_exitless_cycle`` on the closure and cycle mask that the reports read."""
    closure = _closure(g)
    cycle_mask = sum(1 << i for i, row in enumerate(closure) if row >> i & 1)
    return _exitless_cycle(g, closure, cycle_mask)


def no_exit_witness(g):
    """The edges of the exitless cycle that the simplicity report names, or None."""
    found = [w.edges for w in simplicity_reports(g)[0].witnesses if isinstance(w, NoExitCycle)]
    assert len(found) <= 1
    return found[0] if found else None


def enumerate_cycles(g):
    """All cycles (edge tuples with pairwise distinct sources), brute force."""
    cycles = []

    def extend(path, visited, start):
        last = path[-1].target
        for e in g.out_edges(last):
            if e.target == start:
                cycles.append(tuple(path) + (e,))
            elif e.target.index not in visited:
                extend(path + [e], visited | {e.target.index}, start)

    for v in g.vertices:
        for e in g.out_edges(v):
            if e.target == v:
                cycles.append((e,))
            else:
                extend([e], {v.index, e.target.index}, v)
    return cycles


def brute_force_has_no_exit_cycle(g):
    for cycle in enumerate_cycles(g):
        if all(g.out_degree(e.source) == 1 for e in cycle):
            return True
    return False


# -- reachability ----------------------------------------------------------


def test_reachability_line():
    # bit j of row i: v_i reaches v_j
    assert reachability(family("line", [3])) == [0b111, 0b110, 0b100]


def test_reachability_rose1():
    assert reachability(family("rose", [1])) == [0b1]


def test_reachability_example4_all_true():
    assert reachability(family("example4")) == [0b1111] * 4


def test_reachability_reflexive_transitive():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng)
        r = reachability(g)
        m = g.num_vertices
        for i in range(m):
            assert r[i] >> i & 1
            assert 0 <= r[i] < 1 << m
        for i in range(m):
            for j in range(m):
                # if v_i reaches v_j, it reaches everything v_j reaches
                if r[i] >> j & 1:
                    assert r[j] & ~r[i] == 0


def test_closure_matches_boolean_powers():
    # bit j of row i exactly when a path of one or more edges leads from v_i
    # to v_j; reachability is the same closure with each vertex's own bit added
    # the closure stops once every row is full: the complete digraphs fill at
    # or before the first pass, a directed 6-cycle only at the last, and a
    # line or a matrix rose never
    labels = ["a", "b", "c", "d", "e", "f"]
    fixed = [
        graph_from_adjacency(labels[:5], [[1] * 5 for _ in range(5)]),
        graph_from_adjacency(labels[:5], [[int(i != j) for j in range(5)] for i in range(5)]),
        graph_from_adjacency(labels, [[int(j == (i + 1) % 6) for j in range(6)] for i in range(6)]),
        family("line", [4]),
        family("matrix_rose", [3, 2]),
    ]
    rng = random.Random(12)
    for g in fixed + [random_graph(rng, max_vertices=10, density=(0.02, 0.5)) for _ in range(200)]:
        paths = _reference_paths(g)
        closure = _closure(g)
        assert closure == [sum(1 << j for j, p in enumerate(row) if p) for row in paths]
        assert reachability(g) == [row | 1 << i for i, row in enumerate(closure)]


# -- cycles ------------------------------------------------------------------


def test_cycle_vertices_examples():
    assert cycle_vertices(family("line", [4])) == set()
    assert cycle_vertices(family("example4")) == set(family("example4").vertices)
    g = family("matrix_rose", [3, 2])
    assert cycle_vertices(g) == {g.vertex("v2")}


def test_cycle_vertices_two_cycle_no_loops():
    g = graph_from_adjacency(["a", "b"], [[0, 1], [1, 0]])
    assert cycle_vertices(g) == set(g.vertices)


def test_cycle_vertices_match_boolean_powers():
    rng = random.Random(66)
    partial = sinks = 0
    for _ in range(400):
        g = random_graph(rng, max_vertices=12, density=(0.02, 0.4))
        on_cycle = cycle_vertices(g)
        assert on_cycle == reference_cycle_vertices(g)
        partial += 0 < len(on_cycle) < g.num_vertices
        sinks += bool(g.sinks())
    # the sample mixes vertices on and off cycles, and graphs with sinks
    assert partial >= 100 and sinks >= 100


def test_exitless_cycle_matches_the_chase():
    rng = random.Random(77)
    found = 0
    for _ in range(1500):
        g = random_graph(rng, max_vertices=9, max_mult=2, density=(0.05, 0.4))
        if rng.random() < 0.5:
            g = random_functional_patch(rng, g)
        cycle = reference_cycle_without_exit(g)
        assert exitless_cycle(g) == cycle
        # the simplicity report names the same cycle, as its one NoExitCycle witness
        assert no_exit_witness(g) == cycle
        found += cycle is not None
    # the sample mixes graphs with and without an exitless cycle
    assert 300 <= found <= 1200


def test_no_exit_cycle_examples():
    loop = no_exit_witness(family("rose", [1]))
    assert loop is not None and len(loop) == 1
    assert no_exit_witness(family("rose", [2])) is None
    assert no_exit_witness(family("example4")) is None


def test_no_exit_cycle_longer():
    g = graph_from_adjacency(["a", "b", "c"], [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    cycle = no_exit_witness(g)
    assert cycle is not None
    assert [e.source.label for e in cycle] == ["a", "b", "c"]
    # adding an exit anywhere on the cycle kills it
    g2 = graph_from_adjacency(["a", "b", "c"], [[0, 1, 0], [0, 1, 1], [1, 0, 0]])
    assert no_exit_witness(g2) is None


def random_functional_patch(rng, g):
    """Force a random subset of vertices down to out-degree one."""
    import lpa_lie

    adj = [[0] * g.num_vertices for _ in range(g.num_vertices)]
    for v in g.vertices:
        if rng.random() < 0.6:
            adj[v.index][rng.randrange(g.num_vertices)] = 1
        else:
            for e in g.out_edges(v):
                adj[v.index][e.target.index] += 1
    return lpa_lie.graph_from_adjacency([v.label for v in g.vertices], adj)


def test_no_exit_cycle_properties_random():
    rng = random.Random(22)
    checked_long = 0
    for _ in range(200):
        g = random_graph(rng, max_vertices=6, max_mult=2)
        if rng.random() < 0.5:
            # plain random graphs almost never contain long no-exit cycles
            g = random_functional_patch(rng, g)
        cycle = no_exit_witness(g)
        if cycle is not None:
            for e in cycle:
                assert g.out_degree(e.source) == 1
            assert cycle[-1].target == cycle[0].source
            sources = [e.source.index for e in cycle]
            assert len(set(sources)) == len(sources)
            if len(cycle) >= 3:
                checked_long += 1
        assert (cycle is not None) == brute_force_has_no_exit_cycle(g)
    assert checked_long >= 3


# -- simplicity ----------------------------------------------------------------


def test_is_simple_examples():
    assert simplicity_reports(family("example4"))[0].verdict
    rep = simplicity_reports(family("rose", [1]))[0]
    assert not rep.verdict
    assert any(isinstance(w, NoExitCycle) for w in rep.witnesses)
    two = graph_from_adjacency(["a", "b"], [[0, 0], [0, 0]])
    rep = simplicity_reports(two)[0]
    assert not rep.verdict
    assert any(isinstance(w, Unreached) and w.target_kind == "sink" for w in rep.witnesses)


def test_is_pis_examples():
    assert simplicity_reports(family("example4"))[1].verdict
    for d in range(1, 5):
        rep = simplicity_reports(family("line", [d]))[1]
        assert not rep.verdict
        assert any(isinstance(w, NoCycle) for w in rep.witnesses)
    for q in range(1, 7):
        assert simplicity_reports(family("prime_set", [q]))[1].verdict


def test_is_trivial():
    assert is_trivial_lpa(graph_from_adjacency(["v"], [[0]]))
    assert not is_trivial_lpa(family("rose", [1]))
    assert not is_trivial_lpa(family("line", [2]))


def test_one_unreached_witness_per_failing_vertex():
    # a vertex has a witness exactly when some pair from it fails, and the
    # witness is its first failing pair: sinks before cycle vertices
    rng = random.Random(34)
    failing = passing = 0
    for _ in range(400):
        g = random_graph(rng, max_vertices=8, density=(0.02, 0.4))
        pairs = reference_unreached_pairs(g)
        first: dict = {}
        first_cycle: dict = {}
        for v, t, kind in pairs:
            first.setdefault(v, Unreached(v, t, kind))
            if kind == "cycle vertex":
                first_cycle.setdefault(v, Unreached(v, t, kind))
        no_exit = reference_cycle_without_exit(g) is not None
        simple, pis = simplicity_reports(g)
        assert [w for w in simple.witnesses if isinstance(w, Unreached)] == list(first.values())
        assert [w for w in pis.witnesses if isinstance(w, Unreached)] == list(first_cycle.values())
        assert simple.verdict == (not pairs and not no_exit)
        assert pis.verdict == (not first_cycle and not no_exit and bool(reference_cycle_vertices(g)))
        failing += len(first)
        passing += g.num_vertices - len(first)
    # the sample mixes vertices with and without a witness
    assert failing >= 300 and passing >= 300


def planted_graph(n, sinks, loop, seed):
    """A graph on n vertices with planted sinks and an exitless cycle.

    The last ``sinks`` vertices emit nothing and the ``loop`` before them form
    a cycle without exit; the rest get zero to three random edges each (one
    edge with probability 0.3), so some vertices miss some target.
    """
    rng = random.Random(seed)
    sinks = min(sinks, n)
    loop = min(loop, n - sinks)
    free = n - sinks - loop
    adj = [[0] * n for _ in range(n)]
    for i in range(free):
        for _ in range(1 if rng.random() < 0.3 else rng.randint(0, 3)):
            adj[i][rng.randrange(n)] += rng.randint(1, 2) if rng.random() < 0.5 else 1
    for i in range(loop):
        adj[free + i][free + (i + 1) % loop] = 1
    return graph_from_adjacency([f"v{i + 1}" for i in range(n)], adj)


@given(
    n=st.integers(1, 140),
    sinks=st.integers(0, 3),
    loop=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=140, sinks=2, loop=3, seed=41)
@example(n=65, sinks=1, loop=1, seed=7)
@settings(max_examples=60, deadline=None)
def test_witnesses_match_the_references_hypothesis(n, sinks, loop, seed):
    # up to 140 vertices, so closure rows and target masks cross 64 and 128 bits
    g = planted_graph(n, sinks, loop, seed)
    first: dict = {}
    first_cycle: dict = {}
    for v, t, kind in reference_unreached_pairs(g):
        first.setdefault(v, Unreached(v, t, kind))
        if kind == "cycle vertex":
            first_cycle.setdefault(v, Unreached(v, t, kind))
    no_exit = reference_cycle_without_exit(g)
    simple = list(first.values())
    pis = list(first_cycle.values())
    if no_exit is not None:
        simple.append(NoExitCycle(tuple(e.source for e in no_exit), no_exit))
        pis.append(simple[-1])
    if not reference_cycle_vertices(g):
        pis.append(NoCycle())
    assert simplicity_reports(g) == (
        SimplicityReport(not simple, tuple(simple)),
        SimplicityReport(not pis, tuple(pis)),
    )
    # what was planted is there: sinks, an exitless cycle, and with two
    # targets that cannot reach each other, an unreached one
    assert bool(g.sinks()) >= (sinks > 0)
    assert (no_exit is not None) >= (loop > 0 and n > sinks)
    assert bool(first) >= (sinks > 1 and n > 1 or sinks > 0 and loop > 0 and n > sinks)


def test_witness_iff_failure_random():
    rng = random.Random(33)
    for _ in range(150):
        g = random_graph(rng)
        for rep in simplicity_reports(g):
            assert rep.verdict == (not rep.witnesses)


def test_pis_implies_simple_random():
    rng = random.Random(44)
    for _ in range(200):
        g = random_graph(rng)
        simple, pis = simplicity_reports(g)
        if pis.verdict:
            assert simple.verdict


def test_simple_dichotomy_random():
    rng = random.Random(55)
    for _ in range(200):
        g = random_graph(rng)
        if simplicity_reports(g)[0].verdict:
            has_cycle = bool(cycle_vertices(g))
            has_sink = bool(g.sinks())
            acyclic = not has_cycle
            assert (has_sink and acyclic) != has_cycle
            if acyclic:
                assert len(g.sinks()) == 1
