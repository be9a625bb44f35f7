import random

from _gen import (
    random_graph,
    reference_cycle_vertices,
    reference_cycle_without_exit,
    reference_unreached_pairs,
)

from lpa_lie import (
    NoCycle,
    NoExitCycle,
    Unreached,
    cycle_vertices,
    family,
    find_cycle_without_exit,
    graph_from_adjacency,
    is_purely_infinite_simple,
    is_simple_lpa,
    is_trivial_lpa,
    reachability,
    simplicity_reports,
)


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
    r = reachability(family("line", [3]))
    assert r == [
        [True, True, True],
        [False, True, True],
        [False, False, True],
    ]


def test_reachability_rose1():
    assert reachability(family("rose", [1])) == [[True]]


def test_reachability_example4_all_true():
    r = reachability(family("example4"))
    assert all(all(row) for row in r)


def test_reachability_reflexive_transitive():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng)
        r = reachability(g)
        m = g.num_vertices
        for i in range(m):
            assert r[i][i]
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    if r[i][j] and r[j][k]:
                        assert r[i][k]


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
        assert find_cycle_without_exit(g) == cycle
        # the simplicity report reads the same cycle off its own closure
        no_exit = [w.edges for w in is_simple_lpa(g).witnesses if isinstance(w, NoExitCycle)]
        assert no_exit == ([cycle] if cycle else [])
        found += cycle is not None
    # the sample mixes graphs with and without an exitless cycle
    assert 300 <= found <= 1200


def test_no_exit_cycle_examples():
    loop = find_cycle_without_exit(family("rose", [1]))
    assert loop is not None and len(loop) == 1
    assert find_cycle_without_exit(family("rose", [2])) is None
    assert find_cycle_without_exit(family("example4")) is None


def test_no_exit_cycle_longer():
    g = graph_from_adjacency(["a", "b", "c"], [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    cycle = find_cycle_without_exit(g)
    assert cycle is not None
    assert [e.source.label for e in cycle] == ["a", "b", "c"]
    # adding an exit anywhere on the cycle kills it
    g2 = graph_from_adjacency(["a", "b", "c"], [[0, 1, 0], [0, 1, 1], [1, 0, 0]])
    assert find_cycle_without_exit(g2) is None


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
        cycle = find_cycle_without_exit(g)
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
    assert is_simple_lpa(family("example4")).verdict
    rep = is_simple_lpa(family("rose", [1]))
    assert not rep.verdict
    assert any(isinstance(w, NoExitCycle) for w in rep.witnesses)
    two = graph_from_adjacency(["a", "b"], [[0, 0], [0, 0]])
    rep = is_simple_lpa(two)
    assert not rep.verdict
    assert any(isinstance(w, Unreached) and w.target_kind == "sink" for w in rep.witnesses)


def test_is_pis_examples():
    assert is_purely_infinite_simple(family("example4")).verdict
    for d in range(1, 5):
        rep = is_purely_infinite_simple(family("line", [d]))
        assert not rep.verdict
        assert any(isinstance(w, NoCycle) for w in rep.witnesses)
    for q in range(1, 7):
        assert is_purely_infinite_simple(family("prime_set", [q])).verdict


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


def test_witness_iff_failure_random():
    rng = random.Random(33)
    for _ in range(150):
        g = random_graph(rng)
        for rep in (is_simple_lpa(g), is_purely_infinite_simple(g)):
            assert rep.verdict == (not rep.witnesses)


def test_pis_implies_simple_random():
    rng = random.Random(44)
    for _ in range(200):
        g = random_graph(rng)
        if is_purely_infinite_simple(g).verdict:
            assert is_simple_lpa(g).verdict


def test_simple_dichotomy_random():
    rng = random.Random(55)
    for _ in range(200):
        g = random_graph(rng)
        if is_simple_lpa(g).verdict:
            has_cycle = bool(cycle_vertices(g))
            has_sink = bool(g.sinks())
            acyclic = not has_cycle
            assert (has_sink and acyclic) != has_cycle
            if acyclic:
                assert len(g.sinks()) == 1
