import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _gen import (
    all_edges,
    random_basis_term,
    random_cohn_element,
    random_graph,
    random_labelled_graph,
    random_path,
    reference_mult_terms,
    reference_str,
    time_limit,
)

from lpa_lie import (
    CohnElement,
    CohnTerm,
    EdgeId,
    FieldSpec,
    PathWord,
    PreconditionError,
    commutator,
    family,
    graph_from_adjacency,
    n_generator,
    parse_graph,
    trace_vector,
    vertex_combination_in_commutator,
    vertex_witness,
)
from lpa_lie.cohn import _mult_terms, _term_key

F0 = FieldSpec(0)
F2 = FieldSpec(2)


def elem(g, field, term, coeff=1):
    return CohnElement.term(g, field, term.p, term.q, coeff)


# -- path words ----------------------------------------------------------------


def test_path_word_composition():
    ln = family("line", [3])
    e1, e2 = all_edges(ln)
    p = PathWord.from_edges([e1, e2])
    assert p.source.label == "v1" and p.range.label == "v3" and p.length == 2
    with pytest.raises(ValueError):
        PathWord.from_edges([e2, e1])
    v = PathWord.vertex_word(ln.vertices[0])
    assert v.concat(p) == p
    assert p.strip_prefix(PathWord.from_edges([e1])) == PathWord.from_edges([e2])
    assert p.strip_prefix(p).length == 0
    assert PathWord.from_edges([e1]).strip_prefix(p) is None


def test_term_requires_matching_ranges():
    ln = family("line", [3])
    e1, e2 = all_edges(ln)
    with pytest.raises(ValueError):
        CohnElement.term(ln, F0, PathWord.from_edges([e1]), PathWord.from_edges([e1, e2]))


def test_views_of_another_graph_are_refused():
    a = parse_graph("vertex a\nvertex c\nedge a c\n")
    b = parse_graph("vertex b\nedge b b\n")
    (ac,) = a.out_edges(a.vertices[0])
    (bb,) = b.out_edges(b.vertices[0])
    # b's vertex with another loop label: the vertex is b's own, the edge is not
    relabelled = parse_graph("vertex b\nedge-label x b b\n")
    (x,) = relabelled.out_edges(relabelled.vertices[0])
    bb_word = PathWord.from_edges([bb])
    refused = [
        ("'a'", lambda: CohnElement.vertex(b, F0, a.vertices[0])),
        ("'c'", lambda: CohnElement.vertex(b, F0, a.vertices[1])),
        ("'a'", lambda: CohnElement.edge(b, F0, ac)),
        # the ghost's first path is the vertex r(ac) = c
        ("'c'", lambda: CohnElement.ghost(b, F0, PathWord.from_edges([ac]))),
        ("'x'", lambda: CohnElement.edge(b, F0, x)),
        ("'x'", lambda: CohnElement(b, F0, {CohnTerm(PathWord.from_edges([bb, x]), bb_word): 1})),
        ("'a'", lambda: n_generator(b, F0, a.vertices[0])),
    ]
    for label, build in refused:
        with pytest.raises(ValueError, match=f"^(vertex|edge) {label} is not an? (vertex|edge) of this graph$"):
            build()
    # b's own views still work, and print without touching a
    assert str(CohnElement.edge(b, F0, bb)) == "1 * b_b_1"
    assert str(n_generator(b, F0, b.vertices[0])) == "1 * b + -1 * b_b_1 b_b_1^*"


# -- multiplication --------------------------------------------------------------


def test_multiply_edge_with_ghost():
    g = family("rose", [2])
    e1, e2 = all_edges(g)
    x = CohnElement.edge(g, F0, e1)
    xs = CohnElement.ghost_edge(g, F0, e1)
    ys = CohnElement.ghost_edge(g, F0, e2)
    v = CohnElement.vertex(g, F0, g.vertices[0])
    assert (xs * x) == v  # e* e = r(e)
    assert (ys * x).is_zero()  # e2* e1 = 0
    prod = x * xs  # e e*
    assert len(prod.terms) == 1
    ((term, coeff),) = prod.terms.items()
    assert coeff == Fraction(1)
    assert term.p == term.q == PathWord.from_edges([e1])


def test_multiply_vertex_identities():
    g = family("example4")
    total = CohnElement.zero(g, F0)
    for v in g.vertices:
        total = total + CohnElement.vertex(g, F0, v)
    x = CohnElement.edge(g, F0, all_edges(g)[1])
    assert total * x == x
    assert x * total == x
    va = CohnElement.vertex(g, F0, g.vertices[0])
    vb = CohnElement.vertex(g, F0, g.vertices[1])
    assert (va * vb).is_zero()
    assert va * va == va


def test_multiply_longer_paths():
    ln = family("line", [3])
    e1, e2 = all_edges(ln)
    p12 = CohnElement.path(ln, F0, PathWord.from_edges([e1, e2]))
    g2 = CohnElement.ghost_edge(ln, F0, e2)
    e1_el = CohnElement.edge(ln, F0, e1)
    # (e1 e2)(e2)* = e1 e2 e2*; then multiply by e2 again: e1 e2 (e2* e2) = e1 e2
    y = p12 * g2
    assert y * CohnElement.edge(ln, F0, e2) == p12
    # ghost side: (e1 e2)* e1 = e2*
    gp = CohnElement.ghost(ln, F0, PathWord.from_edges([e1, e2]))
    assert gp * e1_el == CohnElement.ghost_edge(ln, F0, e2)


@given(st.integers(0, 2**32 - 1))
@example(0)  # a zero product
@example(1)  # a nonzero one
@settings(max_examples=400, deadline=None)
def test_keyed_product_matches_the_reference(seed):
    rng = random.Random(seed)
    g = random_graph(rng, max_vertices=4, max_mult=2)
    a, b = random_basis_term(rng, g), random_basis_term(rng, g)
    expected = reference_mult_terms(a, b)
    got = _mult_terms(_term_key(g, a), _term_key(g, b))
    assert got == (None if expected is None else _term_key(g, expected))
    product = elem(g, F0, a) * elem(g, F0, b)
    assert product.terms == ({} if expected is None else {expected: 1})


@given(st.integers(0, 2**32 - 1), st.sampled_from([0, 2, 3, 5]))
@settings(max_examples=300, deadline=None)
def test_ring_operations_match_the_reference(seed, characteristic):
    rng = random.Random(seed)
    field = FieldSpec(characteristic)
    g = random_graph(rng, max_vertices=4, max_mult=2)
    x = random_cohn_element(rng, g, field, terms=4, max_len=3)
    y = random_cohn_element(rng, g, field, terms=4, max_len=3)
    c = rng.randint(-6, 6)

    def element(pairs):
        total: dict[CohnTerm, object] = {}
        for t, a in pairs:
            total[t] = field.coerce(total.get(t, 0) + a)
        return CohnElement(g, field, {t: a for t, a in total.items() if a})

    xt, yt = x.terms, y.terms
    product = [
        (t, a * b)
        for s, a in xt.items()
        for u, b in yt.items()
        if (t := reference_mult_terms(s, u)) is not None
    ]
    pairs = [
        (x * y, element(product)),
        (x + y, element([*xt.items(), *yt.items()])),
        (x.scale(c), element((t, c * a) for t, a in xt.items())),
    ]
    scalar = type(field.coerce(1))
    for got, expected in pairs:
        assert got == expected
        assert got.terms == expected.terms
        assert all(type(a) is scalar for a in got.terms.values())


def test_elements_over_different_graphs_differ():
    # the same index keys, but other labels: a different algebra
    a, b = parse_graph("vertex a\nedge a a\n"), parse_graph("vertex b\nedge b b\n")
    assert CohnElement.vertex(a, F0, a.vertices[0]) != CohnElement.vertex(b, F0, b.vertices[0])
    (ea,), (eb,) = all_edges(a), all_edges(b)
    assert CohnElement.edge(a, F0, ea) != CohnElement.edge(b, F0, eb)
    again = parse_graph("vertex a\nedge a a\n")
    assert CohnElement.edge(a, F0, ea) == CohnElement.edge(again, F0, all_edges(again)[0])


def test_multiply_field_mismatch():
    g = family("rose", [1])
    with pytest.raises(ValueError, match="field mismatch"):
        CohnElement.vertex(g, F0, g.vertices[0]) * CohnElement.vertex(g, F2, g.vertices[0])


def test_associativity_random():
    rng = random.Random(101)
    for _ in range(1000):
        g = random_graph(rng, max_vertices=4, max_mult=2)
        field = FieldSpec(rng.choice([0, 2, 3, 5]))
        x = elem(g, field, random_basis_term(rng, g))
        y = elem(g, field, random_basis_term(rng, g))
        z = elem(g, field, random_basis_term(rng, g))
        assert (x * y) * z == x * (y * z)


# -- commutators and trace ---------------------------------------------------------


def test_commutator_examples():
    ln = family("line", [2])
    e = all_edges(ln)[0]
    ee = CohnElement.edge(ln, F0, e)
    es = CohnElement.ghost_edge(ln, F0, e)
    r = CohnElement.vertex(ln, F0, e.target)
    assert commutator(ee, es) == ee * es - r
    assert commutator(r, r).is_zero()
    assert commutator(ee, r) == ee  # [e, r(e)] = e when s(e) != r(e)


def test_trace_examples():
    g = family("example4")
    for i, v in enumerate(g.vertices):
        vec = trace_vector(CohnElement.vertex(g, F0, v))
        assert vec == [Fraction(1) if j == i else Fraction(0) for j in range(4)]
    e = all_edges(g)[0]
    assert trace_vector(CohnElement.edge(g, F0, e)) == [Fraction(0)] * 4
    assert trace_vector(CohnElement.ghost_edge(g, F0, e)) == [Fraction(0)] * 4
    ee = CohnElement.edge(g, F0, e) * CohnElement.ghost_edge(g, F0, e)
    expected = [Fraction(0)] * 4
    expected[e.target.index] = Fraction(1)
    assert trace_vector(ee) == expected


def test_trace_product_symmetric_random():
    rng = random.Random(102)
    for _ in range(300):
        g = random_graph(rng, max_vertices=4, max_mult=2)
        field = FieldSpec(rng.choice([0, 2, 3, 5]))
        x = random_cohn_element(rng, g, field)
        y = random_cohn_element(rng, g, field)
        assert trace_vector(x * y) == trace_vector(y * x)
        assert all(not c for c in trace_vector(commutator(x, y)))


def test_double_commutator_nonvanishing():
    rng = random.Random(103)
    found = 0
    for _ in range(80):
        g = random_graph(rng, max_vertices=4, max_mult=2)
        for e in all_edges(g):
            if e.source == e.target:
                continue
            found += 1
            r = CohnElement.vertex(g, F0, e.target)
            es = CohnElement.ghost_edge(g, F0, e)
            ee = CohnElement.edge(g, F0, e)
            val = commutator(commutator(r, es), commutator(ee, r))
            assert val == r - ee * es
            assert not val.is_zero()
    assert found > 50


def _mod_p(x, field):
    """The image of an integer-coefficient element over Q in ``field``."""
    terms = {t: field.coerce(c) for t, c in x.terms.items()}
    return CohnElement(x.graph, field, {t: c for t, c in terms.items() if c})


def test_reduction_mod_p_commutes_with_the_ring_operations():
    rng = random.Random(106)
    for _ in range(300):
        g = random_graph(rng, max_vertices=3, max_mult=2)
        field = FieldSpec(rng.choice([2, 3, 5]))
        p = field.characteristic
        x = random_cohn_element(rng, g, F0, terms=4, max_len=2)
        y = random_cohn_element(rng, g, F0, terms=4, max_len=2)
        c = rng.randint(-6, 6)
        xp, yp = _mod_p(x, field), _mod_p(y, field)
        pairs = [
            (x + y, xp + yp),
            (x - y, xp - yp),
            (-x, -xp),
            (x * y, xp * yp),
            (x.scale(c), xp.scale(c)),
            (c * x, c * xp),
            (x * c, xp * c),
            (commutator(x, y), commutator(xp, yp)),
        ]
        for over_q, over_p in pairs:
            assert all(type(a) is int and 0 <= a < p for a in over_p.terms.values())
            assert over_p == _mod_p(over_q, field)
        assert trace_vector(xp) == [field.coerce(a) for a in trace_vector(x)]
        assert all(type(a) is int and 0 <= a < p for a in trace_vector(xp))


# -- quotient-ideal generators -----------------------------------------------------


def test_n_generator_examples():
    g = family("rose", [2])
    y = n_generator(g, F0, g.vertices[0])
    v = CohnElement.vertex(g, F0, g.vertices[0])
    expected = v
    for e in all_edges(g):
        expected = expected - CohnElement.edge(g, F0, e) * CohnElement.ghost_edge(g, F0, e)
    assert y == expected

    ln = family("line", [2])
    y1 = n_generator(ln, F0, ln.vertices[0])
    assert len(y1.terms) == 2
    with pytest.raises(PreconditionError):
        n_generator(ln, F0, ln.vertices[1])


def test_annihilation_random():
    rng = random.Random(104)
    checked = 0
    for _ in range(250):
        g = random_graph(rng, max_vertices=4, max_mult=2)
        field = FieldSpec(rng.choice([0, 2, 3]))
        regular = [v for v in g.vertices if g.is_regular(v)]
        if not regular:
            continue
        v = rng.choice(regular)
        y = n_generator(g, field, v)
        p = random_path(rng, g, max_len=3)
        if p.length == 0:
            continue
        checked += 1
        assert (y * CohnElement.path(g, field, p)).is_zero()
        assert (CohnElement.ghost(g, field, p) * y).is_zero()
    assert checked > 80


def test_ideal_trace_lands_in_b_span():
    rng = random.Random(105)
    checked = 0
    for _ in range(150):
        g = random_graph(rng, max_vertices=4, max_mult=2)
        field = FieldSpec(rng.choice([0, 2, 3, 5]))
        regular = [v for v in g.vertices if g.is_regular(v)]
        if not regular:
            continue
        v = rng.choice(regular)
        c = elem(g, field, random_basis_term(rng, g, max_len=3))
        c2 = elem(g, field, random_basis_term(rng, g, max_len=3))
        w = c * n_generator(g, field, v) * c2
        checked += 1
        assert vertex_combination_in_commutator(g, trace_vector(w), field) is not None
    assert checked > 80


# -- witness verification -----------------------------------------------------------


def test_verify_witness_rose3():
    g = family("rose", [3])
    assert vertex_witness(g, [1], [Fraction(1, 2)], F0).verified


def test_verify_witness_rose4_char2():
    g = family("rose", [4])
    assert vertex_witness(g, [1], [1], F2).verified


def test_verify_witness_zero():
    for name, params in [("rose", [2]), ("example4", []), ("line", [3])]:
        g = family(name, params)
        zero = [0] * g.num_vertices
        assert vertex_witness(g, zero, zero, F0).verified


def test_verify_witness_preconditions():
    ln = family("line", [2])
    with pytest.raises(PreconditionError, match="non-regular"):
        vertex_witness(ln, [0, 0], [0, 1], F0)
    g = family("rose", [3])
    with pytest.raises(PreconditionError, match="combination"):
        vertex_witness(g, [1], [1], F0)  # 1 * B_1 = 2 != 1 over Q
    with pytest.raises(PreconditionError, match="length"):
        vertex_witness(g, [1, 1], [1], F0)


def test_vertex_witness_names_no_term_beyond_out_edges(monkeypatch):
    g = family("rose", [50])
    built = Counter()
    for cls in (PathWord, CohnTerm, EdgeId):

        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    wit = vertex_witness(g, [49], [1], F0)
    rendered = [str(wit.commutator_sum), str(wit.correction)]
    # the 50 EdgeIds are out_edges naming the loops, once per graph, for the
    # witness and its printing alike
    assert built == {"EdgeId": 50}
    assert [s.count("^*") for s in rendered] == [50, 50]
    assert wit.verified
    assert [e for _, e in wit.brackets] == list(g.out_edges(g.vertices[0]))


def test_verify_witness_from_solver_random():
    rng = random.Random(106)
    checked = 0
    for _ in range(200):
        g = random_graph(rng, max_vertices=4, max_mult=3)
        field = FieldSpec(rng.choice([0, 2, 3, 5]))
        k = [rng.randint(-3, 3) for _ in range(g.num_vertices)]
        t = vertex_combination_in_commutator(g, k, field)
        if t is None:
            continue
        checked += 1
        assert vertex_witness(g, k, t, field).verified
    assert checked > 40


# -- single-path and pq* bracket identities ----------------------------------------


def tail_terms(g, field, p, q):
    """``(h, q* p, its bracket)`` when one of p, q extends the other by a path h, else None.

    ``q* p`` is h when p = q h and h* when q = p h, and its bracket is
    ``[h, r(h)]`` or ``[r(h), h*]``, which equals it exactly when h is open.
    """
    h = p.strip_prefix(q)
    if h is not None:
        tail, r = CohnElement.path(g, field, h), CohnElement.vertex(g, field, h.range)
        return h, tail, commutator(tail, r)
    h = q.strip_prefix(p)
    if h is not None:
        tail, r = CohnElement.ghost(g, field, h), CohnElement.vertex(g, field, h.range)
        return h, tail, commutator(r, tail)
    return None


def test_path_bracket_witness_single_edge():
    # p = [p, r(p)] and p* = [r(p), p*] when s(p) != r(p)
    ln = family("line", [2])
    p = PathWord.from_edges([all_edges(ln)[0]])
    p_el, pstar = CohnElement.path(ln, F0, p), CohnElement.ghost(ln, F0, p)
    r = CohnElement.vertex(ln, F0, p.range)
    assert commutator(p_el, r) == p_el
    assert commutator(r, pstar) == pstar


def test_path_bracket_witness_disjoint_ghost():
    g = family("example4")
    p = next(e for e in all_edges(g) if e.source.label == "v1" and e.target.label == "v2")
    q = next(e for e in all_edges(g) if e.source.label == "v3" and e.target.label == "v2")
    p_el, qstar = CohnElement.edge(g, F0, p), CohnElement.ghost_edge(g, F0, q)
    # q* p = 0, so the basis term p q* is [p, q*] outright
    assert (qstar * p_el).is_zero()
    assert len((p_el * qstar).terms) == 1
    assert p_el * qstar == commutator(p_el, qstar)


def test_path_bracket_witness_overlap_with_open_tail():
    # with an open tail h the element p q* is [p, q*] plus the bracket of h
    # or h*; on the line p q* itself is zero, as the ranges differ
    ln = family("line", [3])
    e1, e2 = all_edges(ln)
    one, two = PathWord.from_edges([e1]), PathWord.from_edges([e1, e2])
    # q = p e2: the ghost correction [r(h), h*]; p = q e2: the path correction [h, r(h)]
    for p, q, h_el in [
        (one, two, CohnElement.ghost_edge(ln, F0, e2)),
        (two, one, CohnElement.edge(ln, F0, e2)),
    ]:
        p_el, qstar = CohnElement.path(ln, F0, p), CohnElement.ghost(ln, F0, q)
        h, tail, bracket = tail_terms(ln, F0, p, q)
        assert h == PathWord.from_edges([e2]) and tail == h_el == bracket
        assert (p_el * qstar).is_zero()
        assert p_el * qstar == commutator(p_el, qstar) + bracket


def test_path_bracket_witness_preconditions():
    # the lemmas exclude a closed h: there [p, r(p)], [h, r(h)] and
    # [r(h), h*] vanish, so each formula misses its target by exactly h or h*
    g = family("rose", [1])
    loop = PathWord.from_edges([all_edges(g)[0]])
    p_el, pstar = CohnElement.path(g, F0, loop), CohnElement.ghost(g, F0, loop)
    r = CohnElement.vertex(g, F0, loop.range)
    assert commutator(p_el, r).is_zero() and commutator(r, pstar).is_zero()
    # a closed tail on either side, and p = q, where h is the vertex r(p)
    mixed = graph_from_adjacency(["a", "b"], [[0, 1], [0, 1]])
    e, loop = all_edges(mixed)
    one, two = PathWord.from_edges([e]), PathWord.from_edges([e, loop])
    for p, q in [(two, one), (one, two), (one, one)]:
        p_el, qstar = CohnElement.path(mixed, F0, p), CohnElement.ghost(mixed, F0, q)
        h, tail, bracket = tail_terms(mixed, F0, p, q)
        assert h.source == h.range and bracket.is_zero() and not tail.is_zero()
        assert p_el * qstar - (commutator(p_el, qstar) + bracket) == tail


def test_path_bracket_witness_random_instances():
    rng = random.Random(107)
    seen = Counter()
    for _ in range(800):
        g = random_graph(rng, max_vertices=4, max_mult=2)
        field = FieldSpec(rng.choice([0, 2, 3]))
        # p and q: two prefixes of one path, or a prefix and an unrelated path
        w = random_path(rng, g, max_len=4)
        if w.length == 0:
            continue
        i, j = rng.sample(range(1, w.length + 1), 2) if w.length > 1 else (1, 1)
        p, q = PathWord.from_edges(w.edges[:i]), PathWord.from_edges(w.edges[:j])
        if rng.random() < 0.3:
            q = random_path(rng, g, max_len=3)
            if q.length == 0:
                continue
        p_el, qstar = CohnElement.path(g, field, p), CohnElement.ghost(g, field, q)
        formula = commutator(p_el, qstar)
        tail = tail_terms(g, field, p, q)
        if tail is None:
            seen["neither"] += 1
            assert (qstar * p_el).is_zero()
            assert p_el * qstar == formula
            continue
        h, h_el, bracket = tail
        assert qstar * p_el == h_el
        if h.source != h.range:
            seen["open"] += 1
            assert p_el * qstar == formula + bracket
        else:
            seen["closed"] += 1
            assert bracket.is_zero()
            assert p_el * qstar - (formula + bracket) == h_el
    # the sample mixes open tails, closed ones (p = q among them) and neither
    assert min(seen.values()) >= 40 and len(seen) == 3, seen


# -- serialization --------------------------------------------------------------------


def test_element_string_form():
    g = family("example4")
    p = next(e for e in all_edges(g) if e.source.label == "v1" and e.target.label == "v2")
    q = next(e for e in all_edges(g) if e.source.label == "v3" and e.target.label == "v2")
    x = CohnElement.term(
        g, F0, PathWord.from_edges([p]), PathWord.from_edges([q]), Fraction(1, 2)
    )
    assert str(x) == f"1/2 * {p.label} {q.label}^*"
    v = CohnElement.vertex(g, F0, g.vertices[0])
    assert str(v) == "1 * v1"
    assert str(CohnElement.zero(g, F0)) == "0"
    ln = family("line", [3])
    e1, e2 = all_edges(ln)
    ghost2 = CohnElement.ghost(ln, F0, PathWord.from_edges([e1, e2]))
    assert str(ghost2) == f"1 * {e2.label}^* {e1.label}^*"


def test_vertex_elements_of_a_trillion_loops_name_no_edge():
    g = parse_graph("vertex a\nedge a a 1000000000000\n")
    with time_limit(2):
        v = CohnElement.vertex(g, F0, g.vertices[0])
        assert str(v * v - v.scale(2)) == "-1 * a"
        assert trace_vector(v) == [1]


def test_element_string_deterministic_order():
    g = family("rose", [2])
    e1, e2 = all_edges(g)
    a = CohnElement.edge(g, F0, e1) + CohnElement.edge(g, F0, e2)
    b = CohnElement.edge(g, F0, e2) + CohnElement.edge(g, F0, e1)
    assert str(a) == str(b)


@given(st.integers(0, 2**32 - 1), st.sampled_from([0, 2, 3, 5]), st.booleans())
@example(0, 0, False)
@example(0, 5, True)
@settings(max_examples=300, deadline=None)
def test_element_string_matches_the_reference(seed, characteristic, labelled):
    rng = random.Random(seed)
    field = FieldSpec(characteristic)
    # labelled graphs add edge-label runs and labels with "_" in them
    g = random_labelled_graph(rng) if labelled else random_graph(rng, max_vertices=4, max_mult=3)
    x = random_cohn_element(rng, g, field, terms=6, max_len=3)
    y = random_cohn_element(rng, g, field, terms=3, max_len=2)
    for z in (x, x * y, CohnElement.zero(g, field)):
        assert str(z) == reference_str(z)


def test_element_string_orders_by_label_not_index():
    g = family("rose", [12])
    x = n_generator(g, F0, g.vertices[0])
    text = str(x)
    assert text == reference_str(x)
    # label order: v1_v1_10 sorts before v1_v1_2, though its index is higher
    assert text.index("v1_v1_10 ") < text.index("v1_v1_2 ")


def test_constructor_coerces_coefficients_and_drops_zeros():
    g = family("rose", [1])
    w = PathWord.vertex_word(g.vertices[0])
    t = CohnTerm(w, w)
    F5 = FieldSpec(5)
    seven = CohnElement(g, F5, {t: 7})
    assert str(seven) == "2 * v1"
    assert seven == CohnElement.term(g, F5, w, w, 2)
    for field, coeff in ((F5, 5), (F0, 0)):
        x = CohnElement(g, field, {t: coeff})
        assert x.is_zero() and str(x) == "0" and x == CohnElement.zero(g, field)
    half = CohnElement(g, F5, {t: Fraction(1, 2)})
    assert str(half) == "3 * v1"
    assert half.terms == {t: 3}
