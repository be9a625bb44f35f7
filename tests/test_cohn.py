"""The package's Cohn-algebra product and bracket witness, and the reference
Cohn algebra of ``_gen`` they are checked against.

The reference algebra (``CohnRef``) is checked here on its own: ring axioms,
traces, the quotient-ideal generators and the bracket lemmas of the paper.
"""

import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _gen
from _gen import (
    CohnRef,
    all_edges,
    commutator,
    expand_brackets,
    expand_witness,
    key_range,
    n_generator,
    path_key,
    random_basis_term,
    random_cohn_element,
    random_graph,
    random_labelled_graph,
    random_path,
    reference_mult_terms,
    reference_strip_prefix,
    reference_witness,
    time_limit,
    trace_vector,
)

from lpa_lie import (
    EdgeId,
    FieldSpec,
    GraphInvariants,
    PreconditionError,
    b_vectors,
    family,
    graph_from_adjacency,
    parse_graph,
    vertex_witness,
)
from lpa_lie import cohn
from lpa_lie.cohn import _mult_terms

F0 = FieldSpec(0)
F2 = FieldSpec(2)


def elem(g, field, term, coeff=1):
    return CohnRef.term(g, field, *term, coeff)


def edge(g, field, e):
    return CohnRef.path(g, field, path_key(e))


def ghost_edge(g, field, e):
    return CohnRef.ghost(g, field, path_key(e))


# -- multiplication --------------------------------------------------------------


def test_multiply_edge_with_ghost():
    g = family("rose", [2])
    e1, e2 = all_edges(g)
    x, xs, ys = edge(g, F0, e1), ghost_edge(g, F0, e1), ghost_edge(g, F0, e2)
    v = CohnRef.vertex(g, F0, g.vertices[0])
    assert (xs * x) == v  # e* e = r(e)
    assert not ys * x  # e2* e1 = 0
    key = path_key(e1)
    assert (x * xs).terms == {(key, key): Fraction(1)}  # e e*


def test_multiply_vertex_identities():
    g = family("example4")
    total = CohnRef(g, F0)
    for v in g.vertices:
        total = total + CohnRef.vertex(g, F0, v)
    x = edge(g, F0, all_edges(g)[1])
    assert total * x == x
    assert x * total == x
    va = CohnRef.vertex(g, F0, g.vertices[0])
    vb = CohnRef.vertex(g, F0, g.vertices[1])
    assert not va * vb
    assert va * va == va


def test_multiply_longer_paths():
    ln = family("line", [3])
    e1, e2 = all_edges(ln)
    p12 = CohnRef.path(ln, F0, path_key(e1, e2))
    # (e1 e2)(e2)* = e1 e2 e2*; then multiply by e2 again: e1 e2 (e2* e2) = e1 e2
    y = p12 * ghost_edge(ln, F0, e2)
    assert y * edge(ln, F0, e2) == p12
    # ghost side: (e1 e2)* e1 = e2*
    gp = CohnRef.ghost(ln, F0, path_key(e1, e2))
    assert gp * edge(ln, F0, e1) == ghost_edge(ln, F0, e2)


@given(st.integers(0, 2**32 - 1))
@example(0)  # a zero product
@example(1)  # a nonzero one
@settings(max_examples=400, deadline=None)
def test_keyed_product_matches_the_reference(seed):
    rng = random.Random(seed)
    g = random_graph(rng, max_vertices=4, max_mult=2)
    a, b = random_basis_term(rng, g), random_basis_term(rng, g)
    expected = reference_mult_terms(g, a, b)
    assert _mult_terms(a, b) == expected
    product = elem(g, F0, a) * elem(g, F0, b)
    assert product.terms == ({} if expected is None else {expected: 1})


@given(st.integers(0, 2**32 - 1), st.sampled_from([0, 2, 3, 5]))
@settings(max_examples=300, deadline=None)
def test_ring_operations_match_the_reference(seed, characteristic):
    # the reference's sums and products against term-by-term sums of the
    # package's product on keys, reduced by ``FieldSpec.coerce``
    rng = random.Random(seed)
    field = FieldSpec(characteristic)
    g = random_graph(rng, max_vertices=4, max_mult=2)
    x = random_cohn_element(rng, g, field, terms=4, max_len=3)
    y = random_cohn_element(rng, g, field, terms=4, max_len=3)
    c = rng.randint(-6, 6)

    def terms(pairs):
        total: dict = {}
        for t, a in pairs:
            total[t] = field.coerce(total.get(t, 0) + a)
        return {t: a for t, a in total.items() if a}

    xt, yt = x.terms, y.terms
    product = [(t, a * b) for s, a in xt.items() for u, b in yt.items() if (t := _mult_terms(s, u))]
    pairs = [
        (x * y, terms(product)),
        (x + y, terms([*xt.items(), *yt.items()])),
        (x - y, terms([*xt.items(), *((t, -a) for t, a in yt.items())])),
        (x.scale(c), terms((t, c * a) for t, a in xt.items())),
    ]
    scalar = type(field.coerce(1))
    for got, expected in pairs:
        assert got.terms == expected
        assert all(type(a) is scalar for a in got.terms.values())


def test_elements_over_different_graphs_differ():
    # the same index keys, but other labels: a different algebra
    a, b = parse_graph("vertex a\nedge a a\n"), parse_graph("vertex b\nedge b b\n")
    assert CohnRef.vertex(a, F0, a.vertices[0]) != CohnRef.vertex(b, F0, b.vertices[0])
    (ea,), (eb,) = all_edges(a), all_edges(b)
    assert edge(a, F0, ea) != edge(b, F0, eb)
    again = parse_graph("vertex a\nedge a a\n")
    assert edge(a, F0, ea) == edge(again, F0, all_edges(again)[0])


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
    ee, es = edge(ln, F0, e), ghost_edge(ln, F0, e)
    r = CohnRef.vertex(ln, F0, e.target)
    assert commutator(ee, es) == ee * es - r
    assert not commutator(r, r)
    assert commutator(ee, r) == ee  # [e, r(e)] = e when s(e) != r(e)
    # [e, e*] = e e* - r(e) for a loop e of the rose with two petals
    g = family("rose", [2])
    e = g.edge(0)
    assert str(commutator(edge(g, F0, e), ghost_edge(g, F0, e))) == "-1 * v1 + 1 * v1_v1_1 v1_v1_1^*"


def test_trace_examples():
    g = family("example4")
    for i, v in enumerate(g.vertices):
        vec = trace_vector(CohnRef.vertex(g, F0, v))
        assert vec == [Fraction(1) if j == i else Fraction(0) for j in range(4)]
    e = all_edges(g)[0]
    assert trace_vector(edge(g, F0, e)) == [Fraction(0)] * 4
    assert trace_vector(ghost_edge(g, F0, e)) == [Fraction(0)] * 4
    ee = edge(g, F0, e) * ghost_edge(g, F0, e)
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
            r = CohnRef.vertex(g, F0, e.target)
            es, ee = ghost_edge(g, F0, e), edge(g, F0, e)
            val = commutator(commutator(r, es), commutator(ee, r))
            assert val == r - ee * es
            assert val
    assert found > 50


def _mod_p(x, field):
    """The image of an integer-coefficient element over Q in ``field``."""
    return CohnRef(x.graph, field).add_terms(x.terms.items())


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
    expected = CohnRef.vertex(g, F0, g.vertices[0])
    for e in all_edges(g):
        expected = expected - edge(g, F0, e) * ghost_edge(g, F0, e)
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
        if len(p) == 1:
            continue
        checked += 1
        assert not y * CohnRef.path(g, field, p)
        assert not CohnRef.ghost(g, field, p) * y
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
        assert GraphInvariants(g).b_smith.solve(trace_vector(w), field) is not None
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
    # rose 50 is one run of out edges: the witness names its first edge once
    # and holds one bracket entry and one run term per sum
    g = family("rose", [50])
    built = Counter()

    def counted(self, *args, _init=EdgeId.__init__, **kwargs):
        built["EdgeId"] += 1
        _init(self, *args, **kwargs)

    monkeypatch.setattr(EdgeId, "__init__", counted)
    wit = vertex_witness(g, [49], [1], F0)
    assert built == {"EdgeId": 1}
    assert wit.verified
    (a,), first = g.vertices, g.edge(0)
    assert first == next(iter(g.out_edges(a)))
    assert wit.brackets == ((-1, first, 50),)
    assert wit.commutator_sum == {a: 50, (first, 50): -1}
    assert wit.correction == {a: 1, (first, 50): -1}


def test_vertex_witness_of_a_trillion_loops_is_one_run_term():
    # B = (10^12 - 1) = (4) mod 5, so k = 1 has t = 4: W = sum of e e* over
    # the run (-4 = 1 mod 5) and 4 * 10^12 * a = 0, the correction 4 a + W
    g = parse_graph("vertex a\nedge a a 1000000000000\n")
    (a,), e = g.vertices, g.edge(0)
    F5 = FieldSpec(5)
    with time_limit(1):
        wit = vertex_witness(g, [1], [4], F5)
    assert wit.verified and wit.brackets == ((1, e, 10**12),)
    assert wit.commutator_sum == {(e, 10**12): 1}
    assert wit.correction == {a: 4, (e, 10**12): 1}
    with time_limit(1):
        wit = vertex_witness(g, [10**12 - 1], [1], F0)
    assert wit.verified and wit.brackets == ((-1, e, 10**12),)
    assert wit.commutator_sum == {a: 10**12, (e, 10**12): -1}
    assert wit.correction == {a: 1, (e, 10**12): -1}


def test_edge_lookup_names_one_edge_of_a_trillion_loops(monkeypatch):
    g = parse_graph("vertex a\nvertex b\nedge a b 2\nedge b b 1000000000000\n")
    built = Counter()

    def counted(self, *args, _init=EdgeId.__init__, **kwargs):
        built["EdgeId"] += 1
        _init(self, *args, **kwargs)

    monkeypatch.setattr(EdgeId, "__init__", counted)
    with time_limit(2):
        first = g.edge(2)
        assert built == {"EdgeId": 1}
        last = g.edge(g.num_edges - 1)
        assert built == {"EdgeId": 2}
        assert (first.label, last.label) == ("b_b_1", "b_b_1000000000000")
        assert (last.index, last.source, last.target) == (10**12 + 1, g.vertices[1], g.vertices[1])
        bracket = commutator(edge(g, F0, last), ghost_edge(g, F0, last))
        assert str(bracket) == "-1 * b + 1 * b_b_1000000000000 b_b_1000000000000^*"
        assert trace_vector(bracket) == [0, 0]
        # nothing is cached: each lookup builds its EdgeId again
        before = built["EdgeId"]
        assert g.edge(last.index) == last and built["EdgeId"] == before + 1


def test_verify_witness_from_solver_random():
    rng = random.Random(106)
    checked = 0
    for _ in range(200):
        g = random_graph(rng, max_vertices=4, max_mult=3)
        field = FieldSpec(rng.choice([0, 2, 3, 5]))
        k = [rng.randint(-3, 3) for _ in range(g.num_vertices)]
        t = GraphInvariants(g).b_smith.solve(k, field)
        if t is None:
            continue
        checked += 1
        assert vertex_witness(g, k, t, field).verified
    assert checked > 40


def member_and_solution(rng, g, field):
    """``(k, t)``: k at random if the B-vectors span it, else a random combination of them.

    t is the solver's, so over Q its denominators are those of the Smith form.
    """
    solve = GraphInvariants(g).b_smith.solve
    k = [field.coerce(rng.randint(-4, 4)) for _ in g.vertices]
    t = solve(k, field)
    if t is None:
        b = b_vectors(g)
        t0 = [rng.randint(-3, 3) if g.is_regular(v) else 0 for v in g.vertices]
        k = [field.coerce(sum(ti * row[j] for ti, row in zip(t0, b))) for j in range(len(b))]
        t = solve(k, field)
    return k, t


def assert_scalars(field, values):
    """Fractions over Q, int residues in [0, p) over GF(p)."""
    p = field.characteristic
    for c in values:
        assert (type(c) is Fraction) if p == 0 else (type(c) is int and 0 <= c < p), (c, field)


@given(st.integers(0, 2**32 - 1), st.sampled_from([0, 0, 2, 3, 5, 7, 1_000_000_007]))
@example(3, 0)
@settings(max_examples=200, deadline=None)
def test_vertex_witness_matches_the_reference(seed, characteristic):
    rng = random.Random(seed)
    field = FieldSpec(characteristic)
    g = random_graph(rng, max_vertices=4, max_mult=3)
    k, t = member_and_solution(rng, g, field)
    wit = vertex_witness(g, k, t, field)
    w, correction, verified = reference_witness(g, k, t, field)
    assert wit.verified and verified
    assert expand_witness(g, field, wit.commutator_sum) == w
    assert expand_witness(g, field, wit.correction) == correction
    assert_scalars(field, [*wit.commutator_sum.values(), *wit.correction.values()])
    assert_scalars(field, [c for c, _, _ in wit.brackets])
    # k off by one unit of the common denominator in one coordinate is no combination
    d = lcm(*(c.denominator for c in k + t)) if characteristic == 0 else 1
    j = rng.randrange(g.num_vertices)
    off = list(k)
    off[j] = field.coerce(off[j] + Fraction(1, d))
    with pytest.raises(PreconditionError, match="combination"):
        vertex_witness(g, off, t, field)


@given(st.integers(0, 2**32 - 1), st.sampled_from([0, 2, 3, 5]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_run_witness_matches_the_per_edge_reference(seed, characteristic):
    # parsed graphs of up to 4 vertices: edge lines of multiplicity up to 5,
    # named edges and auto-shaped labels; about 30% of the cases break a
    # hypothesis (k off in one coordinate, or t nonzero at a sink)
    rng = random.Random(seed)
    field = FieldSpec(characteristic)
    g = random_labelled_graph(rng)
    k, t = member_and_solution(rng, g, field)
    if rng.random() < 0.3:
        step = rng.randint(1, characteristic - 1) if characteristic else Fraction(rng.randint(1, 3), 2)
        step = field.coerce(step)
        sinks = [v.index for v in g.vertices if g.is_sink(v)]
        if sinks and rng.random() < 0.5:
            t = list(t)
            t[rng.choice(sinks)] = step
        else:
            k = list(k)
            j = rng.randrange(g.num_vertices)
            k[j] = field.coerce(k[j] + step)
        with pytest.raises(PreconditionError) as package:
            vertex_witness(g, k, t, field)
        with pytest.raises(PreconditionError) as reference:
            reference_witness(g, k, t, field)
        assert str(package.value) == str(reference.value)
        return
    wit = vertex_witness(g, k, t, field)
    w, correction, verified = reference_witness(g, k, t, field)
    assert wit.verified is verified is True
    assert expand_witness(g, field, wit.commutator_sum) == w
    assert expand_witness(g, field, wit.correction) == correction
    # brackets go vertex by vertex, in index order within a vertex: the
    # reference has one per edge, the witness one per run leaving the support
    edges = [e for v in g.vertices if t[v.index] for e in all_edges(g) if e.source == v]
    assert expand_brackets(g, wit.brackets) == [(field.coerce(-t[e.source.index]), e) for e in edges]
    # every run is (src, dst, first, count)
    runs = [r for v in g.vertices if t[v.index] for r in g.runs if r[0] == v.index]
    assert [m for _, _, m in wit.brackets] == [r[3] for r in runs]


def test_vertex_witness_refuses_k_off_by_one_over_the_denominator():
    g = family("two_vertex", [2, 2, 3])
    k = [F0.coerce(1), F0.coerce(0)]
    t = GraphInvariants(g).b_smith.solve(k, F0)
    assert t == [Fraction(1, 6), Fraction(-1, 6)] and vertex_witness(g, k, t, F0).verified
    d = 6
    for j in range(g.num_vertices):
        off = list(k)
        off[j] += Fraction(1, d)
        with pytest.raises(PreconditionError, match="combination"):
            vertex_witness(g, off, t, F0)
    # a denominator of k that t does not have also counts in D
    with pytest.raises(PreconditionError, match="combination"):
        vertex_witness(g, [k[0] + Fraction(1, 7), k[1]], t, F0)
    with pytest.raises(PreconditionError, match="combination"):
        vertex_witness(family("rose", [3]), [Fraction(1, 3)], [0], F0)


def test_vertex_witness_makes_one_fraction_per_distinct_coefficient(monkeypatch):
    g = family("rose", [500])
    # field elements, as FieldSpec.parse and the solver hand them over
    k, t = [F0.coerce(1)], [Fraction(1, 499)]
    made = Counter()
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made["Fraction"] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    if hasattr(Fraction, "_from_coprime_ints"):  # the arithmetic's constructor from 3.12 on
        coprime = Fraction._from_coprime_ints

        def counted_coprime(cls, *args):
            made["Fraction"] += 1
            return coprime(*args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_coprime))
    wit = vertex_witness(g, k, t, F0)
    built = made["Fraction"]
    monkeypatch.undo()
    coefficients = {
        *wit.commutator_sum.values(),
        *wit.correction.values(),
        *(c for c, _, _ in wit.brackets),
    }
    assert wit.verified and wit.brackets == ((Fraction(-1, 499), g.edge(0), 500),)
    assert coefficients == {Fraction(-1, 499), Fraction(500, 499), Fraction(1, 499)}
    assert built <= len(coefficients)


# -- single-path and pq* bracket identities ----------------------------------------


def tail_terms(g, field, p, q):
    """``(h, q* p, its bracket)`` when one of p, q extends the other by a path h, else None.

    ``q* p`` is h when p = q h and h* when q = p h, and its bracket is
    ``[h, r(h)]`` or ``[r(h), h*]``, which equals it exactly when h is open.
    """
    h = reference_strip_prefix(g, p, q)
    if h is not None:
        tail, r = CohnRef.path(g, field, h), CohnRef.vertex(g, field, g.vertices[key_range(g, h)])
        return h, tail, commutator(tail, r)
    h = reference_strip_prefix(g, q, p)
    if h is not None:
        tail, r = CohnRef.ghost(g, field, h), CohnRef.vertex(g, field, g.vertices[key_range(g, h)])
        return h, tail, commutator(r, tail)
    return None


def is_closed(g, h):
    return h[0] == key_range(g, h)


def test_path_bracket_witness_single_edge():
    # p = [p, r(p)] and p* = [r(p), p*] when s(p) != r(p)
    ln = family("line", [2])
    e = all_edges(ln)[0]
    p_el, pstar = edge(ln, F0, e), ghost_edge(ln, F0, e)
    r = CohnRef.vertex(ln, F0, e.target)
    assert commutator(p_el, r) == p_el
    assert commutator(r, pstar) == pstar


def test_path_bracket_witness_disjoint_ghost():
    g = family("example4")
    p = next(e for e in all_edges(g) if e.source.label == "v1" and e.target.label == "v2")
    q = next(e for e in all_edges(g) if e.source.label == "v3" and e.target.label == "v2")
    p_el, qstar = edge(g, F0, p), ghost_edge(g, F0, q)
    # q* p = 0, so the basis term p q* is [p, q*] outright
    assert not qstar * p_el
    assert len((p_el * qstar).terms) == 1
    assert p_el * qstar == commutator(p_el, qstar)


def test_path_bracket_witness_overlap_with_open_tail():
    # with an open tail h the element p q* is [p, q*] plus the bracket of h
    # or h*; on the line p q* itself is zero, as the ranges differ
    ln = family("line", [3])
    e1, e2 = all_edges(ln)
    one, two = path_key(e1), path_key(e1, e2)
    # q = p e2: the ghost correction [r(h), h*]; p = q e2: the path correction [h, r(h)]
    for p, q, h_el in [(one, two, ghost_edge(ln, F0, e2)), (two, one, edge(ln, F0, e2))]:
        p_el, qstar = CohnRef.path(ln, F0, p), CohnRef.ghost(ln, F0, q)
        h, tail, bracket = tail_terms(ln, F0, p, q)
        assert h == path_key(e2) and tail == h_el == bracket
        assert not p_el * qstar
        assert p_el * qstar == commutator(p_el, qstar) + bracket


def test_path_bracket_witness_preconditions():
    # the lemmas exclude a closed h: there [p, r(p)], [h, r(h)] and
    # [r(h), h*] vanish, so each formula misses its target by exactly h or h*
    g = family("rose", [1])
    loop = all_edges(g)[0]
    p_el, pstar = edge(g, F0, loop), ghost_edge(g, F0, loop)
    r = CohnRef.vertex(g, F0, loop.target)
    assert not commutator(p_el, r) and not commutator(r, pstar)
    # a closed tail on either side, and p = q, where h is the vertex r(p)
    mixed = graph_from_adjacency(["a", "b"], [[0, 1], [0, 1]])
    e, loop = all_edges(mixed)
    one, two = path_key(e), path_key(e, loop)
    for p, q in [(two, one), (one, two), (one, one)]:
        p_el, qstar = CohnRef.path(mixed, F0, p), CohnRef.ghost(mixed, F0, q)
        h, tail, bracket = tail_terms(mixed, F0, p, q)
        assert is_closed(mixed, h) and not bracket and tail
        assert p_el * qstar - (commutator(p_el, qstar) + bracket) == tail


def test_path_bracket_witness_random_instances():
    rng = random.Random(107)
    seen = Counter()
    for _ in range(800):
        g = random_graph(rng, max_vertices=4, max_mult=2)
        field = FieldSpec(rng.choice([0, 2, 3]))
        # p and q: two prefixes of one path, or a prefix and an unrelated path
        w = random_path(rng, g, max_len=4)
        length = len(w) - 1
        if length == 0:
            continue
        i, j = rng.sample(range(1, length + 1), 2) if length > 1 else (1, 1)
        p, q = w[: i + 1], w[: j + 1]
        if rng.random() < 0.3:
            q = random_path(rng, g, max_len=3)
            if len(q) == 1:
                continue
        p_el, qstar = CohnRef.path(g, field, p), CohnRef.ghost(g, field, q)
        formula = commutator(p_el, qstar)
        tail = tail_terms(g, field, p, q)
        if tail is None:
            seen["neither"] += 1
            assert not qstar * p_el
            assert p_el * qstar == formula
            continue
        h, h_el, bracket = tail
        assert qstar * p_el == h_el
        if not is_closed(g, h):
            seen["open"] += 1
            assert p_el * qstar == formula + bracket
        else:
            seen["closed"] += 1
            assert not bracket
            assert p_el * qstar - (formula + bracket) == h_el
    # the sample mixes open tails, closed ones (p = q among them) and neither
    assert min(seen.values()) >= 40 and len(seen) == 3, seen


# -- the reference printer ------------------------------------------------------------


def test_element_string_form():
    g = family("example4")
    p = next(e for e in all_edges(g) if e.source.label == "v1" and e.target.label == "v2")
    q = next(e for e in all_edges(g) if e.source.label == "v3" and e.target.label == "v2")
    x = CohnRef.term(g, F0, path_key(p), path_key(q), Fraction(1, 2))
    assert str(x) == f"1/2 * {p.label} {q.label}^*"
    v = CohnRef.vertex(g, F0, g.vertices[0])
    assert str(v) == "1 * v1"
    assert str(CohnRef(g, F0)) == "0"
    ln = family("line", [3])
    e1, e2 = all_edges(ln)
    ghost2 = CohnRef.ghost(ln, F0, path_key(e1, e2))
    assert str(ghost2) == f"1 * {e2.label}^* {e1.label}^*"


def test_vertex_elements_of_a_trillion_loops_name_no_edge():
    g = parse_graph("vertex a\nedge a a 1000000000000\n")
    with time_limit(2):
        v = CohnRef.vertex(g, F0, g.vertices[0])
        assert str(v * v - v.scale(2)) == "-1 * a"
        assert trace_vector(v) == [1]


def test_element_string_deterministic_order():
    g = family("rose", [2])
    e1, e2 = all_edges(g)
    a = edge(g, F0, e1) + edge(g, F0, e2)
    b = edge(g, F0, e2) + edge(g, F0, e1)
    assert str(a) == str(b)


def random_generator_product(rng, g, field, factors):
    """A product of ``factors`` random edges, ghost edges and vertices of ``g``."""
    x = CohnRef.vertex(g, field, rng.choice(g.vertices))
    for _ in range(factors):
        kind = rng.choice(["edge", "ghost", "vertex"])
        if kind == "vertex":
            x = x * CohnRef.vertex(g, field, rng.choice(g.vertices))
        else:
            e = rng.choice(all_edges(g))
            x = x * (edge if kind == "edge" else ghost_edge)(g, field, e)
    return x


def test_element_string_covers_every_term_shape():
    # each term prints as p's edge labels, then q's reversed and starred, or
    # as the vertex when both are vertices
    rng = random.Random(2024)
    shapes = Counter()
    for _ in range(300):
        g = random_graph(rng, max_vertices=3, max_mult=2, min_vertices=1)
        if not g.num_edges:
            continue
        x = random_generator_product(rng, g, F0, rng.randint(1, 3))
        labels = [e.label for e in all_edges(g)]
        for (p, q), c in x.terms.items():
            words = [labels[i] for i in p[1:]] + [f"{labels[i]}^*" for i in reversed(q[1:])]
            text = " ".join(words) or g.vertices[p[0]].label
            assert str(CohnRef.term(g, F0, p, q, c)) == f"{c} * {text}"
            m, n = len(p) - 1, len(q) - 1
            shapes["vertex" if m == n == 0 else "path" if n == 0 else "ghost" if m == 0 else "mixed"] += 1
            shapes[f"length {m + n}"] += 1
    assert all(shapes[s] for s in ("vertex", "path", "ghost", "mixed", "length 2")), shapes


def test_elements_of_two_same_shape_graphs_print_their_own_labels():
    a = parse_graph("vertex a\nvertex b\nedge a a 2\nedge a b 1\nedge b a 1\n")
    b = parse_graph("vertex x\nvertex y\nedge x x 2\nedge x y 1\nedge y x 1\n")
    assert a.counts == b.counts and a != b

    def elements(g):
        e1, e2, e3 = g.out_edges(g.vertices[0])
        f = g.out_edges(g.vertices[1])[0]
        x = edge(g, F0, e3) * edge(g, F0, f)
        y = commutator(edge(g, F0, e1), ghost_edge(g, F0, e2))
        return [n_generator(g, F0, g.vertices[0]), x, x * ghost_edge(g, F0, f), y]

    for xa, xb in zip(elements(a), elements(b)):
        assert xa != xb and str(xb) == str(xa).replace("a", "x").replace("b", "y")
        for x, own, other in ((xa, "a", "x"), (xb, "x", "a")):
            assert f"{own}_" in str(x) and f"{other}_" not in str(x)


def test_element_string_orders_by_label_not_index():
    g = family("rose", [12])
    text = str(n_generator(g, F0, g.vertices[0]))
    # label order: v1_v1_10 sorts before v1_v1_2, though its index is higher
    assert text.index("v1_v1_10 ") < text.index("v1_v1_2 ")


def test_constructor_coerces_coefficients_and_drops_zeros():
    g = family("rose", [1])
    w = (0,)
    F5 = FieldSpec(5)
    seven = CohnRef.term(g, F5, w, w, 7)
    assert str(seven) == "2 * v1"
    assert seven == CohnRef.term(g, F5, w, w, 2)
    for field, coeff in ((F5, 5), (F0, 0)):
        x = CohnRef.term(g, field, w, w, coeff)
        assert not x and str(x) == "0" and x == CohnRef(g, field)
    half = CohnRef.term(g, F5, w, w, Fraction(1, 2))
    assert str(half) == "3 * v1"
    assert half.terms == {(w, w): 3}


# -- the reference's independence ----------------------------------------------------------


def test_the_reference_witness_needs_no_package_arithmetic(monkeypatch):
    # the reference algebra has its own product and sums: with the package's
    # term product and sum broken, it still verifies the witness examples
    def broken(*args):
        raise AssertionError("the reference called the package's Cohn arithmetic")

    monkeypatch.setattr(cohn, "_mult_terms", broken)
    monkeypatch.setattr(cohn, "_add_into", broken)
    assert _gen.reference_witness(family("rose", [3]), [1], [Fraction(1, 2)], F0)[2] is True
    assert _gen.reference_witness(family("rose", [4]), [1], [1], F2)[2] is True
    with pytest.raises(AssertionError, match="package's Cohn arithmetic"):
        vertex_witness(family("rose", [3]), [1], [Fraction(1, 2)], F0)
