"""Acceptance suite: one test per criterion, at full stated sample counts.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (each test also prints an explicit [criterion N] line).
"""

import random
from itertools import product

from _gen import (
    CohnRef,
    int_det,
    mat_mul,
    n_generator,
    random_basis_term,
    random_cohn_element,
    random_graph,
    random_int_matrix,
    random_path,
    random_pis_graphs,
    random_simple_graphs,
    reference_span,
    trace_vector,
)

from lpa_lie import (
    INAPPLICABLE,
    NOT_SIMPLE,
    SIMPLE,
    FieldSpec,
    GraphInvariants,
    b_vectors,
    class_order,
    cokernel,
    family,
    graph_from_adjacency,
    is_p_divisible,
    kp_consistency,
    lie_simplicity,
    lie_simplicity_via_k0,
    m_matrix,
    smith_normal_form,
    vertex_witness,
)

CHARS = (0, 2, 3, 5, 7)


def done(n, text):
    print(f"[criterion {n}] PASS: {text}")


def test_criterion_01_rose_leavitt_closed_form():
    # the d x d matrices over L(1, n) are L(matrix_rose n d): their commutator
    # is simple exactly when p divides n - 1 but not d
    for n in range(2, 9):
        for d in range(1, 6):
            g = family("rose", [n]) if d == 1 else family("matrix_rose", [n, d])
            for c in CHARS:
                expected = SIMPLE if (c != 0 and (n - 1) % c == 0 and d % c != 0) else NOT_SIMPLE
                assert lie_simplicity(g, FieldSpec(c)).status == expected
    done(1, "closed form matches the span route on n in [2,8], d in [1,5], chars {0,2,3,5,7}")


def test_criterion_02_four_vertex_example():
    g = family("example4")
    assert b_vectors(g) == [
        [0, 1, 0, 0],
        [1, -1, 0, 1],
        [0, 1, 0, 0],
        [0, 0, 1, -1],
    ]
    for c in (0, 2, 3, 5, 7, 11, 13):
        assert lie_simplicity(g, FieldSpec(c)).status == SIMPLE
    done(2, "exact B-vectors and simplicity at chars {0,2,3,5,7,11,13}")


def test_criterion_03_prescribed_primes():
    g = family("prime_set", [6])
    assert b_vectors(g)[3] == [0, 0, 1, 6]
    statuses = {c: lie_simplicity(g, FieldSpec(c)).status for c in CHARS}
    assert statuses == {
        0: SIMPLE,
        2: NOT_SIMPLE,
        3: NOT_SIMPLE,
        5: SIMPLE,
        7: SIMPLE,
    }
    done(3, "q=6 graph not simple exactly at chars 2 and 3; B_4 = (0,0,1,6)")


def test_criterion_04_two_vertex_family():
    for u, v, p in product((2, 3), repeat=3):
        g = family("two_vertex", [u, v, p])
        assert smith_normal_form(m_matrix(g)).diagonal == (u, p * u * (v - 1))
        assert lie_simplicity(g, FieldSpec(p)).status == SIMPLE
    done(4, "snf diagonal (u, p*u*(v-1)) and char-p simplicity on the {2,3}^3 grid")


def test_criterion_05_dual_route_agreement():
    rng = random.Random(500)
    graphs = random_pis_graphs(rng, 500, max_vertices=6, max_mult=3)
    for g in graphs:
        for c in (0, 2, 3, 5):
            field = FieldSpec(c)
            assert lie_simplicity(g, field).status == lie_simplicity_via_k0(g, field).status
    # the same equivalence for arbitrary square integer matrices
    for _ in range(500):
        mat = random_int_matrix(rng, max_size=6, lo=-9, hi=9)
        n = len(mat)
        cols = [[mat[i][j] for i in range(n)] for j in range(n)]
        ones = [1] * n
        pres = cokernel(mat)
        for p in (0, 2, 3, 5):
            field = FieldSpec(p)
            solvable = reference_span(cols, ones, field) is not None
            assert (smith_normal_form(mat).solve(ones, field) is not None) == solvable
            assert solvable == (is_p_divisible(pres, p) if p else class_order(pres) is not None)
    done(5, "span and K0 routes agree on 500 PIS graphs and 500 random matrices")


def test_criterion_06_snf_certificates():
    rng = random.Random(600)
    for _ in range(1000):
        mat = random_int_matrix(rng, max_size=6, lo=-9, hi=9)
        dec = smith_normal_form(mat)
        assert mat_mul(mat_mul([list(r) for r in dec.u], mat), [list(r) for r in dec.v]) == [
            list(r) for r in dec.d
        ]
        assert int_det(dec.u) in (1, -1)
        assert int_det(dec.v) in (1, -1)
        diag = list(dec.diagonal)
        assert all(a >= 0 for a in diag)
        nonzero = [a for a in diag if a]
        assert diag[: len(nonzero)] == nonzero
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
    done(6, "1000 certified factorizations: U M V = D, |det| = 1, divisibility chain")


def test_criterion_07_symbolic_suite():
    rng = random.Random(700)
    # trace symmetry on 1000 random element pairs
    for _ in range(1000):
        g = random_graph(rng, max_vertices=4, max_mult=2)
        field = FieldSpec(rng.choice([0, 2, 3, 5]))
        x = random_cohn_element(rng, g, field)
        y = random_cohn_element(rng, g, field)
        assert trace_vector(x * y) == trace_vector(y * x)
    # annihilation: y_v kills real paths on the left, ghost paths on the right
    checked = 0
    while checked < 300:
        g = random_graph(rng, max_vertices=4, max_mult=2)
        field = FieldSpec(rng.choice([0, 2, 3, 5]))
        regular = [v for v in g.vertices if g.is_regular(v)]
        if not regular:
            continue
        y = n_generator(g, field, rng.choice(regular))
        p = random_path(rng, g, max_len=4)
        if len(p) == 1:
            continue
        assert not y * CohnRef.path(g, field, p)
        assert not CohnRef.ghost(g, field, p) * y
        checked += 1
    # traces of two-sided ideal elements stay inside the B-vector span
    checked = 0
    while checked < 500:
        g = random_graph(rng, max_vertices=4, max_mult=2)
        field = FieldSpec(rng.choice([0, 2, 3, 5]))
        regular = [v for v in g.vertices if g.is_regular(v)]
        if not regular:
            continue
        y = n_generator(g, field, rng.choice(regular))
        c1 = random_basis_term(rng, g, max_len=3)
        c2 = random_basis_term(rng, g, max_len=3)
        w = CohnRef.term(g, field, *c1) * y * CohnRef.term(g, field, *c2)
        assert GraphInvariants(g).b_smith.solve(trace_vector(w), field) is not None
        checked += 1
    # every solver-produced membership instance verifies symbolically
    instances = 0
    for name, params in [
        ("rose", [3]),
        ("rose", [4]),
        ("line", [2]),
        ("line", [4]),
        ("matrix_rose", [3, 2]),
        ("matrix_rose", [2, 4]),
        ("two_vertex", [2, 2, 2]),
        ("two_vertex", [3, 2, 2]),
        ("prime_set", [6]),
        ("example4", []),
    ]:
        g = family(name, params)
        dec = GraphInvariants(g).b_smith
        for c in CHARS:
            field = FieldSpec(c)
            for trial in range(4):
                k = [rng.randint(-3, 3) for _ in range(g.num_vertices)]
                t = dec.solve(k, field)
                if t is not None:
                    assert vertex_witness(g, k, t, field).verified
                    instances += 1
    simple_graphs = random_simple_graphs(rng, 200, max_vertices=4, max_mult=3)
    for g in simple_graphs:
        field = FieldSpec(rng.choice([0, 2, 3, 5]))
        dec = GraphInvariants(g).b_smith
        k = [rng.randint(-3, 3) for _ in range(g.num_vertices)]
        t = dec.solve(k, field)
        if t is None:
            # force a membership instance from a random combination instead
            bv = b_vectors(g)
            ts = [rng.randint(-2, 2) if g.is_regular(v) else 0 for v in g.vertices]
            k = [
                sum(ts[i] * bv[i][j] for i in range(g.num_vertices))
                for j in range(g.num_vertices)
            ]
            t = dec.solve(k, field)
        assert t is not None
        assert vertex_witness(g, k, t, field).verified
        instances += 1
    assert instances >= 200
    done(7, f"trace symmetry, annihilation, ideal traces, {instances} verified witnesses")


def test_criterion_08_trivial_and_inapplicable_gates():
    trivial = graph_from_adjacency(["v"], [[0]])
    v = lie_simplicity(trivial, FieldSpec(0))
    assert v.status == NOT_SIMPLE
    for c in (0, 2, 5):
        assert lie_simplicity(family("rose", [1]), FieldSpec(c)).status == INAPPLICABLE
    two_sinks = graph_from_adjacency(["a", "b"], [[0, 0], [0, 0]])
    assert lie_simplicity(two_sinks, FieldSpec(0)).status == INAPPLICABLE
    done(8, "trivial graph not-simple; rose(1) and disconnected sinks inapplicable")


def test_criterion_09_line_graphs_match_special_linear_behavior():
    for d in range(2, 7):
        g = family("line", [d])
        for c in CHARS:
            expected = SIMPLE if (c == 0 or d % c != 0) else NOT_SIMPLE
            verdict = lie_simplicity(g, FieldSpec(c))
            assert verdict.status == expected
            # the K0 route must refuse: a sink, so not purely infinite simple
            assert lie_simplicity_via_k0(g, FieldSpec(c)).status == INAPPLICABLE
    done(9, "line(d) simple exactly when the characteristic does not divide d")


def test_criterion_10_kp_consistency_never_contradicts():
    rng = random.Random(1000)
    families = [
        family("rose", [2]),
        family("rose", [3]),
        family("rose", [4]),
        family("rose", [7]),
        family("matrix_rose", [2, 3]),
        family("matrix_rose", [3, 2]),
        family("matrix_rose", [4, 4]),
        family("prime_set", [1]),
        family("prime_set", [6]),
        family("two_vertex", [2, 2, 2]),
        family("two_vertex", [2, 3, 2]),
        family("two_vertex", [3, 2, 3]),
        family("example4"),
        family("line", [2]),
        family("line", [3]),
    ]
    for ga in families:
        for gb in families:
            rep = kp_consistency(ga, gb, (0, 2, 3, 5))
            assert not rep.contradiction
    pis = random_pis_graphs(rng, 200, max_vertices=6, max_mult=3)
    for i in range(0, 200, 2):
        rep = kp_consistency(pis[i], pis[i + 1], (0, 2, 3, 5))
        assert rep.applicable
        assert not rep.contradiction
    done(10, "no contradiction across family pairs and 100 random PIS pairs")
