import operator
import random
from fractions import Fraction
from itertools import accumulate, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _gen import (
    _p_height_sequence,
    int_det,
    move_add_source,
    move_cuntz_splice,
    move_in_split,
    move_matrix_head,
    move_out_split,
    move_permute,
    paths_ending_at,
    random_graph,
    random_graphs_where,
    random_pis_graphs,
    reference_orbit_equal,
    reference_pointed_iso,
    reference_rank,
    time_limit,
)

from lpa_lie import (
    INAPPLICABLE,
    NOT_SIMPLE,
    SIMPLE,
    FieldSpec,
    GraphInvariants,
    K0Presentation,
    b_vectors,
    class_order,
    cokernel,
    family,
    graph_from_adjacency,
    kp_consistency,
    leavitt_closed_form,
    lie_simplicity,
    lie_simplicity_via_k0,
    m_matrix,
    matrix_lie_simplicity,
    pointed_iso_decision,
    simplicity_reports,
    smith_normal_form,
)

CHARS = (0, 2, 3, 5, 7)


# -- the span route -----------------------------------------------------------


def test_lie_simplicity_example4_all_chars():
    g = family("example4")
    for c in (0, 2, 3, 5, 7, 11, 13):
        v = lie_simplicity(g, FieldSpec(c))
        assert v.status == SIMPLE
        assert v.characteristic == c
        assert v.route == "span"


def test_lie_simplicity_rose3_char0_not_simple():
    v = lie_simplicity(family("rose", [3]), FieldSpec(0))
    assert v.status == NOT_SIMPLE
    # the certificate expresses (1) as a combination of (2)
    assert v.certificate == (Fraction(1, 2),)


def test_lie_simplicity_rose1_inapplicable():
    for c in (0, 2, 5):
        v = lie_simplicity(family("rose", [1]), FieldSpec(c))
        assert v.status == INAPPLICABLE
        assert v.characteristic is None


def test_lie_simplicity_prime_set():
    g = family("prime_set", [6])
    expected = {0: SIMPLE, 2: NOT_SIMPLE, 3: NOT_SIMPLE, 5: SIMPLE, 7: SIMPLE}
    for c, status in expected.items():
        assert lie_simplicity(g, FieldSpec(c)).status == status


def test_lie_simplicity_trivial_graph():
    g = graph_from_adjacency(["v"], [[0]])
    v = lie_simplicity(g, FieldSpec(0))
    assert v.status == NOT_SIMPLE
    assert "brackets vanish" in v.reason


def test_lie_simplicity_disconnected_sinks():
    g = graph_from_adjacency(["a", "b"], [[0, 0], [0, 0]])
    assert lie_simplicity(g, FieldSpec(3)).status == INAPPLICABLE


# -- acyclic graphs with one sink -------------------------------------------------
#
# If w is the only sink of an acyclic graph, L is the n x n matrices over K,
# n = n(w) the number of paths that end at w, so [L, L] is sl_n(K): simple
# exactly when n >= 2 and the characteristic does not divide n.

ONE_SINK_CHARS = (0, 2, 3, 5, 7, 1_000_000_007)


def sl_verdict(n: int, c: int) -> str:
    return SIMPLE if n >= 2 and (c == 0 or n % c) else NOT_SIMPLE


def assert_one_sink_verdicts(adj, w, chars=ONE_SINK_CHARS) -> None:
    """The span route's verdict at each of ``chars`` is sl_n(w)'s, and each
    ``not-simple`` certificate x has sum_v x_v B_v = (1, ..., 1) in the field."""
    m = len(adj)
    n = paths_ending_at(adj, w)
    inv = GraphInvariants(graph_from_adjacency([f"v{i}" for i in range(m)], adj))
    # B_v is row v of the adjacency matrix less e_v, or zero at the sink
    rows = [[a - (i == j) for j, a in enumerate(row)] if any(row) else [0] * m for i, row in enumerate(adj)]
    for c in chars:
        verdict = lie_simplicity(inv, FieldSpec(c))
        assert verdict.status == sl_verdict(n, c), (adj, w, n, c)
        if verdict.certificate is not None:
            sums = [sum(x * row[j] for x, row in zip(verdict.certificate, rows)) for j in range(m)]
            assert all(s == 1 if c == 0 else s % c == 1 for s in sums), (adj, c, verdict.certificate)


@st.composite
def one_sink_dags(draw):
    """``(adjacency, w)``: an acyclic graph of 1-7 vertices, multiplicities up
    to 3, whose only sink is w.  Its vertices are taken in a drawn order, and
    each but the last, w, has an edge to a later one."""
    m = draw(st.integers(1, 7))
    order = draw(st.permutations(range(m)))
    adj = [[0] * m for _ in range(m)]
    for i, u in enumerate(order[:-1]):
        later = order[i + 1:]
        counts = draw(st.lists(st.integers(0, 3), min_size=len(later), max_size=len(later)).filter(any))
        for v, k in zip(later, counts):
            adj[u][v] = k
    return adj, order[-1]


@given(one_sink_dags())
@settings(max_examples=250, deadline=None, derandomize=True)
def test_one_sink_acyclic_graphs_get_the_verdict_of_sl_n(case):
    """Derandomized, 250 graphs at six characteristics each: about 1 s."""
    assert_one_sink_verdicts(*case)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 1_000_000_007])
def test_a_sink_with_p_minus_1_edges_into_it_is_not_simple_at_p(p):
    # u -> w with multiplicity p - 1: n(w) = p, and of the characteristics
    # here only p divides it
    adj = [[0, p - 1], [0, 0]]
    assert paths_ending_at(adj, 1) == p
    assert_one_sink_verdicts(adj, 1, ONE_SINK_CHARS + (1_000_000_009,))


# (3, 2) is a ->2 b ->3 w, so n(w) = 10: not simple at 2 and 5
@pytest.mark.parametrize("mults", [(1,), (2,), (3, 2), (2, 3, 4), (5, 1, 1, 2), (1, 1, 1, 1, 1)])
def test_chains_have_n_the_sum_of_the_partial_products(mults):
    # v_k -> ... -> v_1 -> v_0 = w, m_i edges from v_i to v_(i-1): n(w) = 1 + m_1 + m_1 m_2 + ...
    k = len(mults)
    adj = [[0] * (k + 1) for _ in range(k + 1)]
    for i, m in enumerate(mults, 1):
        adj[i][i - 1] = m
    assert paths_ending_at(adj, 0) == sum(accumulate((1, *mults), operator.mul))
    assert_one_sink_verdicts(adj, 0)


# -- matrices and the closed form ------------------------------------------------


def test_matrix_lie_simplicity_examples():
    rose3 = family("rose", [3])
    assert matrix_lie_simplicity(rose3, 2, FieldSpec(2)).status == NOT_SIMPLE
    assert matrix_lie_simplicity(rose3, 3, FieldSpec(2)).status == SIMPLE
    ex4 = family("example4")
    assert matrix_lie_simplicity(ex4, 1, FieldSpec(7)).status == SIMPLE
    assert matrix_lie_simplicity(ex4, 1, FieldSpec(7)) == lie_simplicity(ex4, FieldSpec(7))
    with pytest.raises(ValueError):
        matrix_lie_simplicity(rose3, 0, FieldSpec(2))


def test_matrix_lie_simplicity_gates():
    assert matrix_lie_simplicity(family("rose", [1]), 3, FieldSpec(2)).status == INAPPLICABLE
    trivial = graph_from_adjacency(["v"], [[0]])
    assert matrix_lie_simplicity(trivial, 1, FieldSpec(2)).status == NOT_SIMPLE
    assert matrix_lie_simplicity(trivial, 2, FieldSpec(2)).status == INAPPLICABLE


def test_leavitt_closed_form_examples():
    for c in (0, 2, 3, 5, 7):
        assert leavitt_closed_form(2, 1, FieldSpec(c)).status == NOT_SIMPLE
    assert leavitt_closed_form(7, 1, FieldSpec(2)).status == SIMPLE
    assert leavitt_closed_form(7, 1, FieldSpec(3)).status == SIMPLE
    assert leavitt_closed_form(7, 1, FieldSpec(5)).status == NOT_SIMPLE
    assert leavitt_closed_form(3, 4, FieldSpec(2)).status == NOT_SIMPLE
    with pytest.raises(ValueError):
        leavitt_closed_form(1, 1, FieldSpec(0))
    with pytest.raises(ValueError):
        leavitt_closed_form(2, 0, FieldSpec(0))


def test_reduction_coherence():
    for n in range(2, 7):
        for d in range(2, 6):
            for c in CHARS:
                field = FieldSpec(c)
                closed = leavitt_closed_form(n, d, field).status
                assert matrix_lie_simplicity(family("rose", [n]), d, field).status == closed
                assert lie_simplicity(family("matrix_rose", [n, d]), field).status == closed


# -- the K-theory route -----------------------------------------------------------


def test_k0_route_examples():
    assert lie_simplicity_via_k0(family("example4"), FieldSpec(0)).status == SIMPLE
    assert lie_simplicity_via_k0(family("two_vertex", [2, 2, 2]), FieldSpec(2)).status == SIMPLE
    for c in (0, 2, 5):
        assert lie_simplicity_via_k0(family("line", [3]), FieldSpec(c)).status == INAPPLICABLE


def test_k0_route_not_simple_certificate():
    v = lie_simplicity_via_k0(family("rose", [3]), FieldSpec(0))
    assert v.status == NOT_SIMPLE
    assert v.certificate == 2  # the unit class has order 2 in Z_2


def test_two_vertex_simple_exactly_at_p():
    for u in (2, 3):
        for vv in (2, 3):
            for p in (2, 3):
                g = family("two_vertex", [u, vv, p])
                verdict = lie_simplicity(g, FieldSpec(p))
                assert verdict.status == SIMPLE
                assert lie_simplicity_via_k0(g, FieldSpec(p)).status == SIMPLE


def test_dual_route_agreement_random_and_families():
    rng = random.Random(201)
    graphs = random_pis_graphs(rng, 60)
    graphs += [
        family("rose", [n]) for n in range(2, 7)
    ] + [
        family("matrix_rose", [n, d]) for n in (2, 3, 4) for d in (2, 3)
    ] + [
        family("prime_set", [q]) for q in (1, 2, 6)
    ] + [
        family("two_vertex", [u, v, p]) for u in (2, 3) for v in (2, 3) for p in (2, 3)
    ] + [family("example4")]
    for g in graphs:
        assert simplicity_reports(g)[1].verdict
        for c in (0, 2, 3, 5, 7):
            field = FieldSpec(c)
            assert lie_simplicity(g, field).status == lie_simplicity_via_k0(g, field).status


def test_verdict_invariant_under_relabeling():
    rng = random.Random(202)
    for _ in range(60):
        g = random_graph(rng, max_vertices=5)
        m = g.num_vertices
        perm = list(range(m))
        rng.shuffle(perm)
        adj = g.counts
        padj = [[adj[perm[i]][perm[j]] for j in range(m)] for i in range(m)]
        pg = graph_from_adjacency([f"w{i + 1}" for i in range(m)], padj)
        for c in (0, 2, 3):
            assert (
                lie_simplicity(g, FieldSpec(c)).status
                == lie_simplicity(pg, FieldSpec(c)).status
            )


def test_span_verdict_depends_only_on_characteristic():
    # identical FieldSpec values are interchangeable; no other field data exists
    g = family("prime_set", [6])
    assert lie_simplicity(g, FieldSpec(3)) == lie_simplicity(g, FieldSpec(3))


def test_one_smith_form_serves_both_routes_without_a_sink():
    # k0 is read off the Smith form of the B-matrix A^t - I; the separately
    # computed Smith form of I - A^t must give the same unit class
    rng = random.Random(88)
    for g in random_graphs_where(rng, 80, lambda g: not g.sinks(), max_vertices=7, max_mult=6):
        inv = GraphInvariants(g)
        direct = smith_normal_form([list(col) for col in zip(*b_vectors(g))])
        assert inv.b_smith == direct
        assert inv.k0 == cokernel(m_matrix(g))


def test_k0_of_a_thousand_isolated_vertices():
    # I - A^t is the identity: every pivot is a unit, which divides every
    # entry, so no stage scans the rest of the matrix for one it does not
    g = graph_from_adjacency([f"v{i}" for i in range(1000)], [[0] * 1000 for _ in range(1000)])
    with time_limit(5):
        assert GraphInvariants(g).k0.invariant_factors == (1,) * 1000


def test_k0_of_a_120_vertex_purely_infinite_simple_graph():
    # a cycle through every vertex plus chords at density 0.3, multiplicities
    # up to 6; the nearest-integer quotients keep the Euclid rounds few
    n = 120
    rng = random.Random(41)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        adj[i][(i + 1) % n] = rng.randint(1, 6)
    chords = [(i, j) for i in range(n) for j in range(n) if j != (i + 1) % n]
    for i, j in rng.sample(chords, round(0.3 * n * (n - 1))):
        adj[i][j] = rng.randint(1, 6)
    g = graph_from_adjacency([f"v{i}" for i in range(n)], adj)
    assert simplicity_reports(g)[1].verdict
    inv = GraphInvariants(g)
    with time_limit(30):
        factors = inv.k0.invariant_factors
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    # the pivot rule keeps U small: U·1 has about 430 bits here, where
    # column steps in every round once made it about 60,000
    assert max(abs(x).bit_length() for x in inv.b_smith._image((1,) * n)) < 1000
    assert 0 not in factors
    # the factors divisible by p number n - rank of B over GF(p)
    for p in (2, 3, 5, 7):
        divisible = sum(1 for a in factors if a % p == 0)
        assert divisible == n - reference_rank(b_vectors(g), FieldSpec(p)), p


def _permuted_k0_case(seed: int):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        n = rng.randint(1, 8)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    else:
        (g,) = random_pis_graphs(rng, 1, max_vertices=30, max_mult=4)
        mat = [list(col) for col in zip(*b_vectors(g))]
    n = len(mat)
    p, q = rng.sample(range(n), n), rng.sample(range(n), n)
    return mat, [[mat[p[i]][q[j]] for j in range(n)] for i in range(n)]


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_k0_is_independent_of_row_and_column_order_hypothesis(seed):
    # P M Q takes another elimination path to the same cokernel, and the
    # isomorphism x -> P x sends the class of (1, ..., 1) to itself
    mat, permuted = _permuted_k0_case(seed)
    pa = K0Presentation.of(smith_normal_form(mat))
    pb = K0Presentation.of(smith_normal_form(permuted))
    assert pa.invariant_factors == pb.invariant_factors
    assert class_order(pa) == class_order(pb)
    assert pointed_iso_decision(pa, pb) == "exists"


# -- vertex combinations ------------------------------------------------------------


def test_vertex_combination_rose3():
    dec = GraphInvariants(family("rose", [3])).b_smith
    assert dec.solve([1], FieldSpec(0)) == [Fraction(1, 2)]
    assert dec.solve([1], FieldSpec(2)) is None


def test_vertex_combination_zero():
    for name, params in [("example4", []), ("line", [3])]:
        g = family(name, params)
        field = FieldSpec(2)
        t = GraphInvariants(g).b_smith.solve([0] * g.num_vertices, field)
        assert t == [field.zero()] * g.num_vertices


def test_vertex_combination_vanishes_at_sinks():
    g = family("line", [3])
    field = FieldSpec(0)
    # k = B_1 is realizable with t supported on regular vertices
    t = GraphInvariants(g).b_smith.solve([-1, 1, 0], field)
    assert t is not None
    assert t[2] == field.zero()


def test_vertex_combination_dimension_check():
    with pytest.raises(ValueError):
        GraphInvariants(family("rose", [2])).b_smith.solve([1, 2], FieldSpec(0))


# -- pointed isomorphism ---------------------------------------------------------------


def hom_matrices(alphas):
    """All endomorphism matrices of the group with the given cyclic factors."""
    from math import gcd

    k = len(alphas)
    choices = []
    for i in range(k):
        for j in range(k):
            step = alphas[i] // gcd(alphas[i], alphas[j])
            choices.append(range(0, alphas[i], step))
    for flat in product(*choices):
        yield [[flat[i * k + j] for j in range(k)] for i in range(k)]


def automorphisms(alphas):
    """All automorphism matrices of the group with the given cyclic factors."""
    elements = list(product(*(range(a) for a in alphas)))
    for mat in hom_matrices(alphas):
        images = {apply_matrix(mat, alphas, e) for e in elements}
        if len(images) == len(elements):
            yield mat


def apply_matrix(mat, alphas, vec):
    return tuple(
        sum(mat[i][j] * vec[j] for j in range(len(alphas))) % alphas[i]
        for i in range(len(alphas))
    )


def brute_force_orbit_equal(alphas, x, y):
    """Oracle: search all automorphisms of the torsion group."""
    return any(apply_matrix(mat, alphas, tuple(x)) == tuple(y) for mat in automorphisms(alphas))


def test_pointed_iso_small_groups_against_brute_force():
    from lpa_lie.verdict import _torsion_orbit_equal

    rng = random.Random(203)
    shapes = [(2,), (4,), (6,), (2, 2), (2, 4), (3, 3), (2, 6), (8,), (2, 2, 2), (12,)]
    for alphas in shapes:
        els = list(product(*(range(a) for a in alphas)))
        for _ in range(25):
            x = list(rng.choice(els))
            y = list(rng.choice(els))
            expected = brute_force_orbit_equal(alphas, x, y)
            assert _torsion_orbit_equal(list(alphas), x, y) == expected
            # with no free part the content g is 0 and every part has one shift
            pa, pb = K0Presentation(alphas, tuple(x)), K0Presentation(alphas, tuple(y))
            assert pointed_iso_decision(pa, pb) == ("exists" if expected else "none")


def test_pointed_iso_free_part_against_brute_force():
    # Aut(Z + T) sends (f, t) to (+-f, A t + f h) with A in Aut(T) and h in T,
    # so (c, x) and (c', y) match iff |c| = |c'| and y lies in Aut(T) x + cT
    for alphas in [(4,), (2, 4), (6,), (9,)]:
        elements = list(product(*(range(a) for a in alphas)))
        auts = list(automorphisms(alphas))
        for c in range(7):
            shifts = {tuple(c * h % a for h, a in zip(t, alphas)) for t in elements}
            for x in elements:
                reach = {
                    tuple((u + s) % a for u, s, a in zip(apply_matrix(mat, alphas, x), shift, alphas))
                    for mat in auts
                    for shift in shifts
                }
                pa = K0Presentation(alphas + (0,), x + (c,))
                for y in elements:
                    for c_b in range(7):
                        expected = "exists" if c_b == c and y in reach else "none"
                        pb = K0Presentation(alphas + (0,), y + (-c_b,))
                        assert pointed_iso_decision(pa, pb) == expected, (alphas, x, c, y, c_b)


ORBIT_FACTORS = (2, 3, 5, 6, 7, 10, 12, 30, 1001)


@st.composite
def orbit_cases(draw):
    """A divisor chain of 1-4 factors and two elements that often share divisors."""
    chain = draw(st.lists(st.sampled_from(ORBIT_FACTORS), min_size=1, max_size=4))
    alphas = list(accumulate(chain, operator.mul))

    def element():
        return [
            draw(st.sampled_from((0, 1) + ORBIT_FACTORS)) * draw(st.integers(0, a - 1)) % a
            for a in alphas
        ]

    x = element()
    if draw(st.booleans()):
        y = element()
    else:
        u = draw(st.integers(1, alphas[-1]))
        y = [u * xi % a for xi, a in zip(x, alphas)]
    return alphas, x, y


@settings(max_examples=400, deadline=None)
@given(orbit_cases())
def test_torsion_orbit_equal_matches_prime_by_prime_reference(case):
    from lpa_lie.verdict import _torsion_orbit_equal

    alphas, x, y = case
    expected = reference_orbit_equal(alphas, x, y)
    assert _torsion_orbit_equal(alphas, x, y) == expected
    pa = K0Presentation(tuple(alphas), tuple(x))
    pb = K0Presentation(tuple(alphas), tuple(y))
    assert pointed_iso_decision(pa, pb) == ("exists" if expected else "none")


def test_pointed_iso_two_large_primes():
    # the first primes above 10^12 and 2 * 10^12: trial division of N would
    # have to reach 10^12
    p, q = 1_000_000_000_039, 2_000_000_000_003
    n = p * q
    with time_limit(2):
        assert pointed_iso_decision(K0Presentation((1, n), (0, 1)), K0Presentation((1, n), (0, 2))) == "exists"
        assert pointed_iso_decision(K0Presentation((n,), (p,)), K0Presentation((n,), (1,))) == "none"
        assert pointed_iso_decision(K0Presentation((n,), (p,)), K0Presentation((n,), (3 * p,))) == "exists"
        assert pointed_iso_decision(K0Presentation((p, n), (1, q)), K0Presentation((p, n), (0, p))) == "none"


def test_pointed_iso_decision_basic():
    trivial_a = K0Presentation((1,), (0,))
    trivial_b = K0Presentation((1, 1), (0, 0))
    assert pointed_iso_decision(trivial_a, trivial_b) == "exists"
    z3 = K0Presentation((3,), (1,))
    assert pointed_iso_decision(z3, trivial_a) == "none"
    assert pointed_iso_decision(z3, K0Presentation((5,), (1,))) == "none"
    assert pointed_iso_decision(z3, K0Presentation((3,), (2,))) == "exists"
    assert pointed_iso_decision(z3, K0Presentation((3,), (0,))) == "none"
    # free parts: contents must match
    za = K0Presentation((0,), (2,))
    assert pointed_iso_decision(za, K0Presentation((0,), (-2,))) == "exists"
    assert pointed_iso_decision(za, K0Presentation((0,), (3,))) == "none"
    # content 1 makes every torsion part reachable
    pa = K0Presentation((4, 0), (1, 1))
    pb = K0Presentation((4, 0), (2, 1))
    assert pointed_iso_decision(pa, pb) == "exists"
    # content 2 can only shift the torsion part by even amounts
    pa2 = K0Presentation((4, 0), (1, 2))
    assert pointed_iso_decision(pa2, K0Presentation((4, 0), (3, 2))) == "exists"
    assert pointed_iso_decision(pa2, K0Presentation((4, 0), (0, 2))) == "none"
    assert pointed_iso_decision(pa2, K0Presentation((4, 0), (2, 2))) == "none"


def test_pointed_iso_identical_presentations_shortcut():
    pa = K0Presentation((9, 0), (1, 3))
    assert pointed_iso_decision(pa, pa) == "exists"


@st.composite
def pointed_cases(draw):
    """Two presentations over one divisor chain plus 0-2 free summands of content 0-30.

    The second torsion part is often an image of the first shifted by the
    content times an element, and the second content mostly equals the
    first, so both answers are common.
    """
    alphas, x, y = draw(orbit_cases())
    free = draw(st.integers(0, 2))
    c = draw(st.integers(0, 30)) if free else 0
    # a power of a factor raises every height of the first side
    power = draw(st.sampled_from(ORBIT_FACTORS)) ** draw(st.integers(0, 4))
    x = [power * xi % a for xi, a in zip(x, alphas)]
    if draw(st.booleans()):
        y = [(yi + c * draw(st.integers(0, a - 1))) % a for yi, a in zip(y, alphas)]
    c_b = c if draw(st.integers(0, 7)) else draw(st.integers(0, 30))

    def presentation(t, content):
        multiple = draw(st.sampled_from((0, 1, -1) + ORBIT_FACTORS)) * content
        return K0Presentation((*alphas, *(0,) * free), (*t, *[content, multiple][:free]))

    return presentation(x, c), presentation(y, c_b)


@settings(max_examples=600, deadline=None)
@given(pointed_cases())
# pointed-isomorphic pairs whose classes have different height sequences,
# (2, 3) against (4,) and (2, 3, 5) against (4, 5): with a = v_p(g) = 1 every
# coordinate, a vanishing one too, drops to valuation 1 in the least element
# of its coset, and both cosets have one least sequence
@example((K0Presentation((81, 243, 0), (36, 135, 3)), K0Presentation((81, 243, 0), (0, 162, 3))))
@example((K0Presentation((2, 8, 16, 64, 0), (0, 0, 12, 40, 2)), K0Presentation((2, 8, 16, 64, 0), (0, 0, 0, 16, 2))))
def test_pointed_iso_matches_shift_search(case):
    pa, pb = case
    expected = reference_pointed_iso(pa, pb)
    if expected != "undecided":
        assert pointed_iso_decision(pa, pb) == expected


def test_pointed_iso_decides_large_prime_power_cosets():
    # Z/p^2 + Z/p^6 + Z with free content p^2: each coset t + p^2 T has
    # p^4, about 10^24, elements, more than any search could try
    p = 1_000_003
    factors = (p**2, p**6, 0)
    with time_limit(1):
        assert pointed_iso_decision(K0Presentation(factors, (1, p, p**2)), K0Presentation(factors, (1, p**3, p**2))) == "none"
        assert pointed_iso_decision(K0Presentation(factors, (1, 0, p**2)), K0Presentation(factors, (1, p**2, p**2))) == "exists"


# (p, exponents) of p-groups with at most 64 elements
LEAST_COSET_SHAPES = (
    (2, (1,)), (2, (2,)), (2, (3,)), (2, (6,)), (2, (1, 1)), (2, (1, 3)), (2, (2, 2)),
    (2, (1, 4)), (2, (2, 3)), (2, (1, 1, 1)), (2, (1, 1, 3)), (2, (1, 2, 2)),
    (2, (2, 2, 2)), (3, (1,)), (3, (3,)), (3, (1, 1)), (3, (1, 2)), (3, (1, 1, 1)),
    (5, (2,)), (7, (1, 1)),
)


@pytest.mark.parametrize("p, exps", LEAST_COSET_SHAPES)
def test_least_coset_sequence_is_at_valuations_capped_by_g(p, exps):
    from math import gcd

    from lpa_lie.verdict import _height_sequence, _valuation

    # heights of every element of T = Z/p^e_1 + ..., read off residues alone;
    # the shorter of two sequences is padded with infinite heights
    moduli = [p**e for e in exps]
    elements = list(product(*(range(m) for m in moduli)))
    seqs = {t: _p_height_sequence(list(t), list(exps), p) for t in elements}
    for a in range(max(exps) + 1):
        g = p**a
        shifts = {tuple(g * h % m for h, m in zip(t, moduli)) for t in elements}
        for x in elements:
            coset = [seqs[tuple((u + s) % m for u, s, m in zip(x, shift, moduli))] for shift in shifts]
            length = max(map(len, coset))
            least = tuple(min(c[k] if k < len(c) else float("inf") for c in coset) for k in range(length))
            capped = [(min(_valuation(gcd(u, m), p), a), e) for u, m, e in zip(x, moduli, exps)]
            # the least sequence is attained, at valuations min(s_i, a)
            assert least in coset and _height_sequence(capped) == least, (p, exps, g, x)


UNITS = (-1, 17, 19, 23, 29, 31, 1_000_003)


# derandomized, 60 examples in about 0.3 s
@settings(max_examples=60, deadline=None, derandomize=True)
@given(pointed_cases(), st.sampled_from(UNITS), st.integers(1, 3))
def test_pointed_iso_is_symmetric_and_unit_invariant(case, unit, power):
    pa, pb = case
    answer = pointed_iso_decision(pa, pb)
    assert pointed_iso_decision(pb, pa) == answer
    # u = unit**power is prime to every factor (their primes are at most
    # 13), so t -> u t is an automorphism of the torsion part; it fixes gT
    u = unit**power

    def scaled(pres):
        units = [u * y % a if a else y for a, y in zip(pres.invariant_factors, pres.unit_class)]
        return K0Presentation(pres.invariant_factors, tuple(units))

    assert pointed_iso_decision(scaled(pa), scaled(pb)) == answer
    assert pointed_iso_decision(scaled(pa), pb) == answer


# -- kp consistency ----------------------------------------------------------------


def test_kp_rose2_vs_matrix_rose():
    rep = kp_consistency(family("rose", [2]), family("matrix_rose", [2, 3]), CHARS)
    assert rep.applicable
    assert rep.pointed_iso == "exists"
    assert not rep.contradiction
    for _, va, vb in rep.verdicts:
        assert va.status == NOT_SIMPLE
        assert vb.status == NOT_SIMPLE


def test_kp_different_groups():
    rep = kp_consistency(family("rose", [4]), family("rose", [2]), CHARS)
    assert rep.applicable
    assert rep.pointed_iso == "none"
    assert not rep.contradiction
    rep = kp_consistency(family("rose", [4]), family("rose", [6]), CHARS)
    assert rep.pointed_iso == "none"


def test_kp_identity_pair():
    for name, params in [("example4", []), ("two_vertex", [2, 2, 2]), ("rose", [5])]:
        g = family(name, params)
        rep = kp_consistency(g, g, CHARS)
        assert rep.applicable
        assert rep.pointed_iso == "exists"
        assert not rep.contradiction
        for _, va, vb in rep.verdicts:
            assert va.status == vb.status


def test_kp_inapplicable():
    rep = kp_consistency(family("line", [2]), family("rose", [2]), CHARS)
    assert not rep.applicable
    assert "first" in rep.reason
    assert rep.verdicts == ()


def test_kp_no_contradiction_random():
    rng = random.Random(204)
    graphs = random_pis_graphs(rng, 24)
    for i in range(0, len(graphs) - 1, 2):
        rep = kp_consistency(graphs[i], graphs[i + 1], (0, 2, 3, 5))
        assert rep.applicable
        assert not rep.contradiction


# -- graph moves with known effects ---------------------------------------------------

# characteristic 0, small primes and one prime above 10^9
MOVE_CHARS = (0, 2, 3, 5, 7, 10**9 + 7)


def _moved_pis_graph(seed: int):
    """A random purely infinite simple graph, its adjacency matrix and an rng for the move."""
    rng = random.Random(seed)
    (g,) = random_pis_graphs(rng, 1)
    return rng, g, [list(row) for row in g.counts]


def _from_adjacency(adj):
    return graph_from_adjacency([f"w{i}" for i in range(len(adj))], adj)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_a_vertex_permutation_keeps_the_pointed_k0_and_every_verdict(seed):
    rng, g, adj = _moved_pis_graph(seed)
    perm = rng.sample(range(len(adj)), len(adj))
    rep = kp_consistency(g, _from_adjacency(move_permute(adj, perm)), MOVE_CHARS)
    assert rep.applicable and rep.pointed_iso == "exists" and not rep.contradiction


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_an_out_split_keeps_the_pointed_k0_and_every_verdict(seed):
    # L(E) and L(E_s) are isomorphic (Abrams-Louly-Pardo-Smith 2011, section 1)
    rng, g, adj = _moved_pis_graph(seed)
    v = rng.choice([i for i, row in enumerate(adj) if sum(row) >= 2])
    rep = kp_consistency(g, _from_adjacency(move_out_split(rng, adj, v)), MOVE_CHARS)
    assert rep.applicable and rep.pointed_iso == "exists" and not rep.contradiction


@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_the_matrix_graph_gets_the_matrix_verdict(seed, d):
    # L(M_d E) is the d x d matrices over L(E) (Abrams-Tomforde 2011)
    _, g, adj = _moved_pis_graph(seed)
    head = _from_adjacency(move_matrix_head(adj, d))
    for c in MOVE_CHARS:
        field = FieldSpec(c)
        assert lie_simplicity(head, field).status == matrix_lie_simplicity(g, d, field).status


def _k0_and_sign(adj):
    """The invariant factors of K0 other than 1, and the sign of det(I - A^t)."""
    n = len(adj)
    det = int_det([[int(i == j) - adj[j][i] for j in range(n)] for i in range(n)])
    factors = GraphInvariants(_from_adjacency(adj)).k0.invariant_factors
    return tuple(f for f in factors if f != 1), (det > 0) - (det < 0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_an_in_split_keeps_k0_and_the_det_sign(seed):
    # a Morita equivalence (ALPS 2011) and a flow equivalence (Franks 1984)
    rng, _, adj = _moved_pis_graph(seed)
    v = rng.choice([j for j in range(len(adj)) if sum(row[j] for row in adj) >= 2])
    assert _k0_and_sign(move_in_split(rng, adj, v)) == _k0_and_sign(adj)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_a_cuntz_splice_keeps_k0_and_flips_the_det_sign(seed):
    rng, _, adj = _moved_pis_graph(seed)
    factors, sign = _k0_and_sign(adj)
    assert _k0_and_sign(move_cuntz_splice(adj, rng.randrange(len(adj)))) == (factors, -sign)


def test_the_cuntz_splice_of_rose_2_has_trivial_k0():
    # L_2 against L_2- (ALPS 2011): the same trivial K0, opposite det signs
    assert _k0_and_sign([[2]]) == ((), -1)
    assert _k0_and_sign(move_cuntz_splice([[2]], 0)) == ((), 1)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_adding_a_source_keeps_k0_and_the_det_sign(seed):
    # removing a source is a Morita equivalence (ALPS 2011); its row of I - A^t is a unit row
    rng, _, adj = _moved_pis_graph(seed)
    row = [rng.randint(0, 2) for _ in adj]
    row[rng.randrange(len(adj))] += 1
    assert _k0_and_sign(move_add_source(adj, row)) == _k0_and_sign(adj)
