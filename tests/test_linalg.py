import random
import re
from enum import IntEnum
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _gen import (
    int_det,
    mat_mul,
    random_graph,
    random_int_matrix,
    random_pis_graphs,
    random_sparse_graph,
    reference_is_prime,
    reference_p_divisible,
    reference_rank,
    reference_smith_normal_form,
    reference_solve,
    reference_span,
    reference_two_matrix_smith,
    time_limit,
)

from lpa_lie import (
    FieldSpec,
    K0Presentation,
    b_vectors,
    class_order,
    cokernel,
    family,
    is_p_divisible,
    is_prime,
    m_matrix,
    smith_normal_form,
)
from lpa_lie.linalg import _MR_BOUND, _jacobi, _strong_lucas_probable_prime, _strong_probable_prime

int_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


# -- fields -------------------------------------------------------------------


def test_field_spec_validation():
    FieldSpec(0)
    FieldSpec(2)
    FieldSpec(13)
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(-3)
    with pytest.raises(ValueError):
        FieldSpec(1)


def test_a_characteristic_that_is_not_an_int_is_refused():
    # residues over GF(p) are ints, so a float, Fraction, str or bool names no field
    for c in (2.0, 43.0, Fraction(5), "2", True, False):
        with pytest.raises(ValueError) as exc:
            FieldSpec(c)
        assert str(exc.value) == f"characteristic must be 0 or a prime, got {c!r}"
    with pytest.raises(ValueError) as exc:
        FieldSpec(4)
    assert str(exc.value) == "characteristic must be 0 or a prime, got 4"
    for n in (7.0, Fraction(7), "7"):
        with pytest.raises(TypeError):
            is_prime(n)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(0) and not is_prime(1) and not is_prime(-7)


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 20_000) if is_prime(n)] == [
        n for n in range(-3, 20_000) if reference_is_prime(n)
    ]


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    with time_limit(5):
        for n in (3215031751, 3825123056546413051, 318665857834031151167461):
            assert not is_prime(n)
        assert is_prime(2**61 - 1)
        assert is_prime(10**18 + 3)
        assert is_prime(2**89 - 1) and is_prime(2**127 - 1)
        assert not is_prime((2**61 - 1) * (2**89 - 1))


def test_is_prime_lucas_test_rejects_a_base_2_strong_pseudoprime():
    # above _MR_BOUND only base 2 and the strong Lucas test (here with D = -11) decide
    n = 3317044070243339695661221
    assert n == 1287836183341 * 2575672366681 and n > _MR_BOUND
    assert [_jacobi(D, n) for D in (5, -7, 9, -11)] == [1, 1, 1, -1]
    assert _strong_probable_prime(n, 2) is True
    assert is_prime(n) is False


def test_strong_lucas_test_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.ntheory.primetest import is_strong_lucas_prp

    # perfect squares and a D with (D / n) = 0 are among the odd n
    with time_limit(10):
        for n in range(3, 10**5, 2):
            assert _strong_lucas_probable_prime(n) == is_strong_lucas_prp(n), n
    # strong Lucas pseudoprimes: the Lucas test alone passes them, base 2 does not
    for n in (5459, 5777, 10877, 16109, 18971):
        assert _strong_lucas_probable_prime(n) and not is_prime(n)
    rng = random.Random(20261020)
    for _ in range(2000):
        n = rng.randrange(1, 10**12, 2)
        a = rng.randrange(-(10**12), 10**12)
        assert _jacobi(a, n) == sympy.jacobi_symbol(a, n), (a, n)


def test_is_prime_matches_sympy_on_large_values():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20241017)
    values = [rng.randrange(10**19, 10**40) for _ in range(400)]
    primes = [sympy.nextprime(rng.randrange(10**19, 10**40)) for _ in range(60)]
    values += primes + [p * q for p, q in zip(primes, primes[1:])] + [p * p for p in primes[:10]]
    with time_limit(10):
        for n in values:
            assert is_prime(n) == sympy.isprime(n), n


def test_field_parse_and_coerce():
    f0 = FieldSpec(0)
    assert f0.parse("3/4") == Fraction(3, 4)
    f3 = FieldSpec(3)
    assert f0.coerce(7) == Fraction(7) and type(f0.coerce(7)) is Fraction
    assert f3.parse("5") == 2 and type(f3.parse("5")) is int
    assert f3.coerce(Fraction(1, 2)) == 2  # 1 * 2^{-1} = 2
    assert f3.coerce(-7) == 2 and f3.coerce(2) == 2
    assert f3.coerce(0) == 0 and type(f3.coerce(0)) is int
    f5 = FieldSpec(5)
    assert [f5.coerce(Fraction(a, b)) for a, b in ((3, 7), (-1, 2), (10, 3))] == [4, 2, 0]
    with pytest.raises(ValueError):
        f3.coerce(Fraction(1, 3))
    with pytest.raises(TypeError, match="^cannot coerce float into Q$"):
        f0.coerce(1.5)
    with pytest.raises(ValueError):
        f0.parse("x")


def test_field_parse_accepts_exactly_integers_and_fractions():
    f0 = FieldSpec(0)
    assert f0.parse("-3/4") == Fraction(-3, 4)
    assert f0.parse("+5") == 5 and f0.parse(" 7 ") == 7
    # exponents, decimals, underscores and non-ASCII digits are refused: an
    # exponent would turn a short text into a huge integer
    for text in ("1e5", "1.5", "1_0", "\u0663", "3/-4", "1/", "1e50000000"):
        with pytest.raises(ValueError, match=f"cannot parse {text!r} as an element of Q"):
            f0.parse(text)


def test_field_parse_names_a_zero_denominator():
    for c, text in ((0, "1/0"), (0, "0/0"), (0, "1/00"), (3, "1/0")):
        field = FieldSpec(c)
        message = f"cannot parse {text!r} as an element of {field.name}: the denominator is zero"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            field.parse(text)


# -- span membership -----------------------------------------------------------


def span(vectors, target, field):
    """Coefficients of ``target`` in the span of ``vectors``: the Smith solve on them as columns."""
    return smith_normal_form([list(col) for col in zip(*vectors)]).solve(target, field)


def test_span_one_dimensional():
    assert smith_normal_form([[2]]).solve([1], FieldSpec(0)) == [Fraction(1, 2)]
    assert smith_normal_form([[2]]).solve([1], FieldSpec(2)) is None


def test_span_example4_never_solvable():
    bv = b_vectors(family("example4"))
    ones = [1, 1, 1, 1]
    for c in (0, 2, 3, 5, 7, 11):
        assert span(bv, ones, FieldSpec(c)) is None


def test_span_prime_set_solvable_iff_char_divides_q():
    bv = b_vectors(family("prime_set", [6]))
    ones = [1, 1, 1, 1]
    assert span(bv, ones, FieldSpec(2)) is not None
    assert span(bv, ones, FieldSpec(3)) is not None
    assert span(bv, ones, FieldSpec(5)) is None
    assert span(bv, ones, FieldSpec(0)) is None


def test_span_solution_is_exact():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        vectors = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        target = [rng.randint(-5, 5) for _ in range(m)]
        for c in (0, 2, 5):
            field = FieldSpec(c)
            sol = span(vectors, target, field)
            if sol is None:
                continue
            for j in range(m):
                total = field.coerce(0)
                for i in range(n):
                    total = total + sol[i] * field.coerce(vectors[i][j])
                assert field.coerce(total) == field.coerce(target[j])


def test_span_gf_agrees_with_enumeration():
    rng = random.Random(8)
    for _ in range(120):
        p = rng.choice([2, 3, 5])
        field = FieldSpec(p)
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        vectors = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        target = [rng.randint(-4, 4) for _ in range(m)]
        brute = any(
            all(
                sum(cs[i] * vectors[i][j] for i in range(n)) % p == target[j] % p
                for j in range(m)
            )
            for cs in product(range(p), repeat=n)
        )
        assert (span(vectors, target, field) is not None) == brute


def test_span_dimension_mismatch():
    # one vector of length 2 against a target of length 1
    with pytest.raises(ValueError, match="dimension"):
        span([[1, 2]], [1], FieldSpec(0))


def test_span_no_vectors():
    # the Smith form refuses a matrix with no columns, so an empty span never
    # gets an answer; with one zero column only the zero target is reached
    with pytest.raises(ValueError, match="non-empty"):
        smith_normal_form([[], []])
    assert smith_normal_form([[0], [0]]).solve([0, 0], FieldSpec(0)) == [0]
    assert smith_normal_form([[0], [0]]).solve([1, 0], FieldSpec(0)) is None


# -- Smith normal form ----------------------------------------------------------


def check_certificate(mat, dec):
    rows, cols = len(mat), len(mat[0])
    assert mat_mul(mat_mul([list(r) for r in dec.u], mat), [list(r) for r in dec.v]) == [
        list(r) for r in dec.d
    ]
    assert int_det(dec.u) in (1, -1)
    assert int_det(dec.v) in (1, -1)
    diag = list(dec.diagonal)
    assert all(a >= 0 for a in diag)
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert dec.d[i][j] == 0
    nonzero = [a for a in diag if a]
    assert diag[: len(nonzero)] == nonzero, "zeros must come last"
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


def test_snf_identity():
    dec = smith_normal_form([[1, 0], [0, 1]])
    assert dec.diagonal == (1, 1)
    check_certificate([[1, 0], [0, 1]], dec)


def test_snf_two_vertex_family():
    m = m_matrix(family("two_vertex", [2, 2, 2]))
    assert m == [[-8, -4], [-2, -2]]
    dec = smith_normal_form(m)
    assert dec.diagonal == (2, 4)
    check_certificate(m, dec)


def test_snf_rose():
    for n in range(2, 8):
        m = m_matrix(family("rose", [n]))
        assert m == [[1 - n]]
        dec = smith_normal_form(m)
        assert dec.diagonal == (n - 1,)
        check_certificate(m, dec)


def test_snf_rectangular():
    m = [[2, 4, 4], [-6, 6, 12]]
    dec = smith_normal_form(m)
    check_certificate(m, dec)
    assert dec.diagonal == (2, 6)


def test_snf_rejects_bad_input():
    with pytest.raises(ValueError):
        smith_normal_form([])
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])
    with pytest.raises(ValueError):
        smith_normal_form([[1.5]])


class Entry(IntEnum):
    TWO = 2


def test_snf_entries_follow_the_integer_rule():
    # an int subclass other than bool is an entry; bool and float are not,
    # in a row of plain ints or next to an accepted subclass
    assert smith_normal_form([[Entry.TWO, 0], [0, -3]]).diagonal == (1, 6)
    for bad in (True, 1.0):
        for mat in ([[2, 0], [0, bad]], [[Entry.TWO, bad], [0, 1]]):
            with pytest.raises(ValueError, match="^matrix entries must be integers$"):
                smith_normal_form(mat)
    # rows are checked in order, each for its length and then its entries
    with pytest.raises(ValueError, match="^matrix entries must be integers$"):
        smith_normal_form([[1, 2.5], [1]])
    for mat in ([[1], [1, 2.5]], [[1, 2], [True]]):
        with pytest.raises(ValueError, match="^matrix rows must all have the same length$"):
            smith_normal_form(mat)


@given(int_matrices)
@settings(max_examples=150, deadline=None)
def test_snf_certificates_hypothesis(mat):
    dec = smith_normal_form(mat)
    check_certificate(mat, dec)


rectangular_matrices = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)


@given(rectangular_matrices)
@settings(max_examples=150, deadline=None)
def test_snf_of_the_negated_matrix_hypothesis(mat):
    # the elimination treats M and -M alike, which keeps the unit class
    # coordinates of a sink-free graph's K0 the same on either sign
    dec = smith_normal_form(mat)
    neg = smith_normal_form([[-x for x in row] for row in mat])
    assert (neg.u, neg.d) == (dec.u, dec.d)
    signs = [-1 if a else 1 for a in dec.diagonal]
    signs += [1] * (len(dec.v) - len(signs))
    assert neg.v == tuple(tuple(s * x for s, x in zip(signs, row)) for row in dec.v)


def _with_zero_lines(case):
    mat, zero_rows, zero_cols = case
    return [
        [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(r)]
        for i, r in enumerate(mat)
    ]


snf_cases = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda shape: st.tuples(
        st.lists(
            st.lists(st.integers(-60, 60), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        ),
        st.sets(st.integers(0, shape[0] - 1)),
        st.sets(st.integers(0, shape[1] - 1)),
    )
).map(_with_zero_lines)


@given(snf_cases)
# column steps leave the remainder 2 in row 0 while row 1 holds a 1: the
# next pivot is the 2, the least of row 0, not the 1 of the whole block
@example([[6, -4], [-5, 4]])
@settings(max_examples=300, deadline=None)
def test_snf_matches_the_two_matrix_reference_hypothesis(mat):
    # the logged elimination performs the reference's operations in the
    # reference's order, so the replayed u, d and v agree entry for entry
    dec = smith_normal_form(mat)
    assert (dec.u, dec.d, dec.v) == reference_two_matrix_smith(mat)


@given(st.integers(0, 2**32))
@settings(max_examples=20, deadline=None)
def test_snf_of_graph_matrices_matches_the_reference_hypothesis(seed):
    g = random_graph(random.Random(seed), min_vertices=20, max_vertices=40)
    for mat in (m_matrix(g), [list(col) for col in zip(*b_vectors(g))]):
        dec = smith_normal_form(mat)
        assert (dec.u, dec.d, dec.v) == reference_two_matrix_smith(mat)


def _logs(dec):
    return dec.diagonal, dec.row_log, dec.col_log


@st.composite
def big_snf_cases(draw):
    """Integer matrices up to 8 x 8 whose entries reach 10^6, some of them singular.

    A share of the entries, drawn per matrix, is up to 10^6 and the rest
    small, so stages take many rounds and fold until a small pivot remains.
    The entries come from a seeded ``random.Random``, which costs a tenth
    of drawing each through Hypothesis; zero lines and a last row that is a
    combination of two others make the matrix singular.
    """
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    big = draw(st.sampled_from((0.0, 0.3, 0.7, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    mat = [
        [rng.randint(-(10**6), 10**6) if rng.random() < big else rng.randint(-9, 9)
         for _ in range(cols)]
        for _ in range(rows)
    ]
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=2))
    mat = _with_zero_lines((mat, zero_rows, zero_cols))
    if rows > 1 and draw(st.booleans()):
        mat[-1] = [2 * x - y for x, y in zip(mat[0], mat[-2])]
    return mat


@given(big_snf_cases())
@example([[6, -4], [-5, 4]])
@example([[10**6, 999_999, 3], [999_998, -(10**6), 7], [5, 11, -999_983]])
@settings(max_examples=300, deadline=None, derandomize=True)
def test_snf_logs_match_the_rescanning_engine_hypothesis(mat):
    """Each round takes its next pivot while it writes the remainders; the
    engine that rescans the column or row for it logs the same operations.

    Derandomized, 300 examples, each matrix and its negation: about 0.9 s.
    """
    for m in (mat, [[-x for x in row] for row in mat]):
        assert _logs(smith_normal_form(m)) == _logs(reference_smith_normal_form(m))


@given(st.integers(0, 2**32))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_snf_logs_of_b_matrices_match_the_rescanning_engine_hypothesis(seed):
    """The same logs on B-matrices of purely infinite simple graphs, B and its transpose.

    Derandomized, 20 graphs of 25 to 35 vertices: about 0.4 s.
    """
    (g,) = random_pis_graphs(random.Random(seed), 1, min_vertices=25, max_vertices=35)
    b = [list(row) for row in b_vectors(g)]
    for mat in (b, [list(col) for col in zip(*b)]):
        assert _logs(smith_normal_form(mat)) == _logs(reference_smith_normal_form(mat))


@st.composite
def sparse_graph_matrices(draw):
    """B^t or I - A^t of a graph of 10 to 40 vertices at edge density 0.02 to 0.2.

    Half the graphs are acyclic with one sink, whose I - A^t has only unit
    pivots; the rest are random, sinks and all.
    """
    g = random_sparse_graph(random.Random(draw(st.integers(0, 2**32))))
    if draw(st.booleans()):
        return m_matrix(g)
    return [list(col) for col in zip(*b_vectors(g))]


PERMUTATION_5 = [[int(j == (2 * i + 1) % 5) for j in range(5)] for i in range(5)]


@given(sparse_graph_matrices())
@example([[1]])
@example([[-1]])
@example(PERMUTATION_5)
@example([[1, 0, 0], [2, 3, 0]])  # the unit pivot's row is zero past it
@example([[0, 2, -1, 4]])
@example([[0], [3], [-1], [6]])
@example([[0, 0, 0, 0], [0, 2, 0, -1], [0, 0, 0, 0], [0, 3, 0, 5]])
@example([[1, 0, 2, 0], [3, 1, 1, 1], [2, 5, 0, 7]])  # one in three nonzero past the pivot
@example([[1, 2, 3], [4, 5, 6], [7, 8, 10]])  # every entry past the pivot nonzero
@example([[6, 4], [-5, 4]])  # the pivot reaches 1 after Euclid rounds
@settings(max_examples=100, deadline=None, derandomize=True)
def test_snf_logs_of_sparse_graph_matrices_match_the_rescanning_engine_hypothesis(mat):
    """A unit pivot ends its stage in one pass that rewrites each row at the
    pivot row's nonzero entries alone; the logs are the rescanning engine's.

    Derandomized, 100 matrices and 10 examples, each and its negation: about 0.35 s.
    """
    for m in (mat, [[-x for x in row] for row in mat]):
        assert _logs(smith_normal_form(m)) == _logs(reference_smith_normal_form(m))


def test_smith_forms_compare_by_their_fields():
    g = random_graph(random.Random(30), min_vertices=30, max_vertices=30)
    mat = [list(col) for col in zip(*b_vectors(g))]
    a, b = smith_normal_form(mat), smith_normal_form(mat)
    assert a == b and hash(a) == hash(b)
    # equality reads the logs; it builds neither certificate
    assert not any(name in vars(dec) for dec in (a, b) for name in ("u", "v"))
    mat[0][0] += 1
    assert smith_normal_form(mat) != a


solve_cases = snf_cases.flatmap(
    lambda mat: st.tuples(
        st.just(mat),
        st.sampled_from([0, 2, 3, 5, 7]),
        st.lists(
            st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6)),
            min_size=len(mat),
            max_size=len(mat),
        ),
    )
)


@given(solve_cases)
@settings(max_examples=300, deadline=None)
def test_solve_by_replay_matches_explicit_certificates_hypothesis(case):
    mat, c, target = case
    field = FieldSpec(c)
    if c:  # a fraction whose denominator vanishes mod c has no residue
        target = [x.numerator for x in target]
    dec = smith_normal_form(mat)
    explicit = (dec.u, dec.d, dec.v)
    assert dec.solve(target, field) == reference_solve(explicit, target, field)
    integers = [x.numerator for x in target]
    assert dec.solve(integers, field) == reference_solve(explicit, integers, field)
    if dec.shape[0] != dec.shape[1]:
        with pytest.raises(ValueError, match="square"):
            K0Presentation.of(dec)
    else:
        unit = [sum(row) for row in dec.u]
        assert K0Presentation.of(dec).unit_class == tuple(
            y % a if a > 0 else y for y, a in zip(unit, dec.diagonal)
        )


memo_cases = snf_cases.flatmap(
    lambda mat: st.tuples(
        st.just(mat),
        st.permutations([0, 2, 3, 5, 7] * 2),
        st.lists(st.integers(-20, 20), min_size=len(mat), max_size=len(mat)),
    )
)


@given(memo_cases)
@settings(max_examples=150, deadline=None)
def test_kept_row_images_match_a_fresh_decomposition_hypothesis(case):
    # one decomposition keeps u @ b per target; every characteristic,
    # in any order and again, must read what a fresh replay gives
    mat, chars, target = case
    dec = smith_normal_form(mat)
    square = dec.shape[0] == dec.shape[1]
    before = K0Presentation.of(dec) if square else None
    for c in chars:
        for b in (target, [1] * len(mat)):
            assert dec.solve(b, FieldSpec(c)) == smith_normal_form(mat).solve(b, FieldSpec(c))
    if square:
        assert K0Presentation.of(dec) == before == K0Presentation.of(smith_normal_form(mat))
    # the kept images are no part of the identity
    assert dec == smith_normal_form(mat) and hash(dec) == hash(smith_normal_form(mat))
    assert "_images" not in repr(dec)


fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
repeated_solve_cases = snf_cases.flatmap(
    lambda mat: st.tuples(
        st.just(mat),
        st.lists(
            st.tuples(
                st.sampled_from([0, 2, 3, 5, 7, 2**61 - 1]),
                # x for the member M x, and a target that is mostly not one
                st.lists(fractions, min_size=len(mat[0]), max_size=len(mat[0])),
                st.lists(fractions, min_size=len(mat), max_size=len(mat)),
                st.booleans(),  # as integers, over the common denominator
            ),
            min_size=1,
            max_size=8,
        ),
    )
)


@given(repeated_solve_cases)
# factors 2 and 6: (1, 1) is solvable over Q and GF(5), not over GF(2) or GF(3)
@example(([[2, 0], [0, 6]], [(c, [Fraction(1, 2)] * 2, [Fraction(1)] * 2, True) for c in (2, 0, 3, 5, 2)]))
@settings(max_examples=200, deadline=None)
def test_one_decomposition_solves_at_every_characteristic_hypothesis(case):
    # the kept images of U b and of V serve every characteristic, in any
    # order and again, as the explicit certificates do
    mat, queries = case
    dec = smith_normal_form(mat)
    explicit = (dec.u, dec.d, dec.v)
    for c, x, other, as_integers in queries:
        field = FieldSpec(c)
        member = [sum(a * xi for a, xi in zip(row, x)) for row in mat]
        for target, is_member in ((member, True), (other, False)):
            if as_integers:
                scale = lcm(*(t.denominator for t in target))
                target = [int(t * scale) for t in target]
            if c and any(t.denominator % c == 0 for t in target):
                with pytest.raises(ValueError, match="vanishes"):
                    dec.solve(target, field)
                continue
            answer = dec.solve(target, field)
            assert answer == reference_solve(explicit, target, field)
            if is_member and not c:
                assert answer is not None
        bad = [0] * len(mat)
        bad[c % len(mat)] = True
        with pytest.raises(TypeError, match="booleans"):
            dec.solve(bad, field)
    # the kept images are no part of the identity
    fresh = smith_normal_form(mat)
    assert dec == fresh and hash(dec) == hash(fresh)
    assert repr(dec) == repr(fresh)


def test_snf_diagonal_matches_sympy():
    pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    def sympy_diagonal(mat):
        d = sympy_snf(Matrix(mat), domain=ZZ)
        return tuple(abs(int(d[i, i])) for i in range(min(d.shape)))

    rng = random.Random(12)
    mats = []
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        mats.append([[rng.randint(-40, 40) for _ in range(cols)] for _ in range(rows)])
    for seed in range(3):
        g = random_graph(random.Random(seed), min_vertices=20, max_vertices=40)
        mats += [m_matrix(g), [list(col) for col in zip(*b_vectors(g))]]
    for mat in mats:
        assert smith_normal_form(mat).diagonal == sympy_diagonal(mat), mat


def test_snf_deterministic():
    rng = random.Random(9)
    for _ in range(30):
        mat = random_int_matrix(rng)
        d1 = smith_normal_form(mat)
        d2 = smith_normal_form([list(r) for r in mat])
        assert d1 == d2


def test_rank_equals_nonzero_diagonal():
    rng = random.Random(10)
    for _ in range(150):
        mat = random_int_matrix(rng)
        dec = smith_normal_form(mat)
        for c in (0, 2, 3, 5):
            field = FieldSpec(c)
            expected = sum(1 for a in dec.diagonal if (a % c if c else a))
            assert reference_rank(mat, field) == expected
            assert dec.rank(field) == expected


# -- cokernel presentations --------------------------------------------------


def test_cokernel_rose():
    for n in range(2, 8):
        pres = cokernel(m_matrix(family("rose", [n])))
        assert pres.invariant_factors == (n - 1,)
        assert pres.unit_class == (1 % (n - 1),)


def test_cokernel_matrix_rose_unit_class_is_d():
    for n in range(2, 6):
        for d in range(2, 6):
            pres = cokernel(m_matrix(family("matrix_rose", [n, d])))
            if n == 2:
                assert pres.nontrivial_factors == ()
            else:
                assert pres.nontrivial_factors == (n - 1,)
                torsion = [
                    (a, y)
                    for a, y in zip(pres.invariant_factors, pres.unit_class)
                    if a not in (0, 1)
                ]
                assert torsion == [(n - 1, d % (n - 1))]


def test_cokernel_two_vertex():
    pres = cokernel(m_matrix(family("two_vertex", [2, 2, 2])))
    assert pres.invariant_factors == (2, 4)
    assert pres.group_description() == "Z_2 x Z_4"


def test_cokernel_example4_has_free_summand():
    pres = cokernel(m_matrix(family("example4")))
    assert 0 in pres.invariant_factors
    free_coords = [
        y for a, y in zip(pres.invariant_factors, pres.unit_class) if a == 0
    ]
    assert any(y != 0 for y in free_coords)
    assert class_order(pres) is None


def test_cokernel_requires_square():
    with pytest.raises(ValueError):
        cokernel([[1, 2, 3], [4, 5, 6]])


def test_presentation_of_a_non_square_form_is_refused():
    # Z^2 / <(2, 0)> is Z_2 x Z with a unit class of infinite order; the
    # diagonal (2,) of the 2 x 1 form has no entry for the free summand
    with pytest.raises(ValueError, match="square"):
        K0Presentation.of(smith_normal_form([[2], [0]]))
    pres = cokernel([[2, 0], [0, 0]])
    assert pres.group_description() == "Z_2 x Z" and class_order(pres) is None


# -- class order and divisibility ---------------------------------------------


def brute_force_order(pres):
    alphas = pres.invariant_factors
    if any(a == 0 and y != 0 for a, y in zip(alphas, pres.unit_class)):
        return None
    order_bound = 1
    for a in alphas:
        if a > 0:
            order_bound *= a
    for k in range(1, order_bound + 1):
        if all((k * y) % a == 0 for a, y in zip(alphas, pres.unit_class) if a > 0):
            return k
    raise AssertionError("order exceeds the group order")


def brute_force_p_divisible(pres, p):
    alphas = [a for a in pres.invariant_factors if a > 0]
    ys = [y for a, y in zip(pres.invariant_factors, pres.unit_class) if a > 0]
    free_ys = [y for a, y in zip(pres.invariant_factors, pres.unit_class) if a == 0]
    if any(y % p for y in free_ys):
        return False
    for xs in product(*(range(a) for a in alphas)):
        if all((p * x - y) % a == 0 for x, y, a in zip(xs, ys, alphas)):
            return True
    return not alphas


def test_class_order_examples():
    assert class_order(K0Presentation((2, 4), (1, 1))) == 4
    assert class_order(K0Presentation((1,), (0,))) == 1
    assert class_order(K0Presentation((0,), (3,))) is None
    assert class_order(K0Presentation((6, 0), (4, 0))) == 3


def test_is_p_divisible_examples():
    assert not is_p_divisible(K0Presentation((3,), (2,)), 3)
    assert is_p_divisible(K0Presentation((3, 5, 0), (0, 0, 0)), 2)
    assert is_p_divisible(K0Presentation((3, 5, 0), (0, 0, 0)), 7)
    assert not is_p_divisible(K0Presentation((2, 4), (1, 1)), 2)
    with pytest.raises(ValueError):
        is_p_divisible(K0Presentation((2,), (1,)), 4)


def test_order_and_divisibility_against_brute_force():
    rng = random.Random(12)
    for _ in range(200):
        k = rng.randint(1, 3)
        alphas = tuple(rng.choice([1, 2, 3, 4, 6, 8, 9, 0]) for _ in range(k))
        ys = tuple(
            rng.randrange(a) if a > 0 else rng.randint(-3, 3) for a in alphas
        )
        torsion = 1
        for a in alphas:
            if a > 0:
                torsion *= a
        if torsion > 10**4:
            continue
        pres = K0Presentation(alphas, ys)
        assert class_order(pres) == brute_force_order(pres)
        for p in (2, 3, 5):
            assert is_p_divisible(pres, p) == brute_force_p_divisible(pres, p)


# a cokernel coordinate (factor, unit-class entry): torsion reduced mod its factor, or free
torsion_coordinates = st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12]).flatmap(
    lambda a: st.tuples(st.just(a), st.integers(0, a - 1))
)
free_coordinates = st.tuples(st.just(0), st.integers(-12, 12))


@given(
    st.tuples(
        st.lists(st.one_of(torsion_coordinates, free_coordinates), max_size=1),
        free_coordinates,
        st.lists(st.one_of(torsion_coordinates, free_coordinates), max_size=1),
    ).map(lambda parts: parts[0] + [parts[1]] + parts[2]),
    st.sampled_from([2, 3, 5, 7, 10**9 + 7]),
)
@example([(0, 0)], 2)
@example([(0, 3), (6, 3)], 3)
@example([(4, 2), (0, 4), (0, 6)], 2)
@settings(max_examples=300, deadline=None)
def test_p_divisibility_with_free_summands_matches_the_search(coordinates, p):
    factors, unit_class = (tuple(x) for x in zip(*coordinates))
    pres = K0Presentation(factors, unit_class)
    assert is_p_divisible(pres, p) == reference_p_divisible(factors, unit_class, p)


# -- the dual-route identity ------------------------------------------------------


def test_dual_route_identity_random_matrices():
    rng = random.Random(13)
    for _ in range(200):
        mat = random_int_matrix(rng, max_size=5, lo=-6, hi=6)
        n = len(mat)
        cols = [[mat[i][j] for i in range(n)] for j in range(n)]
        ones = [1] * n
        pres = cokernel(mat)
        solvable_q = reference_span(cols, ones, FieldSpec(0)) is not None
        assert solvable_q == (class_order(pres) is not None)
        assert solvable_q == (smith_normal_form(mat).solve(ones, FieldSpec(0)) is not None)
        for p in (2, 3, 5):
            solvable_p = reference_span(cols, ones, FieldSpec(p)) is not None
            assert solvable_p == is_p_divisible(pres, p)
            assert solvable_p == (smith_normal_form(mat).solve(ones, FieldSpec(p)) is not None)
