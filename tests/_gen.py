"""Seeded random generators and reference algorithms shared by the test modules.

The package decides every span and rank question from one Smith normal form;
the Gauss-Jordan elimination and Fraction determinant here are an independent
reference for it.  The two-matrix elimination here, which writes each
operation once on the matrix and once on its certificate, is the reference
for the certificates its Smith form replays from elimination logs, and the
solve by dot products with the rows of those certificates is the reference
for its solve by replay.  It reads cycle vertices and the
exitless cycle off the reachability closure; boolean powers of the adjacency
matrix and a chase of the out-degree-1 subgraph are the references for those,
and the list of every unreached (vertex, target) pair is the reference for
its one simplicity witness per vertex.  The
package stores edges as runs of parallel edges; the per-edge parser and
serialiser here are the reference for its text format, the expansion of the
runs edge by edge (``all_edges``) is the reference for the edges that
``Graph.out_edges`` names, trial division is the
reference for its Miller-Rabin primality test, the prime-by-prime orbit
test is the reference for its factoring-free one, and a search over the
shifts of the unit class is the reference for its search-free pointed
isomorphism test.  The Cohn algebra multiplies terms on integer path keys;
the product of ``PathWord`` prefixes (``reference_mult_terms``) is the
reference for it, and the printer that sorts ``CohnTerm`` views
(``reference_str``) the reference for its printer on those keys.
"""

from __future__ import annotations

import random
import re
import signal
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

from lpa_lie import (
    CohnElement,
    CohnTerm,
    EdgeId,
    FieldSpec,
    Graph,
    GraphParseError,
    PathWord,
    graph_from_adjacency,
    parse_graph,
    simplicity_reports,
)
from lpa_lie.verdict import _coprime_base, _valuation


@contextmanager
def time_limit(seconds: int):
    """Raise ``TimeoutError`` in the block once it has run for ``seconds``."""

    def fire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def random_graph(
    rng: random.Random,
    max_vertices: int = 6,
    max_mult: int = 3,
    density=(0.2, 0.7),
    min_vertices: int = 1,
) -> Graph:
    m = rng.randint(min_vertices, max_vertices)
    density = rng.uniform(*density)
    adj = [
        [rng.randint(1, max_mult) if rng.random() < density else 0 for _ in range(m)]
        for _ in range(m)
    ]
    return graph_from_adjacency([f"v{i + 1}" for i in range(m)], adj)


def random_labelled_graph(rng: random.Random, max_vertices: int = 4, max_lines: int = 8) -> Graph:
    """A parsed graph mixing ``edge`` lines with multiplicities and ``edge-label`` lines.

    A label is either plain or of the auto shape ``<src>_<dst>_<k>``, with k
    past every auto count, so it may name its own edge's auto label (and
    join an auto run) or another pair's; no label clashes.
    """
    names = [f"v{i + 1}" for i in range(rng.randint(1, max_vertices))]
    lines = [f"vertex {name}" for name in names]
    for i in range(rng.randint(0, max_lines)):
        src, dst = rng.choice(names), rng.choice(names)
        kind = rng.randrange(3)
        if kind == 0:
            lines.append(f"edge {src} {dst} {rng.randint(1, 5)}")
        elif kind == 1:
            lines.append(f"edge-label e{i} {src} {dst}")
        else:
            a, b = rng.choice(names), rng.choice(names)
            lines.append(f"edge-label {a}_{b}_{100 + i} {src} {dst}")
    return parse_graph("\n".join(lines) + "\n")


def random_graphs_where(rng: random.Random, count: int, predicate, **kwargs) -> list[Graph]:
    """Collect ``count`` random graphs satisfying ``predicate``."""
    found: list[Graph] = []
    attempts = 0
    limit = 400 * count
    while len(found) < count:
        attempts += 1
        assert attempts <= limit, f"could not find {count} graphs in {limit} attempts"
        g = random_graph(rng, **kwargs)
        if predicate(g):
            found.append(g)
    return found


def random_pis_graphs(rng: random.Random, count: int, **kwargs) -> list[Graph]:
    return random_graphs_where(rng, count, lambda g: simplicity_reports(g)[1].verdict, **kwargs)


def random_simple_graphs(rng: random.Random, count: int, **kwargs) -> list[Graph]:
    return random_graphs_where(rng, count, lambda g: simplicity_reports(g)[0].verdict, **kwargs)


def random_int_matrix(rng: random.Random, max_size: int = 6, lo: int = -9, hi: int = 9):
    n = rng.randint(1, max_size)
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def random_path(rng: random.Random, g: Graph, max_len: int = 4) -> PathWord:
    """A random path of length 0..max_len starting anywhere."""
    v = rng.choice(g.vertices)
    edges = []
    for _ in range(rng.randint(0, max_len)):
        out = g.out_edges(v)
        if not out:
            break
        e = rng.choice(out)
        edges.append(e)
        v = e.target
    if not edges:
        return PathWord(v)
    return PathWord.from_edges(edges)


def _random_path_into(rng: random.Random, g: Graph, target, max_len: int = 4) -> PathWord:
    """A random path of length 0..max_len ending at ``target`` (walks in-edges)."""
    edges = []
    v = target
    named = all_edges(g)
    for _ in range(rng.randint(0, max_len)):
        incoming = [e for e in named if e.target == v]
        if not incoming:
            break
        e = rng.choice(incoming)
        edges.append(e)
        v = e.source
    if not edges:
        return PathWord(target)
    return PathWord.from_edges(tuple(reversed(edges)))


def random_basis_term(rng: random.Random, g: Graph, max_len: int = 4) -> CohnTerm:
    p = random_path(rng, g, max_len)
    q = _random_path_into(rng, g, p.range, max_len)
    return CohnTerm(p, q)


def random_cohn_element(
    rng: random.Random, g: Graph, field: FieldSpec, terms: int = 2, max_len: int = 4
) -> CohnElement:
    acc = CohnElement.zero(g, field)
    for _ in range(rng.randint(1, terms)):
        t = random_basis_term(rng, g, max_len)
        coeff = rng.randint(-4, 4)
        acc = acc + CohnElement.term(g, field, t.p, t.q, coeff)
    return acc


def reference_mult_terms(a: CohnTerm, b: CohnTerm) -> CohnTerm | None:
    """Product of basis terms on ``PathWord`` prefixes: ``(p q*)(t z*)`` collapses or dies.

    Nonzero only when one of q, t extends the other; the leftover path h is
    absorbed into p (if t = q.h) or into z (if q = t.h).
    """
    h = b.p.strip_prefix(a.q)
    if h is not None:
        return CohnTerm(a.p.concat(h), b.q)
    h = a.q.strip_prefix(b.p)
    if h is not None:
        return CohnTerm(a.p, b.q.concat(h))
    return None


def _reference_path_key(w: PathWord) -> tuple:
    if w.edges:
        return (len(w.edges), tuple([e.label for e in w.edges]))
    return (0, (w.source.label,))


def _reference_term_key(t: CohnTerm) -> tuple:
    return (len(t.p.edges) + len(t.q.edges), _reference_path_key(t.p), _reference_path_key(t.q))


def _reference_term_str(t: CohnTerm) -> str:
    parts = [e.label for e in t.p.edges]
    parts += [f"{e.label}^*" for e in reversed(t.q.edges)]
    if not parts:
        return t.p.range.label
    return " ".join(parts)


def reference_str(x: CohnElement) -> str:
    """``str(x)`` from ``CohnTerm`` views: each term printed and sorted by its labels."""
    if x.is_zero():
        return "0"
    views = sorted(x.terms.items(), key=lambda tc: _reference_term_key(tc[0]))
    return " + ".join(f"{c} * {_reference_term_str(t)}" for t, c in views)


# -- reference linear algebra -------------------------------------------------


def _reference_paths(g: Graph) -> list[list[bool]]:
    """Whether (A + A^2 + ... + A^n)[v][w] is nonzero, by boolean matrix powers."""
    n = g.num_vertices
    adj = [[bool(c) for c in row] for row in g.counts]
    power, total = adj, adj
    for _ in range(n - 1):
        power = [[any(power[i][k] and adj[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        total = [[x or y for x, y in zip(r, s)] for r, s in zip(total, power)]
    return total


def reference_cycle_vertices(g: Graph) -> set:
    """Vertices v with (A + A^2 + ... + A^n)[v][v] nonzero."""
    total = _reference_paths(g)
    return {v for v in g.vertices if total[v.index][v.index]}


def reference_unreached_pairs(g: Graph) -> list[tuple]:
    """Every ``(source, target, kind)`` where ``source`` has no path to a sink or cycle vertex.

    Sources come in index order; for each, sinks come before cycle vertices,
    each in index order.
    """
    total = _reference_paths(g)
    targets = [(t, "sink") for t in g.vertices if g.is_sink(t)]
    targets += [(t, "cycle vertex") for t in g.vertices if total[t.index][t.index]]
    return [
        (v, t, kind)
        for v in g.vertices
        for t, kind in targets
        if v != t and not total[v.index][t.index]
    ]


def reference_cycle_without_exit(g: Graph):
    """The edges of a cycle whose vertices all have out-degree 1, or None.

    Chases the functional subgraph spanned by the out-degree-1 vertices, from
    each start in index order; the cycle starts at its smallest vertex.
    """
    step = {
        v.index: g.successors[v.index][0] for v in g.vertices if g.out_degree(v) == 1
    }
    finished: set[int] = set()
    for start in sorted(step):
        if start in finished:
            continue
        position: dict[int, int] = {}
        path: list[int] = []
        cur = start
        while cur in step and cur not in finished and cur not in position:
            position[cur] = len(path)
            path.append(cur)
            cur = step[cur]
        if cur in position:
            cycle = path[position[cur]:]
            lowest = cycle.index(min(cycle))
            cycle = cycle[lowest:] + cycle[:lowest]
            return tuple(g.out_edges(g.vertices[i])[0] for i in cycle)
        finished.update(position)
    return None


def _reference_min_abs_position(a, t: int, rows: int, cols: int):
    best = None
    pos = None
    for i in range(t, rows):
        for j in range(t, cols):
            x = a[i][j]
            if x:
                x = -x if x < 0 else x
                if best is None or x < best:
                    best = x
                    pos = (i, j)
    return pos


def reference_smith_normal_form(mat):
    """The Smith form ``(u, d, v)`` by the package's rules, rows first, on separate matrices.

    Every swap, subtraction and sign flip is applied once to the working
    matrix and once more to the certificate it belongs to.
    """
    rows, cols = len(mat), len(mat[0])
    a = [list(r) for r in mat]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_sub(m, i, k, q):  # m[i] -= q * m[k]
        mi, mk = m[i], m[k]
        for j in range(len(mi)):
            mi[j] -= q * mk[j]

    def col_sub(m, j, k, q):  # col j -= q * col k
        for r in m:
            r[j] -= q * r[k]

    for t in range(min(rows, cols)):
        if _reference_min_abs_position(a, t, rows, cols) is None:
            break
        while True:
            pi, pj = _reference_min_abs_position(a, t, rows, cols)
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
                u[t], u[pi] = u[pi], u[t]
            if pj != t:
                for r in a:
                    r[t], r[pj] = r[pj], r[t]
                for r in v:
                    r[t], r[pj] = r[pj], r[t]
            pivot = a[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = (2 * a[i][t] + pivot) // (2 * pivot)  # nearest integer
                    if q:
                        row_sub(a, i, t, q)
                        row_sub(u, i, t, q)
                    if a[i][t]:
                        dirty = True
            if dirty:
                continue  # column steps wait until column t is clear
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = (2 * a[t][j] + pivot) // (2 * pivot)
                    if q:
                        col_sub(a, j, t, q)
                        col_sub(v, j, t, q)
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # fold the offending row into row t so the pivot can shrink
            row_sub(a, t, offender, -1)
            row_sub(u, t, offender, -1)

    for k in range(min(rows, cols)):
        if a[k][k] < 0:
            for r in a:
                r[k] = -r[k]
            for r in v:
                r[k] = -r[k]

    freeze = lambda m: tuple(tuple(r) for r in m)
    return freeze(u), freeze(a), freeze(v)


def reference_solve(smith, target, field: FieldSpec):
    """``SmithDecomposition.solve`` by dot products with the rows of explicit U and V.

    ``smith`` is a triple ``(u, d, v)`` with ``u @ M @ v == d``; returns x
    with ``M @ x == target`` over ``field``, or None.
    """
    u, d, v = smith
    p = field.characteristic
    b = [field.coerce(x) for x in target]
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    if not p:
        scale = lcm(*(x.denominator for x in b))
        b = [x.numerator * (scale // x.denominator) for x in b]
        top = next((a for a in reversed(diag) if a), 1)
    y = [0] * len(v)
    for i, row in enumerate(u):
        c = sum(a * x for a, x in zip(row, b))
        di = diag[i] if i < len(diag) else 0
        if p:
            c, di = c % p, di % p
        if di:
            y[i] = c * pow(di, -1, p) % p if p else c * (top // di)
        elif c:
            return None
    x = [sum(a * yi for a, yi in zip(row, y)) for row in v]
    if p:
        return [xi % p for xi in x]
    return [Fraction(xi, top * scale) for xi in x]


def gauss_jordan(rows, field: FieldSpec):
    """Reduced row echelon form over the prime subfield, and its pivot columns.

    Over GF(p) the entries are residues: the pivot is inverted with
    ``pow(x, -1, p)`` and every row operation is reduced by ``field.coerce``.
    """
    p = field.characteristic
    mat = [[field.coerce(x) for x in r] for r in rows]
    pivots: list[int] = []
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        rank = len(pivots)
        sel = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        inv = pow(mat[rank][col], -1, p) if p else 1 / mat[rank][col]
        mat[rank] = [field.coerce(x * inv) for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [field.coerce(a - f * b) for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
    return mat, pivots


def reference_rank(rows, field: FieldSpec) -> int:
    return len(gauss_jordan(rows, field)[1])


def reference_span(vectors, target, field: FieldSpec):
    """Coefficients c with ``sum_j c_j vectors[j] == target`` (free ones zero), or None."""
    n = len(vectors)
    aug = [[v[i] for v in vectors] + [t] for i, t in enumerate(target)]
    reduced, pivots = gauss_jordan(aug, field)
    if n in pivots:
        return None
    solution = [field.zero()] * n
    for r, c in enumerate(pivots):
        solution[c] = reduced[r][n]
    return solution


def mat_mul(a, b) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def int_det(mat) -> int:
    """Exact determinant of a square integer matrix by Fraction elimination."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        sel = next((r for r in range(col, n) if a[r][col]), None)
        if sel is None:
            return 0
        if sel != col:
            a[col], a[sel] = a[sel], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    assert det.denominator == 1
    return det.numerator


# -- reference number theory ----------------------------------------------------


def reference_is_prime(n: int) -> bool:
    """Trial division."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def reference_factorization(n: int) -> dict[int, int]:
    """Map each prime factor of ``n >= 1`` to its exponent, by trial division."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _p_height_sequence(residues: list[int], exponents: list[int], p: int) -> tuple[int, ...]:
    """Heights of the element, of p times it, of p^2 times it, ... while nonzero."""
    seq: list[int] = []
    cur = list(residues)
    while any(cur):
        heights = []
        for x in cur:
            if x:
                v = 0
                while x % p == 0:
                    x //= p
                    v += 1
                heights.append(v)
        seq.append(min(heights))
        cur = [x * p % p**e for x, e in zip(cur, exponents)]
    return tuple(seq)


def reference_orbit_equal(alphas: list[int], x: list[int], y: list[int]) -> bool:
    """Whether Aut(Z/alpha_1 + ... + Z/alpha_n) carries x to y, prime by prime.

    Factors the group order, then compares the height sequences of the
    p-components of x and y for each prime p.
    """
    for p in reference_factorization(prod(alphas)):
        exps, res_x, res_y = [], [], []
        for a, xi, yi in zip(alphas, x, y):
            e = 0
            while a % p == 0:
                a //= p
                e += 1
            if e:
                exps.append(e)
                res_x.append(xi % p**e)
                res_y.append(yi % p**e)
        if _p_height_sequence(res_x, exps, p) != _p_height_sequence(res_y, exps, p):
            return False
    return True


# the most coset shifts ``reference_pointed_iso`` tries before it gives up
REFERENCE_SHIFT_BOUND = 10**4


def reference_pointed_iso(pa, pb) -> str:
    """``"exists"``, ``"none"`` or ``"undecided"``: the pointed-isomorphism search.

    An automorphism moves the free coordinates of the unit class to any
    vector of the same content g and shifts the torsion part t by anything in
    gT, so this tries every shift of t_b by gT_q, for each part T_q with
    q | g of a coprime base, against the prime-by-prime orbit test.  Beyond
    ``REFERENCE_SHIFT_BOUND`` shifts summed over the parts that need a
    search, the answer is undecided.
    """
    ta = [(a, y) for a, y in zip(pa.invariant_factors, pa.unit_class) if a != 1]
    tb = [(a, y) for a, y in zip(pb.invariant_factors, pb.unit_class) if a != 1]
    alphas_a = [a for a, _ in ta if a > 0]
    alphas_b = [a for a, _ in tb if a > 0]
    free_a = [y for a, y in ta if a == 0]
    free_b = [y for a, y in tb if a == 0]
    if alphas_a != alphas_b or len(free_a) != len(free_b):
        return "none"
    alphas = alphas_a
    sa = [y for a, y in ta if a > 0]
    sb = [y for a, y in tb if a > 0]

    # the content of the free part, 0 when there is none
    g = gcd(*free_a)
    if g != gcd(*free_b):
        return "none"

    if sa == sb:
        return "exists"

    # the cyclic factors of each part T_q with q | g (every q when g = 0)
    parts = [
        [q ** _valuation(a, q) for a in alphas]
        for q in _coprime_base(alphas + [gcd(g, a) for a in alphas])
        if gcd(g, q) > 1
    ]
    # a part with a single shift is one orbit test, not a search
    counts = [prod(m // gcd(g, m) for m in mods) for mods in parts]
    if sum(n for n in counts if n > 1) > REFERENCE_SHIFT_BOUND:
        return "undecided"
    for mods in parts:
        shifts = product(*(range(0, m, gcd(g, m)) for m in mods))
        if not any(reference_orbit_equal(mods, sa, [y - w for y, w in zip(sb, s)]) for s in shifts):
            return "none"
    return "exists"


# -- reference graph text format -------------------------------------------------


def reference_parse(text: str) -> tuple[list[str], list[tuple[str, str, str]]]:
    """The per-edge parser: vertex labels and one ``(label, src, dst)`` per edge."""
    vertex_labels: list[str] = []
    declared: set[str] = set()
    edge_specs: list[tuple[str, str, str]] = []
    edge_labels: set[str] = set()
    counters: dict[tuple[str, str], int] = {}

    def column_of(line: str, token: str, occurrence: int = 0) -> int:
        pos = -1
        for _ in range(occurrence + 1):
            pos = line.find(token, pos + 1)
        return pos + 1 if pos >= 0 else 1

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        directive = tokens[0]
        if directive == "vertex":
            if len(tokens) != 2:
                raise GraphParseError("expected: vertex <label>", lineno)
            label = tokens[1]
            if label in declared:
                raise GraphParseError(
                    f"duplicate vertex label {label!r}", lineno, column_of(raw, label)
                )
            declared.add(label)
            vertex_labels.append(label)
        elif directive == "edge":
            if len(tokens) not in (3, 4):
                raise GraphParseError("expected: edge <src> <dst> [<multiplicity>]", lineno)
            src, dst = tokens[1], tokens[2]
            for name in (src, dst):
                if name not in declared:
                    raise GraphParseError(
                        f"undeclared vertex {name!r}", lineno, column_of(raw, name)
                    )
            mult = 1
            if len(tokens) == 4:
                try:
                    if not re.fullmatch(r"[+-]?[0-9]+", tokens[3]):
                        raise ValueError
                    mult = int(tokens[3])
                except ValueError:
                    raise GraphParseError(
                        f"multiplicity must be an integer, got {tokens[3]!r}",
                        lineno,
                        column_of(raw, tokens[3]),
                    ) from None
                if mult < 1:
                    raise GraphParseError(
                        f"multiplicity must be >= 1, got {mult}", lineno, column_of(raw, tokens[3])
                    )
            base = counters.get((src, dst), 0)
            for k in range(1, mult + 1):
                label = f"{src}_{dst}_{base + k}"
                if label in edge_labels:
                    raise GraphParseError(f"duplicate edge label {label!r}", lineno)
                edge_labels.add(label)
                edge_specs.append((label, src, dst))
            counters[(src, dst)] = base + mult
        elif directive == "edge-label":
            if len(tokens) != 4:
                raise GraphParseError("expected: edge-label <name> <src> <dst>", lineno)
            label, src, dst = tokens[1], tokens[2], tokens[3]
            for name in (src, dst):
                if name not in declared:
                    raise GraphParseError(
                        f"undeclared vertex {name!r}", lineno, column_of(raw, name)
                    )
            if label in edge_labels:
                raise GraphParseError(
                    f"duplicate edge label {label!r}", lineno, column_of(raw, label)
                )
            edge_labels.add(label)
            edge_specs.append((label, src, dst))
        else:
            raise GraphParseError(
                f"unknown directive {directive!r}", lineno, column_of(raw, directive)
            )

    if not vertex_labels:
        raise GraphParseError("no vertices declared")
    return vertex_labels, edge_specs


def all_edges(g: Graph) -> tuple[EdgeId, ...]:
    """Every edge of ``g``, named, in declaration order: ``g.runs`` expanded edge by edge."""
    edges: list[EdgeId] = []
    for run in g.runs:
        if len(run) == 3:
            named = [run]
        else:
            s, d, k, n = run
            prefix = f"{g.vertices[s].label}_{g.vertices[d].label}_"
            named = [(f"{prefix}{k + i}", s, d) for i in range(n)]
        for label, s, d in named:
            edges.append(EdgeId(len(edges), label, g.vertices[s], g.vertices[d]))
    return tuple(edges)


def expand_runs(runs: list[dict]) -> list[tuple[str, str, str]]:
    """``(label, source, target)`` of every edge the ``graph.runs`` of a JSON report stands for."""
    edges = []
    for run in runs:
        src, dst = run["source"], run["target"]
        if "label" in run:
            edges.append((run["label"], src, dst))
        else:
            first = run["first"]
            edges += [(f"{src}_{dst}_{k}", src, dst) for k in range(first, first + run["count"])]
    return edges


def reference_serialize(g: Graph) -> str:
    """The per-edge serialiser, over the named edges of ``g``.

    Consecutive parallel edges whose labels match the auto-naming scheme are
    collapsed into a single ``edge`` line with a multiplicity; any other edge
    is written as an explicit ``edge-label`` line.
    """
    lines = [f"vertex {v.label}" for v in g.vertices]
    counters: dict[tuple[str, str], int] = {}
    i = 0
    edges = all_edges(g)
    while i < len(edges):
        key = (edges[i].source.label, edges[i].target.label)
        j = i
        while j < len(edges) and (edges[j].source.label, edges[j].target.label) == key:
            j += 1
        run = edges[i:j]
        base = counters.get(key, 0)
        expected = [f"{key[0]}_{key[1]}_{base + k}" for k in range(1, len(run) + 1)]
        if [e.label for e in run] == expected:
            lines.append(f"edge {key[0]} {key[1]} {len(run)}")
            counters[key] = base + len(run)
        else:
            for e in run:
                lines.append(f"edge-label {e.label} {e.source.label} {e.target.label}")
        i = j
    return "\n".join(lines) + "\n"
