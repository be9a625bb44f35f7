"""Seeded random generators and reference algorithms shared by the test modules.

The package decides every span and rank question from one Smith normal form;
the Gauss-Jordan elimination and Fraction determinant here are an independent
reference for it.  The two-matrix elimination here
(``reference_two_matrix_smith``), which writes each operation once on the
matrix and once on its certificate, is the reference
for the certificates its Smith form replays from elimination logs, and the
solve by dot products with the rows of those certificates is the reference
for its solve by replay.  The package's elimination as it was before
each round found its next pivot while writing the remainders, which
rescans the pivot's column or row instead (``reference_smith_normal_form``),
is the reference for its diagonal and logs.  It reads cycle vertices and the
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
the product on ``PathWord`` edge tuples (``reference_mult_terms``, with its
own ``reference_strip_prefix``, sharing no composition code with the
package) is the reference for it, and the printer that sorts ``CohnTerm`` views
(``reference_str``) the reference for its printer on those keys, as is the
printer on keys with a cache per call (``reference_key_str``).  The
witness runs on integer numerators over one common denominator and keeps
one term per run of parallel edges; the per-edge bracket sum built with
``Fraction`` or residue arithmetic from the public ``CohnElement``
operations (``reference_witness``) is the reference for it, once its run
terms are expanded edge by edge (``expand_witness`` and, for the report's
text, ``expand_witness_text``).
A search over the cokernel (``reference_p_divisible``) is the reference for
its one-line p-divisibility test.  Three graph moves with known effects,
written here on adjacency matrices (``move_permute``, ``move_out_split`` and
``move_matrix_head``), are oracles for the verdicts: a permutation and an
out-split keep the algebra, and M_d E has the d x d matrices over it.  Three
more (``move_in_split``, ``move_cuntz_splice`` and ``move_add_source``) are
oracles for K0: each keeps its group, and only the splice flips the sign of
det(I - A^t).
For an acyclic graph whose one sink is w, L is the n x n matrices over K
with n the number of paths that end at w; that number, counted in one pass
in topological order (``paths_ending_at``), is an oracle for the Lie verdict.
The CLI hands a call that starts with a command straight to that command's
parser; parsing with the full parser, whose top-level pass hands the rest to
the command's parser (``reference_main``), is the reference for it.
"""

from __future__ import annotations

import os
import random
import re
import signal
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from itertools import chain, product
from math import gcd, lcm, prod

from lpa_lie import (
    CohnElement,
    CohnTerm,
    EdgeId,
    FieldSpec,
    Graph,
    GraphParseError,
    PathWord,
    PreconditionError,
    SmithDecomposition,
    VertexId,
    b_vectors,
    commutator,
    graph_from_adjacency,
    n_generator,
    parse_graph,
    simplicity_reports,
)
from lpa_lie.cli import _emit, build_parser
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


def reference_strip_prefix(w: PathWord, prefix: PathWord) -> PathWord | None:
    """The path h with ``w`` = ``prefix`` followed by h, or None, read off the ``edges`` tuples."""
    n = len(prefix.edges)
    if w.source != prefix.source or w.edges[:n] != prefix.edges:
        return None
    return PathWord(prefix.range, w.edges[n:])


def reference_mult_terms(a: CohnTerm, b: CohnTerm) -> CohnTerm | None:
    """Product of basis terms on ``PathWord`` edge tuples: ``(p q*)(t z*)`` collapses or dies.

    Nonzero only when one of q, t extends the other; the leftover path h is
    absorbed into p (if t = q.h) or into z (if q = t.h).
    """
    h = reference_strip_prefix(b.p, a.q)
    if h is not None:
        return CohnTerm(PathWord(a.p.source, a.p.edges + h.edges), b.q)
    h = reference_strip_prefix(a.q, b.p)
    if h is not None:
        return CohnTerm(a.p, PathWord(b.q.source, b.q.edges + h.edges))
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


def reference_key_str(x: CohnElement) -> str:
    """``str(x)`` from the integer term keys, each path rendered once per call.

    A path key is ``(source vertex index, edge index, ...)``; its labels come
    from ``all_edges``, its sort key is ``(edge count, labels)`` with a vertex
    path as ``(0, (vertex label,))``, and terms sort by total edge count, then
    by p's sort key, then by q's.
    """
    if x.is_zero():
        return "0"
    g, named = x.graph, all_edges(x.graph)

    @cache
    def path(key: tuple[int, ...]) -> tuple:
        labels = tuple([named[i].label for i in key[1:]])
        return (len(labels), labels or (g.vertices[key[0]].label,))

    rows = []
    for (p, q), c in x._terms.items():
        (m, a), (n, b) = wp, wq = path(p), path(q)
        text = " ".join([*a[:m], *[f"{y}^*" for y in reversed(b[:n])]]) or a[0]
        rows.append(((m + n, wp, wq), f"{c} * {text}"))
    rows.sort(key=lambda row: row[0])
    return " + ".join(text for _, text in rows)


def reference_witness(g: Graph, k, t, field: FieldSpec) -> tuple[CohnElement, CohnElement, bool]:
    """``(commutator_sum, correction, verified)`` of ``vertex_witness``, edge by edge.

    The hypotheses are checked first, with the package's messages: t must
    vanish at every sink and ``sum_i t_i B_i`` must be k, in field
    arithmetic.  Each bracket ``commutator(e, e*)`` is then scaled by -t_i
    and each generator ``n_generator(v_i)`` by t_i, in the field's own
    scalars; the check is ``W == sum_i k_i v_i + correction`` on whole
    elements.
    """
    k = [field.coerce(c) for c in k]
    t = [field.coerce(c) for c in t]
    for v, ti in zip(g.vertices, t):
        if ti and g.is_sink(v):
            raise PreconditionError(f"t must vanish at non-regular vertex {v.label!r}")
    b = b_vectors(g)
    combination = [field.coerce(sum(ti * row[j] for ti, row in zip(t, b))) for j in range(len(b))]
    if combination != k:
        raise PreconditionError("k is not the claimed combination of the B-vectors")
    w = correction = CohnElement.zero(g, field)
    for v, ti in zip(g.vertices, t):
        if not ti:
            continue
        for e in all_edges(g):
            if e.source == v:
                bracket = commutator(CohnElement.edge(g, field, e), CohnElement.ghost_edge(g, field, e))
                w = w + bracket.scale(-ti)
        correction = correction + n_generator(g, field, v).scale(ti)
    rhs = correction
    for v, ki in zip(g.vertices, k):
        rhs = rhs + CohnElement.vertex(g, field, v).scale(ki)
    return w, correction, w == rhs


def expand_witness(g: Graph, field: FieldSpec, terms: dict) -> CohnElement:
    """A sum of ``VertexWitness`` as an element: each run term ``(e, m)`` becomes
    the terms ``f f*`` of the m edges f from e on, named by ``all_edges``."""
    edges = all_edges(g)
    views = {}
    for x, c in terms.items():
        if isinstance(x, VertexId):
            views[CohnTerm(PathWord(x), PathWord(x))] = c
            continue
        e, m = x
        assert edges[e.index] == e and m >= 1
        for f in edges[e.index : e.index + m]:
            assert (f.source, f.target) == (e.source, e.target)
            views[CohnTerm(PathWord.from_edges([f]), PathWord.from_edges([f]))] = c
    return CohnElement(g, field, views)


def expand_brackets(g: Graph, brackets) -> list[tuple]:
    """``(coefficient, edge)`` for every edge of the runs in ``VertexWitness.brackets``."""
    edges = all_edges(g)
    return [(c, f) for c, e, m in brackets for f in edges[e.index : e.index + m]]


_RUN_TERM = re.compile(r"sum\[k=(\d+)\.\.(\d+)\] (\S+)_k (\S+)_k\^\*")


def expand_witness_text(text: str) -> str:
    """A witness sum of the report with every run term written edge by edge.

    ``c * sum[k=a..b] P_k P_k^*`` becomes ``c * P_a P_a^*`` up to
    ``c * P_b P_b^*``; then terms are sorted as ``reference_str`` sorts
    them: vertices by label, then the terms ``e e*`` by e's label.
    """
    if text == "0":
        return text
    rows = []
    for row in text.split(" + "):
        c, _, term = row.partition(" * ")
        run = _RUN_TERM.fullmatch(term)
        if run is None:
            labels = [term.split()[0]]
            edge = " " in term
        else:
            a, b, prefix, again = run.groups()
            assert prefix == again and int(a) < int(b)
            labels = [f"{prefix}_{k}" for k in range(int(a), int(b) + 1)]
            edge = True
        for label in labels:
            rows.append(((edge, label), f"{c} * {label} {label}^*" if edge else f"{c} * {label}"))
    rows.sort()
    return " + ".join(text for _, text in rows)


# -- reference linear algebra -------------------------------------------------


def _reference_paths(g: Graph) -> list[list[bool]]:
    """Whether (A + A^2 + ... + A^n)[v][w] is nonzero, by squaring boolean matrices.

    Row v is held as the set of w with a path of length 1..L from v to w; a
    path of length 1..2L is one of those or two of them in a row, so
    ``T <- T + T^2`` doubles L, and ceil(log2 n) rounds reach L >= n.
    """
    n = g.num_vertices
    total = [{j for j, c in enumerate(row) if c} for row in g.counts]
    length = 1
    while length < n:
        total = [row.union(*(total[k] for k in row)) for row in total]
        length *= 2
    return [[j in row for j in range(n)] for row in total]


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
        v.index: g.counts[v.index].index(1) for v in g.vertices if g.out_degree(v) == 1
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


def _reference_min_abs_position(a, rows, cols):
    """The first (i, j) in ``rows`` x ``cols``, row-major, of least nonzero |a[i][j]|."""
    best = None
    pos = None
    for i in rows:
        for j in cols:
            x = a[i][j]
            if x:
                x = -x if x < 0 else x
                if best is None or x < best:
                    best = x
                    pos = (i, j)
    return pos


def reference_two_matrix_smith(mat):
    """The Smith form ``(u, d, v)`` by the package's rules, rows first, on separate matrices.

    A stage's first pivot, and the one after a fold, is the least entry of
    the whole block; after row steps that leave remainders the next pivot is
    the least of column t, after column steps the least of row t.  Every
    swap, subtraction and sign flip is applied once to the working matrix
    and once more to the certificate it belongs to.
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
        block = (range(t, rows), range(t, cols))
        pos = _reference_min_abs_position(a, *block)
        if pos is None:
            break
        while True:
            pi, pj = pos
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
                # column steps wait until column t is clear
                pos = _reference_min_abs_position(a, range(t, rows), [t])
                continue
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = (2 * a[t][j] + pivot) // (2 * pivot)
                    if q:
                        col_sub(a, j, t, q)
                        col_sub(v, j, t, q)
                    if a[t][j]:
                        dirty = True
            if dirty:
                pos = _reference_min_abs_position(a, [t], range(t, cols))
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
            pos = _reference_min_abs_position(a, *block)

    for k in range(min(rows, cols)):
        if a[k][k] < 0:
            for r in a:
                r[k] = -r[k]
            for r in v:
                r[k] = -r[k]

    freeze = lambda m: tuple(tuple(r) for r in m)
    return freeze(u), freeze(a), freeze(v)


def _reference_first_least_abs(xs) -> int | None:
    """The index of the first entry of least nonzero absolute value in ``xs``."""
    best = pos = None
    for k, x in enumerate(xs):
        if x:
            x = -x if x < 0 else x
            if best is None or x < best:
                if x == 1:
                    return k  # nothing later can beat it
                best, pos = x, k
    return pos


def reference_smith_normal_form(mat) -> SmithDecomposition:
    """The logged Smith form as the package computed it before its rounds kept their pivot.

    The elimination is the package's verbatim, but after a round's row
    steps it scans column t once more for the first least remainder, and
    after the column steps row t, where the package finds that pivot in the
    pass that writes the remainders.  Both return the same diagonal and the
    same two logs.
    """
    rows = len(mat)
    if rows == 0 or len(mat[0]) == 0:
        raise ValueError("smith_normal_form expects a non-empty matrix")
    cols = len(mat[0])
    w: list[list[int]] = []
    for r in mat:
        if len(r) != cols:
            raise ValueError("matrix rows must all have the same length")
        exact = set(map(type, r)) <= {int}  # a row of plain ints skips the entry rule
        if not exact and not all(isinstance(x, int) and not isinstance(x, bool) for x in r):
            raise ValueError("matrix entries must be integers")
        w.append(list(r))
    row_log: list[tuple[int, int, int | None]] = []
    col_log: list[tuple[int, int, int | None]] = []
    pivots: list[int] = []

    # w is the block of M from row and column t on; its entry (i, j) is M's (t + i, t + j)
    t = 0
    while (k := _reference_first_least_abs(chain.from_iterable(w))) is not None:
        pi, pj = divmod(k, len(w[0]))
        while True:  # the Euclid rounds of stage t
            if pi:
                w[0], w[pi] = w[pi], w[0]
                row_log.append((t, t + pi, None))
            if pj:
                for r in w:
                    r[0], r[pj] = r[pj], r[0]
                col_log.append((t, t + pj, None))
            w0 = w[0]
            pivot = w0[0]
            dirty = False
            for i in range(1, len(w)):
                wi = w[i]
                if wi[0]:
                    q = (2 * wi[0] + pivot) // (2 * pivot)
                    if q:
                        w[i] = wi = [x - q * y for x, y in zip(wi, w0)]
                        row_log.append((t + i, t, q))
                    if wi[0]:
                        dirty = True
            if dirty:
                # the remainders sit in column t; the least of them is the next pivot
                pi, pj = _reference_first_least_abs([r[0] for r in w]), 0
                continue
            # column t is clear below the pivot, so a column step changes row t alone
            for j in range(1, len(w0)):
                if w0[j]:
                    q = (2 * w0[j] + pivot) // (2 * pivot)
                    if q:
                        w0[j] -= q * pivot
                        col_log.append((t + j, t, q))
                    if w0[j]:
                        dirty = True
            if not dirty:
                break
            pi, pj = 0, _reference_first_least_abs(w0)
        # a unit pivot divides every entry, so only a larger one needs the scan
        offender = None if pivot in (1, -1) else next(
            (i for i in range(1, len(w)) if any(x % pivot for x in w[i])), None
        )
        if offender is None:
            pivots.append(pivot)
            del w[0]
            for r in w:
                del r[0]
            t += 1
        else:
            # fold the offending row into row t; the block is scanned afresh
            w[0] = [x + y for x, y in zip(w0, w[offender])]
            row_log.append((t, t + offender, -1))

    for k, a in enumerate(pivots):
        if a < 0:
            col_log.append((k, k, 2))
    diagonal = tuple(abs(a) for a in pivots) + (0,) * (min(rows, cols) - len(pivots))
    return SmithDecomposition((rows, cols), diagonal, tuple(row_log), tuple(col_log))


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


def reference_p_divisible(factors, unit_class, p: int) -> bool:
    """Whether p x = unit class has a solution x in the cokernel, by search.

    The cokernel is the direct sum of Z/a over the factors, Z where a = 0.
    A torsion coordinate of x is tried at each residue mod a; a free one
    needs p x = y exactly, so |x| <= |y|, and each x in that range is tried.
    """
    coordinates = list(zip(factors, unit_class))
    ranges = [range(a) if a else range(-abs(y), abs(y) + 1) for a, y in coordinates]
    return any(
        all((p * x - y) % a == 0 if a else p * x == y for x, (a, y) in zip(xs, coordinates))
        for xs in product(*ranges)
    )


def paths_ending_at(adj: list[list[int]], w: int) -> int:
    """The number of paths of the acyclic graph ``adj`` that end at vertex ``w``, the trivial one included.

    Kahn's order takes each vertex after every vertex with an edge into it,
    so the count of paths ending at each vertex, 1 plus the sum over its
    in-edges of the count at their source, is final when its turn comes.
    """
    n = len(adj)
    into = [sum(1 for u in range(n) if adj[u][v]) for v in range(n)]
    order = [v for v in range(n) if not into[v]]
    ending = [1] * n
    for u in order:  # order grows as vertices lose their last in-edge
        for v, m in enumerate(adj[u]):
            if m:
                ending[v] += m * ending[u]
                into[v] -= 1
                if not into[v]:
                    order.append(v)
    assert len(order) == n, "the graph has a cycle"
    return ending[w]


# -- graph moves on adjacency matrices -------------------------------------------


def move_permute(adj: list[list[int]], perm: list[int]) -> list[list[int]]:
    """Relabel the vertices: vertex i of ``adj`` becomes vertex ``perm[i]``."""
    n = len(adj)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = adj[i][j]
    return out


def move_out_split(rng: random.Random, adj: list[list[int]], v: int) -> list[list[int]]:
    """The out-split of ``adj`` at ``v`` (Abrams-Louly-Pardo-Smith 2011, section 1).

    The out-edges of v, at least two, fall into two nonempty sets at a random
    cut: v keeps the first and a new last vertex v' emits the second.  Every
    edge into v, from any vertex old or new, gains a parallel copy into v'.
    """
    n = len(adj)
    targets = [w for w in range(n) for _ in range(adj[v][w])]
    assert len(targets) >= 2, "an out-split needs two out-edges"
    rng.shuffle(targets)
    cut = rng.randint(1, len(targets) - 1)
    kept = [targets[:cut].count(w) for w in range(n)]
    moved = [c - k for c, k in zip(adj[v], kept)]
    rows = [row[:] for row in adj]
    rows[v] = kept
    rows.append(moved)
    return [row + [row[v]] for row in rows]


def move_matrix_head(adj: list[list[int]], d: int) -> list[list[int]]:
    """M_d E: every vertex gets d - 1 new sources, each with one edge into it.

    Its path algebra is the d x d matrices over that of E (Abrams-Tomforde,
    Trans. AMS 2011).  The sources of vertex v come after the old vertices,
    in the order of v.
    """
    n = len(adj)
    size = n * d
    out = [row + [0] * (size - n) for row in adj]
    for v in range(n):
        for _ in range(d - 1):
            source = [0] * size
            source[v] = 1
            out.append(source)
    return out


def _transpose(adj: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*adj)]


def move_in_split(rng: random.Random, adj: list[list[int]], v: int) -> list[list[int]]:
    """The in-split of ``adj`` at ``v`` (Abrams-Louly-Pardo-Smith 2011, section 1).

    The edges into v, at least two, fall into two nonempty sets at a random
    cut: v keeps the first and a new last vertex v' receives the second, and
    v' emits a copy of every edge that v emits.  That is the out-split of the
    transposed matrix, transposed back.
    """
    return _transpose(move_out_split(rng, _transpose(adj), v))


def move_cuntz_splice(adj: list[list[int]], v: int) -> list[list[int]]:
    """The Cuntz splice at ``v`` (Cuntz 1986): two new last vertices u1 and u2.

    Each carries one loop, and one edge runs each way between u1 and u2 and
    between v and u1.
    """
    n = len(adj)
    out = [row + [0, 0] for row in adj] + [[0] * (n + 2), [0] * (n + 2)]
    for a, b in ((n, n), (n + 1, n + 1), (n, n + 1), (n + 1, n), (v, n), (n, v)):
        out[a][b] += 1
    return out


def move_add_source(adj: list[list[int]], row: list[int]) -> list[list[int]]:
    """A new last vertex with ``row[j]`` edges into vertex j and no edge into it."""
    return [r + [0] for r in adj] + [list(row) + [0]]


# -- reference graph text format -------------------------------------------------


def _reference_token_column(line: str, i: int) -> int:
    """The 1-based column where the i-th whitespace-separated token of ``line`` starts."""
    seen = 0
    for j, ch in enumerate(line):
        if not ch.isspace() and (j == 0 or line[j - 1].isspace()):
            if seen == i:
                return j + 1
            seen += 1
    raise ValueError(f"line has no token {i}")


def reference_parse(text: str) -> tuple[list[str], list[tuple[str, str, str]]]:
    """The per-edge parser: vertex labels and one ``(label, src, dst)`` per edge."""
    vertex_labels: list[str] = []
    declared: set[str] = set()
    edge_specs: list[tuple[str, str, str]] = []
    edge_labels: set[str] = set()
    counters: dict[tuple[str, str], int] = {}

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
                    f"duplicate vertex label {label!r}", lineno, _reference_token_column(raw, 1)
                )
            declared.add(label)
            vertex_labels.append(label)
        elif directive == "edge":
            if len(tokens) not in (3, 4):
                raise GraphParseError("expected: edge <src> <dst> [<multiplicity>]", lineno)
            src, dst = tokens[1], tokens[2]
            for i, name in ((1, src), (2, dst)):
                if name not in declared:
                    raise GraphParseError(
                        f"undeclared vertex {name!r}", lineno, _reference_token_column(raw, i)
                    )
            mult = 1
            if len(tokens) == 4:
                if not re.fullmatch(r"[+-]?[0-9]+", tokens[3]):
                    raise GraphParseError(
                        f"multiplicity must be an integer, got {tokens[3]!r}",
                        lineno,
                        _reference_token_column(raw, 3),
                    )
                if len(tokens[3].lstrip("+-")) > 4300:
                    raise GraphParseError(
                        f"multiplicity {tokens[3][:20] + '...'!r} has more than 4300 digits",
                        lineno,
                        _reference_token_column(raw, 3),
                    )
                mult = int(tokens[3])
                if mult < 1:
                    raise GraphParseError(
                        f"multiplicity must be >= 1, got {mult}",
                        lineno,
                        _reference_token_column(raw, 3),
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
            for i, name in ((2, src), (3, dst)):
                if name not in declared:
                    raise GraphParseError(
                        f"undeclared vertex {name!r}", lineno, _reference_token_column(raw, i)
                    )
            if label in edge_labels:
                raise GraphParseError(
                    f"duplicate edge label {label!r}", lineno, _reference_token_column(raw, 1)
                )
            edge_labels.add(label)
            edge_specs.append((label, src, dst))
        else:
            raise GraphParseError(
                f"unknown directive {directive!r}", lineno, _reference_token_column(raw, 0)
            )

    if not vertex_labels:
        raise GraphParseError("no vertices declared")
    return vertex_labels, edge_specs


def all_edges(g: Graph) -> tuple[EdgeId, ...]:
    """Every edge of ``g``, named, in declaration order: ``g.runs`` expanded edge by edge."""
    edges: list[EdgeId] = []
    for s, d, first, n in g.runs:
        src, dst = g.vertices[s], g.vertices[d]
        if isinstance(first, str):
            labels = [first]
        else:
            labels = [f"{src.label}_{dst.label}_{first + i}" for i in range(n)]
        for label in labels:
            edges.append(EdgeId(len(edges), label, src, dst))
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

    A maximal stretch of one vertex pair's consecutive edges labelled
    ``<src>_<dst>_<base + 1>``, ``<base + 2>``, ..., where base counts the
    pair's edges already written on ``edge`` lines, is one ``edge`` line with
    a multiplicity; any other edge is one ``edge-label`` line.
    """
    lines = [f"vertex {v.label}" for v in g.vertices]
    counters: dict[tuple[str, str], int] = {}
    edges = all_edges(g)
    i = 0
    while i < len(edges):
        key = (edges[i].source.label, edges[i].target.label)
        base = counters.get(key, 0)
        j = i
        while (
            j < len(edges)
            and (edges[j].source.label, edges[j].target.label) == key
            and edges[j].label == f"{key[0]}_{key[1]}_{base + j - i + 1}"
        ):
            j += 1
        if j > i:
            lines.append(f"edge {key[0]} {key[1]} {j - i}")
            counters[key] = base + j - i
        else:
            lines.append(f"edge-label {edges[i].label} {key[0]} {key[1]}")
            j = i + 1
        i = j
    return "\n".join(lines) + "\n"


def reference_main(argv=None) -> int:
    """``cli.main`` reading ``argv`` with the full parser, built per call, whose top-level pass hands the rest to the command's parser."""
    args = build_parser().parse_args(argv)
    try:
        try:
            code = args.handler(args)
        except ValueError as exc:
            if args.json:
                _emit(args, {"error": str(exc)}, None)
            print(f"error: {exc}", file=sys.stderr)
            code = 1
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
