"""Exact symbolic arithmetic in the Cohn path algebra of a graph.

Elements are finite linear combinations of basis terms ``p q*`` where p and q
are paths with a common range vertex.  Inside an element a path is the
integer key ``(start vertex index, edge index, ...)`` and a term the pair of
keys ``(p, q)``, and elements print straight from those keys; ``PathWord``
and ``CohnTerm`` are views of them, built only to take terms from callers (a
view of another graph is refused) and hand terms back.  Multiplication only
ever uses the path-composition and ghost-cancellation relations, under which
the stated terms really are a basis, so equality of elements is just
equality of coefficient maps.  The quotient relation at a regular vertex v
is represented explicitly by the generator ``y_v = v - sum of e e*`` over
the edges leaving v; identities in the path algebra itself are certified by
exhibiting the exact combination of such generators that accounts for the
difference.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import attrgetter

from .graph import EdgeId, Graph, VertexId, b_vectors
from .linalg import FieldSpec

__all__ = [
    "PreconditionError",
    "PathWord",
    "CohnTerm",
    "CohnElement",
    "commutator",
    "trace_vector",
    "n_generator",
    "WITNESS_EDGE_LIMIT",
    "VertexWitness",
    "vertex_witness",
]


class PreconditionError(ValueError):
    """An operation was called outside its stated hypotheses."""


@dataclass(frozen=True)
class PathWord:
    """A path: a start vertex followed by zero or more composable edges."""

    start: VertexId
    edges: tuple[EdgeId, ...] = ()

    def __post_init__(self):
        prev = self.start
        for e in self.edges:
            if e.source != prev:
                raise ValueError(
                    f"edges do not compose: {e.label!r} starts at {e.source.label!r}, "
                    f"expected {prev.label!r}"
                )
            prev = e.target

    @classmethod
    def vertex_word(cls, v: VertexId) -> "PathWord":
        return cls(v, ())

    @classmethod
    def from_edges(cls, edges) -> "PathWord":
        edges = tuple(edges)
        if not edges:
            raise ValueError("from_edges needs at least one edge; use vertex_word")
        return cls(edges[0].source, edges)

    @property
    def source(self) -> VertexId:
        return self.start

    @property
    def range(self) -> VertexId:
        return self.edges[-1].target if self.edges else self.start

    @property
    def length(self) -> int:
        return len(self.edges)

    def concat(self, other: "PathWord") -> "PathWord":
        if self.range != other.source:
            raise ValueError("paths do not compose")
        return PathWord(self.start, self.edges + other.edges)

    def strip_prefix(self, prefix: "PathWord") -> "PathWord | None":
        """The path h with ``self == prefix . h``, or None."""
        if prefix.length == 0:
            return self if self.source == prefix.start else None
        if prefix.length > self.length or self.edges[: prefix.length] != prefix.edges:
            return None
        rest = self.edges[prefix.length:]
        return PathWord(prefix.range, rest)


@dataclass(frozen=True)
class CohnTerm:
    """A basis term ``p q*``; p and q must share their range vertex."""

    p: PathWord
    q: PathWord

    def __post_init__(self):
        if self.p.range != self.q.range:
            raise ValueError(
                f"ranges differ: {self.p.range.label!r} vs {self.q.range.label!r}"
            )


def _own_vertex(g: Graph, v: VertexId) -> int:
    """The index of ``v``; a vertex of another graph raises ``ValueError``."""
    if 0 <= v.index < g.num_vertices and g.vertices[v.index] == v:
        return v.index
    raise ValueError(f"vertex {v.label!r} is not a vertex of this graph")


def _term_key(g: Graph, t: CohnTerm) -> tuple:
    """The key pair of ``t``; a vertex or edge of another graph raises ``ValueError``."""
    for w in (t.p, t.q):
        _own_vertex(g, w.start)
        for e in w.edges:
            # e composes with the checked path, so its source is g's own; out_edges go by index
            out = g.out_edges(e.source)
            i = bisect_left(out, e.index, key=attrgetter("index"))
            if out[i : i + 1] != (e,):
                raise ValueError(f"edge {e.label!r} is not an edge of this graph")
    return tuple((w.start.index, *(e.index for e in w.edges)) for w in (t.p, t.q))


def _edge_namer(g: Graph):
    """A function naming an edge index by the ``out_edges`` of its source."""
    named: dict[int, EdgeId] = {}

    def edge(i: int) -> EdgeId:
        e = named.get(i)
        if e is None:
            source = g.vertices[g.edge_ends(i)[0]]
            named.update((e.index, e) for e in g.out_edges(source))
            e = named[i]
        return e

    return edge


def _mult_terms(a: tuple, b: tuple) -> tuple | None:
    """Product of basis terms: ``(p q*)(t z*)`` collapses or dies.

    Nonzero only when one of q, t extends the other; the leftover path h is
    absorbed into p (if t = q.h) or into z (if q = t.h).  A key starts with
    its start vertex, so ``t[:len(q)] == q`` says that t extends q, also
    when q is a vertex.
    """
    p, q = a
    t, z = b
    n = len(q)
    if t[:n] == q:
        return (p + t[n:], z)
    n = len(t)
    if q[:n] == t:
        return (p, z + q[n:])
    return None


def _add_into(out: dict, items, p: int) -> None:
    """Add the ``(term, coefficient)`` pairs into ``out`` in place, reducing mod p when p > 0."""
    for t, c in items:
        acc = out.get(t)
        total = c if acc is None else acc + c
        if p:
            total %= p
        if total:
            out[t] = total
        elif acc is not None:
            del out[t]


class CohnElement:
    """A formal linear combination of basis terms over a prime subfield.

    ``terms`` maps each ``CohnTerm`` to its coefficient, a scalar of the
    field; the element itself keeps that map on integer term keys.  The
    bracket ``[e, e*] = e e* - r(e)`` of a loop on the rose with two petals:

    >>> from lpa_lie import family
    >>> g = family("rose", [2])
    >>> e = g.out_edges(g.vertices[0])[0]
    >>> F = FieldSpec(0)
    >>> print(commutator(CohnElement.edge(g, F, e), CohnElement.ghost_edge(g, F, e)))
    -1 * v1 + 1 * v1_v1_1 v1_v1_1^*
    """

    __slots__ = ("graph", "field", "_terms")

    def __init__(self, graph: Graph, field: FieldSpec, terms: dict | None = None):
        self.graph = graph
        self.field = field
        coerced = ((_term_key(graph, t), field.coerce(c)) for t, c in dict(terms or {}).items())
        self._terms = {t: c for t, c in coerced if c}

    @classmethod
    def _of(cls, graph: Graph, field: FieldSpec, keyed: dict) -> "CohnElement":
        """The element with coefficient map ``keyed`` on term keys, taken as is."""
        x = cls.__new__(cls)
        x.graph, x.field, x._terms = graph, field, keyed
        return x

    @property
    def terms(self) -> dict:
        g, edge = self.graph, _edge_namer(self.graph)
        path = cache(lambda key: PathWord(g.vertices[key[0]], tuple(map(edge, key[1:]))))
        return {CohnTerm(path(p), path(q)): c for (p, q), c in self._terms.items()}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, graph: Graph, field: FieldSpec) -> "CohnElement":
        return cls(graph, field)

    @classmethod
    def term(cls, graph: Graph, field: FieldSpec, p: PathWord, q: PathWord, coeff=1) -> "CohnElement":
        return cls(graph, field, {CohnTerm(p, q): coeff})

    @classmethod
    def vertex(cls, graph: Graph, field: FieldSpec, v: VertexId) -> "CohnElement":
        w = PathWord.vertex_word(v)
        return cls.term(graph, field, w, w)

    @classmethod
    def path(cls, graph: Graph, field: FieldSpec, p: PathWord) -> "CohnElement":
        return cls.term(graph, field, p, PathWord.vertex_word(p.range))

    @classmethod
    def ghost(cls, graph: Graph, field: FieldSpec, q: PathWord) -> "CohnElement":
        return cls.term(graph, field, PathWord.vertex_word(q.range), q)

    @classmethod
    def edge(cls, graph: Graph, field: FieldSpec, e: EdgeId) -> "CohnElement":
        return cls.path(graph, field, PathWord.from_edges([e]))

    @classmethod
    def ghost_edge(cls, graph: Graph, field: FieldSpec, e: EdgeId) -> "CohnElement":
        return cls.ghost(graph, field, PathWord.from_edges([e]))

    # -- ring operations ----------------------------------------------------

    def _check_compatible(self, other: "CohnElement"):
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field.name} vs {other.field.name}")
        if self.graph is not other.graph and self.graph != other.graph:
            raise ValueError("elements live over different graphs")

    def __add__(self, other):
        if not isinstance(other, CohnElement):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self._terms)
        _add_into(out, other._terms.items(), self.field.characteristic)
        return CohnElement._of(self.graph, self.field, out)

    def __neg__(self):
        p = self.field.characteristic
        if p:
            terms = {t: -c % p for t, c in self._terms.items()}
        else:
            terms = {t: -c for t, c in self._terms.items()}
        return CohnElement._of(self.graph, self.field, terms)

    def __sub__(self, other):
        if not isinstance(other, CohnElement):
            return NotImplemented
        return self + (-other)

    def scale(self, coeff) -> "CohnElement":
        c = self.field.coerce(coeff)
        if not c:
            return CohnElement.zero(self.graph, self.field)
        p = self.field.characteristic
        if p:
            # a product of nonzero residues mod a prime is nonzero
            terms = {t: c * v % p for t, v in self._terms.items()}
        else:
            terms = {t: c * v for t, v in self._terms.items()}
        return CohnElement._of(self.graph, self.field, terms)

    def __rmul__(self, coeff):
        if isinstance(coeff, (int, Fraction)):
            return self.scale(coeff)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, CohnElement):
            return NotImplemented
        self._check_compatible(other)
        out: dict = {}
        products = (
            (t, c1 * c2)
            for t1, c1 in self._terms.items()
            for t2, c2 in other._terms.items()
            if (t := _mult_terms(t1, t2)) is not None
        )
        _add_into(out, products, self.field.characteristic)
        return CohnElement._of(self.graph, self.field, out)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, CohnElement):
            return NotImplemented
        # term keys are indices, so equal keys name the same terms only within one graph
        same_graph = self.graph is other.graph or self.graph == other.graph
        return self.field == other.field and same_graph and self._terms == other._terms

    def __hash__(self):
        return hash((self.field, frozenset(self._terms.items())))

    def __str__(self) -> str:
        """Each term ``p q*``: p's edge labels, then q's reversed and starred,
        or the vertex when p and q are vertices.  Terms are ordered by total
        edge count, then by p's ``(edge count, labels)``, then by q's; a
        vertex path counts as ``(0, (vertex label,))``.
        """
        if not self._terms:
            return "0"
        g, edge = self.graph, _edge_namer(self.graph)

        @cache
        def path(key: tuple[int, ...]) -> tuple:
            labels = tuple([edge(i).label for i in key[1:]])
            return (len(labels), labels or (g.vertices[key[0]].label,))

        rows = []
        for (p, q), c in self._terms.items():
            (m, a), (n, b) = wp, wq = path(p), path(q)
            text = " ".join([*a[:m], *[f"{x}^*" for x in reversed(b[:n])]]) or a[0]
            rows.append(((m + n, wp, wq), f"{c} * {text}"))
        rows.sort(key=lambda row: row[0])
        return " + ".join(text for _, text in rows)

    __repr__ = __str__


def commutator(x: CohnElement, y: CohnElement) -> CohnElement:
    """The bracket ``x y - y x``."""
    return x * y - y * x


def trace_vector(x: CohnElement) -> list:
    """Coefficient vector of the diagonal trace map.

    A basis term ``p q*`` contributes its coefficient at the index of the
    common range vertex when p equals q, and nothing otherwise.  The trace of
    any product is symmetric in its factors, so commutators trace to zero.
    """
    out = [x.field.zero()] * x.graph.num_vertices
    for (p, q), c in x._terms.items():
        if p == q:
            # the range of p: its last edge's target, O(log runs)
            i = x.graph.edge_ends(p[-1])[1] if len(p) > 1 else p[0]
            out[i] = out[i] + c
    p = x.field.characteristic
    return [c % p for c in out] if p else out


def n_generator(g: Graph, field: FieldSpec, v: VertexId) -> CohnElement:
    """The quotient-ideal generator ``v - sum of e e*`` at a regular vertex."""
    u = (_own_vertex(g, v),)
    if g.is_sink(v):
        raise PreconditionError(f"vertex {v.label!r} is a sink; no generator there")
    terms = {(u, u): field.coerce(1)}
    minus_one = field.coerce(-1)
    # the terms e e* of distinct edges are distinct basis terms
    for e in g.out_edges(v):
        w = (v.index, e.index)
        terms[(w, w)] = minus_one
    return CohnElement._of(g, field, terms)


# The witness names and brackets every edge leaving the support of t; its
# cost and its report, which prints every bracket, grow linearly with that
# count, and the limit bounds both.
WITNESS_EDGE_LIMIT = 10_000


@dataclass(frozen=True)
class VertexWitness:
    """The bracket sum for a vertex combination and its exact check.

    ``commutator_sum`` is the sum of ``coefficient * [e, e*]`` over the pairs
    in ``brackets``, ``correction`` is ``sum_i t_i y_i``, and ``verified``
    says whether ``commutator_sum == sum_i k_i v_i + correction`` holds
    term by term.
    """

    brackets: tuple[tuple[object, EdgeId], ...]
    commutator_sum: CohnElement
    correction: CohnElement
    verified: bool


def vertex_witness(g: Graph, k_coeffs, t_coeffs, field: FieldSpec) -> VertexWitness:
    """Build and certify symbolically that a vertex combination is a sum of brackets.

    Given k with ``k = sum_i t_i B_i`` (t vanishing at non-regular vertices),
    the element ``W = -sum_i t_i sum_{s(e)=v_i} [e, e*]`` must equal
    ``sum_i k_i v_i + sum_i t_i y_i`` exactly, where the y_i absorb the
    difference between the Cohn algebra and its quotient.  The result holds
    W, the correction and that exact basis-level comparison; hypothesis
    violations raise ``PreconditionError`` instead, and more than
    ``WITNESS_EDGE_LIMIT`` edges leaving the support of t a ``ValueError``.
    """
    m = g.num_vertices
    k = [field.coerce(c) for c in k_coeffs]
    t = [field.coerce(c) for c in t_coeffs]
    if len(k) != m or len(t) != m:
        raise PreconditionError(f"coefficient vectors must have length {m}")
    for i, v in enumerate(g.vertices):
        if not g.is_regular(v) and t[i]:
            raise PreconditionError(
                f"t must vanish at non-regular vertex {v.label!r}"
            )
    edges = sum(g.out_degree(v) for i, v in enumerate(g.vertices) if t[i])
    if edges > WITNESS_EDGE_LIMIT:
        raise ValueError(
            f"the witness would bracket {edges} edges, more than the limit of {WITNESS_EDGE_LIMIT}"
        )
    bvecs = b_vectors(g)
    for j in range(m):
        total = sum(t[i] * bvecs[i][j] for i in range(m) if t[i])
        if field.coerce(total) != k[j]:
            raise PreconditionError("k is not the claimed combination of the B-vectors")

    # each bracket [e, e*] = e e* - e* e is multiplied out by the product
    # rule on term keys and added into one running sum as it is built
    p = field.characteristic
    brackets = []
    w: dict = {}
    correction: dict = {}
    for i, v in enumerate(g.vertices):
        if not t[i]:
            continue
        neg = field.coerce(-t[i])
        for e in g.out_edges(v):
            brackets.append((neg, e))
            path, r = (i, e.index), (e.target.index,)
            x, y = (path, r), (r, path)
            products = ((_mult_terms(x, y), neg), (_mult_terms(y, x), -neg))
            _add_into(w, ((term, c) for term, c in products if term is not None), p)
        _add_into(correction, n_generator(g, field, v).scale(t[i])._terms.items(), p)

    rhs = dict(correction)
    _add_into(rhs, ((((i,), (i,)), c) for i, c in enumerate(k) if c), p)
    return VertexWitness(
        tuple(brackets),
        CohnElement._of(g, field, w),
        CohnElement._of(g, field, correction),
        w == rhs,
    )
