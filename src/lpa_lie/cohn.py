"""Symbolic bracket witnesses in the Cohn path algebra of a graph.

The Cohn path algebra has the basis terms ``p q*``, where p and q are paths
with a common range vertex; multiplying them uses only path composition and
ghost cancellation.  Here a path is the integer key ``(source vertex index,
edge index, ...)`` and a term the pair of keys ``(p, q)``.  The quotient
relation at a regular vertex v is the generator ``y_v = v - sum of e e*``
over the edges leaving v.  ``vertex_witness`` certifies that a vertex
combination is a sum of brackets by exhibiting the exact combination of such
generators that accounts for the difference, on integer numerators over one
common denominator.  It keeps vertex terms and one term per run of parallel
edges, so its size does not depend on the edge count.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .graph import EdgeId, Graph, VertexId, b_vectors
from .linalg import FieldSpec, _frozen

__all__ = ["PreconditionError", "VertexWitness", "vertex_witness"]


class PreconditionError(ValueError):
    """An operation was called outside its stated hypotheses."""


def _mult_terms(a: tuple, b: tuple) -> tuple | None:
    """Product of basis terms: ``(p q*)(t z*)`` collapses or dies.

    Nonzero only when one of q, t extends the other; the leftover path h is
    absorbed into p (if t = q.h) or into z (if q = t.h).  A key starts with
    its source vertex, so ``t[:len(q)] == q`` says that t extends q, also
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


@_frozen
class VertexWitness:
    """The bracket sum for a vertex combination and its exact check, one term per edge run.

    ``brackets`` holds ``(coefficient, e, m)`` for each run of m parallel
    edges leaving the support of t, e its first edge: the brackets
    ``coefficient * [f, f*]`` of the run's edges f.  ``commutator_sum`` (W,
    the sum of those brackets) and ``correction`` (``sum_i t_i y_i``) are
    dicts from a term to its nonzero coefficient.  A term is a ``VertexId``
    v, or a run term ``(e, m)``: the sum of ``f f*`` over the m edges f of
    the run that starts at e.  Distinct terms are sums of disjoint sets of
    basis terms, so ``verified``, whether ``W == sum_i k_i v_i + correction``
    holds term by term, is the identity in the Cohn algebra itself.
    """

    brackets: tuple[tuple[object, EdgeId, int], ...]
    commutator_sum: dict[VertexId | tuple[EdgeId, int], object]
    correction: dict[VertexId | tuple[EdgeId, int], object]
    verified: bool


def vertex_witness(g: Graph, k_coeffs, t_coeffs, field: FieldSpec) -> VertexWitness:
    """Build and certify symbolically that a vertex combination is a sum of brackets.

    Given k with ``k = sum_i t_i B_i`` (t vanishing at non-regular vertices),
    the element ``W = -sum_i t_i sum_{s(e)=v_i} [e, e*]`` must equal
    ``sum_i k_i v_i + sum_i t_i y_i`` exactly, where the y_i absorb the
    difference between the Cohn algebra and its quotient.  The edges of one
    run share their source, their range and their coefficient -t_i, so
    their brackets sum to ``-t_i (sum of e e*) + t_i m r(e)``, and W, the
    correction and the comparison are kept on vertex terms and one run term
    per run: the work and the result take O(runs + vertices), whatever the
    edge count.  Hypothesis violations raise ``PreconditionError``.  Sums
    run on integer numerators over D, the lcm of the denominators of k and
    t (1 over GF(p)), and scaling by D keeps the comparison's answer; then
    one dict, keyed by the distinct numerators of the brackets, W and the
    correction, makes one field scalar for each of them.
    """
    m = g.num_vertices
    k = [field.coerce(c) for c in k_coeffs]
    t = [field.coerce(c) for c in t_coeffs]
    if len(k) != m or len(t) != m:
        raise PreconditionError(f"coefficient vectors must have length {m}")
    for i, v in enumerate(g.vertices):
        if not g.is_regular(v) and t[i]:
            raise PreconditionError(f"t must vanish at non-regular vertex {v.label!r}")
    p = field.characteristic
    d = lcm(*(c.denominator for c in k + t))
    kn, tn = ([c.numerator * (d // c.denominator) for c in xs] for xs in (k, t))
    total = [0] * m
    for ti, b in zip(tn, b_vectors(g)):
        if ti:
            total = [x + ti * y for x, y in zip(total, b)]
    if [x % p if p else x for x in total] != kn:
        raise PreconditionError("k is not the claimed combination of the B-vectors")

    # a run term is keyed by its first edge's term e e*; the product rule
    # multiplies out that edge's bracket [e, e*] = e e* - e* e on term keys,
    # and its r(e) term counts once for each of the run's m edges
    brackets = []
    w: dict = {}
    correction: dict = {}
    for i in range(m):
        if not tn[i]:
            continue
        neg = -tn[i] % p if p else -tn[i]
        _add_into(correction, [(((i,), (i,)), tn[i])], p)
        for start, (_, target, _, count) in g._runs_from[i]:
            brackets.append((neg, start, count))
            path, r = (i, start), (target,)
            x, y = (path, r), (r, path)
            _add_into(w, [(_mult_terms(x, y), neg), (_mult_terms(y, x), -neg * count)], p)
            _add_into(correction, [((path, path), -tn[i])], p)

    rhs = dict(correction)
    _add_into(rhs, ((((i,), (i,)), c) for i, c in enumerate(kn) if c), p)
    verified = w == rhs
    # one scalar per distinct numerator (over Q a Fraction), shared by the terms that carry it
    numerators = {*w.values(), *correction.values(), *(c for c, _, _ in brackets)}
    scalar = {n: n if p else Fraction(n, d) for n in numerators}
    first = {start: (g.edge(start), count) for _, start, count in brackets}
    w, correction = (
        {g.vertices[a[0]] if len(a) == 1 else first[a[1]]: scalar[c] for (a, _), c in x.items()}
        for x in (w, correction)
    )
    runs = tuple((scalar[c], *first[start]) for c, start, _ in brackets)
    return VertexWitness(runs, w, correction, verified)
