"""Simplicity verdicts for the commutator Lie algebra of a path algebra.

Two independent decision routes are provided and must always agree where both
apply:

* the span route: the Lie algebra of a nontrivial simple path algebra is
  simple iff the all-ones vector is *not* a combination of the B-vectors over
  the prime subfield of the coefficient field;
* the K-theory route (purely infinite simple case only): simple iff the class
  of the identity has infinite order in the cokernel of I - A^t (char 0), or
  is not p-divisible there (char p).

Verdicts outside the hypotheses of these criteria are reported as
inapplicable rather than extrapolated.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

from . import analysis
from .graph import Graph, b_vectors, m_matrix
from .linalg import (
    FieldSpec,
    K0Presentation,
    SmithDecomposition,
    _frozen,
    _p_divisible,
    class_order,
    cokernel,
    smith_normal_form,
)

__all__ = [
    "SIMPLE",
    "NOT_SIMPLE",
    "INAPPLICABLE",
    "GraphInvariants",
    "LieVerdict",
    "lie_simplicity",
    "lie_simplicity_via_k0",
    "pointed_iso_decision",
    "KpReport",
    "kp_consistency",
]

SIMPLE = "simple"
NOT_SIMPLE = "not-simple"
INAPPLICABLE = "inapplicable"


@_frozen
class GraphInvariants:
    """The per-graph data every verdict reads, each computed at most once.

    Each field is computed on first use and kept as an immutable value.
    ``b_smith``, the Smith form of the B-matrix, keeps each target's replay
    through V, so one more characteristic costs O(n·k) on n vertices and k
    nonzero non-unit factors, with no replay; ``k0`` also reads it when the
    graph has no sink.  The verdict functions accept either a
    ``Graph`` or one of these; pass the same object to share the work
    between calls.
    """

    graph: Graph

    @cached_property
    def _reports(self) -> tuple[analysis.SimplicityReport, analysis.SimplicityReport]:
        return analysis.simplicity_reports(self.graph)

    @property
    def simplicity(self) -> analysis.SimplicityReport:
        return self._reports[0]

    @property
    def pure_infinite_simplicity(self) -> analysis.SimplicityReport:
        return self._reports[1]

    @cached_property
    def b_vectors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(b) for b in b_vectors(self.graph))

    @cached_property
    def b_smith(self) -> SmithDecomposition:
        """Smith form of the matrix whose columns are the B-vectors.

        ``solve(k, field)`` on it gives t with ``k = sum_i t_i B_i``, the
        input of ``vertex_witness``, or None when the vertex combination k
        is no sum of brackets.  A sink's B-vector is a zero column, which
        the Smith form never mixes into another, so t is zero at a sink.
        """
        return smith_normal_form(list(zip(*self.b_vectors)))

    @cached_property
    def k0(self) -> K0Presentation:
        """Cokernel of I - A^t with the unit class.

        Without a sink the B-matrix is A^t - I, whose cokernel is the same,
        so it is read off ``b_smith``; a sink's B-vector is zero where
        I - A^t has a unit column, so a graph with a sink needs its own.
        """
        if self.graph.sinks():
            return cokernel(m_matrix(self.graph))
        return K0Presentation.of(self.b_smith)


def _invariants(g: Graph | GraphInvariants) -> GraphInvariants:
    return g if isinstance(g, GraphInvariants) else GraphInvariants(g)


@_frozen
class LieVerdict:
    """Outcome of one simplicity decision.

    ``certificate`` carries the supporting data: span coefficients for a
    not-simple span verdict, the failed graph condition for an inapplicable
    one, or the finite order / divisibility fact on the K-theory route.
    """

    status: str
    route: str
    characteristic: int | None
    reason: str
    certificate: object = None


def _inapplicable(route: str, witness) -> LieVerdict:
    return LieVerdict(
        INAPPLICABLE,
        route,
        None,
        f"the path algebra is not {'purely infinite ' if route == 'k0' else ''}simple: "
        + witness.describe(),
        witness,
    )


def lie_simplicity(g: Graph | GraphInvariants, field: FieldSpec) -> LieVerdict:
    """Span-route verdict for the Lie algebra of the path algebra of ``g``."""
    inv = _invariants(g)
    report = inv.simplicity
    if not report.verdict:
        return _inapplicable("span", report.witnesses[0])
    if analysis.is_trivial_lpa(inv.graph):
        return LieVerdict(
            NOT_SIMPLE,
            "span",
            field.characteristic,
            "the algebra is the coefficient field itself, so all brackets vanish",
        )
    coeffs = inv.b_smith.solve([1] * inv.graph.num_vertices, field)
    if coeffs is None:
        return LieVerdict(
            SIMPLE,
            "span",
            field.characteristic,
            "(1, ..., 1) is not a combination of the B-vectors over " + field.name,
        )
    return LieVerdict(
        NOT_SIMPLE,
        "span",
        field.characteristic,
        "(1, ..., 1) is a combination of the B-vectors over " + field.name,
        tuple(coeffs),
    )


def lie_simplicity_via_k0(g: Graph | GraphInvariants, field: FieldSpec) -> LieVerdict:
    """K-theory-route verdict; applicable only to purely infinite simple graphs."""
    inv = _invariants(g)
    report = inv.pure_infinite_simplicity
    if not report.verdict:
        return _inapplicable("k0", report.witnesses[0])
    pres = inv.k0
    p = field.characteristic
    if p == 0:
        order = class_order(pres)
        if order is None:
            return LieVerdict(
                SIMPLE, "k0", 0, "the unit class has infinite order in the cokernel"
            )
        return LieVerdict(
            NOT_SIMPLE,
            "k0",
            0,
            f"the unit class has finite order {order} in the cokernel",
            order,
        )
    # the field's characteristic is prime, tested when the field was made
    if _p_divisible(pres, p):
        return LieVerdict(
            NOT_SIMPLE, "k0", p, f"the unit class is {p}-divisible in the cokernel"
        )
    return LieVerdict(
        SIMPLE, "k0", p, f"the unit class is not {p}-divisible in the cokernel"
    )


# ---------------------------------------------------------------------------
# Pointed isomorphism of cokernel presentations
# ---------------------------------------------------------------------------


def _coprime_base(nums) -> list[int]:
    """Pairwise coprime integers > 1 of whose powers each of ``nums`` is a product.

    Plain gcd refinement (Bach, Driscoll and Shallit, J. Algorithms 1993):
    a number n sharing a factor d > 1 with a base element b replaces b by d
    and b / d, and goes on as n / d.  Nothing is factored.
    """
    base: list[int] = []
    pending = [n for n in nums if n > 1]
    while pending:
        n = pending.pop()
        for i, b in enumerate(base):
            d = gcd(n, b)
            if d > 1:
                del base[i]
                pending += [m for m in (d, b // d, n // d) if m > 1]
                break
        else:
            base.append(n)
    return base


def _valuation(n: int, q: int) -> int:
    """The exponent of ``q`` in ``n >= 1``."""
    v = 0
    while n % q == 0:
        n, v = n // q, v + 1
    return v


def _height_sequence(pairs) -> tuple[int, ...]:
    """``k + min{s : s + k < e}`` over the pairs (s, e), for k = 0, 1, ... while that set is nonempty.

    For a prime q and the pairs ``(v_q(gcd(x_i, alpha_i)), v_q(alpha_i))``
    this is the sequence of heights of x, q x, q^2 x, ... in the q-part of
    the group.
    """
    seq: list[int] = []
    while live := [s for s, e in pairs if s + len(seq) < e]:
        seq.append(len(seq) + min(live))
    return tuple(seq)


def _torsion_orbit_equal(alphas: list[int], x: list[int], y: list[int], g: int = 0) -> bool:
    """Whether some automorphism of T = Z/alpha_1 + ... + Z/alpha_n carries x into y + gT.

    T, Aut(T) and gT split into p-parts, so the primes are independent, and
    in a finite abelian p-group two elements lie in one orbit exactly when
    their height sequences coincide (Kaplansky, Infinite Abelian Groups,
    1954).  With a = v_p(g) (no cap when g = 0), coordinate i of x + gT keeps
    the valuation s_i < a, and takes any v in [a, e_i] otherwise.

    - Lowering a coordinate's valuation lowers every height, or makes one
      finite, so the pointwise least height sequence over x + gT belongs to
      the element whose coordinate i has valuation min(s_i, a).
    - gT is characteristic and heights are Aut-invariant, so the least
      sequences over x + gT and over y + gT agree exactly when some
      automorphism carries x into y + gT: one carrying the least element of
      x + gT to that of y + gT carries the whole coset.
    - No prime is needed.  The test runs for each q of a coprime base of the
      alpha_i and of the gcds of g, x_i and y_i with them, and skips q
      coprime to g != 0, for which gT_q = T_q.  Every p divides exactly one
      q, and with c = v_p(q) every p-exponent is c times the q-exponent
      (each gcd is a product of powers of the base), so min(c s, c a) =
      c min(s, a).  The p-sequence is ``k + c phi(k // c)`` where the
      q-sequence is ``j + phi(j)``, so each q-test answers for every p | q.
    """
    gx = [gcd(t, m) for t, m in zip(x, alphas)]
    gy = [gcd(t, m) for t, m in zip(y, alphas)]
    for q in _coprime_base(alphas + gx + gy + [gcd(g, m) for m in alphas]):
        if g % q:
            continue
        es = [_valuation(m, q) for m in alphas]
        a = _valuation(g, q) if g else max(es)  # no s_i passes max(es): no cap
        least_x = _height_sequence([(min(_valuation(d, q), a), e) for d, e in zip(gx, es)])
        if least_x != _height_sequence([(min(_valuation(d, q), a), e) for d, e in zip(gy, es)]):
            return False
    return True


def _parts(pres: K0Presentation) -> tuple[list[int], list[int], list[int]]:
    """The factors above 1, the unit class's coordinates at them, and its free coordinates."""
    pairs = list(zip(pres.invariant_factors, pres.unit_class))
    torsion = [(a, y) for a, y in pairs if a > 1]
    return [a for a, _ in torsion], [y for _, y in torsion], [y for a, y in pairs if a == 0]


def pointed_iso_decision(pa: K0Presentation, pb: K0Presentation) -> str:
    """Decide whether a group isomorphism matches the two unit classes.

    Returns ``"exists"`` or ``"none"``; the decision is exact for every
    input.  The groups are compared by invariant factors.  An automorphism
    can move the free coordinates of an element to any vector of the same
    content g, shifting the torsion part by anything in gT, T the torsion
    subgroup, so the decision reduces to content equality plus
    ``t_b in Aut(T) t_a + gT``, which ``_torsion_orbit_equal`` decides
    without a search.  Nothing is factored.
    """
    alphas_a, sa, free_a = _parts(pa)
    alphas_b, sb, free_b = _parts(pb)
    if alphas_a != alphas_b or len(free_a) != len(free_b):
        return "none"
    # the content of the free part, 0 when there is none
    g = gcd(*free_a)
    if g != gcd(*free_b):
        return "none"
    return "exists" if _torsion_orbit_equal(alphas_a, sa, sb, g) else "none"


@_frozen
class KpReport:
    """Pointed-K0 comparison of two graphs plus per-characteristic verdicts.

    ``pointed_iso`` is ``"exists"`` or ``"none"`` when both graphs are purely
    infinite simple, and None otherwise.  ``contradiction`` is set when a
    pointed isomorphism exists but some characteristic receives different
    statuses; it must never happen.
    """

    applicable: bool
    reason: str | None
    presentation_a: K0Presentation | None
    presentation_b: K0Presentation | None
    pointed_iso: str | None
    verdicts: tuple[tuple[int, LieVerdict, LieVerdict], ...]
    contradiction: bool


def kp_consistency(gA: Graph | GraphInvariants, gB: Graph | GraphInvariants, chars) -> KpReport:
    """Compare pointed K0 data of two purely infinite simple graphs.

    ``pointed_iso_decision`` answers ``"exists"`` or ``"none"`` exactly.  When
    a pointed isomorphism exists, the two Lie algebras must receive the same
    status at every characteristic.  ``chars`` holds characteristics or their
    ``FieldSpec``s; a ``FieldSpec`` has had its primality tested already.
    """
    invA, invB = _invariants(gA), _invariants(gB)
    repA = invA.pure_infinite_simplicity
    repB = invB.pure_infinite_simplicity
    if not repA.verdict or not repB.verdict:
        bad = "first" if not repA.verdict else "second"
        witness = (repA if not repA.verdict else repB).witnesses[0]
        return KpReport(
            False,
            f"the {bad} graph is not purely infinite simple: {witness.describe()}",
            None,
            None,
            None,
            (),
            False,
        )
    pa, pb = invA.k0, invB.k0
    iso = pointed_iso_decision(pa, pb)
    rows = []
    contradiction = False
    for c in chars:
        field = c if isinstance(c, FieldSpec) else FieldSpec(c)
        va = lie_simplicity(invA, field)
        vb = lie_simplicity(invB, field)
        rows.append((field.characteristic, va, vb))
        if iso == "exists" and va.status != vb.status:
            contradiction = True
    return KpReport(True, None, pa, pb, iso, tuple(rows), contradiction)
