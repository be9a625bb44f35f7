"""Graph-theoretic criteria for simplicity of the path algebra.

The algebra attached to a finite graph is simple exactly when every vertex
reaches every sink and every cycle vertex, and every cycle has an exit; it is
purely infinite simple when additionally a cycle exists and there is no sink
to reach.  These are pure graph conditions, independent of the coefficient
field, and every failure is reported with an explicit witness.
Every criterion reads one transitive closure of the edge relation, an
integer bitmask per vertex, and holds sets of vertices as masks too: the
cycle vertices are its diagonal bits.
"""

from __future__ import annotations

from .graph import EdgeId, Graph, VertexId
from .linalg import _frozen

__all__ = [
    "Unreached",
    "NoExitCycle",
    "NoCycle",
    "SimplicityReport",
    "reachability",
    "simplicity_reports",
    "is_trivial_lpa",
]


@_frozen
class Unreached:
    """Witness: ``source`` has no path to ``target`` (a sink or cycle vertex)."""

    source: VertexId
    target: VertexId
    target_kind: str

    def describe(self) -> str:
        return f"vertex {self.source.label} does not reach {self.target_kind} {self.target.label}"


@_frozen
class NoExitCycle:
    """Witness: a cycle each of whose vertices emits only its cycle edge."""

    vertices: tuple[VertexId, ...]
    edges: tuple[EdgeId, ...]

    def describe(self) -> str:
        loop = " -> ".join(v.label for v in self.vertices)
        return f"cycle without exit: {loop} -> {self.vertices[0].label}"


@_frozen
class NoCycle:
    """Witness: the graph is acyclic."""

    def describe(self) -> str:
        return "the graph has no cycle"


@_frozen
class SimplicityReport:
    verdict: bool
    witnesses: tuple = ()


def _closure(g: Graph) -> list[int]:
    """Transitive closure of the edge relation, one bitmask per vertex.

    Bit j of entry i is set when a path of one or more edges leads from v_i
    to v_j, so v_i lies on a cycle exactly when bit i of its own entry is
    set.  Warshall's closure on the row masks: at most V passes of V
    word-parallel ORs.  Rows only grow, so the passes stop once every row
    is full, every vertex reaching every vertex; the full rows are counted
    only at a pass whose own row is full, so a closure that never fills
    pays one compare per pass.
    """
    reach = list(g.successor_masks)
    m = len(reach)
    full = (1 << m) - 1
    for k in range(m):
        rk = reach[k]
        if rk == full and reach.count(full) == m:
            break  # rows only grow, so no later pass changes a full closure
        reach = [r | rk if r >> k & 1 else r for r in reach]
    return reach


def reachability(g: Graph) -> list[int]:
    """Reflexive-transitive closure of the edge relation, one bitmask per vertex.

    Bit j of entry i is set when v_i reaches v_j: the transitive closure
    with each vertex's own bit added.

    >>> from lpa_lie import family
    >>> reachability(family("line", [3]))
    [7, 6, 4]
    """
    return [row | 1 << i for i, row in enumerate(_closure(g))]


def _exitless_cycle(g: Graph, closure: list[int], cycle_mask: int) -> tuple[EdgeId, ...] | None:
    """The first exitless cycle in index order, read off the transitive ``closure``.

    A vertex reaches only an exitless cycle exactly when it and every vertex
    it reaches have out-degree 1.  The cycle reached from the first such
    vertex starts at its smallest vertex: the lowest bit of ``cycle_mask``
    in that vertex's row.
    """
    single = sum(1 << v.index for v in g.vertices if g.out_degree(v) == 1)
    for i, row in enumerate(closure):
        if not (row | 1 << i) & ~single:
            on_cycle = row & cycle_mask
            start = (on_cycle & -on_cycle).bit_length() - 1
            cycle = [g.out_edges(g.vertices[start])[0]]
            while cycle[-1].target.index != start:
                cycle.append(g.out_edges(cycle[-1].target)[0])
            return tuple(cycle)
    return None


def simplicity_reports(g: Graph) -> tuple[SimplicityReport, SimplicityReport]:
    """The simplicity and pure infinite simplicity reports, in that order.

    Both read one transitive closure: its diagonal bits are the cycle
    vertices, and each row with the vertex's own bit added is what the
    vertex reaches.  One pass computes both reports; an unreached cycle
    vertex or an exitless cycle is a witness against both.  A vertex that
    misses some target gets one witness per report, its first unreached
    target (for simplicity, sinks before cycle vertices): the lowest set
    bit of the sink or cycle mask outside the vertex's row.  So a report
    has at most V + 1 witnesses.
    """
    closure = _closure(g)
    cycle_mask = sum(1 << i for i, row in enumerate(closure) if row >> i & 1)
    no_exit = _exitless_cycle(g, closure, cycle_mask)
    sink_mask = sum(1 << v.index for v in g.sinks())
    simple: list = []
    pis: list = []
    for v, row in zip(g.vertices, closure):
        # the lowest bit of each mask outside the row, -1 when there is none
        row |= 1 << v.index
        sink, cycle = sink_mask & ~row, cycle_mask & ~row
        sink, cycle = (sink & -sink).bit_length() - 1, (cycle & -cycle).bit_length() - 1
        if sink >= 0:
            simple.append(Unreached(v, g.vertices[sink], "sink"))
        if cycle >= 0:
            witness = Unreached(v, g.vertices[cycle], "cycle vertex")
            pis.append(witness)
            if sink < 0:
                simple.append(witness)
    if no_exit is not None:
        witness = NoExitCycle(tuple(e.source for e in no_exit), no_exit)
        simple.append(witness)
        pis.append(witness)
    if not cycle_mask:
        pis.append(NoCycle())
    return SimplicityReport(not simple, tuple(simple)), SimplicityReport(not pis, tuple(pis))


def is_trivial_lpa(g: Graph) -> bool:
    """True iff the graph is a single vertex with no edges (algebra = field)."""
    return g.num_vertices == 1 and g.num_edges == 0
