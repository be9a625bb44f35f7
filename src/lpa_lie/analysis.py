"""Graph-theoretic criteria for simplicity of the path algebra.

The algebra attached to a finite graph is simple exactly when every vertex
reaches every sink and every cycle vertex, and every cycle has an exit; it is
purely infinite simple when additionally a cycle exists and there is no sink
to reach.  These are pure graph conditions, independent of the coefficient
field, and every failure is reported with an explicit witness.
Every criterion reads one reachability closure, an integer bitmask per
vertex, and holds sets of vertices as masks too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import EdgeId, Graph, VertexId

__all__ = [
    "Unreached",
    "NoExitCycle",
    "NoCycle",
    "SimplicityReport",
    "reachability",
    "simplicity_reports",
    "is_trivial_lpa",
]


@dataclass(frozen=True)
class Unreached:
    """Witness: ``source`` has no path to ``target`` (a sink or cycle vertex)."""

    source: VertexId
    target: VertexId
    target_kind: str

    def describe(self) -> str:
        return f"vertex {self.source.label} does not reach {self.target_kind} {self.target.label}"


@dataclass(frozen=True)
class NoExitCycle:
    """Witness: a cycle each of whose vertices emits only its cycle edge."""

    vertices: tuple[VertexId, ...]
    edges: tuple[EdgeId, ...]

    def describe(self) -> str:
        loop = " -> ".join(v.label for v in self.vertices)
        return f"cycle without exit: {loop} -> {self.vertices[0].label}"


@dataclass(frozen=True)
class NoCycle:
    """Witness: the graph is acyclic."""

    def describe(self) -> str:
        return "the graph has no cycle"


@dataclass(frozen=True)
class SimplicityReport:
    verdict: bool
    witnesses: tuple = ()


def reachability(g: Graph) -> list[int]:
    """Reflexive-transitive closure of the edge relation, one bitmask per vertex.

    Bit j of entry i is set when v_i reaches v_j.  Warshall's closure on the
    row masks: V passes of V word-parallel ORs.

    >>> from lpa_lie import family
    >>> reachability(family("line", [3]))
    [7, 6, 4]
    """
    reach = [succ | 1 << i for i, succ in enumerate(g.successor_masks)]
    for k in range(len(reach)):
        rk = reach[k]
        reach = [r | rk if r >> k & 1 else r for r in reach]
    return reach


def _bits(mask: int):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _cycle_indices(g: Graph, reach: list[int]) -> list[int]:
    """Indices of the vertices on a cycle: those a successor of theirs reaches."""
    succ = g.successor_masks
    return [v for v in range(len(succ)) if any(reach[w] >> v & 1 for w in _bits(succ[v]))]


def _exitless_cycle(g: Graph, reach: list[int]) -> tuple[EdgeId, ...] | None:
    """The first exitless cycle in index order, read off the closure ``reach``.

    A vertex reaches only an exitless cycle exactly when every vertex it
    reaches has out-degree 1.  The cycle reached from the first such vertex
    starts at its smallest vertex: the first reached one that its successor
    reaches back.
    """
    single = sum(1 << v.index for v in g.vertices if g.out_degree(v) == 1)
    succ = g.successor_masks
    for row in reach:
        if not row & ~single:
            start = next(w for w in _bits(row) if reach[next(_bits(succ[w]))] >> w & 1)
            cycle = [g.out_edges(g.vertices[start])[0]]
            while cycle[-1].target.index != start:
                cycle.append(g.out_edges(cycle[-1].target)[0])
            return tuple(cycle)
    return None


def simplicity_reports(g: Graph) -> tuple[SimplicityReport, SimplicityReport]:
    """The simplicity and pure infinite simplicity reports, in that order.

    Both read the same reachability, cycle vertices and exitless cycle, so
    one pass computes them; an unreached cycle vertex or an exitless cycle
    is a witness against both.  A vertex that misses some target gets one
    witness per report, its first unreached target (for simplicity, sinks
    before cycle vertices): the lowest set bit of the sink or cycle mask
    outside the vertex's row.  So a report has at most V + 1 witnesses.
    """
    reach = reachability(g)
    cycles = _cycle_indices(g, reach)
    no_exit = _exitless_cycle(g, reach)
    sink_mask = sum(1 << v.index for v in g.sinks())
    cycle_mask = sum(1 << i for i in cycles)
    simple: list = []
    pis: list = []
    for v, row in zip(g.vertices, reach):
        sink = next(_bits(sink_mask & ~row), None)
        cycle = next(_bits(cycle_mask & ~row), None)
        if sink is not None:
            simple.append(Unreached(v, g.vertices[sink], "sink"))
        if cycle is not None:
            witness = Unreached(v, g.vertices[cycle], "cycle vertex")
            pis.append(witness)
            if sink is None:
                simple.append(witness)
    if no_exit is not None:
        witness = NoExitCycle(tuple(e.source for e in no_exit), no_exit)
        simple.append(witness)
        pis.append(witness)
    if not cycles:
        pis.append(NoCycle())
    return SimplicityReport(not simple, tuple(simple)), SimplicityReport(not pis, tuple(pis))


def is_trivial_lpa(g: Graph) -> bool:
    """True iff the graph is a single vertex with no edges (algebra = field)."""
    return g.num_vertices == 1 and g.num_edges == 0
