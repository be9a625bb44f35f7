"""Graph-theoretic criteria for simplicity of the path algebra.

The algebra attached to a finite graph is simple exactly when every vertex
reaches every sink and every cycle vertex, and every cycle has an exit; it is
purely infinite simple when additionally a cycle exists and there is no sink
to reach.  These are pure graph conditions, independent of the coefficient
field, and every failure is reported with an explicit witness.
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


def reachability(g: Graph) -> list[list[bool]]:
    """Reflexive-transitive closure of the edge relation, as a boolean grid."""
    m = g.num_vertices
    adj = g.successors
    closure = [[False] * m for _ in range(m)]
    for s in range(m):
        seen = {s}
        frontier = [s]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        for w in seen:
            closure[s][w] = True
    return closure


def _cycle_indices(g: Graph, reach: list[list[bool]]) -> list[int]:
    """Indices of the vertices on a cycle: those a successor of theirs reaches."""
    return [v for v, succ in enumerate(g.successors) if any(reach[w][v] for w in succ)]


def _exitless_cycle(g: Graph, reach: list[list[bool]]) -> tuple[EdgeId, ...] | None:
    """The first exitless cycle in index order, read off the closure ``reach``.

    A vertex reaches only an exitless cycle exactly when every vertex it
    reaches has out-degree 1.  The cycle reached from the first such vertex
    starts at its smallest vertex: the first reached one that its successor
    reaches back.
    """
    single = [g.out_degree(v) == 1 for v in g.vertices]
    for s, row in enumerate(reach):
        if single[s] and all(one for one, r in zip(single, row) if r):
            start = next(w for w, r in enumerate(row) if r and reach[g.successors[w][0]][w])
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
    before cycle vertices), so a report has at most V + 1 witnesses.
    """
    reach = reachability(g)
    on_cycle = [g.vertices[i] for i in _cycle_indices(g, reach)]
    no_exit = _exitless_cycle(g, reach)
    sinks = g.sinks()
    simple: list = []
    pis: list = []
    for v in g.vertices:
        row = reach[v.index]
        sink = next((s for s in sinks if not row[s.index]), None)
        cycle = next((c for c in on_cycle if not row[c.index]), None)
        if sink is not None:
            simple.append(Unreached(v, sink, "sink"))
        if cycle is not None:
            witness = Unreached(v, cycle, "cycle vertex")
            pis.append(witness)
            if sink is None:
                simple.append(witness)
    if no_exit is not None:
        witness = NoExitCycle(tuple(e.source for e in no_exit), no_exit)
        simple.append(witness)
        pis.append(witness)
    if not on_cycle:
        pis.append(NoCycle())
    return SimplicityReport(not simple, tuple(simple)), SimplicityReport(not pis, tuple(pis))


def is_trivial_lpa(g: Graph) -> bool:
    """True iff the graph is a single vertex with no edges (algebra = field)."""
    return g.num_vertices == 1 and g.num_edges == 0
