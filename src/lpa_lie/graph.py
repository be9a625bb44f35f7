"""Finite directed multigraphs stored as runs of parallel edges.

This module owns the graph data model, the line-oriented text format used by
the command line tool, the adjacency/B-vector/presentation-matrix invariants,
and generators for the standard graph families (roses, oriented lines, and
the two- and four-vertex families used throughout the test suite).

Vertex declaration order is significant: it fixes the row/column order of
every matrix and vector derived from a graph.

A graph keeps its edges as runs in declaration order.  An auto run
``(src, dst, first_k, multiplicity)`` stands for the parallel edges named
``<src>_<dst>_<k>`` for ``k = first_k, ..., first_k + multiplicity - 1``; a
labelled run ``(label, src, dst)`` is one individually named edge.  Every
criterion the package decides depends only on the adjacency counts, which are
derived once from the runs, so a multiplicity costs O(1): building, parsing,
serialising and every count-based invariant take O(V^2 + runs) time.
``Graph.out_edges`` is the only place an edge is named: no other code builds
an ``EdgeId``.

The edge-label rules (no label twice, an explicit label equal to its edge's
auto label is that auto edge) live in one place, ``_RunBuilder``.  Every
graph's runs pass through it in ``Graph.__post_init__``, and ``parse_graph``
also feeds it line by line, so a clash is reported at its line.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

from .linalg import _parse_integer

__all__ = [
    "VertexId",
    "EdgeId",
    "Graph",
    "GraphError",
    "GraphParseError",
    "b_vectors",
    "m_matrix",
    "graph_from_adjacency",
    "parse_graph",
    "serialize_graph",
    "family",
    "family_names",
]


class GraphError(ValueError):
    """Invalid graph data (construction or family parameters)."""


class GraphParseError(GraphError):
    """Malformed graph text.  Carries the 1-based line and column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None and column is not None:
            full = f"line {line}, column {column}: {message}"
        elif line is not None:
            full = f"line {line}: {message}"
        else:
            full = message
        super().__init__(full)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class VertexId:
    """A vertex: 0-based position plus a label unique within its graph."""

    index: int
    label: str


@dataclass(frozen=True)
class EdgeId:
    """A directed edge with its own label; loops and parallels are fine."""

    index: int
    label: str
    source: VertexId
    target: VertexId


def _split_auto(label: str) -> tuple[str, int] | None:
    """``(prefix, k)`` when ``label`` reads ``<prefix>_<k>`` with k a positive decimal."""
    prefix, sep, digits = label.rpartition("_")
    if not (sep and digits.isascii() and digits.isdigit() and digits[0] != "0"):
        return None
    try:
        return prefix, int(digits)
    except ValueError:  # more digits than int() converts; no auto run reaches such a k
        return None


class _RunBuilder:
    """Edge runs checked one at a time and kept in canonical form.

    Every edge-label rule lives here: each graph, built or parsed, adds its
    runs (vertex indices) through ``add``.  A labelled run whose label is its
    own edge's auto label becomes an auto run, and an auto run continuing
    the previous run merges into it, so two graphs are equal exactly when
    their edge sequences are.  No label may be claimed twice.  A label of
    the auto shape ``<prefix>_<k>`` is kept as part of a range of k under its
    prefix, so claiming a whole auto run costs O(log runs).  Auto runs are
    grouped by the prefix ``<src>_<dst>``, not by the vertex pair:
    ``a_b -> c`` and ``a -> b_c`` name the same labels.
    """

    def __init__(self, vertex_labels: list[str]):
        # the caller may declare more vertices between runs
        self.vertex_labels = vertex_labels
        self.runs: list[tuple] = []
        self.plain: set[str] = set()
        self.ranges: dict[str, tuple[list[int], list[int]]] = {}

    def claim_range(self, prefix: str, lo: int, hi: int) -> None:
        """Claim ``<prefix>_<k>`` for ``lo <= k <= hi``; a clash names the smallest such k taken."""
        starts, ends = self.ranges.setdefault(prefix, ([], []))
        i = bisect_left(ends, lo)
        if i < len(ends) and starts[i] <= hi:
            raise GraphError(f"duplicate edge label {f'{prefix}_{max(starts[i], lo)}'!r}")
        if i and ends[i - 1] == lo - 1:
            ends[i - 1] = hi
        else:
            starts.insert(i, lo)
            ends.insert(i, hi)

    def add(self, run) -> None:
        """Check one run, claim its labels and merge it into ``runs``."""
        if not isinstance(run, tuple) or len(run) not in (3, 4):
            raise GraphError(f"bad edge run {run!r}")
        label, s, d = run if len(run) == 3 else (None, *run[:2])
        m = len(self.vertex_labels)
        for end in (s, d):
            if not isinstance(end, int) or isinstance(end, bool) or not 0 <= end < m:
                what = f"auto run {run!r}" if label is None else f"edge {label!r}"
                raise GraphError(f"{what} references unknown vertex {end!r}")
        prefix = f"{self.vertex_labels[s]}_{self.vertex_labels[d]}"
        if len(run) == 3:
            if not isinstance(label, str) or not label or any(ch.isspace() for ch in label):
                raise GraphError(f"bad edge label {label!r}")
            auto = _split_auto(label)
            if auto is None:
                if label in self.plain:
                    raise GraphError(f"duplicate edge label {label!r}")
                self.plain.add(label)
            elif auto[0] == prefix:
                run = (s, d, auto[1], 1)
            else:
                self.claim_range(auto[0], auto[1], auto[1])
        if len(run) == 4:
            s, d, k, n = run
            for x in (k, n):
                if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                    raise GraphError(
                        f"auto run {run!r} needs a positive integer first_k and multiplicity"
                    )
            self.claim_range(prefix, k, k + n - 1)
            last = self.runs[-1] if self.runs else ()
            if len(last) == 4 and last[:2] == (s, d) and last[2] + last[3] == k:
                run = (s, d, last[2], last[3] + n)
                self.runs.pop()
        self.runs.append(run)


def _run_ends(run: tuple) -> tuple[int, int, int]:
    """``(src, dst, multiplicity)`` of a run."""
    if len(run) == 4:
        return run[0], run[1], run[3]
    return run[1], run[2], 1


@dataclass(frozen=True)
class Graph:
    """A finite directed multigraph.

    Vertices and edge runs are kept in declaration order; that order is the
    canonical index order used by every derived matrix and vector, and the
    order of the edge indices.  ``runs`` holds vertex indices: ``(src, dst,
    first_k, multiplicity)`` for auto-named parallel edges, ``(label, src,
    dst)`` for one named edge.  It is canonical, so equality of graphs is equality of
    their edge sequences.  The count matrix ``counts``, the per-vertex
    ``successors`` and the out-degrees are derived once from the runs;
    ``out_edges`` is the only place an edge is named as an ``EdgeId``.
    """

    vertices: tuple[VertexId, ...]
    runs: tuple[tuple, ...]

    def __post_init__(self):
        if not self.vertices:
            raise GraphError("a graph must have at least one vertex")
        seen: set[str] = set()
        for i, v in enumerate(self.vertices):
            if v.index != i:
                raise GraphError(f"vertex {v.label!r} has index {v.index}, expected {i}")
            if not v.label or any(ch.isspace() for ch in v.label):
                raise GraphError(f"bad vertex label {v.label!r}")
            if v.label in seen:
                raise GraphError(f"duplicate vertex label {v.label!r}")
            seen.add(v.label)
        builder = _RunBuilder([v.label for v in self.vertices])
        for run in self.runs:
            builder.add(run)
        object.__setattr__(self, "runs", tuple(builder.runs))

    @classmethod
    def build(
        cls,
        vertex_labels: list[str] | tuple[str, ...],
        edge_specs: list[tuple] | tuple[tuple, ...] = (),
    ) -> "Graph":
        """Construct a graph from labels and edge runs named by vertex label.

        Each spec is ``(edge_label, src, dst)`` for one named edge or
        ``(src, dst, first_k, multiplicity)`` for auto-named parallel edges.
        """
        vertices = tuple(VertexId(i, lbl) for i, lbl in enumerate(vertex_labels))
        index = {v.label: v.index for v in vertices}
        runs = []
        for spec in edge_specs:
            if len(spec) not in (3, 4):
                raise GraphError(f"bad edge spec {spec!r}")
            src, dst = spec[1:3] if len(spec) == 3 else spec[:2]
            for name in (src, dst):
                if name not in index:
                    lbl = spec[0] if len(spec) == 3 else f"{src}_{dst}_{spec[2]}"
                    raise GraphError(f"edge {lbl!r} references undeclared vertex {name!r}")
            if len(spec) == 3:
                runs.append((spec[0], index[src], index[dst]))
            else:
                runs.append((index[src], index[dst], *spec[2:]))
        return cls(vertices, tuple(runs))

    @cached_property
    def counts(self) -> tuple[tuple[int, ...], ...]:
        """The adjacency counts: entry (i, j) is the number of edges from v_i to v_j."""
        m = len(self.vertices)
        a = [[0] * m for _ in range(m)]
        for run in self.runs:
            s, d, n = _run_ends(run)
            a[s][d] += n
        return tuple(tuple(row) for row in a)

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex index, the sorted indices of the vertices it has an edge to."""
        return tuple(tuple(j for j, c in enumerate(row) if c) for row in self.counts)

    @cached_property
    def _out_degrees(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.counts)

    @cached_property
    def _run_starts(self) -> tuple[int, ...]:
        """The index of the first edge of each run."""
        starts, start = [], 0
        for run in self.runs:
            starts.append(start)
            start += _run_ends(run)[2]
        return tuple(starts)

    @cached_property
    def _runs_from(self) -> tuple[tuple[tuple[int, tuple], ...], ...]:
        """Per vertex index, ``(index of its first edge, run)`` for each run it emits."""
        out: list[list] = [[] for _ in self.vertices]
        for start, run in zip(self._run_starts, self.runs):
            out[_run_ends(run)[0]].append((start, run))
        return tuple(tuple(x) for x in out)

    def edge_ends(self, index: int) -> tuple[int, int]:
        """``(src, dst)`` vertex indices of the edge with this index; O(log runs)."""
        return _run_ends(self.runs[bisect_right(self._run_starts, index) - 1])[:2]

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return sum(self._out_degrees)

    def vertex(self, label: str) -> VertexId:
        for v in self.vertices:
            if v.label == label:
                return v
        raise GraphError(f"no vertex labeled {label!r}")

    @cached_property
    def _named_out(self) -> dict[int, tuple[EdgeId, ...]]:
        # out_edges built so far: the witness and every printed Cohn element
        # of one graph share one EdgeId per edge
        return {}

    def out_edges(self, v: VertexId) -> tuple[EdgeId, ...]:
        """The named edges leaving ``v``; O(out-degree of v) on the first call."""
        named = self._named_out.get(v.index)
        if named is None:
            out: list[EdgeId] = []
            src = self.vertices[v.index]
            for start, run in self._runs_from[v.index]:
                dst = self.vertices[_run_ends(run)[1]]
                if len(run) == 3:
                    out.append(EdgeId(start, run[0], src, dst))
                else:
                    k, n = run[2], run[3]
                    prefix = f"{src.label}_{dst.label}_"
                    out += [EdgeId(start + i, f"{prefix}{k + i}", src, dst) for i in range(n)]
            named = self._named_out[v.index] = tuple(out)
        return named

    def out_degree(self, v: VertexId) -> int:
        return self._out_degrees[v.index]

    def is_sink(self, v: VertexId) -> bool:
        return self._out_degrees[v.index] == 0

    def is_regular(self, v: VertexId) -> bool:
        """A regular vertex emits at least one edge (out-degree is always finite here)."""
        return self._out_degrees[v.index] != 0

    def sinks(self) -> tuple[VertexId, ...]:
        return tuple(v for v, deg in zip(self.vertices, self._out_degrees) if not deg)

    def regular_vertices(self) -> tuple[VertexId, ...]:
        return tuple(v for v, deg in zip(self.vertices, self._out_degrees) if deg)


def b_vectors(g: Graph) -> list[list[int]]:
    """Per-vertex edge-count vectors.

    For a regular vertex v_i this is row i of the adjacency matrix with 1
    subtracted at position i; sinks get the zero vector.

    >>> b_vectors(family("rose", [4]))
    [[3]]
    >>> b_vectors(family("line", [2]))
    [[-1, 1], [0, 0]]
    """
    out = []
    for i, row in enumerate(g.counts):
        b = list(row)
        if any(b):
            b[i] -= 1
        out.append(b)
    return out


def m_matrix(g: Graph) -> list[list[int]]:
    """The presentation matrix I - A^t (A the adjacency matrix)."""
    a = g.counts
    m = g.num_vertices
    return [[(1 if i == j else 0) - a[j][i] for j in range(m)] for i in range(m)]


def graph_from_adjacency(labels: list[str], adjacency: list[list[int]]) -> Graph:
    """Build a graph from vertex labels and an adjacency count matrix.

    Edges are created in row-major order and auto-named ``<src>_<dst>_<k>``.
    """
    m = len(labels)
    if (
        not isinstance(adjacency, (list, tuple))
        or len(adjacency) != m
        or any(not isinstance(row, (list, tuple)) or len(row) != m for row in adjacency)
    ):
        raise GraphError("adjacency matrix must be square and match the vertex count")
    runs = []
    for i in range(m):
        for j in range(m):
            count = adjacency[i][j]
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                raise GraphError(f"adjacency entry ({i}, {j}) must be a non-negative integer")
            if count:
                runs.append((labels[i], labels[j], 1, count))
    return Graph.build(labels, runs)


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format.

    Directives (one per line, blank lines and ``#`` comments ignored):

    * ``vertex <label>`` declares a vertex; declaration order is index order.
    * ``edge <src> <dst> [<multiplicity>]`` declares that many parallel
      edges, auto-named ``<src>_<dst>_<k>``.
    * ``edge-label <name> <src> <dst>`` declares one individually named edge.
    """
    vertex_labels: list[str] = []
    index: dict[str, int] = {}
    specs: list[tuple] = []
    builder = _RunBuilder(vertex_labels)
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
            if label in index:
                raise GraphParseError(
                    f"duplicate vertex label {label!r}", lineno, column_of(raw, label)
                )
            index[label] = len(vertex_labels)
            vertex_labels.append(label)
            continue
        if directive == "edge":
            if len(tokens) not in (3, 4):
                raise GraphParseError("expected: edge <src> <dst> [<multiplicity>]", lineno)
            src, dst = tokens[1], tokens[2]
            for name in (src, dst):
                if name not in index:
                    raise GraphParseError(
                        f"undeclared vertex {name!r}", lineno, column_of(raw, name)
                    )
            mult = 1
            if len(tokens) == 4:
                try:
                    mult = _parse_integer(tokens[3])
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
            counters[(src, dst)] = base + mult
            specs.append((src, dst, base + 1, mult))
            run, column = (index[src], index[dst], base + 1, mult), None
        elif directive == "edge-label":
            if len(tokens) != 4:
                raise GraphParseError("expected: edge-label <name> <src> <dst>", lineno)
            label, src, dst = tokens[1], tokens[2], tokens[3]
            for name in (src, dst):
                if name not in index:
                    raise GraphParseError(
                        f"undeclared vertex {name!r}", lineno, column_of(raw, name)
                    )
            specs.append((label, src, dst))
            run, column = (label, index[src], index[dst]), column_of(raw, label)
        else:
            raise GraphParseError(
                f"unknown directive {directive!r}", lineno, column_of(raw, directive)
            )
        try:
            builder.add(run)
        except GraphError as exc:
            raise GraphParseError(str(exc), lineno, column) from None

    if not vertex_labels:
        raise GraphParseError("no vertices declared")
    return Graph.build(vertex_labels, specs)


def serialize_graph(g: Graph) -> str:
    """Canonical text for a graph; ``parse_graph`` round-trips it exactly.

    Consecutive parallel edges whose labels continue the auto-naming count of
    their vertex pair are collapsed into a single ``edge`` line with a
    multiplicity; any other edge is written as an explicit ``edge-label``
    line, together with the rest of its group of consecutive parallel edges.
    """
    names = [v.label for v in g.vertices]
    lines = [f"vertex {name}" for name in names]
    counters: dict[tuple[int, int], int] = {}
    runs = g.runs
    i = 0
    while i < len(runs):
        key = _run_ends(runs[i])[:2]
        j = i + 1
        while j < len(runs) and _run_ends(runs[j])[:2] == key:
            j += 1
        src, dst = names[key[0]], names[key[1]]
        # canonical runs merge continuing auto runs, so a group that reads
        # as one multiplicity line is a single auto run
        run = runs[i]
        base = counters.get(key, 0)
        if j == i + 1 and len(run) == 4 and run[2] == base + 1:
            lines.append(f"edge {src} {dst} {run[3]}")
            counters[key] = base + run[3]
        else:
            for r in runs[i:j]:
                if len(r) == 3:
                    lines.append(f"edge-label {r[0]} {src} {dst}")
                else:
                    ks = range(r[2], r[2] + r[3])
                    lines += (f"edge-label {src}_{dst}_{k} {src} {dst}" for k in ks)
        i = j
    return "\n".join(lines) + "\n"


def _family_rose(n: int) -> Graph:
    if n < 1:
        raise GraphError("rose(n) requires n >= 1")
    return graph_from_adjacency(["v1"], [[n]])


_LINE_LIMIT = 100_000  # line(d) names d vertices: 1.5 s and 100 MB at the bound (2-core host)


def _family_line(d: int) -> Graph:
    if not 1 <= d <= _LINE_LIMIT:
        raise GraphError(f"line(d) requires 1 <= d <= {_LINE_LIMIT}")
    labels = [f"v{i}" for i in range(1, d + 1)]
    # d - 1 runs; a d x d adjacency list would cost O(d^2)
    return Graph.build(labels, [(labels[i], labels[i + 1], 1, 1) for i in range(d - 1)])


def _family_matrix_rose(n: int, d: int) -> Graph:
    if n < 2 or d < 2:
        raise GraphError("matrix_rose(n, d) requires n >= 2 and d >= 2")
    return graph_from_adjacency(["v1", "v2"], [[0, d - 1], [0, n]])


_EXAMPLE4_ADJACENCY = [
    [1, 1, 0, 0],
    [1, 0, 0, 1],
    [0, 1, 1, 0],
    [0, 0, 1, 0],
]


def _family_example4() -> Graph:
    return graph_from_adjacency(["v1", "v2", "v3", "v4"], [row[:] for row in _EXAMPLE4_ADJACENCY])


def _family_prime_set(q: int) -> Graph:
    if q < 1:
        raise GraphError("prime_set(q) requires q >= 1")
    adj = [row[:] for row in _EXAMPLE4_ADJACENCY]
    adj[3][3] = q + 1
    return graph_from_adjacency(["v1", "v2", "v3", "v4"], adj)


def _family_two_vertex(u: int, v: int, p: int) -> Graph:
    if u < 2 or v < 2 or p < 2:
        raise GraphError("two_vertex(u, v, p) requires u, v, p >= 2")
    adj = [[p * u * v + 1, u], [p * u, 1 + u]]
    return graph_from_adjacency(["v1", "v2"], adj)


_FAMILIES = {
    "rose": (1, _family_rose, "rose(n): one vertex with n loops, n >= 1"),
    "line": (1, _family_line, f"line(d): oriented line on d vertices, 1 <= d <= {_LINE_LIMIT}"),
    "matrix_rose": (
        2,
        _family_matrix_rose,
        "matrix_rose(n, d): d-1 edges into a vertex carrying n loops; n, d >= 2",
    ),
    "prime_set": (
        1,
        _family_prime_set,
        "prime_set(q): four-vertex graph with q+1 loops at the last vertex, q >= 1",
    ),
    "two_vertex": (
        3,
        _family_two_vertex,
        "two_vertex(u, v, p): loops puv+1 and 1+u, cross edges u and pu; u, v, p >= 2",
    ),
    "example4": (0, _family_example4, "example4: the standard four-vertex, seven-edge graph"),
}


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))


def family(name: str, params: list[int] | tuple[int, ...] = ()) -> Graph:
    """Instantiate one of the named graph families with deterministic labels."""
    if name not in _FAMILIES:
        known = ", ".join(family_names())
        raise GraphError(f"unknown family {name!r} (known: {known})")
    arity, builder, usage = _FAMILIES[name]
    values = []
    for p in params:
        if not isinstance(p, int) or isinstance(p, bool):
            raise GraphError(f"family parameters must be integers ({usage})")
        values.append(p)
    if len(values) != arity:
        raise GraphError(f"family {name!r} takes {arity} parameter(s): {usage}")
    return builder(*values)
