"""Finite directed multigraphs stored as runs of parallel edges.

This module owns the graph data model, the line-oriented text format used by
the command line tool, the adjacency/B-vector/presentation-matrix invariants,
and generators for the standard graph families (roses, oriented lines, and
the two- and four-vertex families used throughout the test suite).

Vertex declaration order is significant: it fixes the row/column order of
every matrix and vector derived from a graph.

A graph keeps its edges as runs in declaration order, each in one layout
``(src, dst, first, count)`` on vertex indices.  An auto run, ``first`` an
int, stands for the ``count`` parallel edges named ``<src>_<dst>_<k>`` for
``k = first, ..., first + count - 1``; a named run, ``first`` a str, is the
one edge of that label and has count 1.  Every criterion the package
decides depends only on the out-degrees, summed as the runs are built, and
the counts and successor bitmasks that one loop over the runs derives, so a
multiplicity costs O(1): building, parsing and every
count-based invariant take O(V^2 + runs) time, and serialising O(V + runs),
except for an auto run that starts past its pair's count (only ``Graph.build``
can make a long one).  ``Graph._name`` alone builds ``EdgeId``s, anew on
every call and with no cache: all of a vertex's for ``Graph.out_edges``, or
the one edge at an index for ``Graph.edge``, which bisects the run starts in
O(log runs).

The vertex- and edge-label rules (a label is a non-empty string free of
whitespace, no vertex or edge label twice, an explicit label equal to its
edge's auto label is that auto edge) live in one place, ``_RunBuilder``.
Every graph's vertices and runs, on vertex indices, pass through it in
``Graph.__post_init__``.  Its one loop passes a well-formed auto run of
plain ints on one combined test and takes any other run, and so every
error, through the rules in their order; ``graph_from_adjacency`` likewise
checks all its matrix entries in one pass and walks the rows only to name
the first bad one.  ``parse_graph`` also extends its own builder by one
run per line, so a clash is reported at its line, and hands that builder's
labels and canonical runs to ``Graph.build``.  A parse error's column names
the offending token.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import chain, compress

from .linalg import _DIGIT_LIMIT, _DigitLimitError, _frozen, _parse_integer

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


@_frozen
class VertexId:
    """A vertex: 0-based position plus a label unique within its graph."""

    index: int
    label: str


@_frozen
class EdgeId:
    """A directed edge with its own label; loops and parallels are fine."""

    index: int
    label: str
    source: VertexId
    target: VertexId


# int() converts at most _DIGIT_LIMIT digits, so no auto edge is numbered 10^4300 or past
_AUTO_K_LIMIT = 10**_DIGIT_LIMIT


def _split_auto(label: str) -> tuple[str, int] | None:
    """``(prefix, k)`` when ``label`` reads ``<prefix>_<k>`` with k a positive decimal."""
    prefix, sep, digits = label.rpartition("_")
    if not (sep and digits.isascii() and digits.isdigit() and digits[0] != "0"):
        return None
    try:
        return prefix, int(digits)
    except ValueError:  # more digits than int() converts; extend numbers no edge that far
        return None


def _bad_label(x) -> bool:
    """Whether ``x`` cannot label a vertex or an edge: not a whitespace-free string that UTF-8 encodes."""
    if not isinstance(x, str) or x.split() != [x]:
        return True
    try:
        x.encode()
    except UnicodeEncodeError:  # a lone surrogate
        return True
    return False


class _RunBuilder:
    """Vertices and edge runs checked one at a time and kept in canonical form.

    Every vertex- and edge-label rule lives here: each graph, built or
    parsed, declares its vertices through ``add_vertex`` (no label twice) and
    adds its runs (vertex indices) through ``extend``, which checks them all
    in one loop.  A named run whose label is its own edge's auto label
    becomes an auto run, and an auto run continuing the previous run merges
    into it, so two graphs are equal exactly when their edge sequences are.
    No edge label may be claimed twice.  A label of the auto shape
    ``<prefix>_<k>`` is kept as part of a range of k under its prefix, so
    claiming a whole auto run costs O(1) for a new prefix and O(log runs)
    otherwise.  Auto runs are grouped by the prefix ``<src>_<dst>``, not by
    the vertex pair: ``a_b -> c`` and ``a -> b_c`` name the same labels.
    """

    def __init__(self):
        self.vertex_labels: list[str] = []
        self.index: dict[str, int] = {}
        self.out_degrees: list[int] = []
        self.runs: list[tuple] = []
        self.plain: set[str] = set()
        self.ranges: dict[str, tuple] = {}

    def add_vertex(self, label) -> None:
        """Declare the next vertex; vertices may be declared between runs."""
        if _bad_label(label):
            raise GraphError(f"bad vertex label {label!r}")
        if label in self.index:
            raise GraphError(f"duplicate vertex label {label!r}")
        self.index[label] = len(self.vertex_labels)
        self.vertex_labels.append(label)
        self.out_degrees.append(0)

    def claim_range(self, prefix: str, lo: int, hi: int) -> None:
        """Claim ``<prefix>_<k>`` for ``lo <= k <= hi``; a clash names the smallest such k taken.

        A prefix's one range is kept as the pair ``(lo, hi)``, and its
        ranges as sorted lists of starts and ends once it has two.
        """
        claimed = self.ranges.get(prefix)
        if claimed is None:
            self.ranges[prefix] = lo, hi
            return
        starts, ends = claimed
        if isinstance(starts, int):
            starts, ends = self.ranges[prefix] = [starts], [ends]
        i = bisect_left(ends, lo)
        if i < len(ends) and starts[i] <= hi:
            raise GraphError(f"duplicate edge label {f'{prefix}_{max(starts[i], lo)}'!r}")
        if i and ends[i - 1] == lo - 1:
            ends[i - 1] = hi
        else:
            starts.insert(i, lo)
            ends.insert(i, hi)

    def extend(self, runs) -> None:
        """Check each of ``runs`` in turn, claim its labels and merge it into ``runs``.

        A well-formed auto run of plain ints passes one combined test; every
        other run, and so every error, goes through the rules one by one.
        """
        names, degrees, out, ranges = self.vertex_labels, self.out_degrees, self.runs, self.ranges
        m = len(names)
        for run in runs:
            try:
                s, d, first, n = run if isinstance(run, tuple) else ()
            except ValueError:
                raise GraphError(f"bad edge run {run!r}") from None
            if not (
                type(s) is type(d) is type(first) is type(n) is int
                and 0 <= s < m
                and 0 <= d < m
                and first >= 1
                and n >= 1
                and first + n <= _AUTO_K_LIMIT
            ):
                named = isinstance(first, str)
                if not (type(s) is int and type(d) is int and 0 <= s < m and 0 <= d < m):
                    for end in (s, d):
                        if not isinstance(end, int) or isinstance(end, bool) or not 0 <= end < m:
                            what = f"edge {first!r}" if named else f"auto run {run!r}"
                            raise GraphError(f"{what} references unknown vertex {end!r}")
                if named:
                    if type(n) is not int or n != 1:
                        raise GraphError(f"named edge run {run!r} needs count 1")
                    if _bad_label(first):
                        raise GraphError(f"bad edge label {first!r}")
                    auto = _split_auto(first)
                    if auto is None:
                        if first in self.plain:
                            raise GraphError(f"duplicate edge label {first!r}")
                        self.plain.add(first)
                    elif auto[0] == f"{names[s]}_{names[d]}":
                        named, first = False, auto[1]
                        run = (s, d, first, n)
                    else:
                        self.claim_range(auto[0], auto[1], auto[1])
                    if named:
                        degrees[s] += 1
                        out.append(run)
                        continue
                # an int subclass other than bool passes
                elif not all(isinstance(x, int) and not isinstance(x, bool) and x >= 1 for x in (first, n)):
                    raise GraphError(
                        f"auto run {run!r} needs a positive integer first_k and multiplicity"
                    )
                if first + n > _AUTO_K_LIMIT:
                    raise GraphError(
                        f"edges from {names[s]!r} to {names[d]!r} would be numbered past 10^{_DIGIT_LIMIT}"
                    )
            prefix = f"{names[s]}_{names[d]}"
            if prefix in ranges:
                self.claim_range(prefix, first, first + n - 1)
            else:
                ranges[prefix] = first, first + n - 1
            degrees[s] += n
            last = out[-1] if out else ()
            # a named last run never merges: its str first equals no int
            if last and last[0] == s and last[1] == d and last[2] == first - last[3]:
                out[-1] = (s, d, last[2], last[3] + n)
            else:
                out.append(run)


@_frozen
class Graph:
    """A finite directed multigraph.

    Vertices and edge runs are kept in declaration order; that order is the
    canonical index order used by every derived matrix and vector, and the
    order of the edge indices.  Every entry of ``runs`` is ``(src, dst,
    first, count)`` on vertex indices: ``first`` is the first k of auto-named
    parallel edges, or the label (a str) of one named edge, whose count is 1.
    It is canonical, so equality of graphs is equality of their edge
    sequences.  The out-degrees are summed as the runs are built, never from
    the V x V ``counts``; those and the per-vertex ``successor_masks`` come
    from one loop over the runs.  Only ``_name`` names an edge as an
    ``EdgeId``, on each call of ``out_edges`` and of ``edge``, which looks one
    up by its index; no named edge is kept.
    """

    vertices: tuple[VertexId, ...]
    runs: tuple[tuple, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if not self.vertices:
            raise GraphError("a graph must have at least one vertex")
        builder = _RunBuilder()
        for i, v in enumerate(self.vertices):
            if not isinstance(v, VertexId):
                raise GraphError(f"vertex {i} is {v!r}, not a VertexId")
            if v.index != i:
                raise GraphError(f"vertex {v.label!r} has index {v.index}, expected {i}")
            builder.add_vertex(v.label)
        builder.extend(self.runs)
        object.__setattr__(self, "runs", tuple(builder.runs))
        object.__setattr__(self, "_out_degrees", tuple(builder.out_degrees))

    @classmethod
    def build(
        cls,
        vertex_labels: list[str] | tuple[str, ...],
        runs: list[tuple] | tuple[tuple, ...] = (),
    ) -> "Graph":
        """Construct a graph from vertex labels and runs in the form ``Graph.runs`` holds.

        Each run is ``(src, dst, first, count)``, src and dst vertex indices:
        ``(s, d, k, n)`` is n auto-named parallel edges from k on, and
        ``(s, d, label, 1)`` one named edge.
        """
        return cls(tuple(VertexId(i, lbl) for i, lbl in enumerate(vertex_labels)), tuple(runs))

    @cached_property
    def _adjacency(self) -> tuple[tuple, tuple[int, ...]]:
        """``(counts, successor masks)``, from one loop over the runs."""
        m = len(self.vertices)
        a = [[0] * m for _ in range(m)]
        masks = [0] * m
        for s, d, _, n in self.runs:
            a[s][d] += n
            masks[s] |= 1 << d
        return tuple(map(tuple, a)), tuple(masks)

    @cached_property
    def counts(self) -> tuple[tuple[int, ...], ...]:
        """The adjacency counts: entry (i, j) is the number of edges from v_i to v_j."""
        return self._adjacency[0]

    @cached_property
    def successor_masks(self) -> tuple[int, ...]:
        """Per vertex index i, the bitmask whose bit j is set when v_i has an edge to v_j."""
        return self._adjacency[1]

    @cached_property
    def _run_starts(self) -> tuple[int, ...]:
        """The index of the first edge of each run."""
        starts, start = [], 0
        for run in self.runs:
            starts.append(start)
            start += run[3]
        return tuple(starts)

    @cached_property
    def _runs_from(self) -> tuple[tuple[tuple[int, tuple], ...], ...]:
        """Per vertex index, ``(index of its first edge, run)`` for each run it emits."""
        out: list[list] = [[] for _ in self.vertices]
        for start, run in zip(self._run_starts, self.runs):
            out[run[0]].append((start, run))
        return tuple(tuple(x) for x in out)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def num_edges(self) -> int:
        return sum(self._out_degrees)

    def vertex(self, label: str) -> VertexId:
        for v in self.vertices:
            if v.label == label:
                return v
        raise GraphError(f"no vertex labeled {label!r}")

    def _name(self, start: int, run: tuple, indices: range) -> list[EdgeId]:
        """The edges with these indices, all of ``run``, whose first edge has index ``start``."""
        s, d, first, _ = run
        src, dst = self.vertices[s], self.vertices[d]
        if isinstance(first, str):
            return [EdgeId(start, first, src, dst)]
        prefix, k = f"{src.label}_{dst.label}_", first - start
        return [EdgeId(i, f"{prefix}{k + i}", src, dst) for i in indices]

    def out_edges(self, v: VertexId) -> tuple[EdgeId, ...]:
        """The named edges leaving ``v``, in O(out-degree of v)."""
        out: list[EdgeId] = []
        for start, run in self._runs_from[v.index]:
            out += self._name(start, run, range(start, start + run[3]))
        return tuple(out)

    def edge(self, index: int) -> EdgeId:
        """The edge with this index: bisect the run starts and name that edge alone."""
        if not 0 <= index < self.num_edges:
            raise GraphError(f"no edge with index {index!r}")
        r = bisect_right(self._run_starts, index) - 1
        return self._name(self._run_starts[r], self.runs[r], range(index, index + 1))[0]

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
    # a matrix of plain non-negative ints skips the entry rule, which names the first bad entry
    if not (
        set(map(type, chain.from_iterable(adjacency))) <= {int}
        and min(chain.from_iterable(adjacency), default=0) >= 0
    ):
        for i, row in enumerate(adjacency):
            for j, count in enumerate(row):
                if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                    raise GraphError(f"adjacency entry ({i}, {j}) must be a non-negative integer")
    runs = [(i, j, 1, row[j]) for i, row in enumerate(adjacency) for j in compress(range(m), row)]
    return Graph.build(labels, runs)


def _token_column(line: str, i: int) -> int:
    """The 1-based column where token ``i`` of ``line.split()`` starts."""
    pos = 0
    for token in line.split()[: i + 1]:
        pos = line.index(token, pos) + len(token)
    return pos - len(token) + 1


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format.

    Directives (one per line, blank lines and ``#`` comments ignored):

    * ``vertex <label>`` declares a vertex; declaration order is index order.
    * ``edge <src> <dst> [<multiplicity>]`` declares that many parallel
      edges, auto-named ``<src>_<dst>_<k>``.
    * ``edge-label <name> <src> <dst>`` declares one individually named edge.

    An error names its line and, when one token is at fault, that token's column:

    >>> parse_graph("vertex e\\nvertex e\\n")
    Traceback (most recent call last):
    lpa_lie.graph.GraphParseError: line 2, column 8: duplicate vertex label 'e'
    """
    builder = _RunBuilder()
    index = builder.index
    counters: dict[tuple[int, int], int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        directive = tokens[0]
        if directive == "vertex":
            if len(tokens) != 2:
                raise GraphParseError("expected: vertex <label>", lineno)
            try:
                builder.add_vertex(tokens[1])
            except GraphError as exc:
                raise GraphParseError(str(exc), lineno, _token_column(raw, 1)) from None
            continue
        if directive == "edge":
            if len(tokens) not in (3, 4):
                raise GraphParseError("expected: edge <src> <dst> [<multiplicity>]", lineno)
            src_at = 1  # the token naming the source
        elif directive == "edge-label":
            if len(tokens) != 4:
                raise GraphParseError("expected: edge-label <name> <src> <dst>", lineno)
            src_at = 2
        else:
            raise GraphParseError(f"unknown directive {directive!r}", lineno, _token_column(raw, 0))
        for i in (src_at, src_at + 1):
            if tokens[i] not in index:
                raise GraphParseError(
                    f"undeclared vertex {tokens[i]!r}", lineno, _token_column(raw, i)
                )
        s, d = index[tokens[src_at]], index[tokens[src_at + 1]]
        if src_at == 2:
            run = (s, d, tokens[1], 1)
        else:
            mult = 1
            if len(tokens) == 4:
                try:
                    mult = _parse_integer(tokens[3])
                    problem = None if mult >= 1 else f"multiplicity must be >= 1, got {mult}"
                except _DigitLimitError as exc:
                    problem = f"multiplicity {exc}"
                except ValueError:
                    problem = f"multiplicity must be an integer, got {tokens[3]!r}"
                if problem:
                    raise GraphParseError(problem, lineno, _token_column(raw, 3))
            base = counters.get((s, d), 0)
            counters[(s, d)] = base + mult
            run = (s, d, base + 1, mult)
        try:
            builder.extend((run,))
        except GraphError as exc:
            column = _token_column(raw, 1) if src_at == 2 else None  # auto labels: no token
            raise GraphParseError(str(exc), lineno, column) from None

    if not index:
        raise GraphParseError("no vertices declared")
    return Graph.build(builder.vertex_labels, builder.runs)


def serialize_graph(g: Graph) -> str:
    """Canonical text for a graph, one line per run; ``parse_graph`` round-trips it exactly.

    A named edge is an ``edge-label`` line, and an auto run whose first k
    continues its vertex pair's count (kept as the parser keeps it) an
    ``edge`` line.  An auto run that starts past that count is an
    ``edge-label`` line per edge; from text it has one edge per input line.
    """
    names = [v.label for v in g.vertices]
    lines = [f"vertex {name}" for name in names]
    counts: dict[tuple[int, int], int] = {}
    for s, d, first, n in g.runs:
        src, dst = names[s], names[d]
        if isinstance(first, str):
            lines.append(f"edge-label {first} {src} {dst}")
        elif first == counts.get((s, d), 0) + 1:
            lines.append(f"edge {src} {dst} {n}")
            counts[(s, d)] = first + n - 1
        else:
            lines += (f"edge-label {src}_{dst}_{k} {src} {dst}" for k in range(first, first + n))
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
    return Graph.build(labels, [(i, i + 1, 1, 1) for i in range(d - 1)])


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
    values = list(params)
    if not all(isinstance(p, int) and not isinstance(p, bool) for p in values):
        raise GraphError(f"family parameters must be integers ({usage})")
    if len(values) != arity:
        raise GraphError(f"family {name!r} takes {arity} parameter(s): {usage}")
    return builder(*values)
