"""Seeded inputs for the benchmark: random graphs, known pointed-K0 pairs and
named-family DSL text.

Everything here is a pure function of a ``random.Random`` seeded from the
workload seed, and nothing imports the package under test, so the inputs do
not change when the package does.  Graphs are plain adjacency count matrices
(``list[list[int]]``); vertex ``i`` is labelled ``v{i+1}``.
"""

from __future__ import annotations

import json
import random

# ---------------------------------------------------------------------------
# Random graphs of three kinds
# ---------------------------------------------------------------------------


def labels(n: int) -> list[str]:
    return [f"v{i + 1}" for i in range(n)]


def _multiplicities(rng: random.Random, count: int, max_mult: int) -> list[int]:
    """``count`` multiplicities cycling through 1..max_mult, in random order.

    Every graph of a given size then has the same number of edges, which is
    what sets the cost of a call, while the seed decides where they go.
    """
    out = [1 + i % max_mult for i in range(count)]
    rng.shuffle(out)
    return out


def pis_graph(rng: random.Random, n: int, density: float, max_mult: int) -> list[list[int]]:
    """Purely infinite simple: a Hamiltonian cycle plus ``density * n * (n-1)`` chords.

    The cycle makes the graph strongly connected; any chord (there is always
    at least one) gives every cycle an exit, and there are no sinks.
    """
    if n == 1:
        return [[2]]
    slots = [(i, j) for i in range(n) for j in range(n) if j != (i + 1) % n]
    chords = rng.sample(slots, max(1, round(density * n * (n - 1))))
    mults = _multiplicities(rng, n + len(chords), max_mult)
    adj = [[0] * n for _ in range(n)]
    for i, (a, b) in enumerate([(i, (i + 1) % n) for i in range(n)] + chords):
        adj[a][b] = mults[i]
    return adj


def sink_graph(rng: random.Random, n: int, density: float, max_mult: int) -> list[list[int]]:
    """Acyclic with the single sink ``v{n}``: simple but not purely infinite simple.

    Every edge goes forward (i < j) and each vertex but the last has an edge
    to its successor, so every vertex reaches the one sink.
    """
    slots = [(i, j) for i in range(n) for j in range(i + 2, n)]
    chords = rng.sample(slots, round(density * len(slots)))
    mults = _multiplicities(rng, n - 1 + len(chords), max_mult)
    adj = [[0] * n for _ in range(n)]
    for i, (a, b) in enumerate([(i, i + 1) for i in range(n - 1)] + chords):
        adj[a][b] = mults[i]
    return adj


def split_graph(rng: random.Random, n: int, density: float, max_mult: int) -> list[list[int]]:
    """Not simple: two purely infinite simple halves with edges only forward.

    A vertex of the second half cannot reach the cycles of the first half.
    """
    k = n // 2
    first = pis_graph(rng, k, density, max_mult)
    second = pis_graph(rng, n - k, density, max_mult)
    adj = [[0] * n for _ in range(n)]
    for i in range(k):
        adj[i][:k] = first[i]
    for i in range(n - k):
        adj[k + i][k:] = second[i]
    for _ in range(max(1, k // 4)):
        adj[rng.randrange(k)][k + rng.randrange(n - k)] += 1
    return adj


KINDS = {"pis": pis_graph, "sink": sink_graph, "split": split_graph}


# ---------------------------------------------------------------------------
# Pairs with a known pointed K0 isomorphism
# ---------------------------------------------------------------------------


def out_split(rng: random.Random, adj: list[list[int]]) -> list[list[int]]:
    """Out-split one vertex with at least two out-edges.

    The out-edges of ``v`` are divided into two nonempty multisets E1, E2;
    ``v`` becomes ``v'`` (emitting E1, kept at index ``v``) and ``v''``
    (emitting E2, appended last), and every edge into ``v`` is doubled, one
    copy into each.  Out-splitting leaves the path algebra unchanged up to
    isomorphism (Abrams-Louly-Pardo-Smith 2011), so it preserves pointed K0.
    """
    n = len(adj)
    candidates = [v for v in range(n) if sum(adj[v]) >= 2]
    v = rng.choice(candidates)
    edges = [w for w in range(n) for _ in range(adj[v][w])]
    rng.shuffle(edges)
    cut = rng.randint(1, len(edges) - 1)
    parts = []
    for part in (edges[:cut], edges[cut:]):
        row = [0] * n
        for w in part:
            row[w] += 1
        parts.append(row)
    out = [row[:] + [row[v]] for row in adj]
    out.append([0] * (n + 1))
    for j, row in ((v, parts[0]), (n, parts[1])):
        out[j] = row[:] + [row[v]]
    return out


def permuted(adj: list[list[int]], perm: list[int]) -> list[list[int]]:
    """The same graph with vertex ``i`` moved to position ``perm[i]``."""
    n = len(adj)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = adj[i][j]
    return out


# ---------------------------------------------------------------------------
# Named families as DSL text
# ---------------------------------------------------------------------------

EXAMPLE4 = [[1, 1, 0, 0], [1, 0, 0, 1], [0, 1, 1, 0], [0, 0, 1, 0]]


def family_adjacency(name: str, params: list[int]) -> list[list[int]]:
    """Adjacency of a named family, written from its definition."""
    if name == "rose":
        return [[params[0]]]
    if name == "example4":
        return [row[:] for row in EXAMPLE4]
    if name == "prime_set":
        adj = [row[:] for row in EXAMPLE4]
        adj[3][3] = params[0] + 1
        return adj
    if name == "two_vertex":
        u, v, p = params
        return [[p * u * v + 1, u], [p * u, 1 + u]]
    raise ValueError(f"unknown family {name!r}")


def to_dsl(adj: list[list[int]]) -> str:
    """Line format with one ``edge src dst count`` line per nonzero entry."""
    names = labels(len(adj))
    lines = [f"vertex {v}" for v in names]
    for i, row in enumerate(adj):
        for j, count in enumerate(row):
            if count:
                lines.append(f"edge {names[i]} {names[j]} {count}")
    return "\n".join(lines) + "\n"


def to_json(adj: list[list[int]]) -> str:
    return json.dumps({"vertices": labels(len(adj)), "adjacency": adj})

