"""Tests of the benchmark's seeded corpus and its own exact arithmetic.

Run with ``python3 -m pytest bench/test_corpus.py``.  The graph kinds are
checked with a reachability test written here, not with the package.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import corpus  # noqa: E402
import exact  # noqa: E402
import workloads  # noqa: E402


def _reach(adj):
    n = len(adj)
    out = []
    for s in range(n):
        seen, todo = {s}, [s]
        while todo:
            v = todo.pop()
            for w in range(n):
                if adj[v][w] and w not in seen:
                    seen.add(w)
                    todo.append(w)
        out.append(seen)
    return out


def _on_cycle(adj, reach):
    return {v for v in range(len(adj)) if any(adj[u][v] and u in reach[v] for u in range(len(adj)))}


def _kind(adj) -> str:
    """``pis``, ``sink`` (simple, not purely infinite simple) or ``split`` (not simple)."""
    n = len(adj)
    reach = _reach(adj)
    cyc = _on_cycle(adj, reach)
    sinks = {v for v in range(n) if not any(adj[v])}
    reaches_all = all(sinks | cyc <= reach[v] for v in range(n))
    # a cycle without an exit has only out-degree-1 vertices, each on the cycle
    exitless = any(
        sum(adj[v]) == 1 and all(sum(adj[w]) == 1 for w in reach[v]) and v in cyc for v in range(n)
    )
    if not reaches_all or exitless:
        return "split"
    return "pis" if cyc and not sinks else "sink"


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", sorted(corpus.KINDS))
def test_graph_kinds(kind, seed):
    rng = random.Random(seed)
    for n in (2, 3, 10, 25):
        adj = corpus.KINDS[kind](rng, n, 0.2, 3)
        assert _kind(adj) == kind


def test_sink_graphs_have_one_sink_and_no_cycle():
    rng = random.Random(7)
    adj = corpus.sink_graph(rng, 15, 0.3, 3)
    assert [v for v in range(15) if not any(adj[v])] == [14]
    assert not _on_cycle(adj, _reach(adj))


def _is_out_split(a, b) -> bool:
    """b comes from a by out-splitting vertex v into v (kept) and the new last vertex."""
    n = len(a)
    if len(b) != n + 1:
        return False
    for v in range(n):
        rows_ok = all(b[u][:n] == a[u][:v] + [b[u][v]] + a[u][v + 1:] and b[u][v] == b[u][n] == a[u][v]
                      for u in range(n) if u != v)
        parts = (b[v], b[n])
        split_ok = all(p[v] == p[n] for p in parts) and all(sum(p[:n]) > 0 for p in parts)
        merged = [parts[0][w] + parts[1][w] for w in range(n)]
        if rows_ok and split_ok and merged == a[v]:
            return True
    return False


@pytest.mark.parametrize("seed", range(10))
def test_out_split_pairs(seed):
    rng = random.Random(seed)
    a = corpus.pis_graph(rng, rng.randint(3, 12), 0.4, 4)
    b = corpus.out_split(rng, a)
    assert _is_out_split(a, b)
    assert _kind(b) == "pis"
    assert sum(map(sum, b)) > sum(map(sum, a))


def test_out_split_of_a_rose():
    # rose(3) split into 1 + 2 loops: v1 emits one edge, v2 two, each doubled.
    b = corpus.out_split(random.Random(1), [[3]])
    assert sorted(map(sum, b)) == [2, 4]
    assert _is_out_split([[3]], b)


@pytest.mark.parametrize("seed", range(10))
def test_permuted_pairs(seed):
    rng = random.Random(seed)
    a = corpus.pis_graph(rng, 6, 0.4, 3)
    b = corpus.permuted(a, rng.sample(range(6), 6))
    assert any(all(b[p[i]][p[j]] == a[i][j] for i in range(6) for j in range(6)) for p in permutations(range(6)))


def test_family_dsl_matches_definitions():
    assert corpus.family_adjacency("two_vertex", [2, 3, 5]) == [[31, 2], [10, 3]]
    assert corpus.family_adjacency("prime_set", [6])[3][3] == 7
    assert corpus.to_dsl([[2, 0], [1, 1]]) == "vertex v1\nvertex v2\nedge v1 v1 2\nedge v2 v1 1\nedge v2 v2 1\n"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_depend_only_on_the_seed(name, tmp_path):
    make = workloads.WORKLOADS[name]
    first = make(3, tmp_path)
    again = make(3, tmp_path)
    other = make(4, tmp_path)
    key = lambda calls: [(c.id, c.stdin, [a for a in c.argv if not a.startswith(str(tmp_path))]) for c in calls]
    assert key(first) == key(again)
    assert key(first) != key(other)
    assert len({c.id for c in first}) == len(first)


def test_kp_pairs_are_known_pairs(tmp_path):
    calls = [c for c in workloads.k0_kp(5, tmp_path) if c.expect["cmd"] == "kp-check"]
    assert Counter(c.id.split("-")[3] for c in calls) == workloads.KP_BANDS
    for c in calls:
        a, b = c.expect["adj"], c.expect["adj_b"]
        if "split" in c.id:
            assert _is_out_split(a, b)
        else:
            perm = c.expect["perm"]
            assert sorted(perm) == list(range(len(a)))
            assert all(b[perm[i]][perm[j]] == a[i][j] for i in range(len(a)) for j in range(len(a)))
        assert _kind(a) == _kind(b) == "pis"
        assert workloads._reach_band(a) == c.id.split("-")[3]


def test_witness_coefficients(tmp_path):
    for c in workloads.witness_multi(2, tmp_path):
        if c.expect["cmd"] != "witness":
            continue
        b, k, p = exact.b_vectors(c.expect["adj"]), c.expect["k"], c.expect["char"]
        in_span = exact.rank_mod(b + [k], p) == exact.rank_mod(b, p)
        assert in_span == c.expect["member"], c.id


def test_bareiss_det_against_fractions():
    rng = random.Random(11)
    for n in range(1, 7):
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        a = [[Fraction(x) for x in row] for row in m]
        det = Fraction(1)
        for c in range(n):
            piv = next((r for r in range(c, n) if a[r][c]), None)
            if piv is None:
                det = Fraction(0)
                break
            if piv != c:
                a[c], a[piv] = a[piv], a[c]
                det = -det
            det *= a[c][c]
            for r in range(c + 1, n):
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
        assert exact.bareiss_det(m) == det


def test_primality_and_trial_division_reach():
    assert [n for n in range(60) if exact.is_probable_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59
    ]
    assert exact.is_probable_prime(2**61 - 1)
    assert not exact.is_probable_prime(1_000_000_007 * 998_244_353)
    assert exact.trial_division_steps(2**10 * 3**4) == 3
    assert exact.trial_division_steps(101 * 10_007) == 101
    assert exact.trial_division_steps(1_000_003 * 1_000_033) == 1_000_003
    assert exact.trial_division_steps(1_000_000_007 * 998_244_353 * 3) == 998_244_353
    assert exact.trial_division_steps(2**127 - 1) == 13_043_817_825_332_782_212
