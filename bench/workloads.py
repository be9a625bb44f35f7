"""The three workloads: which CLI calls one pass makes, built from a seed.

A pass is a fixed list of calls.  The size of each call (vertices, edges)
follows a fixed schedule across the workload's range, and the seed decides
everything else: the edges of each random graph, the splits and permutations
of the known pairs, the family parameters that reach each edge count and the
coefficient vectors.  Size is what sets a call's cost, so passes made from
different seeds cost about the same and the spread between seeds stays small.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import corpus
import exact

DEFAULT_CHARS = (0, 2, 3, 5, 7)
TWELVE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
HUGE_CHAR = 2**61 - 1
K0_PRIME = 1_000_000_007

# Trial division in the package takes about 9e-8 s per unit of reach (see
# ``exact.trial_division_steps``).  kp-check pairs come in three bands of
# the reach of their torsion order: easy (factoring under about 0.02 s),
# moderate (up to about 0.45 s, the load a factoring fix would lift) and
# hard (over about 9 s, stopped at the time limit).  Pairs between moderate
# and hard would end close to the 4 s limit, so they are left out and the
# set of failed calls repeats exactly.
EASY_REACH = 2 * 10**5
MODERATE_REACH = 5 * 10**6
HARD_REACH = 10**8


@dataclass
class Call:
    """One CLI invocation and what its answer must satisfy.

    ``expect`` holds what the checks need: the command, the graph adjacency
    (or two), the characteristics asked for, and the known answer where the
    input was built to have one.
    """

    id: str
    argv: list[str]
    stdin: str = ""
    expect: dict = field(default_factory=dict)


def _schedule(lo: int, hi: int, count: int, power: float = 1.0) -> list[int]:
    """``count`` sizes from ``lo`` to ``hi``; ``power`` < 1 packs more near ``hi``."""
    return [round(lo + (hi - lo) * (i / (count - 1)) ** power) for i in range(count)]


def _analyze_call(cid: str, adj, kind: str, chars, fmt: str = "json") -> Call:
    argv = ["analyze", "--json", "-"]
    if tuple(chars) != DEFAULT_CHARS:
        argv += ["--char", ",".join(map(str, chars))]
    stdin = corpus.to_json(adj) if fmt == "json" else corpus.to_dsl(adj)
    return Call(cid, argv, stdin, {"cmd": "analyze", "adj": adj, "kind": kind, "chars": list(chars)})


# ---------------------------------------------------------------------------
# analyze_mix
# ---------------------------------------------------------------------------

MIX_DENSITY = {"pis": 0.15, "sink": 0.2, "split": 0.1}
MIX_PER_KIND = 15


def analyze_mix(seed: int, workdir: Path) -> list[Call]:
    rng = random.Random(f"analyze_mix/{seed}")
    calls = []
    for kind, make in corpus.KINDS.items():
        for i, n in enumerate(_schedule(10, 40, MIX_PER_KIND)):
            adj = make(rng, n, MIX_DENSITY[kind], 3)
            chars = DEFAULT_CHARS if i % 2 == 0 else TWELVE_PRIMES
            calls.append(_analyze_call(f"{kind}-{i:02d}-n{n}", adj, kind, chars))
    return calls


# ---------------------------------------------------------------------------
# k0_kp
# ---------------------------------------------------------------------------

K0_GRAPHS = 12
KP_BANDS = {"easy": 14, "moderate": 10, "hard": 1}


def _reach_band(adj) -> str | None:
    det = exact.bareiss_det(exact.presentation_matrix(adj))
    if det == 0:
        return None
    reach = exact.trial_division_steps(abs(det))
    if reach is None or reach > HARD_REACH:
        return "hard"
    if reach < EASY_REACH:
        return "easy"
    if reach <= MODERATE_REACH:
        return "moderate"
    return None


def k0_kp(seed: int, workdir: Path) -> list[Call]:
    rng = random.Random(f"k0_kp/{seed}")
    calls = []
    adj = corpus.pis_graph(rng, 10, 0.3, 3)
    calls.append(_analyze_call("huge-char", adj, "pis", [HUGE_CHAR]))
    # Sizes packed toward the top of each range put many calls of similar
    # cost around the median, which keeps call_ms_p50 steady across seeds.
    for i, n in enumerate(_schedule(20, 50, K0_GRAPHS, 0.5)):
        adj = corpus.pis_graph(rng, n, 0.3, 6)
        calls.append(
            Call(
                f"k0-{i:02d}-n{n}",
                ["k0", "--json", "--primes", str(K0_PRIME), "-"],
                corpus.to_json(adj),
                {"cmd": "k0", "adj": adj, "primes": [K0_PRIME]},
            )
        )
    # Easy and moderate pairs alternate along the size schedule, so each band
    # spans the whole range of sizes; the hard pairs come last.
    finishing = KP_BANDS["easy"] + KP_BANDS["moderate"]
    wanted = ["moderate" if i * KP_BANDS["moderate"] % finishing < KP_BANDS["moderate"] else "easy"
              for i in range(finishing)] + ["hard"] * KP_BANDS["hard"]
    sizes = _schedule(12, 20, finishing, 0.5) + [20] * KP_BANDS["hard"]
    for i, (want, n) in enumerate(zip(wanted, sizes)):
        while True:
            a = corpus.pis_graph(rng, n, 0.5, 12)
            if _reach_band(a) == want:
                break
        expect = {"cmd": "kp-check", "adj": a}
        if i % 2 == 0:
            how, b = "split", corpus.out_split(rng, a)
        else:
            how, perm = "perm", rng.sample(range(n), n)
            b = corpus.permuted(a, perm)
            expect["perm"] = perm
        expect["adj_b"] = b
        cid = f"kp-{i:02d}-{how}-{want}-n{n}"
        paths = []
        for tag, g in (("a", a), ("b", b)):
            path = workdir / f"{cid}-{tag}.json"
            path.write_text(corpus.to_json(g))
            paths.append(str(path))
        calls.append(Call(cid, ["kp-check", "--json", *paths], "", expect))
    return calls


# ---------------------------------------------------------------------------
# witness_multi
# ---------------------------------------------------------------------------


def _family_calls(rng: random.Random, cid: str, name: str, params: list[int], heavy: bool) -> list[Call]:
    """analyze, family, and member / non-member witness calls on one family graph.

    On a ``heavy`` graph the member combination uses only the vertex with the
    fewest out-edges, because the witness expansion grows with the square of
    the edges it touches.
    """
    adj = corpus.family_adjacency(name, params)
    dsl = corpus.to_dsl(adj)
    n = len(adj)
    b = exact.b_vectors(adj)
    calls = [
        _analyze_call(f"{cid}-analyze", adj, "pis", DEFAULT_CHARS, fmt="dsl"),
        Call(f"{cid}-family", ["family", name, *map(str, params)], "", {"cmd": "family", "dsl": dsl}),
    ]
    light = min(range(n), key=lambda i: sum(adj[i]))
    support = [light] if heavy else list(range(n))
    t = [rng.choice((-2, -1, 1, 2, 3)) if i in support else 0 for i in range(n)]
    k = [sum(t[i] * b[i][j] for i in range(n)) for j in range(n)]
    calls.append(_witness_call(f"{cid}-member", dsl, adj, k, 0, True))
    det = exact.bareiss_det(b)
    p = _smallest_prime_factor(abs(det)) if det else None
    if p is not None:
        rank = exact.rank_mod(b, p)
        for _ in range(50):
            k = [rng.randrange(p) for _ in range(n)]
            if exact.rank_mod(b + [k], p) > rank:
                calls.append(_witness_call(f"{cid}-nonmember", dsl, adj, k, p, False))
                break
    return calls


def _witness_call(cid: str, dsl: str, adj, k: list[int], char: int, member: bool) -> Call:
    argv = ["witness", "--json", "-", "--coeffs=" + ",".join(map(str, k)), "--char", str(char)]
    return Call(cid, argv, dsl, {"cmd": "witness", "adj": adj, "k": k, "char": char, "member": member})


def _smallest_prime_factor(n: int) -> int | None:
    p = 2
    while p * p <= n and p < 10**4:
        if n % p == 0:
            return p
        p += 1
    return n if 1 < n < 10**8 else None


def witness_multi(seed: int, workdir: Path) -> list[Call]:
    rng = random.Random(f"witness_multi/{seed}")
    calls = []
    for i, edges in enumerate(_schedule(600, 24000, 6)):
        # two_vertex(u, v, p) has p*u*v + p*u + 2*u + 2 edges, p*u + u + 1 of
        # them out of the light vertex: pick u, then p and v to hit both.
        u = rng.randint(3, 8)
        p = max(2, round(60 / u))
        v = max(2, round((edges - 2 * u - 2 - p * u) / (p * u)))
        calls += _family_calls(rng, f"two_vertex-{i}", "two_vertex", [u, v, p], heavy=edges > 3000)
    for i, n in enumerate(_schedule(200, 2500, 3)):
        calls += _family_calls(rng, f"rose-{i}", "rose", [n + rng.randint(-10, 10)], heavy=False)
    for i, q in enumerate(_schedule(100, 2500, 3)):
        calls += _family_calls(rng, f"prime_set-{i}", "prime_set", [q + rng.randint(-10, 10)], heavy=False)
    calls += _family_calls(rng, "example4", "example4", [], heavy=False)
    return calls


WORKLOADS = {"analyze_mix": analyze_mix, "k0_kp": k0_kp, "witness_multi": witness_multi}

# Per-call time limit of each workload, at least 4.5 times its slowest call
# that finishes (about 2 s, 0.9 s and 1.7 s of unscaled time here).  The
# calls that pass it would run for minutes.
CALL_LIMIT_S = {"analyze_mix": 20.0, "k0_kp": 4.0, "witness_multi": 10.0}


def anchors(workload: str, workdir: Path) -> list[Call]:
    """A few fixed small calls per workload, the same for every seed.

    They warm the interpreter up before timing, and their answer digests are
    compared with the reference committed beside the benchmark.
    """
    ex4 = corpus.family_adjacency("example4", [])
    if workload == "analyze_mix":
        return [
            _analyze_call("anchor-example4", ex4, "pis", DEFAULT_CHARS),
            _analyze_call("anchor-prime_set6", corpus.family_adjacency("prime_set", [6]), "pis", TWELVE_PRIMES),
            _analyze_call("anchor-sink", corpus.sink_graph(random.Random(0), 6, 0.5, 2), "sink", DEFAULT_CHARS),
        ]
    if workload == "k0_kp":
        tv = corpus.family_adjacency("two_vertex", [2, 2, 2])
        split = corpus.out_split(random.Random(0), ex4)
        paths = []
        for tag, g in (("a", ex4), ("b", split)):
            path = workdir / f"anchor-kp-{tag}.json"
            path.write_text(corpus.to_json(g))
            paths.append(str(path))
        return [
            Call("anchor-k0-two_vertex", ["k0", "--json", "--primes", str(K0_PRIME), "-"], corpus.to_json(tv),
                 {"cmd": "k0", "adj": tv, "primes": [K0_PRIME]}),
            Call("anchor-kp-example4", ["kp-check", "--json", *paths], "", {"cmd": "kp-check", "adj": ex4, "adj_b": split}),
        ]
    rose3 = corpus.family_adjacency("rose", [3])
    return [
        _witness_call("anchor-rose3-member", corpus.to_dsl(rose3), rose3, [1], 0, True),
        _witness_call("anchor-rose3-nonmember", corpus.to_dsl(rose3), rose3, [1], 2, False),
        Call("anchor-example4-family", ["family", "example4"], "", {"cmd": "family", "dsl": corpus.to_dsl(ex4)}),
    ]
