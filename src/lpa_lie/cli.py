"""Command line interface.

Subcommands: ``analyze``, ``k0``, ``witness``, ``family``, ``kp-check``, and
``selftest``.  Graphs are read from a file path or ``-`` (standard input),
either in the line-oriented text format or as a JSON object with ``vertices``
and ``adjacency``.  ``--json`` switches every command to a stable,
schema-versioned machine-readable report on one line; an error in that mode
is printed as one such line too, besides the ``error:`` line on stderr.

Exit codes: 0 verdicts produced, 1 input or usage error or a standard output
closed by its reader, 2 every requested verdict inapplicable (``analyze``) or
non-membership (``witness``), 3 contradiction in ``kp-check`` (which would
indicate a bug).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .cohn import vertex_witness
from .graph import (
    Graph,
    GraphError,
    adjacency_matrix,
    b_vectors,
    family,
    family_names,
    graph_from_adjacency,
    parse_graph,
    serialize_graph,
)
from .linalg import (
    FieldSpec,
    K0Presentation,
    _parse_integer,
    class_order,
    is_p_divisible,
    is_prime,
)
from .verdict import (
    INAPPLICABLE,
    SIMPLE,
    GraphInvariants,
    kp_consistency,
    leavitt_closed_form,
    lie_simplicity,
    lie_simplicity_via_k0,
    matrix_lie_simplicity,
    vertex_combination_in_commutator,
)

SCHEMA = "lpa-lie.report/2"
DEFAULT_CHARS = (0, 2, 3, 5, 7)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
# Counts, reachability and the Smith form are all V x V, so a graph with more
# vertices is refused before any of them is built.
VERTEX_LIMIT = 1_000


class _CliError(ValueError):
    """Input or usage problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_source(spec: str) -> str:
    if spec == "-":
        return sys.stdin.read()
    try:
        with open(spec, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read {spec!r}: {exc}") from exc


def _load_graph(spec: str) -> Graph:
    text = _read_source(spec)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise _CliError(f"bad JSON graph: {exc}") from exc
        if not isinstance(data, dict) or "vertices" not in data or "adjacency" not in data:
            raise _CliError("JSON graph needs 'vertices' and 'adjacency' fields")
        labels = data["vertices"]
        if not isinstance(labels, list) or not all(isinstance(v, str) for v in labels):
            raise _CliError("JSON graph 'vertices' must be a list of strings")
        try:
            g = graph_from_adjacency(labels, data["adjacency"])
        except (GraphError, TypeError) as exc:
            raise _CliError(f"bad structured graph: {exc}") from exc
    else:
        g = parse_graph(text)
    if g.num_vertices > VERTEX_LIMIT:
        raise _CliError(
            f"graph has {g.num_vertices} vertices, more than the limit of {VERTEX_LIMIT}"
        )
    return g


def _split_list(text: str) -> list[str]:
    """The pieces of a comma list, stripped, blanks skipped."""
    return [piece for piece in map(str.strip, text.split(",")) if piece]


def _parse_ints(text: str, what: str, valid, rule: str) -> list[int]:
    """The integers of a comma list, in order; each must pass ``valid``."""
    values = []
    for piece in _split_list(text):
        try:
            n = _parse_integer(piece)
        except ValueError:
            raise _CliError(f"bad {what} {piece!r}") from None
        if not valid(n):
            raise _CliError(f"{rule}, got {n}")
        values.append(n)
    return values


def _parse_chars(text: str) -> list[int]:
    rule = "characteristic must be 0 or prime"
    chars = _parse_ints(text, "characteristic", lambda c: c == 0 or is_prime(c), rule)
    if not chars:
        raise _CliError("no characteristics given")
    return chars


def _fmt_vec(values) -> str:
    return "(" + ", ".join(str(x) for x in values) + ")"


def _verdict_dict(v) -> dict:
    cert = v.certificate
    if cert is not None and not isinstance(cert, (int, str)):
        if isinstance(cert, tuple):
            cert = [str(c) for c in cert]
        else:
            cert = getattr(cert, "describe", lambda: str(cert))()
    return {
        "status": v.status,
        "route": v.route,
        "characteristic": v.characteristic,
        "reason": v.reason,
        "certificate": cert,
    }


def _run_dict(names: list[str], run: tuple) -> dict:
    """An auto run ``(src, dst, first, count)`` or a named edge ``(label, src, dst)``."""
    if len(run) == 4:
        s, d, first, count = run
        return {"source": names[s], "target": names[d], "first": first, "count": count}
    label, s, d = run
    return {"label": label, "source": names[s], "target": names[d]}


def _graph_summary(g: Graph) -> dict:
    names = [v.label for v in g.vertices]
    return {
        "vertices": names,
        "edge_count": g.num_edges,
        # one entry per run, so the summary never names an edge
        "runs": [_run_dict(names, run) for run in g.runs],
        "sinks": [v.label for v in g.sinks()],
        "regular": [v.label for v in g.regular_vertices()],
        "adjacency": adjacency_matrix(g),
    }


def _simplicity_dict(report) -> dict:
    return {
        "verdict": report.verdict,
        "witnesses": [w.describe() for w in report.witnesses],
    }


def _k0_dict(pres: K0Presentation) -> dict:
    order = class_order(pres)
    return {
        "invariant_factors": list(pres.invariant_factors),
        "nontrivial_factors": list(pres.nontrivial_factors),
        "group": pres.group_description(),
        "unit_class": list(pres.unit_class),
        "unit_class_order": "infinite" if order is None else order,
    }


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        # a Graph in the payload becomes its summary only here; compact
        # one-line output keeps CPython on its C encoder
        print(json.dumps(payload, default=_graph_summary))
    else:
        print(human, end="")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    g = _load_graph(args.graph)
    chars = _parse_chars(args.char)
    inv = GraphInvariants(g)
    simple = inv.simplicity
    pis = inv.pure_infinite_simplicity
    bvecs = inv.b_vectors

    rows = []
    for c in chars:
        field = FieldSpec(c)
        span = lie_simplicity(inv, field)
        entry = {"characteristic": c, "span": _verdict_dict(span), "k0": None, "agreement": None}
        if pis.verdict:
            k0v = lie_simplicity_via_k0(inv, field)
            entry["k0"] = _verdict_dict(k0v)
            entry["agreement"] = "AGREE" if k0v.status == span.status else "DISAGREE"
        rows.append(entry)

    payload = {
        "schema": SCHEMA,
        "command": "analyze",
        "graph": g,
        "b_vectors": bvecs,
        "algebra_simple": _simplicity_dict(simple),
        "purely_infinite_simple": _simplicity_dict(pis),
        "k0": _k0_dict(inv.k0),
        "verdicts": rows,
    }

    lines = []
    lines.append(f"graph: {g.num_vertices} vertices, {g.num_edges} edges")
    lines.append("vertices: " + " ".join(v.label for v in g.vertices))
    lines.append(
        "sinks: " + (" ".join(v.label for v in g.sinks()) or "(none)")
        + "   regular: " + (" ".join(v.label for v in g.regular_vertices()) or "(none)")
    )
    lines.append("B-vectors:")
    for v, b in zip(g.vertices, bvecs):
        lines.append(f"  B[{v.label}] = {_fmt_vec(b)}")
    if simple.verdict:
        lines.append("path algebra: simple (for every coefficient field)")
    else:
        lines.append("path algebra: NOT simple")
        for w in payload["algebra_simple"]["witnesses"]:
            lines.append(f"  witness: {w}")
    if pis.verdict:
        lines.append("purely infinite simple: yes")
    else:
        lines.append("purely infinite simple: no")
        for w in payload["purely_infinite_simple"]["witnesses"]:
            lines.append(f"  witness: {w}")
    k0 = payload["k0"]
    lines.append(
        f"K0 presentation: {k0['group']}   snf diagonal: {_fmt_vec(k0['invariant_factors'])}"
        f"   unit class: {_fmt_vec(k0['unit_class'])}"
        f"   order: {k0['unit_class_order']}"
    )
    for entry in rows:
        span = entry["span"]
        line = f"char {entry['characteristic']}: {span['status']}   [span route: {span['reason']}]"
        lines.append(line)
        if span["certificate"] is not None and isinstance(span["certificate"], list):
            lines.append(f"  span coefficients: {_fmt_vec(span['certificate'])}")
        if entry["k0"] is not None:
            lines.append(
                f"  k0 route: {entry['k0']['status']} ({entry['k0']['reason']})"
                f" -- {entry['agreement']}"
            )
    human = "\n".join(lines) + "\n"
    _emit(args, payload, human)
    if all(entry["span"]["status"] == INAPPLICABLE for entry in rows):
        return 2
    return 0


# ---------------------------------------------------------------------------
# k0
# ---------------------------------------------------------------------------


def _cmd_k0(args) -> int:
    g = _load_graph(args.graph)
    extra = _parse_ints(args.primes, "prime", is_prime, "--primes entries must be prime")
    primes = sorted(set(SMALL_PRIMES) | set(extra))
    pres = GraphInvariants(g).k0
    info = _k0_dict(pres)
    divisibility = {str(p): is_p_divisible(pres, p) for p in primes}
    payload = {
        "schema": SCHEMA,
        "command": "k0",
        "graph": g,
        "k0": info,
        "p_divisibility": divisibility,
    }
    lines = [
        f"K0 presentation (cokernel of I - A^t): {info['group']}",
        f"snf diagonal: {_fmt_vec(info['invariant_factors'])}",
        f"invariant factors (trivial suppressed): {_fmt_vec(info['nontrivial_factors'])}",
        f"unit class: {_fmt_vec(info['unit_class'])}",
        f"order of unit class: {info['unit_class_order']}",
        "p-divisibility of the unit class:",
    ]
    for p in primes:
        lines.append(f"  p = {p}: {'yes' if divisibility[str(p)] else 'no'}")
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------


def _cmd_witness(args) -> int:
    g = _load_graph(args.graph)
    chars = _parse_chars(args.char)
    if len(chars) != 1:
        raise _CliError("witness takes exactly one characteristic")
    field = FieldSpec(chars[0])
    raw = _split_list(args.coeffs)
    if len(raw) != g.num_vertices:
        raise _CliError(
            f"expected {g.num_vertices} coefficients, got {len(raw)}"
        )
    coeffs = [field.parse(piece) for piece in raw]

    inv = GraphInvariants(g)
    t = vertex_combination_in_commutator(inv, coeffs, field)
    payload = {
        "schema": SCHEMA,
        "command": "witness",
        "characteristic": field.characteristic,
        "coefficients": [str(c) for c in coeffs],
        "membership": t is not None,
    }
    if t is None:
        # a target outside the column space raises the rank by exactly one
        rank_b = inv.b_smith.rank(field)
        payload["certificate"] = {"rank_b": rank_b, "rank_augmented": rank_b + 1}
        human = (
            "the vertex combination is NOT a sum of brackets over "
            f"{field.name}\n"
            f"certificate: rank of the B-vector matrix is {rank_b}, rank with the "
            f"target adjoined is {rank_b + 1}\n"
        )
        _emit(args, payload, human)
        return 2

    wit = vertex_witness(g, coeffs, t, field)
    brackets = [{"coefficient": str(c), "edge": e.label} for c, e in wit.brackets]
    payload.update(
        t=[str(x) for x in t],
        commutators=brackets,
        commutator_sum=str(wit.commutator_sum),
        n_correction=str(wit.correction),
        verification="VERIFIED" if wit.verified else "FAILED",
    )
    mod = "" if field.characteristic == 0 else f" (mod {field.characteristic})"
    lines = [
        f"membership holds over {field.name}",
        f"t = {_fmt_vec(t)}{mod}",
        "commutator expression: "
        + " + ".join(f"{b['coefficient']} * [{b['edge']}, {b['edge']}^*]" for b in brackets),
        f"  = {payload['commutator_sum']}",
        f"quotient correction (sum of t_i * y_i): {payload['n_correction']}",
        f"symbolic verification: {payload['verification']}",
    ]
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0 if wit.verified else 3


# ---------------------------------------------------------------------------
# family / kp-check / selftest
# ---------------------------------------------------------------------------


def _cmd_family(args) -> int:
    text = serialize_graph(family(args.name, args.params))
    _emit(args, {"schema": SCHEMA, "command": "family", "dsl": text}, text)
    return 0


def _cmd_kp_check(args) -> int:
    if args.graph_a == args.graph_b == "-":
        raise _CliError("standard input can supply only one graph")
    ga = _load_graph(args.graph_a)
    gb = _load_graph(args.graph_b)
    chars = _parse_chars(args.char)
    report = kp_consistency(ga, gb, chars)
    payload = {
        "schema": SCHEMA,
        "command": "kp-check",
        "applicable": report.applicable,
        "reason": report.reason,
        "k0_a": None,
        "k0_b": None,
        "pointed_iso": report.pointed_iso,
        "verdicts": [
            {
                "characteristic": c,
                "first": _verdict_dict(va),
                "second": _verdict_dict(vb),
                "agree": va.status == vb.status,
            }
            for c, va, vb in report.verdicts
        ],
        "contradiction": report.contradiction,
    }
    if report.applicable:
        for key, pres in (("k0_a", report.presentation_a), ("k0_b", report.presentation_b)):
            payload[key] = {
                "group": pres.group_description(),
                "invariant_factors": list(pres.invariant_factors),
                "unit_class": list(pres.unit_class),
            }
    if not report.applicable:
        human = f"inapplicable: {report.reason}\n"
    else:
        lines = [
            f"K0 first:  {payload['k0_a']['group']}   unit class {_fmt_vec(payload['k0_a']['unit_class'])}",
            f"K0 second: {payload['k0_b']['group']}   unit class {_fmt_vec(payload['k0_b']['unit_class'])}",
            f"pointed isomorphism: {report.pointed_iso}",
        ]
        for c, va, vb in report.verdicts:
            agree = "agree" if va.status == vb.status else "DIFFER"
            lines.append(f"char {c}: first {va.status}, second {vb.status} ({agree})")
        lines.append(
            "CONTRADICTION detected" if report.contradiction else "no contradiction"
        )
        human = "\n".join(lines) + "\n"
    _emit(args, payload, human)
    return 3 if report.contradiction else 0


def _selftest_checks():
    """The regression suite of worked examples; yields (name, ok) pairs."""
    ex4 = family("example4")
    yield (
        "four-vertex example: B-vectors",
        b_vectors(ex4)
        == [[0, 1, 0, 0], [1, -1, 0, 1], [0, 1, 0, 0], [0, 0, 1, -1]],
    )
    yield (
        "four-vertex example: simple at chars 0,2,3,5,7,11,13",
        all(
            lie_simplicity(ex4, FieldSpec(c)).status == SIMPLE
            for c in (0, 2, 3, 5, 7, 11, 13)
        ),
    )
    pq = family("prime_set", [6])
    yield (
        "prime-set graph with q=6: not simple exactly at 2 and 3",
        [c for c in DEFAULT_CHARS if lie_simplicity(pq, FieldSpec(c)).status != SIMPLE]
        == [2, 3],
    )
    tv = family("two_vertex", [2, 2, 2])
    yield (
        "two-vertex family (2,2,2): snf diagonal (2, 4)",
        GraphInvariants(tv).k0.invariant_factors == (2, 4),
    )
    yield (
        "two-vertex family (2,2,2): simple at char 2 on both routes",
        lie_simplicity(tv, FieldSpec(2)).status == SIMPLE
        and lie_simplicity_via_k0(tv, FieldSpec(2)).status == SIMPLE,
    )
    ok = True
    for n in range(2, 6):
        for d in range(1, 5):
            for c in (0, 2, 3, 5):
                field = FieldSpec(c)
                expect = leavitt_closed_form(n, d, field).status
                if matrix_lie_simplicity(family("rose", [n]), d, field).status != expect:
                    ok = False
                if d >= 2 and lie_simplicity(family("matrix_rose", [n, d]), field).status != expect:
                    ok = False
    yield ("rose/matrix closed-form coherence", ok)
    field0 = FieldSpec(0)
    rose3 = family("rose", [3])
    t = vertex_combination_in_commutator(rose3, [1], field0)
    yield (
        "rose(3): identity witness verifies over Q",
        t is not None and vertex_witness(rose3, [1], t, field0).verified,
    )
    rep = kp_consistency(family("rose", [2]), family("matrix_rose", [2, 3]), DEFAULT_CHARS)
    yield (
        "kp-check rose(2) vs matrix_rose(2,3): pointed iso, no contradiction",
        rep.pointed_iso == "exists" and not rep.contradiction,
    )


def _cmd_selftest(args) -> int:
    results = list(_selftest_checks())
    passed = all(ok for _, ok in results)
    payload = {
        "schema": SCHEMA,
        "command": "selftest",
        "checks": [{"name": name, "ok": ok} for name, ok in results],
        "ok": passed,
    }
    human = "".join(f"{'PASS' if ok else 'FAIL'}  {name}\n" for name, ok in results)
    _emit(args, payload, human)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lpa-lie",
        description="Simplicity of path algebras and their commutator Lie algebras.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    chars = ",".join(map(str, DEFAULT_CHARS))

    p = sub.add_parser("analyze", help="full report for one graph")
    p.add_argument("graph", help="graph file, or - for stdin")
    p.add_argument("--char", default=chars, help="comma list of characteristics")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("k0", help="cokernel presentation and divisibility data")
    p.add_argument("graph")
    p.add_argument("--primes", default="", help="extra primes for divisibility checks")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_k0)

    p = sub.add_parser("witness", help="symbolic bracket witness for a vertex combination")
    p.add_argument("graph")
    p.add_argument("--coeffs", required=True, help="comma list of coefficients")
    p.add_argument("--char", default="0", help="one characteristic")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("family", help="emit a named family graph as text")
    # type=int keeps argparse's "invalid int value" message; the integer
    # rule of --char and --primes does the converting
    p.register("type", int, _parse_integer)
    p.add_argument("name", help="one of: " + ", ".join(family_names()))
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("kp-check", help="pointed-K0 comparison of two graphs")
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    p.add_argument("--char", default=chars)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_kp_check)

    p = sub.add_parser("selftest", help="run the worked-example regression suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_selftest)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser as it was, so one per process serves every call
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        try:
            code = args.handler(args)
        except ValueError as exc:
            if args.json:
                print(json.dumps({"schema": SCHEMA, "command": args.command, "error": str(exc)}))
            print(f"error: {exc}", file=sys.stderr)
            code = 1
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; pointing it at devnull keeps the flush at
        # exit from failing again (the recipe in the docs of ``signal``)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
