"""Command line interface.

Subcommands: ``analyze``, ``k0``, ``witness``, ``family`` and ``kp-check``.
Graphs are read from a file path or ``-`` (standard input), either in the
line-oriented text format or as a JSON object with ``vertices`` and
``adjacency``.  ``--json`` switches every command to a stable,
schema-versioned machine-readable report on one line; an error in that mode
is printed as one such line too, besides the ``error:`` line on stderr.

Exit codes: 0 verdicts produced, 1 input or usage error or a standard output
closed by its reader, 2 every requested verdict inapplicable (``analyze``) or
non-membership (``witness``), 3 contradiction in ``kp-check`` or a
``witness`` whose symbolic verification FAILED (either would indicate a bug).
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
    EdgeId,
    Graph,
    GraphError,
    VertexId,
    _split_auto,
    family,
    family_names,
    graph_from_adjacency,
    parse_graph,
    serialize_graph,
)
from .linalg import (
    FieldSpec,
    K0Presentation,
    _DIGIT_LIMIT,
    _DigitLimitError,
    _p_divisible,
    _parse_integer,
    class_order,
    is_prime,
)
from .verdict import (
    INAPPLICABLE,
    GraphInvariants,
    kp_consistency,
    lie_simplicity,
    lie_simplicity_via_k0,
)

SCHEMA = "lpa-lie.report/3"
DEFAULT_CHARS = "0,2,3,5,7"
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
# Counts and the Smith form are V x V and the reachability closure is V
# bitmasks of V bits, so a graph with more vertices is refused before any of
# them is built.
VERTEX_LIMIT = 1_000


class _Parser(argparse.ArgumentParser):
    commands: dict  # {command: subparser} of the top-level parser, set by build_parser

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_source(spec: str) -> str:
    if spec == "-":
        return sys.stdin.read()
    try:
        with open(spec, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {spec!r}: {exc}") from exc


def _load_graph(spec: str) -> Graph:
    # one leading byte-order mark is not part of the graph (RFC 8259, section 8.1)
    text = _read_source(spec).removeprefix("\ufeff")
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"bad JSON graph: {exc}") from exc
        except ValueError:
            # int() refused a number of more than _DIGIT_LIMIT digits
            raise ValueError(_long_number_error(text)) from None
        if not isinstance(data, dict) or "vertices" not in data or "adjacency" not in data:
            raise ValueError("JSON graph needs 'vertices' and 'adjacency' fields")
        labels = data["vertices"]
        if not isinstance(labels, list) or not all(isinstance(v, str) for v in labels):
            raise ValueError("JSON graph 'vertices' must be a list of strings")
        try:
            g = graph_from_adjacency(labels, data["adjacency"])
        except GraphError as exc:
            raise ValueError(f"bad structured graph: {exc}") from exc
    else:
        g = parse_graph(text)
    if g.num_vertices > VERTEX_LIMIT:
        raise ValueError(
            f"graph has {g.num_vertices} vertices, more than the limit of {VERTEX_LIMIT}"
        )
    return g


def _long_number_error(text: str) -> str:
    """The error for a JSON graph with a number of more than ``_DIGIT_LIMIT`` digits.

    It names the first adjacency entry that holds one.  Only this path pays
    for a ``parse_int`` hook: valid input keeps the C integer parse.
    """
    too_long = object()

    def mark(digits: str):
        return too_long if len(digits.lstrip("-")) > _DIGIT_LIMIT else 0

    try:
        data = json.loads(text, parse_int=mark)
    except (json.JSONDecodeError, RecursionError) as exc:
        return f"bad JSON graph: {exc}"
    rows = data.get("adjacency")
    for i, row in enumerate(rows if isinstance(rows, list) else ()):
        for j, entry in enumerate(row if isinstance(row, list) else ()):
            if entry is too_long:
                return f"bad structured graph: adjacency entry ({i}, {j}) has more than {_DIGIT_LIMIT} digits"
    return f"bad JSON graph: a number has more than {_DIGIT_LIMIT} digits"


def _split_list(text: str) -> list[str]:
    """The pieces of a comma list, stripped, blanks skipped."""
    return [piece for piece in map(str.strip, text.split(",")) if piece]


def _parse_ints(text: str, what: str, make, rule: str) -> list:
    """``make(n)`` for each integer n of a comma list, in order; ``make``
    raises ``ValueError`` for an n that breaks ``rule``."""
    values = []
    for piece in _split_list(text):
        try:
            n = _parse_integer(piece)
        except _DigitLimitError as exc:
            raise ValueError(f"{what} {exc}") from None
        except ValueError:
            raise ValueError(f"bad {what} {piece!r}") from None
        try:
            values.append(make(n))
        except ValueError:
            raise ValueError(f"{rule}, got {n}") from None
    return values


def _family_param(text: str) -> int:
    """A ``family`` parameter; past ``_DIGIT_LIMIT`` digits, a usage error quoting 20 characters."""
    try:
        return _parse_integer(text)
    except _DigitLimitError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _prime(n: int) -> int:
    if not is_prime(n):
        raise ValueError(n)
    return n


def _parse_chars(text: str) -> list[FieldSpec]:
    # FieldSpec tests each characteristic for primality, and the commands
    # compute over these fields, so each is tested once per call
    fields = _parse_ints(text, "characteristic", FieldSpec, "characteristic must be 0 or prime")
    if not fields:
        raise ValueError("no characteristics given")
    return fields


def _fmt_vec(values) -> str:
    return "(" + ", ".join(str(x) for x in values) + ")"


def _verdict_dict(v) -> dict:
    # None, an int order, a tuple of span coefficients, or an analysis witness
    cert = v.certificate
    if isinstance(cert, tuple):
        cert = [str(c) for c in cert]
    elif cert is not None and not isinstance(cert, int):
        cert = cert.describe()
    return {
        "status": v.status,
        "route": v.route,
        "characteristic": v.characteristic,
        "reason": v.reason,
        "certificate": cert,
    }


def _graph_summary(g: Graph) -> dict:
    names = [v.label for v in g.vertices]
    return {
        "vertices": names,
        "edge_count": g.num_edges,
        # one entry per run, so the summary never names an edge: an auto run
        # or a named edge, whose first is its label
        "runs": [
            {"label": first, "source": names[s], "target": names[d]}
            if isinstance(first, str)
            else {"source": names[s], "target": names[d], "first": first, "count": n}
            for s, d, first, n in g.runs
        ],
        "sinks": [v.label for v in g.sinks()],
        "regular": [v.label for v in g.regular_vertices()],
        "adjacency": g.counts,
    }


def _simplicity_dict(report) -> dict:
    return {"verdict": report.verdict, "witnesses": [w.describe() for w in report.witnesses]}


def _k0_dict(pres: K0Presentation) -> dict:
    order = class_order(pres)
    return {
        "invariant_factors": list(pres.invariant_factors),
        "nontrivial_factors": list(pres.nontrivial_factors),
        "group": pres.group_description(),
        "unit_class": list(pres.unit_class),
        "unit_class_order": "infinite" if order is None else order,
    }


def _emit(args, payload: dict, human) -> None:
    """Print ``payload`` as JSON under the report header, or else the lines ``human()`` returns."""
    if args.json:
        # a Graph in the payload becomes its summary only here; compact
        # one-line output keeps CPython on its C encoder, and every payload
        # is a tree built fresh for this call, so no cycle check is needed
        report = {"schema": SCHEMA, "command": args.command, **payload}
        print(json.dumps(report, default=_graph_summary, check_circular=False))
    else:
        print("\n".join(human()))


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    g = _load_graph(args.graph)
    fields = _parse_chars(args.char)
    inv = GraphInvariants(g)
    pis = inv.pure_infinite_simplicity
    bvecs = inv.b_vectors

    rows = []
    for field in fields:
        span = lie_simplicity(inv, field)
        c = field.characteristic
        entry = {"characteristic": c, "span": _verdict_dict(span), "k0": None, "agreement": None}
        if pis.verdict:
            k0v = lie_simplicity_via_k0(inv, field)
            entry["k0"] = _verdict_dict(k0v)
            entry["agreement"] = "AGREE" if k0v.status == span.status else "DISAGREE"
        rows.append(entry)

    payload = {
        "graph": g,
        "b_vectors": bvecs,
        "algebra_simple": _simplicity_dict(inv.simplicity),
        "purely_infinite_simple": _simplicity_dict(pis),
        "k0": _k0_dict(inv.k0),
        "verdicts": rows,
    }

    def human() -> list[str]:
        lines = [
            f"graph: {g.num_vertices} vertices, {g.num_edges} edges",
            "vertices: " + " ".join(v.label for v in g.vertices),
            "sinks: " + (" ".join(v.label for v in g.sinks()) or "(none)")
            + "   regular: " + (" ".join(v.label for v in g.regular_vertices()) or "(none)"),
            "B-vectors:",
        ]
        lines += [f"  B[{v.label}] = {_fmt_vec(b)}" for v, b in zip(g.vertices, bvecs)]
        # a report whose verdict is true has no witnesses
        for key, name, yes, no in (
            ("algebra_simple", "path algebra", "simple (for every coefficient field)", "NOT simple"),
            ("purely_infinite_simple", "purely infinite simple", "yes", "no"),
        ):
            report = payload[key]
            lines.append(f"{name}: {yes if report['verdict'] else no}")
            lines += [f"  witness: {w}" for w in report["witnesses"]]
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
            if isinstance(span["certificate"], list):
                lines.append(f"  span coefficients: {_fmt_vec(span['certificate'])}")
            if entry["k0"] is not None:
                lines.append(
                    f"  k0 route: {entry['k0']['status']} ({entry['k0']['reason']})"
                    f" -- {entry['agreement']}"
                )
        return lines

    _emit(args, payload, human)
    if all(entry["span"]["status"] == INAPPLICABLE for entry in rows):
        return 2
    return 0


# ---------------------------------------------------------------------------
# k0
# ---------------------------------------------------------------------------


def _cmd_k0(args) -> int:
    g = _load_graph(args.graph)
    extra = _parse_ints(args.primes, "prime", _prime, "--primes entries must be prime")
    primes = sorted(set(SMALL_PRIMES) | set(extra))
    pres = GraphInvariants(g).k0
    info = _k0_dict(pres)
    # every p is prime already: SMALL_PRIMES, or tested by _prime
    divisibility = {str(p): _p_divisible(pres, p) for p in primes}
    payload = {
        "graph": g,
        "k0": info,
        "p_divisibility": divisibility,
    }

    def human() -> list[str]:
        lines = [
            f"K0 presentation (cokernel of I - A^t): {info['group']}",
            f"snf diagonal: {_fmt_vec(info['invariant_factors'])}",
            f"invariant factors (trivial suppressed): {_fmt_vec(info['nontrivial_factors'])}",
            f"unit class: {_fmt_vec(info['unit_class'])}",
            f"order of unit class: {info['unit_class_order']}",
            "p-divisibility of the unit class:",
        ]
        lines += [f"  p = {p}: {'yes' if divisibility[str(p)] else 'no'}" for p in primes]
        return lines

    _emit(args, payload, human)
    return 0


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------


def _run_dict(e: EdgeId, count: int) -> dict:
    """The run of ``count`` edges from ``e``: ``src``, ``dst``, ``first_k``, ``count``, or ``edge``."""
    src, dst = e.source.label, e.target.label
    auto = _split_auto(e.label)
    if auto is not None and auto[0] == f"{src}_{dst}":
        return {"src": src, "dst": dst, "first_k": auto[1], "count": count}
    return {"edge": e.label}


def _run_text(run: dict, text) -> str:
    """``text(label)`` of a one-edge run, ``sum[k=a..b] text(<src>_<dst>_k)`` of a longer one."""
    if "edge" in run:
        return text(run["edge"])
    prefix, k, n = f"{run['src']}_{run['dst']}_", run["first_k"], run["count"]
    if n == 1:
        return text(f"{prefix}{k}")
    return f"sum[k={k}..{k + n - 1}] " + text(f"{prefix}k")


def _witness_sum(terms: dict) -> str:
    """A witness's vertex terms by label, then its run terms by the label of their first edge."""
    rows = sorted(
        ((0, x.label), f"{c} * {x.label}")
        if isinstance(x, VertexId)
        else ((1, x[0].label), f"{c} * " + _run_text(_run_dict(*x), lambda e: f"{e} {e}^*"))
        for x, c in terms.items()
    )
    return " + ".join([text for _, text in rows]) or "0"


def _cmd_witness(args) -> int:
    g = _load_graph(args.graph)
    fields = _parse_chars(args.char)
    if len(fields) != 1:
        raise ValueError("witness takes exactly one characteristic")
    field = fields[0]
    raw = _split_list(args.coeffs)
    if len(raw) != g.num_vertices:
        raise ValueError(
            f"expected {g.num_vertices} coefficients, got {len(raw)}"
        )
    coeffs = [field.parse(piece) for piece in raw]

    inv = GraphInvariants(g)
    t = inv.b_smith.solve(coeffs, field)
    payload = {
        "characteristic": field.characteristic,
        "coefficients": [str(c) for c in coeffs],
        "membership": t is not None,
    }
    if t is None:
        # a target outside the column space raises the rank by exactly one
        rank_b = inv.b_smith.rank(field)
        payload["certificate"] = {"rank_b": rank_b, "rank_augmented": rank_b + 1}
        _emit(args, payload, lambda: [
            f"the vertex combination is NOT a sum of brackets over {field.name}",
            f"certificate: rank of the B-vector matrix is {rank_b}, rank with the "
            f"target adjoined is {rank_b + 1}",
        ])
        return 2

    wit = vertex_witness(g, coeffs, t, field)
    brackets = [{"coefficient": str(c), **_run_dict(e, n)} for c, e, n in wit.brackets]
    payload.update(
        t=[str(x) for x in t],
        commutators=brackets,
        commutator_sum=_witness_sum(wit.commutator_sum),
        n_correction=_witness_sum(wit.correction),
        verification="VERIFIED" if wit.verified else "FAILED",
    )

    def human() -> list[str]:
        mod = "" if field.characteristic == 0 else f" (mod {field.characteristic})"
        lines = [
            f"membership holds over {field.name}",
            f"t = {_fmt_vec(t)}{mod}",
            "commutator expression: "
            + (" + ".join(
                f"{b['coefficient']} * " + _run_text(b, lambda e: f"[{e}, {e}^*]") for b in brackets
            ) or "0"),
            f"  = {payload['commutator_sum']}",
            f"quotient correction (sum of t_i * y_i): {payload['n_correction']}",
            f"symbolic verification: {payload['verification']}",
        ]
        return lines

    _emit(args, payload, human)
    return 0 if wit.verified else 3


# ---------------------------------------------------------------------------
# family / kp-check
# ---------------------------------------------------------------------------


def _cmd_family(args) -> int:
    text = serialize_graph(family(args.name, args.params))
    _emit(args, {"dsl": text}, text.splitlines)
    return 0


def _cmd_kp_check(args) -> int:
    if args.graph_a == args.graph_b == "-":
        raise ValueError("standard input can supply only one graph")
    ga = _load_graph(args.graph_a)
    gb = _load_graph(args.graph_b)
    report = kp_consistency(ga, gb, _parse_chars(args.char))
    payload = {
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
            info = _k0_dict(pres)
            payload[key] = {k: info[k] for k in ("group", "invariant_factors", "unit_class")}

    def human() -> list[str]:
        if not report.applicable:
            return [f"inapplicable: {report.reason}"]
        lines = [
            f"K0 first:  {payload['k0_a']['group']}   unit class {_fmt_vec(payload['k0_a']['unit_class'])}",
            f"K0 second: {payload['k0_b']['group']}   unit class {_fmt_vec(payload['k0_b']['unit_class'])}",
            f"pointed isomorphism: {report.pointed_iso}",
        ]
        lines += [
            f"char {row['characteristic']}: first {row['first']['status']}, second"
            f" {row['second']['status']} ({'agree' if row['agree'] else 'DIFFER'})"
            for row in payload["verdicts"]
        ]
        lines.append("CONTRADICTION detected" if report.contradiction else "no contradiction")
        return lines

    _emit(args, payload, human)
    return 3 if report.contradiction else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="lpa-lie",
        description="Simplicity of path algebras and their commutator Lie algebras.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("analyze", help="full report for one graph")
    p.add_argument("graph", help="graph file, or - for stdin")
    p.add_argument("--char", default=DEFAULT_CHARS, help="comma list of characteristics")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("k0", help="cokernel presentation and divisibility data")
    p.add_argument("graph")
    p.add_argument("--primes", default="", help="extra primes for divisibility checks")
    p.set_defaults(handler=_cmd_k0)

    p = sub.add_parser("witness", help="symbolic bracket witness for a vertex combination")
    p.add_argument("graph")
    p.add_argument("--coeffs", required=True, help="comma list of coefficients; write -1,1 as --coeffs=-1,1")
    p.add_argument("--char", default="0", help="one characteristic")
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("family", help="emit a named family graph as text")
    # type=int keeps argparse's "invalid int value" message; the integer
    # rule of --char and --primes does the converting
    p.register("type", int, _family_param)
    p.add_argument("name", help="one of: " + ", ".join(family_names()))
    p.add_argument("params", nargs="*", type=int)
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("kp-check", help="pointed-K0 comparison of two graphs")
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    p.add_argument("--char", default=DEFAULT_CHARS)
    p.set_defaults(handler=_cmd_kp_check)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


@functools.cache
def _parser() -> _Parser:
    # parsing leaves the parser as it was, so one per process serves every call
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in parser.commands:
        # what the full parser does with a command first, in one pass: it
        # hands every later token to the subparser and refuses what is left
        sub = parser.commands[argv[0]]
        args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    else:
        args = parser.parse_args(argv)
    try:
        try:
            code = args.handler(args)
        except ValueError as exc:
            if args.json:
                _emit(args, {"error": str(exc)}, None)
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
