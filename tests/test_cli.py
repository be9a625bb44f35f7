import argparse
import ast
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tokenize
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import (
    all_edges,
    expand_runs,
    expand_witness_text,
    random_graphs_where,
    random_labelled_graph,
    reference_main,
    reference_rank,
    reference_serialize,
    reference_span,
    reference_str,
    reference_witness,
    time_limit,
)

import lpa_lie
from lpa_lie import (
    CohnElement,
    CohnTerm,
    EdgeId,
    FieldSpec,
    Graph,
    PathWord,
    b_vectors,
    family,
    is_trivial_lpa,
    parse_graph,
    serialize_graph,
    simplicity_reports,
)
from lpa_lie.cli import VERTEX_LIMIT, build_parser, main


def write_family(tmp_path, name, params=(), filename=None):
    g = family(name, list(params))
    path = tmp_path / (filename or f"{name}.graph")
    path.write_text(serialize_graph(g), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- analyze -----------------------------------------------------------------


def test_analyze_example4(tmp_path, capsys):
    path = write_family(tmp_path, "example4")
    code, out, err = run(capsys, "analyze", path, "--char", "0,2,3,5")
    assert code == 0
    assert err == ""
    assert out.count("simple") >= 4
    assert "AGREE" in out
    assert "DISAGREE" not in out
    assert "B[v2] = (1, -1, 0, 1)" in out


def test_analyze_json_is_complete_and_deterministic(tmp_path, capsys):
    path = write_family(tmp_path, "prime_set", [6])
    code, out, _ = run(capsys, "analyze", path, "--char", "0,2,3,5,7", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "lpa-lie.report/3"
    assert data["b_vectors"][3] == [0, 0, 1, 6]
    statuses = {v["characteristic"]: v["span"]["status"] for v in data["verdicts"]}
    assert statuses == {
        0: "simple",
        2: "not-simple",
        3: "not-simple",
        5: "simple",
        7: "simple",
    }
    for v in data["verdicts"]:
        assert v["agreement"] == "AGREE"
    code2, out2, _ = run(capsys, "analyze", path, "--char", "0,2,3,5,7", "--json")
    assert out2 == out  # bit-identical reruns


def test_analyze_inapplicable_exit_code(tmp_path, capsys):
    path = write_family(tmp_path, "rose", [1])
    code, out, _ = run(capsys, "analyze", path, "--char", "0")
    assert code == 2
    assert "inapplicable" in out


def test_analyze_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_text("edge a b 1\n", encoding="utf-8")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "undeclared" in err


def test_analyze_rejects_composite_characteristic(tmp_path, capsys):
    path = write_family(tmp_path, "rose", [2])
    code, _, err = run(capsys, "analyze", path, "--char", "4")
    assert code == 1
    assert "prime" in err


def test_analyze_structured_json_input(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(
        json.dumps({"vertices": ["a", "b"], "adjacency": [[9, 2], [4, 3]]}),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "analyze", str(path), "--char", "2")
    assert code == 0
    assert "simple" in out


NINES = "9" * 5000


@pytest.mark.parametrize("text, message", [
    ('{"vertices": ["a", "b"], "adjacency": [[1, 1], [-%s, 2]]}' % NINES,
     "bad structured graph: adjacency entry (1, 0) has more than 4300 digits"),
    ('{"vertices": ["a"], "adjacency": [[1]], "note": %s}' % NINES,
     "bad JSON graph: a number has more than 4300 digits"),
    ('{"vertices": ["a"], "adjacency": [[%s]]} [' % NINES,
     "bad JSON graph: Extra data: line 1 column 5040 (char 5039)"),
])
def test_an_overlong_json_number_is_named(tmp_path, capsys, text, message):
    path = tmp_path / "graph.json"
    path.write_text(text, encoding="utf-8")
    assert run(capsys, "k0", str(path)) == (1, "", f"error: {message}\n")
    code, out, err = run(capsys, "k0", str(path), "--json")
    assert (code, json.loads(out)["error"], err) == (1, message, f"error: {message}\n")


def test_valid_json_input_is_read_without_a_hook(tmp_path, capsys, monkeypatch):
    path = tmp_path / "graph.json"
    path.write_text('{"vertices": ["a"], "adjacency": [[%s]]}' % NINES[:4300], encoding="utf-8")
    calls = []
    loads = json.loads

    def counted(text, **kwargs):
        calls.append(kwargs)
        return loads(text, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    assert run(capsys, "k0", str(path))[0] == 0
    assert calls == [{}]


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/path.graph")
    assert code == 1
    assert "cannot read" in err


# -- k0 ----------------------------------------------------------------------


def test_k0_two_vertex(tmp_path, capsys):
    path = write_family(tmp_path, "two_vertex", [2, 2, 2])
    code, out, _ = run(capsys, "k0", path)
    assert code == 0
    assert "Z_2 x Z_4" in out
    assert "snf diagonal: (2, 4)" in out


def test_k0_rose5(tmp_path, capsys):
    path = write_family(tmp_path, "rose", [5])
    code, out, _ = run(capsys, "k0", path, "--json")
    data = json.loads(out)
    assert code == 0
    assert data["k0"]["group"] == "Z_4"
    assert data["k0"]["unit_class"] == [1]
    assert data["k0"]["unit_class_order"] == 4
    assert data["p_divisibility"]["2"] is False
    assert data["p_divisibility"]["3"] is True


def test_k0_trivial_graph(tmp_path, capsys):
    path = tmp_path / "dot.graph"
    path.write_text("vertex v\n", encoding="utf-8")
    code, out, _ = run(capsys, "k0", str(path))
    assert code == 0
    assert "trivial" in out


def test_k0_extra_primes(tmp_path, capsys):
    path = write_family(tmp_path, "rose", [24])
    code, out, _ = run(capsys, "k0", path, "--primes", "23")
    assert code == 0
    # 23 x = 1 has no solution in Z_23, while any p coprime to 23 divides
    assert "p = 23: no" in out
    assert "p = 2: yes" in out
    code, out, _ = run(capsys, "k0", path, "--primes", "23,1000000007", "--json")
    assert code == 0
    divisible = json.loads(out)["p_divisibility"]
    assert (divisible["23"], divisible["1000000007"]) == (False, True)
    code, _, err = run(capsys, "k0", path, "--primes", "21")
    assert code == 1
    assert "prime" in err


# -- witness -----------------------------------------------------------------


def test_witness_rose3(tmp_path, capsys):
    path = write_family(tmp_path, "rose", [3])
    code, out, _ = run(capsys, "witness", path, "--coeffs", "1", "--char", "0")
    assert code == 0
    assert "VERIFIED" in out
    assert "t = (1/2)" in out


def test_witness_non_membership(tmp_path, capsys):
    path = write_family(tmp_path, "example4")
    code, out, _ = run(capsys, "witness", path, "--coeffs", "1,1,1,1", "--char", "3")
    assert code == 2
    assert "NOT" in out
    assert "rank" in out


def test_witness_zero_coeffs(tmp_path, capsys):
    path = write_family(tmp_path, "line", [3])
    code, out, _ = run(capsys, "witness", path, "--coeffs", "0,0,0", "--char", "2")
    assert code == 0
    assert "VERIFIED" in out


def test_witness_json(tmp_path, capsys):
    path = write_family(tmp_path, "rose", [4])
    code, out, _ = run(capsys, "witness", path, "--coeffs", "1", "--char", "2", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["membership"] is True
    assert data["t"] == ["1"]
    assert data["verification"] == "VERIFIED"
    # the four loops are one run, so one entry
    assert data["commutators"] == [
        {"coefficient": "1", "src": "v1", "dst": "v1", "first_k": 1, "count": 4}
    ]


def witness_report(capsys, path, coeffs, char, mode):
    """``(exit code, t, verification)`` of a witness call, read from its text or JSON report.

    Each run of parallel edges is one bracket term, so the report stays under 1 KB.
    """
    code, out, err = run(capsys, "witness", path, "--coeffs", coeffs, "--char", char, *mode)
    assert err == ""
    assert len(out.encode()) < 1024
    if mode:
        data = json.loads(out)
        return code, data["t"], data["verification"]
    t = re.search(r"^t = \(([^)]*)\)", out, re.M).group(1).split(", ")
    return code, t, out.rsplit(": ", 1)[1].strip()


def test_witness_of_a_trillion_loops_verifies_at_once(tmp_path, capsys):
    # one run of 10^12 loops is one bracket term, whatever its count
    path = tmp_path / "big.graph"
    path.write_text("vertex a\nedge a a 1000000000000\n", encoding="utf-8")
    for mode in ((), ("--json",)):
        with time_limit(1):
            assert witness_report(capsys, str(path), "1", "5", mode) == (0, ["4"], "VERIFIED")
            assert witness_report(capsys, str(path), "999999999999", "0", mode) == (0, ["1"], "VERIFIED")
    code, out, _ = run(capsys, "witness", str(path), "--coeffs", "1", "--char", "5")
    assert out.splitlines()[1:3] == [
        "t = (4) (mod 5)",
        "commutator expression: 1 * sum[k=1..1000000000000] [a_a_k, a_a_k^*]",
    ]
    code, out, _ = run(capsys, "witness", str(path), "--coeffs", "999999999999", "--char", "0", "--json")
    data = json.loads(out)
    assert data["commutators"] == [
        {"coefficient": "-1", "src": "a", "dst": "a", "first_k": 1, "count": 10**12}
    ]
    assert data["commutator_sum"] == "1000000000000 * a + -1 * sum[k=1..1000000000000] a_a_k a_a_k^*"
    assert data["n_correction"] == "1 * a + -1 * sum[k=1..1000000000000] a_a_k a_a_k^*"


def test_witness_of_two_vertices_with_a_trillion_loops(tmp_path, capsys):
    # B = ((1, 0), (0, 10^12 - 1)): t is nonzero at a only, then at both
    # vertices, over Q and at characteristic 5
    path = tmp_path / "two.graph"
    path.write_text(f"vertex a\nvertex b\nedge a a 2\nedge b b {10**12}\n", encoding="utf-8")
    cases = [
        ("1,0", "0", ["1", "0"]),
        ("1,1", "0", ["1", "1/999999999999"]),
        ("3,999999999999", "0", ["3", "1"]),
        ("2,3", "5", ["2", "2"]),
    ]
    for mode in ((), ("--json",)):
        for coeffs, char, t in cases:
            with time_limit(1):
                assert witness_report(capsys, str(path), coeffs, char, mode) == (0, t, "VERIFIED")
    code, out, _ = run(capsys, "witness", str(path), "--coeffs", "2,3", "--char", "5")
    # W's b term, 2 * 10^12 * b, vanishes mod 5
    assert out.splitlines()[2:5] == [
        "commutator expression: 3 * sum[k=1..2] [a_a_k, a_a_k^*]"
        " + 3 * sum[k=1..1000000000000] [b_b_k, b_b_k^*]",
        "  = 4 * a + 3 * sum[k=1..2] a_a_k a_a_k^* + 3 * sum[k=1..1000000000000] b_b_k b_b_k^*",
        "quotient correction (sum of t_i * y_i): 2 * a + 2 * b + 3 * sum[k=1..2] a_a_k a_a_k^*"
        " + 3 * sum[k=1..1000000000000] b_b_k b_b_k^*",
    ]


def test_witness_of_rose_9999_verifies_in_seconds(tmp_path, capsys):
    # 9,999 loops are one run: one bracket term and a report under 1 KB;
    # B = (9998), so t = 1 over Q and t = 2 mod 3
    path = write_family(tmp_path, "rose", [9999])
    for coeffs, char, t in (("9998", "0", ["1"]), ("1", "3", ["2"])):
        for mode in ((), ("--json",)):
            with time_limit(3):
                assert witness_report(capsys, path, coeffs, char, mode) == (0, t, "VERIFIED")


@pytest.mark.parametrize(
    "name, params, coeffs",
    [
        # B = (2494): t = 1/2494 over Q and t = 2 mod 3
        ("rose", [2495], {0: "1", 3: "2"}),
        # 25 loops at v1; t = (-3/16, 11/16) over Q and t = (2, 2) mod 3
        ("two_vertex", [2, 3, 4], {0: "1,1", 3: "1,2"}),
    ],
)
def test_large_witness_reports_match_the_reference(tmp_path, capsys, name, params, coeffs):
    # the edge labels run past k = 9, so label order differs from index
    # order, and every vertex of t is nonzero; each run is one entry, and
    # the two sums, written out edge by edge, are the per-edge reference's
    g = family(name, params)
    path = write_family(tmp_path, name, params)
    for p, text in coeffs.items():
        field = FieldSpec(p)
        code, out, _ = run(capsys, "witness", path, "--coeffs", text, "--char", str(p), "--json")
        data = json.loads(out)
        assert code == 0 and data["verification"] == "VERIFIED"
        k = [field.parse(x) for x in text.split(",")]
        t = [field.parse(x) for x in data["t"]]
        assert all(t)
        names = [v.label for v in g.vertices]
        assert data["commutators"] == [
            {"coefficient": str(field.coerce(-t[s])), "src": names[s], "dst": names[d],
             "first_k": first, "count": n}
            for s, d, first, n in g.runs
        ]
        per_edge = [
            (b["coefficient"], f"{b['src']}_{b['dst']}_{k}")
            for b in data["commutators"]
            for k in range(b["first_k"], b["first_k"] + b["count"])
        ]
        assert per_edge == [(str(field.coerce(-t[e.source.index])), e.label) for e in all_edges(g)]
        if p == 0:
            assert all(x.denominator > 1 for x in t)
        w, correction, verified = reference_witness(g, k, t, field)
        assert verified
        assert expand_witness_text(data["commutator_sum"]) == reference_str(w)
        assert expand_witness_text(data["n_correction"]) == reference_str(correction)


def test_witness_wrong_count(tmp_path, capsys):
    path = write_family(tmp_path, "rose", [3])
    code, _, err = run(capsys, "witness", path, "--coeffs", "1,2", "--char", "0")
    assert code == 1
    assert "expected 1 coefficients" in err


def test_witness_bad_gf_coefficient(tmp_path, capsys):
    path = write_family(tmp_path, "rose", [3])
    code, _, err = run(capsys, "witness", path, "--coeffs", "1/2", "--char", "2")
    assert code == 1


def test_witness_refuses_an_exponent_coefficient(tmp_path, capsys):
    path = write_family(tmp_path, "rose", [3])
    with time_limit(2):
        code, out, err = run(capsys, "witness", path, "--coeffs", "1e50000000", "--char", "0")
    assert code == 1 and out == ""
    assert err.startswith("error: cannot parse '1e50000000' as an element of Q")
    assert err.count("\n") == 1


def test_witness_renders_each_cohn_element_once(tmp_path, capsys, monkeypatch):
    # the witness holds run terms, not CohnElements: neither report builds a
    # path or renders an element, and the text prints the one run of rose 50
    # once in the commutator expression and once in each sum
    built = Counter()
    for cls in (PathWord, CohnTerm):

        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    monkeypatch.setattr(CohnElement, "__str__", lambda x: built.update(["CohnElement.__str__"]))
    path = write_family(tmp_path, "rose", [50])
    code, out, _ = run(capsys, "witness", path, "--coeffs", "1")
    assert code == 0 and "VERIFIED" in out and built == {}
    assert out.count("sum[k=1..50] v1_v1_k v1_v1_k^*") == 2
    assert out.count("sum[k=1..50] [v1_v1_k, v1_v1_k^*]") == 1
    code, out, _ = run(capsys, "witness", path, "--coeffs", "1", "--json")
    report = json.loads(out)
    assert code == 0 and report["verification"] == "VERIFIED" and built == {}
    assert report["commutator_sum"].count("sum[k=1..50] v1_v1_k v1_v1_k^*") == 1
    assert [c["count"] for c in report["commutators"]] == [50]


def test_witness_names_each_bracketed_edge_once(tmp_path, capsys, monkeypatch):
    # the witness and both reports work on runs: rose 50 is one run, so one
    # EdgeId and one Graph.edge call, for its first edge, in either mode
    built = Counter()
    original_init = EdgeId.__init__

    def counted(self, *args, **kwargs):
        built["EdgeId"] += 1
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(EdgeId, "__init__", counted)
    named = []
    original = Graph.edge
    monkeypatch.setattr(Graph, "edge", lambda g, i: named.append(i) or original(g, i))
    path = write_family(tmp_path, "rose", [50])
    for mode in ((), ("--json",)):
        built.clear()
        named.clear()
        code, out, _ = run(capsys, "witness", path, "--coeffs", "1", *mode)
        assert code == 0 and "VERIFIED" in out
        assert built == {"EdgeId": 1} and named == [0]


def test_json_mode_builds_no_text_report(tmp_path, capsys, monkeypatch):
    # every text report formats vectors with _fmt_vec; under --json none is built
    calls = []
    monkeypatch.setattr(lpa_lie.cli, "_fmt_vec", lambda values: calls.append(values) or "")
    pis = write_family(tmp_path, "two_vertex", [2, 2, 3])
    other = write_family(tmp_path, "rose", [2])
    for argv in (
        ["analyze", pis],
        ["k0", pis],
        ["witness", pis, "--coeffs", "1,0"],
        ["kp-check", pis, other],
    ):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0 and json.loads(out)["command"] == argv[0]
        assert calls == []
        run(capsys, *argv)
        assert calls, argv
        calls.clear()


# -- family ---------------------------------------------------------------------


def test_family_output_parses(capsys):
    code, out, _ = run(capsys, "family", "matrix_rose", "3", "2")
    assert code == 0
    g = parse_graph(out)
    assert g == family("matrix_rose", [3, 2])


def test_family_rose(capsys):
    code, out, _ = run(capsys, "family", "rose", "2")
    assert code == 0
    assert out == "vertex v1\nedge v1 v1 2\n"


def test_family_two_vertex(capsys):
    code, out, _ = run(capsys, "family", "two_vertex", "2", "2", "2")
    assert code == 0
    assert parse_graph(out) == family("two_vertex", [2, 2, 2])


def test_family_line_at_thirty_thousand_vertices(capsys):
    # built from its d - 1 edges, not from a d x d adjacency list
    with time_limit(2):
        code, out, err = run(capsys, "family", "line", "30000")
    assert code == 0 and err == ""
    assert out == reference_serialize(family("line", [30000]))


def test_family_line_above_its_bound_is_refused(capsys):
    # the bound is checked before any of the d labels is built
    for d in ("100001", "1000000000000000000000000000000"):
        with time_limit(2):
            code, out, err = run(capsys, "family", "line", d)
        assert code == 1 and out == ""
        assert err == "error: line(d) requires 1 <= d <= 100000\n"
        with time_limit(2):
            code, out, err = run(capsys, "family", "line", d, "--json")
        assert code == 1
        assert json.loads(out)["error"] == "line(d) requires 1 <= d <= 100000"
        assert "Traceback" not in err


def test_family_bad_params(capsys):
    code, _, err = run(capsys, "family", "rose")
    assert code == 1
    code, _, err = run(capsys, "family", "rose", "0")
    assert code == 1
    code, _, err = run(capsys, "family", "unknown", "1")
    assert code == 1


# -- kp-check ----------------------------------------------------------------------


def test_kp_check_pointed_iso(tmp_path, capsys):
    a = write_family(tmp_path, "rose", [2])
    b = write_family(tmp_path, "matrix_rose", [2, 3])
    code, out, _ = run(capsys, "kp-check", a, b)
    assert code == 0
    assert "pointed isomorphism: exists" in out
    assert "no contradiction" in out


def test_kp_check_distinct_groups(tmp_path, capsys):
    a = write_family(tmp_path, "rose", [4])
    b = write_family(tmp_path, "rose", [6], filename="rose6.graph")
    code, out, _ = run(capsys, "kp-check", a, b, "--json")
    data = json.loads(out)
    assert code == 0
    assert data["pointed_iso"] == "none"
    assert data["contradiction"] is False
    assert data["k0_a"]["group"] == "Z_3"
    assert data["k0_b"]["group"] == "Z_5"


def test_kp_check_inapplicable(tmp_path, capsys):
    a = write_family(tmp_path, "line", [2])
    b = write_family(tmp_path, "rose", [2])
    code, out, _ = run(capsys, "kp-check", a, b)
    assert code == 0
    assert "inapplicable" in out


def test_kp_check_reports_a_contradiction(tmp_path, capsys, monkeypatch):
    # pointed-isomorphic graphs get the same Lie verdicts, so only a faulty
    # verdict, here the second graph's at characteristic 3, reaches this path
    a = write_family(tmp_path, "rose", [2])
    b = write_family(tmp_path, "matrix_rose", [2, 3])
    decide = lpa_lie.verdict.lie_simplicity

    def faulty(inv, field):
        v = decide(inv, field)
        if inv.graph.num_vertices == 2 and field.characteristic == 3:
            return replace(v, status="not-simple" if v.status == "simple" else "simple")
        return v

    monkeypatch.setattr(lpa_lie.verdict, "lie_simplicity", faulty)
    code, out, _ = run(capsys, "kp-check", a, b, "--char", "0,3", "--json")
    data = json.loads(out)
    assert code == 3
    assert data["pointed_iso"] == "exists"
    assert data["contradiction"] is True
    assert [row["agree"] for row in data["verdicts"]] == [True, False]
    code, out, _ = run(capsys, "kp-check", a, b, "--char", "0,3")
    assert code == 3
    assert out.splitlines()[-1] == "CONTRADICTION detected"
    assert "char 3: " in out and "(DIFFER)" in out


def test_witness_reports_a_failed_verification(tmp_path, capsys, monkeypatch):
    # the symbolic check of a correct witness always holds, so only a faulty
    # witness reaches exit 3
    path = write_family(tmp_path, "rose", [3])
    build = lpa_lie.cli.vertex_witness
    monkeypatch.setattr(
        lpa_lie.cli, "vertex_witness", lambda *a: replace(build(*a), verified=False)
    )
    code, out, _ = run(capsys, "witness", path, "--coeffs", "1")
    assert code == 3
    assert "symbolic verification: FAILED" in out.splitlines()
    code, out, _ = run(capsys, "witness", path, "--coeffs", "1", "--json")
    assert code == 3
    assert json.loads(out)["verification"] == "FAILED"


def test_witness_of_the_zero_combination_prints_zero(tmp_path, capsys):
    path = write_family(tmp_path, "two_vertex", [2, 2, 2])
    code, out, _ = run(capsys, "witness", path, "--coeffs", "0,0")
    assert code == 0
    assert "commutator expression: 0" in out.splitlines()
    assert "  = 0" in out.splitlines()
    code, out, _ = run(capsys, "witness", path, "--coeffs", "0,0", "--json")
    assert code == 0
    assert json.loads(out)["commutators"] == []


def test_kp_check_rejects_reading_stdin_twice(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_graph(family("rose", [2]))))
    code, _, err = run(capsys, "kp-check", "-", "-")
    assert code == 1
    assert "standard input can supply only one graph" in err


def test_kp_check_rejects_the_removed_max_group_order(tmp_path, capsys):
    # the pointed-isomorphism decision is exact, so there is no bound to set
    a = write_family(tmp_path, "rose", [2])
    with pytest.raises(SystemExit) as exc:
        main(["kp-check", a, a, "--max-group-order", "5"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --max-group-order 5" in capsys.readouterr().err


# -- agreement with the reference and work done per graph ---------------------------

PRIMES_BELOW_100 = [p for p in range(2, 100) if all(p % q for q in range(2, p))]


def _field_value(text: str, p: int):
    x = Fraction(text)
    return x if p == 0 else x.numerator % p


def test_random_simple_graphs_match_reference(tmp_path, capsys):
    rng = random.Random(301)
    graphs = random_graphs_where(
        rng, 30, lambda g: simplicity_reports(g)[0].verdict and not is_trivial_lpa(g)
    )
    chars = [0] + PRIMES_BELOW_100
    non_members = 0
    for n, g in enumerate(graphs):
        path = tmp_path / f"g{n}.graph"
        path.write_text(serialize_graph(g), encoding="utf-8")
        bvecs = b_vectors(g)
        m = g.num_vertices
        sinks = [i for i, v in enumerate(g.vertices) if g.is_sink(v)]
        code, out, _ = run(capsys, "analyze", str(path), "--json", "--char", ",".join(map(str, chars)))
        assert code == 0
        simple_at = []
        for row in json.loads(out)["verdicts"]:
            p = row["characteristic"]
            member = reference_span(bvecs, [1] * m, FieldSpec(p)) is not None
            assert row["span"]["status"] == ("not-simple" if member else "simple"), (n, p)
            if not member:
                simple_at.append(p)
                continue
            c = [_field_value(x, p) for x in row["span"]["certificate"]]
            assert all(c[i] == 0 for i in sinks)
            for j in range(m):
                total = sum(c[i] * bvecs[i][j] for i in range(m))
                assert (total - 1) % p == 0 if p else total == 1
        trials = [([1] * m, p) for p in simple_at[:2]]
        trials += [([rng.randint(-3, 3) for _ in range(m)], rng.choice(chars)) for _ in range(2)]
        for k, p in trials:
            field = FieldSpec(p)
            coeffs = ",".join(map(str, k))
            code, out, _ = run(capsys, "witness", str(path), f"--coeffs={coeffs}", "--char", str(p), "--json")
            data = json.loads(out)
            if reference_span(bvecs, k, field) is None:
                non_members += 1
                assert code == 2 and data["membership"] is False
                assert data["certificate"] == {
                    "rank_b": reference_rank(bvecs, field),
                    "rank_augmented": reference_rank(bvecs + [k], field),
                }
            else:
                assert code == 0 and data["verification"] == "VERIFIED"
    assert non_members >= 30


def test_analyze_computes_each_invariant_once(tmp_path, capsys, monkeypatch):
    modules = [lpa_lie] + [getattr(lpa_lie, name) for name in ("analysis", "linalg", "verdict", "cli")]
    counts = {}
    names = ("simplicity_reports", "smith_normal_form", "_closure")
    smith_forms = []
    for name in names:
        original = next(getattr(mod, name) for mod in modules if hasattr(mod, name))
        counts[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            result = _original(*args, **kwargs)
            if _name == "smith_normal_form":
                smith_forms.append(result)
            return result

        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    replayed = []
    original_replay = lpa_lie.linalg._replay_rows

    def counted_replay(log, vec):
        replayed.append(log)
        return original_replay(log, vec)

    monkeypatch.setattr(lpa_lie.linalg, "_replay_rows", counted_replay)

    def replays_of(dec):
        assert dec.row_log  # the empty log is one shared tuple
        return sum(1 for log in replayed if log is dec.row_log)

    def back_replays_within_bound(dec):
        # one replay of the column operations on the unit part of U b, and
        # one on e_i per nonzero non-unit factor d_i, whatever the characteristics
        if not dec.col_log:  # the empty back log is one shared tuple, and free
            return True
        back = sum(1 for log in replayed if log is dec._back_log)
        return back <= 1 + sum(1 for a in dec.diagonal if a > 1)

    twelve = "0,2,3,5,7,11,13,17,19,23,29,31"
    path = write_family(tmp_path, "prime_set", [6])
    code, out, _ = run(capsys, "analyze", path, "--char", twelve)
    assert code == 0
    assert out.count("-- AGREE") == 12
    # both reports come from one transitive closure, computed once
    assert counts["simplicity_reports"] == 1
    assert counts["_closure"] == 1
    # no sink: both routes read the one Smith form of the B-matrix
    assert counts["smith_normal_form"] == 1
    # the unit class and the span solve at all 12 characteristics read one U (1, ..., 1)
    assert replays_of(smith_forms[-1]) == 1
    assert back_replays_within_bound(smith_forms[-1])

    # (1, 1) is in the span of matrix_rose 2 3's B-vectors at every
    # characteristic, yet the 12 solves replay the column operations only
    # within the bound, all on one back log, reversed once
    replayed.clear()
    smith_forms.clear()
    path = write_family(tmp_path, "matrix_rose", [2, 3])
    code, out, _ = run(capsys, "analyze", path, "--char", twelve)
    assert code == 0
    assert out.count("-- AGREE") == 12
    dec = smith_forms[-1]
    assert dec.col_log  # the empty back log would be one shared tuple
    back_logs = [log for log in replayed if log is not dec.row_log]
    assert 1 <= len(back_logs) <= 1 + sum(1 for a in dec.diagonal if a > 1)
    assert all(log is dec._back_log for log in back_logs)

    for a, b in (("rose", [2]), ("matrix_rose", [2, 3])), (("example4", []), ("matrix_rose", [3, 4])):
        replayed.clear()
        smith_forms.clear()
        code, out, _ = run(capsys, "kp-check", write_family(tmp_path, *a), write_family(tmp_path, *b))
        assert code == 0
        # one Smith form per graph, each solved within the bound at every characteristic
        assert len(smith_forms) == 2
        assert all(back_replays_within_bound(dec) for dec in smith_forms)
        if a[0] == "example4":
            assert [replays_of(dec) for dec in smith_forms] == [1, 1]

    # a sink: the cokernel of I - A^t needs a Smith form of its own
    counts["smith_normal_form"] = 0
    code, out, _ = run(capsys, "analyze", write_family(tmp_path, "line", [3]))
    assert code == 0
    assert "path algebra: simple" in out
    assert counts["smith_normal_form"] <= 2

    code, out, _ = run(capsys, "witness", write_family(tmp_path, "rose", [3]), "--coeffs", "1")
    assert code == 0
    # the verdicts replay the elimination logs on vectors: no u or v is built
    assert smith_forms
    assert not any("u" in vars(dec) or "v" in vars(dec) for dec in smith_forms)


def test_each_characteristic_and_prime_is_tested_once_per_call(tmp_path, capsys, monkeypatch):
    # FieldSpec and the --primes check call the one is_prime of linalg
    tested = []
    original = lpa_lie.linalg.is_prime

    def counted(n):
        tested.append(n)
        return original(n)

    for mod in (lpa_lie.linalg, lpa_lie.cli):
        monkeypatch.setattr(mod, "is_prime", counted)
    pis = write_family(tmp_path, "two_vertex", [2, 2, 3])
    other = write_family(tmp_path, "rose", [2])
    for argv, expected in (
        # both routes at every characteristic, the k0 route asking p-divisibility
        (["analyze", pis, "--char", "0,2,3,5,7,1000000007"], [2, 3, 5, 7, 1000000007]),
        (["witness", pis, "--coeffs", "1,0", "--char", "5"], [5]),
        (["kp-check", pis, other, "--char", "0,2,3"], [2, 3]),
        # the eight small primes are known to be prime
        (["k0", pis, "--primes", "23,1000000007"], [23, 1000000007]),
    ):
        for mode in ((), ("--json",)):
            tested.clear()
            code, _, _ = run(capsys, *argv, *mode)
            assert code in (0, 2) and tested == expected, argv


# -- misc ----------------------------------------------------------------


@pytest.mark.parametrize("argv", [["analyze"], ["witness", "--coeffs", "1"]])
@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_a_vertex_label_that_utf8_cannot_encode_is_refused(tmp_path, capsys, argv, mode):
    # JSON can escape a lone surrogate, but no report could print it
    path = tmp_path / "surrogate.json"
    path.write_text('{"vertices": ["\\ud800"], "adjacency": [[2]]}', encoding="utf-8")
    message = "bad structured graph: bad vertex label '\\ud800'"
    code, out, err = run(capsys, argv[0], str(path), *argv[1:], *mode)
    assert (code, err) == (1, f"error: {message}\n")
    if mode:
        assert json.loads(out) == {"schema": "lpa-lie.report/3", "command": argv[0], "error": message}
    else:
        assert out == ""


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_graph(family("rose", [3]))))
    code, out, _ = run(capsys, "k0", "-")
    assert code == 0
    assert "Z_2" in out


@pytest.mark.parametrize("kind", ["text", "json"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_a_leading_byte_order_mark_is_not_part_of_the_graph(tmp_path, capsys, monkeypatch, kind, source):
    if kind == "text":
        graph = serialize_graph(family("example4"))
    else:
        graph = json.dumps({"vertices": ["a", "b"], "adjacency": [[1, 1], [1, 1]]})
    plain = tmp_path / "plain"
    plain.write_text(graph, encoding="utf-8")
    expected = run(capsys, "analyze", str(plain), "--json")
    assert expected[0] == 0
    if source == "file":
        marked = tmp_path / "marked"
        marked.write_bytes(b"\xef\xbb\xbf" + graph.encode("utf-8"))
        spec = str(marked)
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + graph))
        spec = "-"
    assert run(capsys, "analyze", spec, "--json") == expected
    # only one mark is dropped; a second is read as part of the text
    monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff\ufeff" + graph))
    code, _, err = run(capsys, "analyze", "-")
    assert code == 1
    assert err.startswith("error: line 1, column 1: unknown directive '\\ufeff")


@pytest.mark.parametrize("typed", ["1_1", "\u0663"])
def test_typed_integers_are_an_optional_sign_and_ascii_digits(tmp_path, capsys, typed):
    # int() reads "1_1" as 11 and the Arabic-Indic digit three as 3
    path = write_family(tmp_path, "rose", [3])
    for argv, error in (
        (["analyze", path, "--char", typed], "bad characteristic"),
        (["k0", path, "--primes", typed], "bad prime"),
    ):
        assert run(capsys, *argv) == (1, "", f"error: {error} {typed!r}\n")
    with pytest.raises(SystemExit) as exc:
        main(["family", "rose", typed])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"error: argument params: invalid int value: {typed!r}\n")

    code, out, _ = run(capsys, "analyze", path, "--char", "+7,007")
    assert code == 0 and out.count("char 7: ") == 2
    code, out, _ = run(capsys, "k0", path, "--primes", "+23,0029")
    assert code == 0 and "p = 23: " in out and "p = 29: " in out
    for seven in ("+7", "007"):
        assert run(capsys, "family", "rose", seven) == (0, "vertex v1\nedge v1 v1 7\n", "")


@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_a_closed_stdout_ends_without_a_traceback(mode):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails
    src = str(Path(lpa_lie.__file__).resolve().parents[1])
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lpa_lie.cli", "family", "line", "30000", *mode],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_a_graph_piped_to_stdin_after_a_byte_order_mark(tmp_path, capsys):
    # a real pipe, not a patched sys.stdin: the process decodes its own standard input
    graph = json.dumps({"vertices": ["a", "b"], "adjacency": [[1, 1], [1, 1]]})
    path = tmp_path / "graph.json"
    path.write_text(graph, encoding="utf-8")
    code, out, _ = run(capsys, "analyze", str(path), "--json")
    assert code == 0 and json.loads(out)["graph"]["adjacency"] == [[1, 1], [1, 1]]
    src = str(Path(lpa_lie.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "lpa_lie.cli", "analyze", "--json", "-"],
        input=b"\xef\xbb\xbf" + graph.encode("utf-8"),
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout.decode("utf-8"), proc.stderr) == (0, out, b"")


def test_the_usage_and_version_lines_name_the_program(tmp_path):
    path = write_family(tmp_path, "rose", [2])
    code, out, err = outcome(main, ["k0", "-h"])
    assert (code, err) == (0, "")
    assert out.splitlines()[0].startswith("usage: lpa-lie k0 ")
    assert outcome(main, ["--version"]) == (0, f"lpa-lie {lpa_lie.__version__}\n", "")
    assert lpa_lie.__version__ == "0.1.0"
    bogus = (1, "", "lpa-lie: error: unrecognized arguments: --bogus\n")
    assert outcome(main, ["analyze", path, "--bogus"]) == bogus


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])  # missing required positional
    assert exc.value.code == 1


def test_the_deleted_selftest_command_is_refused():
    code, out, err = outcome(main, ["selftest"])
    assert (code, out) == (1, "")
    assert err.startswith("lpa-lie: error: argument command: invalid choice: 'selftest'")


def test_main_builds_the_parser_once_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    path = write_family(tmp_path, "example4")
    cli = lpa_lie.cli
    builds = []

    def counted():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        _, as_json, _ = run(capsys, "analyze", path, "--json")
        _, after_json, _ = run(capsys, "analyze", path)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--char"])
        assert exc.value.code == 1
        capsys.readouterr()
        after_error = run(capsys, "family", "rose", "2")
        assert len(builds) == 1
        # the same calls, each on a parser of its own
        cli._parser.cache_clear()
        fresh_text = run(capsys, "analyze", path)[1]
        cli._parser.cache_clear()
        fresh_family = run(capsys, "family", "rose", "2")
    finally:
        cli._parser.cache_clear()
    assert json.loads(as_json)["command"] == "analyze"
    assert after_json == fresh_text and not after_json.startswith("{")
    assert after_error == fresh_family == (0, serialize_graph(family("rose", [2])), "")


# G stands for a graph file; each call starts with a command unless noted
DISPATCH_CALLS = [
    ["analyze", "G", "--char", "0,3"],
    ["analyze", "G", "--char=0,3", "--json"],
    ["k0", "G", "--primes", "23"],
    ["k0", "G", "--primes=23", "--json"],
    ["witness", "G", "--coeffs", "1", "--char", "3"],
    ["witness", "G", "--coeffs=1", "--char=3", "--json"],
    ["witness", "G", "--co=1"],  # an abbreviated option
    ["witness", "G", "--coeffs=-1"],
    ["witness", "G", "--coeffs", "-1"],
    ["witness", "G", "--c=1"],  # ambiguous: --coeffs or --char
    ["family", "rose", "3"],
    ["family", "rose", "3", "--json"],
    ["family", "rose", "x"],
    ["kp-check", "G", "G", "--char", "0,2"],
    ["kp-check", "G", "G", "--char=0,2", "--json"],
    ["selftest"],  # a command that no longer exists
    ["analyze"],  # a missing positional
    ["witness", "G"],  # a missing required option
    ["analyze", "G", "--char"],  # an option without its value
    ["analyze", "G", "extra", "--bogus"],  # unrecognized trailing tokens
    ["k0", "G", "--version"],
    ["k0", "-h"],
    ["k0", "G", "-h", "--bogus"],
    ["analyze", "--", "G"],
    ["analyze", "G", "--json", "--", "more"],
    [],
    ["--version"],
    ["-h"],
    ["bogus"],
    ["--json", "analyze", "G"],  # an option before the command
    ["--", "analyze", "G"],
]


def outcome(entry, argv):
    """``(exit code, stdout, stderr)`` of ``entry(argv)``, a usage exit included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = entry(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", DISPATCH_CALLS, ids=lambda argv: " ".join(argv) or "(no args)")
def test_dispatch_matches_the_full_parser(tmp_path, argv):
    path = write_family(tmp_path, "rose", [2])
    argv = [path if a == "G" else a for a in argv]
    assert outcome(main, argv) == outcome(reference_main, argv)


def test_a_command_is_parsed_once(tmp_path, capsys, monkeypatch):
    path = write_family(tmp_path, "rose", [2])
    passes = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        passes.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    for entry, expected in ((main, ["lpa-lie witness"]), (reference_main, ["lpa-lie", "lpa-lie witness"])):
        passes.clear()
        assert entry(["witness", path, "--coeffs", "1"]) == 0
        assert passes == expected


def test_main_reads_sys_argv_by_default(tmp_path, monkeypatch):
    path = write_family(tmp_path, "rose", [2])
    for argv in (["k0", path], ["k0", path, "--bogus"], ["nosuch"]):
        monkeypatch.setattr(sys, "argv", ["lpa-lie", *argv])
        assert outcome(lambda _: main(), None) == outcome(main, argv)


def test_human_numbers_appear_in_machine_output(tmp_path, capsys):
    import re

    path = write_family(tmp_path, "two_vertex", [2, 3, 2])
    _, human, _ = run(capsys, "analyze", path, "--char", "0,2")
    _, machine, _ = run(capsys, "analyze", path, "--char", "0,2", "--json")
    machine_numbers = set(re.findall(r"-?\d+", machine))
    for token in re.findall(r"-?\d+", human):
        assert token in machine_numbers


# -- the README against the code ------------------------------------------------------

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def readme_block(heading: str, fence: str) -> str:
    """The first fenced block opened by ``fence`` in the README section ``heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{fence}\n", 1)[1].split("```", 1)[0]


def test_readme_cli_synopsis_lists_each_subcommands_options():
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    synopsis = {}
    for line in readme_block("CLI", "sh").splitlines():
        _, command, *_ = line.split()
        synopsis[command] = set(re.findall(r"--[a-z-]+", line))
    assert synopsis == {
        name: {o for a in sub._actions for o in a.option_strings if o.startswith("--") and o != "--help"}
        for name, sub in subparsers.choices.items()
    }


def test_readme_run_shapes_are_the_example_graphs_runs(capsys):
    # the golden input readme.graph is the README's example graph
    path = Path(__file__).resolve().parent / "golden" / "inputs" / "readme.graph"
    assert path.read_text(encoding="utf-8") == readme_block("Graph input", "")
    code, out, _ = run(capsys, "k0", str(path), "--json")
    assert code == 0
    shapes = [json.loads(line) for line in readme_block("CLI", "json").splitlines()]
    assert json.loads(out)["graph"]["runs"] == shapes


def test_readme_transcripts_match_the_output(monkeypatch):
    # a shown line must be the whole output line, except that "..." stands
    # for any text on a line and a line of "..." for any lines
    examples = README.split("\nExamples:\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    transcripts = examples.split("$ lpa-lie ")[1:]
    assert len(transcripts) == 2
    for transcript in transcripts:
        command, *shown = transcript.rstrip("\n").split("\n")
        stdin = ""
        for stage in command.split(" | lpa-lie "):
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            out = io.StringIO()
            with redirect_stdout(out):
                assert main(shlex.split(stage)) == 0
            stdin = out.getvalue()
        pattern = "".join(
            "(?:.*\n)*" if line == "..." else ".*".join(map(re.escape, line.split("..."))) + "\n"
            for line in shown
        )
        assert re.fullmatch(pattern, stdin), command


def readme_value(comment: str):
    """The value a README comment starts with: its longest prefix, cut at ", " or " (", that evaluates."""
    for end in [len(comment)] + [m.start() for m in re.finditer(r", | \(", comment)][::-1]:
        try:
            return eval(comment[:end], {"Fraction": Fraction})
        except (SyntaxError, NameError, TypeError):
            continue
    raise AssertionError(f"no value in the comment {comment!r}")


def test_readme_library_values_hold():
    # each comment gives the value of the statement it ends, perhaps followed
    # by a remark: "# 'simple' (independent route)", "# True, checked symbolically"
    block = readme_block("Library", "python")
    comments = {
        tok.start[0]: tok.string.lstrip("# ")
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        source = ast.unparse(stmt)
        if isinstance(stmt, ast.Expr):
            value = eval(source, namespace)
        else:
            exec(source, namespace)
            value = eval(ast.unparse(stmt.targets[0]), namespace) if isinstance(stmt, ast.Assign) else None
        if stmt.end_lineno in comments:
            assert value == readme_value(comments[stmt.end_lineno]), source
            checked += 1
    assert checked == len(comments) == 9


MALFORMED_INPUTS = [
    "",
    "vertex\n",
    "vertex a\nedge a\n",
    "vertex a\nedge a a -2\n",
    "vertex a\nedge a a 1.5\n",
    "garbage here\n",
    "vertex a\nvertex a\n",
    '{"vertices": ["a"], "adjacency": [[1, 2]]}',
    '{"vertices": ["a"], "adjacency": [["x"]]}',
    '{"vertices": "a"}',
    '{"vertices": "abc", "adjacency": [[0,0,0],[0,0,0],[0,0,0]]}',
    '{"vertices": ["a"], "adjacency": [[true]]}',
    "{not json",
    '{"vertices": ["a"], "adjacency": "nope"}',
    '{"vertices": ["a"], "adjacency": {"0": [0]}}',
    '{"vertices": ["a"], "adjacency": ' + "[" * 100_000 + "]" * 100_000 + "}",
    "\x00\x01binary-ish\n",
]


def test_malformed_inputs_never_crash(tmp_path, capsys):
    for i, text in enumerate(MALFORMED_INPUTS):
        path = tmp_path / f"bad{i}.graph"
        path.write_text(text, encoding="utf-8")
        for command in (["analyze", str(path)], ["k0", str(path)],
                        ["witness", str(path), "--coeffs", "1"],
                        ["kp-check", str(path), str(path)]):
            code, out, err = run(capsys, *command)
            assert code == 1, f"{command} on {text!r} exited {code}"
            assert "Traceback" not in err


def test_vertex_limit(tmp_path, capsys):
    # counts and the Smith form are V x V, the closure V masks of V bits:
    # at 30,000 vertices (409 KB of text) they would need gigabytes
    for m in (VERTEX_LIMIT + 1, 30_000):
        path = tmp_path / f"vertices-{m}.graph"
        path.write_text("".join(f"vertex v{i}\n" for i in range(m)), encoding="utf-8")
        with time_limit(2):
            code, out, err = run(capsys, "analyze", str(path))
        assert code == 1 and out == ""
        assert err == f"error: graph has {m} vertices, more than the limit of {VERTEX_LIMIT}\n"


def test_text_reports_on_a_trillion_edges(tmp_path, capsys):
    path = tmp_path / "big.graph"
    path.write_text("vertex a\nedge a a 1000000000000\n", encoding="utf-8")
    with time_limit(5):
        code, out, _ = run(capsys, "analyze", str(path))
        k0_code, k0_out, _ = run(capsys, "k0", str(path))
    assert code == 0
    assert "graph: 1 vertices, 1000000000000 edges" in out
    assert "B[a] = (999999999999)" in out
    assert k0_code == 0
    assert "Z_999999999999" in k0_out


def test_json_reports_on_a_trillion_edges(tmp_path, capsys):
    # the report lists the one run, not its 10^12 edges
    path = tmp_path / "big.graph"
    path.write_text("vertex a\nedge a a 1000000000000\n", encoding="utf-8")
    for command in ("analyze", "k0"):
        with time_limit(2):
            code, out, _ = run(capsys, command, str(path), "--json")
        assert code == 0
        assert json.loads(out)["graph"]["runs"] == [
            {"source": "a", "target": "a", "first": 1, "count": 1000000000000}
        ]


def test_isolated_vertices_get_one_witness_each(tmp_path, capsys):
    # each vertex misses 999 sinks but is named once; the last witness line
    # is the pure infinite simplicity report's "no cycle"
    path = tmp_path / "isolated.graph"
    path.write_text("".join(f"vertex v{i}\n" for i in range(1000)), encoding="utf-8")
    with time_limit(5):
        code, out, _ = run(capsys, "analyze", str(path))
    assert code == 2
    witnesses = [line for line in out.splitlines() if line.startswith("  witness: ")]
    assert witnesses[0] == "  witness: vertex v0 does not reach sink v1"
    assert witnesses[1:] == [f"  witness: vertex v{i} does not reach sink v0" for i in range(1, 1000)] + [
        "  witness: the graph has no cycle"
    ]


@given(st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_report_runs_expand_to_the_edges(tmp_path_factory, rng):
    g = random_labelled_graph(rng)
    path = tmp_path_factory.getbasetemp() / "runs-input.graph"
    path.write_text(serialize_graph(g), encoding="utf-8")
    edges = [(e.label, e.source.label, e.target.label) for e in all_edges(g)]
    for command in ("analyze", "k0"):
        with redirect_stdout(io.StringIO()) as out:
            main([command, str(path), "--json"])
        assert expand_runs(json.loads(out.getvalue())["graph"]["runs"]) == edges


JSON_ERROR_CALLS = (
    (["analyze", "missing.graph"],
     "cannot read 'missing.graph': [Errno 2] No such file or directory: 'missing.graph'"),
    (["analyze", "rose.graph", "--char", "4"], "characteristic must be 0 or prime, got 4"),
    (["k0", "rose.graph", "--primes", "x"], "bad prime 'x'"),
    (["witness", "rose.graph", "--coeffs", "1,1"], "expected 1 coefficients, got 2"),
    (["family", "rose", "0"], "rose(n) requires n >= 1"),
    (["kp-check", "-", "-"], "standard input can supply only one graph"),
    (["analyze", "rose.graph", "--char", ","], "no characteristics given"),
    (["witness", "rose.graph", "--coeffs", "1", "--char", "0,2"],
     "witness takes exactly one characteristic"),
    (["analyze", "rose.graph", "--char", "9" * 5000],
     "characteristic '99999999999999999999...' has more than 4300 digits"),
    (["k0", "rose.graph", "--primes", "2,-" + "9" * 4301],
     "prime '-9999999999999999999...' has more than 4300 digits"),
    (["witness", "rose.graph", "--coeffs", "1/" + "9" * 5000],
     "cannot parse an element of Q: '99999999999999999999...' has more than 4300 digits"),
    (["witness", "rose.graph", "--coeffs=1/0"], "cannot parse '1/0' as an element of Q: the denominator is zero"),
    (["witness", "rose.graph", "--coeffs=0/0"], "cannot parse '0/0' as an element of Q: the denominator is zero"),
    (["witness", "rose.graph", "--coeffs=1/00"], "cannot parse '1/00' as an element of Q: the denominator is zero"),
    (["witness", "rose.graph", "--coeffs=1/0", "--char", "3"],
     "cannot parse '1/0' as an element of GF(3): the denominator is zero"),
    (["analyze", "true-entry.json"], "bad structured graph: adjacency entry (0, 1) must be a non-negative integer"),
    (["analyze", "vertex-twice.graph"], "line 2, column 8: duplicate vertex label 'e'"),
)
# the input files of JSON_ERROR_CALLS besides rose.graph
JSON_ERROR_INPUTS = {
    "true-entry.json": '{"vertices": ["a", "b"], "adjacency": [[1, true], [1, 1]]}',
    "vertex-twice.graph": "vertex e\nvertex e\n",
}


@pytest.mark.parametrize("argv, message", JSON_ERROR_CALLS)
def test_json_errors(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    write_family(tmp_path, "rose", [2], "rose.graph")
    for name, text in JSON_ERROR_INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    # with --json the same error is also one JSON object on stdout
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (1, f"error: {message}\n")
    assert out.count("\n") == 1
    assert json.loads(out) == {"schema": "lpa-lie.report/3", "command": argv[0], "error": message}


@pytest.mark.parametrize("argv, message", [
    (["witness", "rose.graph", "--coeffs", "9" * 5000],
     "error: cannot parse an element of Q: '99999999999999999999...' has more than 4300 digits\n"),
    (["family", "rose", "9" * 5000],
     "lpa-lie family: error: argument params: '99999999999999999999...' has more than 4300 digits\n"),
])
def test_a_long_integer_is_quoted_short(tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    write_family(tmp_path, "rose", [2], "rose.graph")
    assert outcome(main, argv) == (1, "", message)
    assert len(message.encode()) < 200


NAMES = ("a", "b", "a_b", "b_c", "c")
LABELS = NAMES + ("a b", "")
EDGE_LINES = st.builds("edge {} {} {}".format, st.sampled_from(NAMES), st.sampled_from(NAMES),
                       st.integers(1, 5) | st.integers(10**9, 10**40))
DIRECTIVE_TEXT = st.tuples(
    st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True),
    st.lists(
        st.one_of(
            EDGE_LINES,
            EDGE_LINES,
            EDGE_LINES,
            st.builds("edge-label {} {} {}".format, st.sampled_from(("f", "a_b_1", "a_b_c_1")),
                      st.sampled_from(NAMES), st.sampled_from(NAMES)),
            st.one_of(
                st.text(max_size=20),
                st.builds("vertex {}".format, st.sampled_from(LABELS)),
                st.builds("edge {} {} {}".format, st.sampled_from(LABELS), st.sampled_from(LABELS),
                          st.integers(-2, 0) | st.sampled_from(("x", "1_000", "1.5", ""))),
            ),
        ),
        max_size=6,
    ),
).map(lambda parts: "\n".join([f"vertex {v}" for v in parts[0]] + parts[1]))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**30), 10**30) | st.floats(allow_nan=False)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=12,
)
SQUARE_GRAPHS = st.integers(0, 4).flatmap(
    lambda m: st.fixed_dictionaries({
        "vertices": st.lists(st.sampled_from(LABELS), min_size=m, max_size=m, unique=True),
        "adjacency": st.lists(
            st.lists(st.integers(-1, 3) | st.integers(10**12, 10**30), min_size=m, max_size=m),
            min_size=m, max_size=m,
        ),
    })
)
JSON_TEXT = st.one_of(
    SQUARE_GRAPHS,
    st.fixed_dictionaries({"vertices": JSON_VALUES, "adjacency": JSON_VALUES}),
    st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=3),
).map(json.dumps)


@given(st.one_of(DIRECTIVE_TEXT, JSON_TEXT, st.text(max_size=60)))
@settings(max_examples=300, deadline=None)
def test_analyze_loader_fuzz(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz-input.graph"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), time_limit(10):
        code = main(["analyze", str(path)])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error: ")
        # with --json, stdout is the error as one JSON object; stderr is the same
        json_out, json_err = io.StringIO(), io.StringIO()
        with redirect_stdout(json_out), redirect_stderr(json_err), time_limit(10):
            assert main(["analyze", str(path), "--json"]) == 1
        assert json_err.getvalue() == err.getvalue()
        report = json.loads(json_out.getvalue())
        assert report == {"schema": "lpa-lie.report/3", "command": "analyze", "error": report["error"]}
        assert err.getvalue() == f"error: {report['error']}\n"


# JSON adjacency written as text, so that an entry can have more digits than
# int() converts and a list can nest deeper than the decoder recurses
NESTED = st.integers(1, 3000).map(lambda depth: "[" * depth + "]" * depth)
# 10^k for k up to 5,000, on both sides of the 4,300 digits that int() converts
HUGE_TEXT = (st.integers(1, 60) | st.integers(4200, 5000)).map(lambda k: "1" + "0" * k)
ENTRY_TEXT = st.one_of(
    st.integers(-1, 3).map(str),
    st.integers(10**12, 10**30).map(str),
    HUGE_TEXT,
    st.floats().map(json.dumps),  # NaN and the infinities among them
    st.booleans().map(json.dumps),
    st.sampled_from(("null", '"1"', "{}")),
    NESTED,
)
ROW_TEXT = st.lists(ENTRY_TEXT, max_size=4).map(lambda row: "[" + ", ".join(row) + "]")


def _json_graph_text(parts):
    labels, rows = parts
    return f'{{"vertices": {json.dumps(labels)}, "adjacency": [{", ".join(rows)}]}}'


# square graphs whose entries are mostly multiplicities, some of them past
# 4,300 digits, reach the Smith form; the rest are ragged, hold bad entries,
# or nest deeply
MULTIPLICITY_TEXT = st.one_of(
    st.integers(0, 3).map(str),
    st.integers(0, 3).map(str),
    HUGE_TEXT,
    ENTRY_TEXT,
)
JSON_GRAPH_TEXT = st.one_of(
    st.integers(1, 4).flatmap(lambda m: st.tuples(
        st.lists(st.sampled_from(NAMES), min_size=m, max_size=m, unique=True),
        st.lists(
            st.lists(MULTIPLICITY_TEXT, min_size=m, max_size=m).map(lambda row: "[" + ", ".join(row) + "]"),
            min_size=m, max_size=m,
        ),
    )),
    st.tuples(st.lists(st.sampled_from(LABELS), max_size=4, unique=True), st.lists(ROW_TEXT, max_size=4)),
    st.tuples(st.lists(st.sampled_from(LABELS), max_size=2, unique=True), NESTED.map(lambda text: [text])),
).map(_json_graph_text)


def assert_the_same_outcome_in_both_modes(argv) -> None:
    """``main(argv)`` and ``main(argv + ["--json"])`` exit 0, 1 or 2, alike, each in 10 s.

    Exit 1 is one ``error:`` line on stderr, with the same error as one JSON
    object on stdout in ``--json`` mode; otherwise stderr is empty.  No call
    prints a traceback, and every report encodes in UTF-8, as a real
    standard output needs.
    """
    with time_limit(10):
        code, out, err = outcome(main, argv)
    with time_limit(10):
        json_code, json_out, json_err = outcome(main, argv + ["--json"])
    assert code in (0, 1, 2) and json_code == code
    assert "Traceback" not in err + json_err
    out.encode("utf-8")
    json_out.encode("utf-8")
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1
        report = json.loads(json_out)
        assert report == {"schema": "lpa-lie.report/3", "command": argv[0], "error": report["error"]}
        assert json_err == err == f"error: {report['error']}\n"
    else:
        assert err == json_err == ""
        assert json.loads(json_out)["command"] == argv[0]


@given(JSON_GRAPH_TEXT, JSON_GRAPH_TEXT | DIRECTIVE_TEXT)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_k0_and_kp_check_loader_fuzz(tmp_path_factory, text_a, text_b):
    """``k0`` and ``kp-check`` on drawn JSON graphs, in text and ``--json`` mode.

    Each call keeps ``assert_the_same_outcome_in_both_modes``.
    Derandomized, 300 examples of four calls each: about 2 s.
    """
    base = tmp_path_factory.getbasetemp()
    path_a, path_b = base / "fuzz-a.json", base / "fuzz-b.graph"
    path_a.write_text(text_a, encoding="utf-8")
    path_b.write_text(text_b, encoding="utf-8")
    for argv in (["k0", str(path_a)], ["kp-check", str(path_a), str(path_b)]):
        assert_the_same_outcome_in_both_modes(argv)


# the graphs of the --coeffs and --char fuzz, of one to four vertices, one
# of them with a sink
FUZZ_GRAPHS = {"rose_3": ("rose", [3]), "line_2": ("line", [2]),
               "two_vertex": ("two_vertex", [2, 2, 3]), "example4": ("example4", [])}
# a coefficient: an integer, a fraction (zero denominators among them), a
# number past 4,300 digits, a near miss of the syntax, or any short text
COEFF_TEXT = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.builds("{}/{}".format, st.integers(-50, 50), st.integers(0, 50) | st.sampled_from(("00", "007"))),
    HUGE_TEXT,
    st.sampled_from(("", "x", "1/", "/2", "1e5", "1.5", "--1", "1/-2", " 3 ", "1_0", "\u0663", "1/2/3")),
    st.text(max_size=6),
)
# a characteristic up to 10^30: mostly composite, with primes of up to 27
# digits, Carmichael numbers, strong pseudoprimes to small bases and squares
# of primes drawn too
CHAR_TEXT = st.one_of(
    st.integers(-5, 10**30),
    st.integers(0, 100),
    st.sampled_from((2, 3, 5, 7, 10**9 + 7, 2**31 - 1, 2**61 - 1, 2**89 - 1, 561, 41041,
                     3215031751, 3825123056546413051, (2**31 - 1) ** 2, 2**89 + 1)),
).map(str)


def write_fuzz_graphs(base) -> dict:
    """The ``FUZZ_GRAPHS`` written once under ``base``, as {name: (path, vertex count)}."""
    paths = {}
    for name, (family_name, params) in FUZZ_GRAPHS.items():
        g = family(family_name, params)
        path = base / f"fuzz-{name}.graph"
        if not path.exists():
            path.write_text(serialize_graph(g), encoding="utf-8")
        paths[name] = (str(path), g.num_vertices)
    return paths


@given(st.sampled_from(sorted(FUZZ_GRAPHS)), st.lists(COEFF_TEXT, max_size=5),
       st.sampled_from(("0", "2", "3", "5", "1000000007")))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_witness_coefficient_fuzz(tmp_path_factory, name, coeffs, char):
    """``witness --coeffs`` on drawn lists, in text and ``--json`` mode.

    Each call keeps ``assert_the_same_outcome_in_both_modes``.
    Derandomized, 300 examples of two calls each: about 1 s.
    """
    path, _ = write_fuzz_graphs(tmp_path_factory.getbasetemp())[name]
    assert_the_same_outcome_in_both_modes(["witness", path, "--coeffs=" + ",".join(coeffs), f"--char={char}"])


@given(st.sampled_from(sorted(FUZZ_GRAPHS)), st.lists(CHAR_TEXT, max_size=3))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_characteristic_fuzz(tmp_path_factory, name, chars):
    """``analyze --char`` and ``witness --char`` at drawn characteristics up to 10^30.

    Each call keeps ``assert_the_same_outcome_in_both_modes``.
    Derandomized, 300 examples of four calls each: about 1 s.
    """
    path, m = write_fuzz_graphs(tmp_path_factory.getbasetemp())[name]
    text = ",".join(chars)
    for argv in (["analyze", path, f"--char={text}"],
                 ["witness", path, "--coeffs=" + ",".join(["1"] * m), f"--char={text}"]):
        assert_the_same_outcome_in_both_modes(argv)


# a label of any code points, with whitespace, controls, the byte-order
# mark, the last code point and, in JSON input only, lone surrogates drawn
# often; a text file holds no surrogate
ODD_CODE_POINTS = ("a", " ", "\t", "\x00", "\x1c", "\x85", "\u2028", "\u200b", "\ufeff", "\U0010ffff")
TEXT_LABELS = st.text(st.sampled_from(ODD_CODE_POINTS) | st.characters(blacklist_categories=("Cs",)), max_size=4)
JSON_LABELS = st.text(st.sampled_from(ODD_CODE_POINTS + ("\ud800", "\udfff")) | st.characters(), max_size=4)


@given(st.integers(1, 3).flatmap(lambda m: st.tuples(
    st.lists(JSON_LABELS, min_size=m, max_size=m),
    st.lists(st.lists(st.integers(0, 2), min_size=m, max_size=m), min_size=m, max_size=m),
    st.lists(TEXT_LABELS, min_size=m, max_size=m),
)))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_vertex_label_fuzz(tmp_path_factory, case):
    """``analyze`` and ``witness`` on graphs with drawn vertex labels, as JSON and as text.

    Each call keeps ``assert_the_same_outcome_in_both_modes``.  Derandomized,
    150 examples of eight calls each: about 1 s.
    """
    json_labels, adjacency, text_labels = case
    base = tmp_path_factory.getbasetemp()
    json_path, text_path = base / "labels.json", base / "labels.graph"
    json_path.write_text(json.dumps({"vertices": json_labels, "adjacency": adjacency}), encoding="utf-8")
    text_path.write_text(
        "".join(f"vertex {label}\n" for label in text_labels)
        + "".join(f"edge {text_labels[i]} {text_labels[j]} {n}\n"
                  for i, row in enumerate(adjacency) for j, n in enumerate(row) if n),
        encoding="utf-8",
    )
    coeffs = "--coeffs=" + ",".join(["1"] * len(adjacency))
    for path in (json_path, text_path):
        assert_the_same_outcome_in_both_modes(["analyze", str(path)])
        assert_the_same_outcome_in_both_modes(["witness", str(path), coeffs])
