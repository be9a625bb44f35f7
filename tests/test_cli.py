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
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import (
    all_edges,
    expand_runs,
    random_graphs_where,
    random_labelled_graph,
    reference_rank,
    reference_serialize,
    reference_span,
    time_limit,
)

import lpa_lie
from lpa_lie import (
    CohnElement,
    FieldSpec,
    b_vectors,
    family,
    is_trivial_lpa,
    parse_graph,
    serialize_graph,
    simplicity_reports,
)
from lpa_lie.cli import VERTEX_LIMIT, build_parser, main
from lpa_lie.cohn import WITNESS_EDGE_LIMIT


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
    assert data["schema"] == "lpa-lie.report/2"
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
    assert len(data["commutators"]) == 4


def test_witness_edge_limit(tmp_path, capsys):
    path = tmp_path / "big.graph"
    path.write_text("vertex a\nedge a a 1000000000000\n", encoding="utf-8")
    with time_limit(5):
        code, out, err = run(capsys, "witness", str(path), "--coeffs", "999999999999")
    assert code == 1 and out == ""
    assert err == (
        f"error: the witness would bracket 1000000000000 edges, more than the limit of {WITNESS_EDGE_LIMIT}\n"
    )


def test_witness_edge_limit_counts_only_the_support_of_t(tmp_path, capsys):
    # t = (1, 0): the two loops at a are expanded, the huge count at b is not
    path = tmp_path / "two.graph"
    path.write_text(
        f"vertex a\nvertex b\nedge a a 2\nedge b b {10**12}\n", encoding="utf-8"
    )
    code, out, err = run(capsys, "witness", str(path), "--coeffs", "1,0")
    assert code == 0 and err == ""
    assert "t = (1, 0)" in out and "VERIFIED" in out
    path = tmp_path / "rose.graph"
    path.write_text(f"vertex a\nedge a a {WITNESS_EDGE_LIMIT + 1}\n", encoding="utf-8")
    code, out, err = run(capsys, "witness", str(path), "--coeffs", str(WITNESS_EDGE_LIMIT))
    assert code == 1 and f"bracket {WITNESS_EDGE_LIMIT + 1} edges" in err


def test_witness_of_rose_9999_verifies_in_seconds(tmp_path, capsys):
    # 9,999 brackets, just under the limit; the cost is linear in that count
    assert 9999 < WITNESS_EDGE_LIMIT
    path = write_family(tmp_path, "rose", [9999])
    with time_limit(3):
        code, out, err = run(capsys, "witness", path, "--coeffs", "9998", "--char", "0")
    assert (code, err) == (0, "")
    assert out.endswith("\nsymbolic verification: VERIFIED\n")


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
    # the text report reads the strings of the payload, in both modes
    rendered = []
    original = CohnElement.__str__
    monkeypatch.setattr(CohnElement, "__str__", lambda x: rendered.append(x) or original(x))
    path = write_family(tmp_path, "rose", [3])
    for mode in ((), ("--json",)):
        rendered.clear()
        code, _, _ = run(capsys, "witness", path, "--coeffs", "1", *mode)
        assert code == 0 and len(rendered) == 2


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
    names = ("simplicity_reports", "smith_normal_form", "reachability")
    smith_forms = []
    for name in names:
        original = getattr(lpa_lie, name)
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

    def counted_replay(log, vec, p=0):
        replayed.append(log)
        return original_replay(log, vec, p)

    monkeypatch.setattr(lpa_lie.linalg, "_replay_rows", counted_replay)

    def replays_of(dec):
        assert dec.row_log  # the empty log is one shared tuple
        return sum(1 for log in replayed if log is dec.row_log)

    path = write_family(tmp_path, "prime_set", [6])
    code, out, _ = run(capsys, "analyze", path, "--char", "0,2,3,5,7,11,13,17,19,23,29,31")
    assert code == 0
    assert out.count("-- AGREE") == 12
    # both reports come from one reachability closure, computed once
    assert counts["simplicity_reports"] == 1
    assert counts["reachability"] == 1
    # no sink: both routes read the one Smith form of the B-matrix
    assert counts["smith_normal_form"] == 1
    # the unit class and the span solve at all 12 characteristics read one U (1, ..., 1)
    assert replays_of(smith_forms[-1]) == 1

    counts["smith_normal_form"] = 0
    a = write_family(tmp_path, "rose", [2])
    b = write_family(tmp_path, "matrix_rose", [2, 3])
    code, out, _ = run(capsys, "kp-check", a, b)
    assert code == 0
    assert counts["smith_normal_form"] <= 2

    smith_forms.clear()
    a = write_family(tmp_path, "example4", [])
    b = write_family(tmp_path, "matrix_rose", [3, 4])
    code, out, _ = run(capsys, "kp-check", a, b)
    assert code == 0
    assert len(smith_forms) == 2
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


# -- selftest and misc ----------------------------------------------------------------


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 8


def test_selftest_json(capsys):
    code, out, _ = run(capsys, "selftest", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["ok"] is True


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_graph(family("rose", [3]))))
    code, out, _ = run(capsys, "k0", "-")
    assert code == 0
    assert "Z_2" in out


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


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])  # missing required positional
    assert exc.value.code == 1


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


def test_readme_run_shapes_are_the_example_graphs_runs(tmp_path, capsys):
    path = tmp_path / "example.graph"
    path.write_text(readme_block("Graph input", ""), encoding="utf-8")
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
    # counts, reachability and the Smith form are V x V: at 30,000 vertices
    # (409 KB of text) they would need gigabytes
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
)


@pytest.mark.parametrize("argv, message", JSON_ERROR_CALLS)
def test_json_errors(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    write_family(tmp_path, "rose", [2], "rose.graph")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    # with --json the same error is also one JSON object on stdout
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (1, f"error: {message}\n")
    assert out.count("\n") == 1
    assert json.loads(out) == {"schema": "lpa-lie.report/2", "command": argv[0], "error": message}


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
        assert report == {"schema": "lpa-lie.report/2", "command": "analyze", "error": report["error"]}
        assert err.getvalue() == f"error: {report['error']}\n"
