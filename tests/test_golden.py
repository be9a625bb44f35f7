"""Byte-for-byte CLI reports: each call's exit code, stdout and stderr.

The expected output of each call in ``CALLS`` is kept in
``tests/golden/<name>.json``.  After an intended change to a report, rewrite
them with ``PYTHONPATH=src python tests/test_golden.py`` and review the diff.

The 40-vertex purely infinite simple graph ``inputs/pis_40.json`` is large
enough for the Smith elimination to take many Euclid rounds per stage (189
rounds over 40 stages).  It was written once from
``_gen.random_pis_graphs(random.Random(54), 1, min_vertices=40,
max_vertices=40)``, and ``inputs/pis_40_permuted.json`` declares its
vertices in the order ``random.Random(55).sample(range(40), 40)``.
Both are kept frozen: the calls on them pin the unit-class coordinates and
span certificates that the elimination order chooses.
"""

import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from lpa_lie import family, serialize_graph
from lpa_lie.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

# input files the calls name, written as family graphs
GRAPHS = {
    "example4.graph": ("example4", []),
    "prime_set_6.graph": ("prime_set", [6]),
    "two_vertex_2_2_3.graph": ("two_vertex", [2, 2, 3]),
    "line_3.graph": ("line", [3]),
    "rose_1.graph": ("rose", [1]),
    "rose_2.graph": ("rose", [2]),
    "rose_3.graph": ("rose", [3]),
    "rose_12.graph": ("rose", [12]),
    "matrix_rose_2_3.graph": ("matrix_rose", [2, 3]),
    "matrix_rose_3_4.graph": ("matrix_rose", [3, 4]),
}

CALLS = {
    f"{command}-{stem}{suffix}": [command, f"{stem}.graph", *flags]
    for command in ("analyze", "k0")
    for stem in ("example4", "prime_set_6", "two_vertex_2_2_3", "line_3", "rose_1", "matrix_rose_3_4")
    for suffix, flags in (("", []), ("-json", ["--json"]))
}
CALLS.update({
    "witness-rose_3-member": ["witness", "rose_3.graph", "--coeffs", "1", "--char", "0"],
    "witness-rose_3-non-member": ["witness", "rose_3.graph", "--coeffs", "1", "--char", "2"],
    # labels v1_v1_10 .. v1_v1_12 print before v1_v1_2: label order, not index order
    "witness-rose_12-member": ["witness", "rose_12.graph", "--coeffs", "1", "--char", "0"],
    # t = (1, 1) mod 5: brackets at both vertices, coefficients residues mod 5
    "witness-two_vertex_2_2_3-member": [
        "witness", "two_vertex_2_2_3.graph", "--coeffs", "3,4", "--char", "5",
    ],
    # t = (0, 1/2, 0, 1/3): fractional coefficients at two of four vertices
    "witness-example4-member": [
        "witness", "example4.graph", "--coeffs", "1/2,-1/2,1/3,1/6", "--char", "0",
    ],
    "kp-check-rose_2-matrix_rose_2_3": ["kp-check", "rose_2.graph", "matrix_rose_2_3.graph"],
    "family-example4": ["family", "example4"],
    "selftest": ["selftest"],
    "analyze-composite-char": ["analyze", "rose_3.graph", "--char", "0,4"],
    "k0-pis_40-json": ["k0", "pis_40.json", "--json"],
    "analyze-pis_40-json": ["analyze", "pis_40.json", "--json"],
    "kp-check-pis_40-pis_40_permuted-json": [
        "kp-check", "pis_40.json", "pis_40_permuted.json", "--json",
    ],
})
# the JSON report of every other command
CALLS.update({
    f"{name}-json": [*CALLS[name], "--json"]
    for name in (
        "witness-rose_3-member",
        "witness-rose_3-non-member",
        "witness-rose_12-member",
        "witness-two_vertex_2_2_3-member",
        "witness-example4-member",
        "kp-check-rose_2-matrix_rose_2_3",
        "family-example4",
        "selftest",
    )
})


def write_graphs(directory: Path) -> None:
    for filename, (name, params) in GRAPHS.items():
        (directory / filename).write_text(serialize_graph(family(name, params)), encoding="utf-8")
    for source in INPUTS.glob("*.json"):
        (directory / source.name).write_bytes(source.read_bytes())


def run_call(argv) -> dict:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": out.getvalue().splitlines(keepends=True),
        "stderr": err.getvalue().splitlines(keepends=True),
    }


def test_golden_files_match_the_calls():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_cli_report_matches_golden(name, tmp_path, monkeypatch):
    write_graphs(tmp_path)
    monkeypatch.chdir(tmp_path)
    expected = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert run_call(CALLS[name]) == expected


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.json"):
        stale.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        write_graphs(Path(tmp))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            results = {name: run_call(argv) for name, argv in CALLS.items()}
        finally:
            os.chdir(cwd)
    for name, result in results.items():
        text = json.dumps(result, indent=1, ensure_ascii=False) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
