"""Answer checks that do not trust the package under test.

``check(call, exit_code, stdout)`` returns ``(problem, answer)``: ``problem``
is None when every check passed, else a one-line reason; ``answer`` is the
list of canonical answer fields that the digest covers.  Fields that depend
on the choice of unimodular ``U`` (unit-class coordinates, span and witness
coefficients) are checked but kept out of the answer, so that a different
but valid Smith form still matches the reference.
"""

from __future__ import annotations

import hashlib
import json
from math import prod

import exact

SIMPLE, NOT_SIMPLE, INAPPLICABLE = "simple", "not-simple", "inapplicable"


def digest(answer) -> str:
    return hashlib.sha256(json.dumps(answer, sort_keys=True).encode()).hexdigest()[:16]


class _Bad(Exception):
    pass


def _need(cond: bool, what: str) -> None:
    if not cond:
        raise _Bad(what)


def check(call, code: int, stdout: str) -> tuple[str | None, list]:
    exp = call.expect
    try:
        if exp["cmd"] == "family":
            _need(code == 0, f"exit code {code}")
            _need(stdout == exp["dsl"], "family text differs from the family definition")
            return None, ["family", digest(stdout)]
        report = json.loads(stdout)
        return None, _CHECKS[exp["cmd"]](exp, code, report)
    except _Bad as bad:
        return str(bad), []
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}", []


# ---------------------------------------------------------------------------
# K0 data shared by analyze, k0 and kp-check
# ---------------------------------------------------------------------------

_det_cache: dict[str, int] = {}


def _det(adj) -> int:
    key = json.dumps(adj)
    if key not in _det_cache:
        _det_cache[key] = exact.bareiss_det(exact.presentation_matrix(adj))
    return _det_cache[key]


def _check_factors(adj, factors: list[int]) -> int:
    """Invariant factors of ``I - A^t`` against a Bareiss determinant."""
    _need(len(factors) == len(adj), "wrong number of invariant factors")
    nonzero = [a for a in factors if a]
    _need(all(a > 0 for a in nonzero), "negative invariant factor")
    _need(all(b % a == 0 for a, b in zip(nonzero, nonzero[1:])), "factors do not divide in chain")
    det = abs(_det(adj))
    if det:
        _need(len(nonzero) == len(factors), "zero factor for a nonsingular matrix")
        _need(prod(nonzero) == det, "product of invariant factors differs from |det(I - A^t)|")
    else:
        _need(len(nonzero) < len(factors), "no zero factor for a singular matrix")
    return det


def _check_k0_block(adj, k0: dict) -> list:
    factors = k0["invariant_factors"]
    det = _check_factors(adj, factors)
    order = k0["unit_class_order"]
    if det:
        _need(isinstance(order, int) and det % order == 0, "unit-class order does not divide the torsion order")
    return [factors, order]


# ---------------------------------------------------------------------------
# per command
# ---------------------------------------------------------------------------


def _combination_equals(adj, coeffs: list[str], target: list[int], p: int) -> bool:
    """Whether ``sum_i coeffs[i] * B_i`` equals ``target`` over GF(p), or Q when p is 0."""
    b = exact.b_vectors(adj)
    c = [exact.parse_scalar(x, p) for x in coeffs]
    for j, want in enumerate(target):
        total = sum(ci * b[i][j] for i, ci in enumerate(c))
        if (total - want) % p if p else total != want:
            return False
    return True


def _ones_in_span(adj, p: int) -> bool:
    b = exact.b_vectors(adj)
    return exact.rank_mod(b + [[1] * len(adj)], p) == exact.rank_mod(b, p)


def _check_analyze(exp, code, report) -> list:
    adj, kind = exp["adj"], exp["kind"]
    simple = report["algebra_simple"]["verdict"]
    pis = report["purely_infinite_simple"]["verdict"]
    _need(report["graph"]["adjacency"] == adj, "graph read back differs from the input")
    _need(report["b_vectors"] == exact.b_vectors(adj), "B-vectors differ")
    _need(simple == (kind != "split"), f"algebra simplicity wrong for a {kind} graph")
    _need(pis == (kind == "pis"), f"pure infinite simplicity wrong for a {kind} graph")
    _need(code == (0 if simple else 2), f"exit code {code}")
    rows = report["verdicts"]
    _need([r["characteristic"] for r in rows] == exp["chars"], "characteristics differ from those asked for")
    statuses = []
    for row in rows:
        p = row["characteristic"]
        span = row["span"]
        if not simple:
            _need(span["status"] == INAPPLICABLE, "verdict for a graph that is not simple")
        else:
            in_span = _ones_in_span(adj, p)
            _need(span["status"] == (NOT_SIMPLE if in_span else SIMPLE), f"span verdict wrong at {p}")
            if in_span:
                _need(_combination_equals(adj, span["certificate"], [1] * len(adj), p), f"span certificate fails at {p}")
        if pis:
            _need(row["agreement"] == "AGREE", f"routes disagree at {p}")
        statuses.append([p, span["status"], row["k0"] and row["k0"]["status"]])
    return ["analyze", code, simple, pis, *_check_k0_block(adj, report["k0"]), statuses]


def _check_k0(exp, code, report) -> list:
    _need(code == 0, f"exit code {code}")
    adj = exp["adj"]
    det = abs(_det(adj))
    block = _check_k0_block(adj, report["k0"])
    div = report["p_divisibility"]
    for p in exp["primes"]:
        if det and det % p:
            _need(div[str(p)] is True, f"unit class not {p}-divisible in a group of order prime to {p}")
    return ["k0", code, *block, div]


def _check_kp(exp, code, report) -> list:
    _need(code == 0, f"exit code {code}")
    _need(report["applicable"] is True, "pair of purely infinite simple graphs reported inapplicable")
    _need(report["pointed_iso"] == "exists", f"pointed iso {report['pointed_iso']!r} for a known pair")
    _need(report["contradiction"] is False, "contradiction reported")
    for key, adj in (("k0_a", exp["adj"]), ("k0_b", exp["adj_b"])):
        _check_factors(adj, report[key]["invariant_factors"])
    statuses = [[r["characteristic"], r["first"]["status"], r["second"]["status"]] for r in report["verdicts"]]
    _need(all(a == b for _, a, b in statuses), "verdicts differ across a known pair")
    return ["kp-check", code, report["pointed_iso"], statuses]


def _check_witness(exp, code, report) -> list:
    p, k, member = exp["char"], exp["k"], exp["member"]
    _need(report["membership"] is member, f"membership {report['membership']} for a {'member' if member else 'non-member'}")
    if member:
        _need(code == 0, f"exit code {code}")
        _need(report["verification"] == "VERIFIED", "member witness not VERIFIED")
        _need(_combination_equals(exp["adj"], report["t"], k, p), "t is not a solution of k = sum t_i B_i")
        return ["witness", code, True, report["verification"]]
    _need(code == 2, f"exit code {code}")
    b = exact.b_vectors(exp["adj"])
    cert = report["certificate"]
    _need(cert["rank_b"] == exact.rank_mod(b, p), "rank of the B-vectors differs")
    _need(cert["rank_augmented"] == exact.rank_mod(b + [k], p), "augmented rank differs")
    return ["witness", code, False, None]


_CHECKS = {"analyze": _check_analyze, "k0": _check_k0, "kp-check": _check_kp, "witness": _check_witness}
