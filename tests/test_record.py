"""The package's records against frozen data classes of the same fields.

``lpa_lie.linalg._frozen`` stands in for ``dataclasses.dataclass(frozen=True)``,
which the package does not import.  Each record class is compared with a
data class twin built from its own annotations, defaults and methods: on
sample instances, several read off seeded random graphs, the two must agree
on hash, ==, repr, construction and its errors, frozenness and the
``__post_init__`` checks.  The checks take under 0.2 s.
"""

import dataclasses
import os
import random
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

from _gen import random_graph, random_labelled_graph

import lpa_lie
from lpa_lie import (
    EdgeId,
    FieldSpec,
    Graph,
    GraphError,
    GraphInvariants,
    K0Presentation,
    KpReport,
    LieVerdict,
    NoCycle,
    NoExitCycle,
    SimplicityReport,
    SmithDecomposition,
    Unreached,
    VertexId,
    VertexWitness,
    family,
    graph_from_adjacency,
    kp_consistency,
    lie_simplicity,
    lie_simplicity_via_k0,
    vertex_witness,
)
from lpa_lie.linalg import _frozen as frozen

RECORDS = (
    VertexId, EdgeId, Graph,
    FieldSpec, SmithDecomposition, K0Presentation,
    Unreached, NoExitCycle, NoCycle, SimplicityReport,
    VertexWitness,
    GraphInvariants, LieVerdict, KpReport,
)

# the methods ``_frozen`` installs; a twin gets the data class's own instead
INSTALLED = ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__")


def twin(cls):
    """A frozen data class with the name, fields, defaults and other methods of ``cls``."""
    body = {k: v for k, v in vars(cls).items() if k not in (*INSTALLED, "__dict__", "__weakref__")}
    body["__qualname__"] = cls.__qualname__
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), body))


def sibling(cls, decorate):
    """Another class, decorated by ``decorate``, with the fields and defaults of ``cls``."""
    names = cls.__annotations__
    body = {k: v for k, v in vars(cls).items() if k in names}
    return decorate(type("Sibling", (), {"__annotations__": dict(names), **body}))


def outcome(f, *args, **kwargs):
    """``f``'s result, or the type of the exception it raised."""
    try:
        return f(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def samples() -> list:
    """Instances of every record class, most of them read off seeded random graphs."""
    graphs = [
        family("rose", [2]),
        family("line", [3]),
        family("rose", [1]),
        graph_from_adjacency(["a", "b"], [[0, 0], [0, 0]]),
        random_labelled_graph(random.Random(5)),
        *(random_graph(random.Random(seed)) for seed in range(8)),
    ]
    out: list = [FieldSpec(), FieldSpec(3), LieVerdict("simple", "span", 2, "a reason")]
    for g in graphs:
        inv = GraphInvariants(g)
        reports = (inv.simplicity, inv.pure_infinite_simplicity)
        out += [g, inv, inv.b_smith, inv.k0, *reports, *(w for r in reports for w in r.witnesses)]
        out += [*g.vertices[:3], *map(g.edge, range(min(g.num_edges, 3)))]
        for p in (0, 2, 3):
            field = FieldSpec(p)
            out += [lie_simplicity(inv, field), lie_simplicity_via_k0(inv, field)]
            ones = [1] * g.num_vertices
            t = inv.b_smith.solve(ones, field)
            if t is not None:
                out.append(vertex_witness(g, ones, t, field))
    out += [kp_consistency(graphs[0], graphs[1], [0, 2]), kp_consistency(graphs[0], graphs[0], [0, 3])]
    return out


SAMPLES = samples()


def test_the_samples_cover_every_record():
    assert {type(x) for x in SAMPLES} == set(RECORDS)


def test_the_records_are_the_frozen_classes_of_the_package():
    # every record shares the code of one constructor
    shared = VertexId.__init__.__code__
    found = {
        obj
        for module in (lpa_lie.analysis, lpa_lie.cohn, lpa_lie.graph, lpa_lie.linalg, lpa_lie.verdict)
        for obj in vars(module).values()
        if isinstance(obj, type) and getattr(obj.__init__, "__code__", None) is shared
    }
    assert found == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_behaves_as_its_data_class_twin(cls):
    check_against_twin(cls, [x for x in SAMPLES if type(x) is cls])


def test_trailing_defaults_fill_in_order():
    # no record of the package has two defaults
    class Triple:
        a: int
        b: int = 1
        c: str = "c"

    record = frozen(Triple)
    check_against_twin(record, [record(0), record(0, 2), record(0, c="d"), record(a=0, b=2, c="d")])


def test_a_method_the_body_defines_is_kept():
    class Named:
        name: str

        def __repr__(self):
            return f"<{self.name}>"

    record = frozen(Named)
    assert repr(record("a")) == "<a>" and record("a") == record("a")


def check_against_twin(cls, instances):
    twin_cls = twin(cls)
    fields = dataclasses.fields(twin_cls)
    names = [f.name for f in fields]
    required = sum(f.default is dataclasses.MISSING for f in fields)
    other, other_twin = sibling(cls, frozen), sibling(cls, dataclasses.dataclass(frozen=True))
    for x in instances:
        values = tuple(getattr(x, name) for name in names)
        y = twin_cls(*values)
        assert repr(x) == repr(y)
        assert outcome(hash, x) == outcome(hash, y) == outcome(hash, values)
        # == and != against an equal record, a sibling and a plain tuple
        for a, b in ((cls(*values), twin_cls(*values)), (other(*values), other_twin(*values)), (values, values)):
            assert (x == a) is (y == b) and (x != a) is (y != b)
            assert (a == x) is (b == y)
            assert x.__eq__(a) is y.__eq__(b)
        # by position, by keyword, and with trailing defaults left out
        by_keyword = dict(zip(names, values))
        for args, kwargs in ((values, {}), ((), by_keyword), (values[:1], dict(zip(names[1:], values[1:])))):
            assert cls(*args, **kwargs) == x
        for k in range(required, len(names)):
            assert repr(cls(*values[:k])) == repr(twin_cls(*values[:k]))
        # a missing, surplus, repeated or unknown argument
        bad = [((*values, None), {}), (values, {"no_such_field": 1})]
        if required:
            bad.append((values[: required - 1], {}))
        if names:
            bad.append((values, {names[0]: values[0]}))
        for args, kwargs in bad:
            assert outcome(cls, *args, **kwargs) is outcome(twin_cls, *args, **kwargs) is TypeError
        # frozen: assignment and deletion fail and change nothing; the twin
        # raises FrozenInstanceError, a subclass of AttributeError
        for name in (*names[:1], "no_such_field"):
            for record in (x, y):
                assert issubclass(outcome(setattr, record, name, None), AttributeError)
                assert issubclass(outcome(delattr, record, name), AttributeError)
        assert tuple(getattr(x, name) for name in names) == values


def test_post_init_checks_raise_as_in_the_twin():
    cases = [
        (FieldSpec, (4,), "characteristic must be 0 or a prime, got 4"),
        (Graph, ((VertexId(1, "a"),), ()), "vertex 'a' has index 1, expected 0"),
    ]
    for cls, args, message in cases:
        raised = []
        for c in (cls, twin(cls)):
            with pytest.raises(ValueError, match=message) as info:
                c(*args)
            raised.append((info.type, str(info.value)))
        assert raised[0] == raised[1]
    assert raised[0][0] is GraphError


def test_a_cached_property_is_computed_once():
    calls = []

    class Square:
        n: int

        @cached_property
        def square(self):
            calls.append(self.n)
            return self.n * self.n

    record = frozen(Square)
    for cls in (record, twin(record)):
        calls.clear()
        x = cls(7)
        assert "square" not in vars(x)
        assert x.square == x.square == 49
        assert calls == [7]
    g = family("rose", [3])
    assert g.counts is g.counts is vars(g)["counts"]


def test_smith_caches_stay_out_of_the_fields():
    g = family("prime_set", [6])
    dec, fresh = GraphInvariants(g).b_smith, GraphInvariants(g).b_smith
    assert dec.solve([1] * g.num_vertices, FieldSpec(2)) == [0, 1, 0, 1]
    # the caches are plain attributes, filled by the solve and kept out of ==, hash and repr
    assert vars(dec)["_images"] and vars(dec)["_back_images"] and not vars(fresh)["_images"]
    assert dec == fresh and hash(dec) == hash(fresh) == hash((dec.shape, dec.diagonal, dec.row_log, dec.col_log))
    assert repr(dec) == repr(fresh) and "_images" not in repr(dec)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a process of its own: pytest has imported both modules into this one
    src = Path(lpa_lie.__file__).resolve().parent.parent
    code = "import sys, lpa_lie.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "[]\n"
