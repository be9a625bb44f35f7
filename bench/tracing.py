"""Per-layer tracing from outside the package.

``Tracer.install()`` wraps the public functions and methods of each module
of ``lpa_lie`` and rebinds every name that points at them, in the defining
module and in every module that imported it, so calls between modules go
through the wrappers.  A call that crosses into another layer opens a span
(name, start, end, parent span, call id); a call within the same layer only
bumps its layer's counter, which keeps the span list small and leaves the
inner call's time in its layer's self time.  Spans stay in memory and are
written out by ``write_spans`` at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

# Layer of each module; names listed in SUBLAYERS get a layer of their own.
MODULE_LAYERS = {
    "lpa_lie.graph": "graph",
    "lpa_lie.analysis": "analysis",
    "lpa_lie.linalg": "linalg.snf",
    "lpa_lie.verdict": "verdict",
    "lpa_lie.cohn": "cohn",
    "lpa_lie.cli": "cli",
}
SUBLAYERS = {
    "span_membership": "linalg.span",
    "rank_over_field": "linalg.span",
    "is_prime": "linalg.numtheory",
    "prime_factorization": "linalg.numtheory",
    "pointed_iso_decision": "verdict.pointed_iso",
}
LAYERS = (
    "cli", "graph", "analysis", "linalg.span", "linalg.snf",
    "linalg.numtheory", "verdict", "verdict.pointed_iso", "cohn",
)
# Methods wrapped on the package's classes, besides module-level functions.
METHODS = {
    "Graph": ("build", "vertex", "out_edges", "out_degree", "is_sink", "is_regular", "sinks", "regular_vertices"),
    "CohnElement": (
        "zero", "term", "vertex", "path", "ghost", "edge", "ghost_edge",
        "__add__", "__neg__", "__sub__", "scale", "__rmul__", "__mul__", "__eq__", "is_zero", "__str__",
    ),
}
EDGE_SCANS = ("Graph.out_edges", "Graph.out_degree", "Graph.is_sink")
CLI_PUBLIC = ("main", "build_parser")


def _max_bits(dec) -> int:
    return max(abs(x).bit_length() for m in (dec.u, dec.d, dec.v) for row in m for x in row)


class Tracer:
    def __init__(self):
        self.layer_index = {name: i for i, name in enumerate(LAYERS)}
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self.calls: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_call = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[tuple[int, int]] = [(-1, -1)]
        self.call_id = -1
        self.edges_built = 0
        self.snf_max_bits = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [sys.modules["lpa_lie"]] + [sys.modules[m] for m in MODULE_LAYERS]
        for modname, layer in MODULE_LAYERS.items():
            mod = sys.modules[modname]
            names = CLI_PUBLIC if layer == "cli" else mod.__all__
            for name in names:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == modname:
                    wrapper = self._wrap(obj, SUBLAYERS.get(name, layer), name)
                    for m in modules:
                        for bound, val in list(vars(m).items()):
                            if val is obj:
                                self._set(m, bound, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == modname:
                    for meth in METHODS.get(name, ()):
                        raw = obj.__dict__[meth]
                        qual = f"{name}.{meth}"
                        if isinstance(raw, classmethod):
                            wrapped = classmethod(self._wrap(raw.__func__, layer, qual))
                        else:
                            wrapped = self._wrap(raw, layer, qual)
                        self._set(obj, meth, wrapped)

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._restore):
            setattr(owner, name, old)
        self._restore.clear()

    def _set(self, owner, name, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap(self, fn, layer: str, name: str):
        lid = self.layer_index[layer]
        nid = len(self.names)
        self.names.append(name)
        self.name_layer.append(layer)
        self.calls[name] = 0
        calls, stack = self.calls, self.stack
        sname, sparent, scall = self.span_name, self.span_parent, self.span_call
        sstart, send = self.span_start, self.span_end
        if name == "Graph.build":
            def post(res):
                self.edges_built += res.num_edges
        elif name == "smith_normal_form":
            def post(res):
                self.snf_max_bits = max(self.snf_max_bits, _max_bits(res))
        else:
            post = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            top = stack[-1]
            if top[0] == lid:
                res = fn(*args, **kwargs)
            else:
                idx = len(sstart)
                sname.append(nid)
                sparent.append(top[1])
                scall.append(self.call_id)
                send.append(0.0)
                stack.append((lid, idx))
                sstart.append(perf_counter())
                try:
                    res = fn(*args, **kwargs)
                finally:
                    send[idx] = perf_counter()
                    stack.pop()
            if post is not None:
                post(res)
            return res

        return wrapper

    # -- per call --------------------------------------------------------------

    def begin_call(self, call_id: int) -> None:
        self.call_id = call_id
        del self.stack[1:]

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds spent in each layer's own code, children in other layers excluded."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out = {layer: 0.0 for layer in LAYERS}
        for i in range(n):
            out[self.name_layer[self.span_name[i]]] += self.span_end[i] - self.span_start[i] - child[i]
        return out

    def layer_calls(self) -> dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for name, layer in zip(self.names, self.name_layer):
            out[layer] += self.calls[name]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start,end,parent,call\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i},{self.names[self.span_name[i]]},{self.span_start[i]:.9f},"
                    f"{self.span_end[i]:.9f},{self.span_parent[i]},{self.span_call[i]}\n"
                )
