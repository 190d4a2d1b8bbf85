"""Layer tracing for ``weylstir``, installed at runtime from outside ``src/``.

:meth:`Tracer.install` replaces every public function and method of the
package's modules with a wrapper that records one span per call.  A name is
replaced wherever a caller looks it up: in the defining module, in every
module that imported it by name (``identities`` binds ``build_recurrence``
and ``normal_order_oracle`` at import), on the class for methods, and on each
catalog template for its ``build`` callable.

Spans stay in memory as parallel arrays (name, start, end, parent) and are
written out once, at the end.  A span's self time is its duration minus the
durations of its direct children; since calls nest, the self times of all
spans under a root span add up to the root's duration exactly.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

LAYERS = (
    "kernels", "poly", "triangles", "egf", "operators",
    "boson", "identities", "oracles", "fixtures", "cli",
)

# span category per public name; a name not listed here gets the category
# "other" in the layers below and the layer's own name elsewhere
CATEGORIES: Dict[str, Dict[str, str]] = {
    "triangles": {
        "build_recurrence": "recurrence", "symbolic_triangle": "recurrence",
        "entry_by_sum": "sum", "triangle_by_sum": "sum",
        "triangle_by_transform": "transform", "binomial_transform": "transform",
        "shat_from_s_row": "transform",
        "triangle_by_decomposition": "decomposition",
        "decompose_classical": "decomposition",
        "stirling_subset": "decomposition", "stirling_cycle": "decomposition",
        "triangle_product": "matrix", "identity_triangle": "matrix",
        "vandermonde_ldu_check": "matrix", "reflection_check": "matrix",
        "closed_form": "closed_form", "closed_form_params": "closed_form",
        "row_polynomial_euler": "closed_form",
        "shift_r": "shift",
        "to_json": "export", "from_json": "export", "to_csv": "export",
        "to_latex": "export", "to_text": "export",
    },
    "operators": {
        "act_on_monomial": "act",
        "excess": "excess",
        "max_string_length": "strings", "to_boson_strings": "strings",
        "is_wc_admissible": "strings",
    },
    "identities": {
        "build": "build",
        "verify_identity": "verify", "normal_form": "verify",
    },
    "boson": {"normal_order_oracle": "normal_order"},
}

# ParamPoly's public interface is its arithmetic
POLY_DUNDERS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__pow__", "__eq__", "__str__",
)

ROOT = "harness"


def span_name(layer: str, attr: str) -> str:
    if layer in CATEGORIES:
        return f"{layer}.{CATEGORIES[layer].get(attr, 'other')}"
    return layer


class Tracer:
    """Collects nested spans in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.string_lengths: Counter = Counter()
        self._undo: List[Tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ------------------------------------------------------

    def wrap(self, fn: Callable, name: str) -> Callable:
        nid = self._name_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block, such as the benchmark's root span."""
        i = len(self.start)
        self.name_of.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        try:
            yield
        finally:
            self.end[i] = self.clock()
            self._stack.pop()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions and methods of every layer module."""
        replaced: Dict[int, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"weylstir.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    target = obj
                    if (layer, attr) == ("boson", "normal_order_oracle"):
                        target = self._count_lengths(obj)
                    replaced[id(obj)] = self.wrap(target, span_name(layer, attr))
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        build = span_name("identities", "build")
        for template in sys.modules["weylstir.identities"].TEMPLATES.values():
            self._set(template, "build", self.wrap(template.build, build))
        for name, module in list(sys.modules.items()):
            if name == "weylstir" or name.startswith("weylstir."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in replaced:
                        self._set(module, attr, replaced[id(obj)])

    def _count_lengths(self, oracle: Callable) -> Callable:
        lengths = self.string_lengths

        @functools.wraps(oracle)
        def counted(string, *args, **kwargs):
            lengths[len(string)] += 1
            return oracle(string, *args, **kwargs)

        return counted

    def _wrap_methods(self, layer: str, cls: type) -> None:
        dunders = POLY_DUNDERS if layer == "poly" else ()
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in dunders:
                continue
            name = span_name(layer, attr)
            if isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(self.wrap(obj.__func__, name)))
            elif isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(self.wrap(obj.__func__, name)))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self.wrap(obj, name))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        _assign(owner, attr, value)

    def uninstall(self) -> None:
        """Put every replaced name back."""
        while self._undo:
            _assign(*self._undo.pop())

    # -- analysis -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> List[float]:
        child = [0.0] * len(self.start)
        start, end, parent = self.start, self.end, self.parent
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        return [end[i] - start[i] - child[i] for i in range(len(start))]

    def summary(self, scale=None) -> Dict[str, Tuple[int, float]]:
        """``{span name: (calls, self seconds)}``.  With ``scale``, the self
        time of every span under the k-th root span is multiplied by
        ``scale[k]``."""
        calls = [0] * len(self.names)
        selfs = [0.0] * len(self.names)
        roots, factor = -1, 1.0
        for nid, parent, s in zip(self.name_of, self.parent, self.self_times()):
            if parent < 0:
                roots += 1
                if scale is not None:
                    factor = scale[roots]
            calls[nid] += 1
            selfs[nid] += s * factor
        return {name: (calls[i], selfs[i]) for i, name in enumerate(self.names) if calls[i]}

    def root_time(self, scale=None) -> float:
        """Total duration of the root spans, scaled like :meth:`summary`."""
        roots = [i for i, p in enumerate(self.parent) if p < 0]
        factors = scale if scale is not None else [1.0] * len(roots)
        return sum((self.end[i] - self.start[i]) * f for i, f in zip(roots, factors))

    def write(self, path) -> None:
        """Header line (JSON), then the four arrays as raw machine values."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)


def _assign(owner, attr: str, value) -> None:
    if isinstance(owner, type) or inspect.ismodule(owner):
        setattr(owner, attr, value)
    else:  # catalog templates are frozen dataclass instances
        object.__setattr__(owner, attr, value)


def load_spans(path) -> Tuple[List[str], Dict[str, array]]:
    """Read a file written by :meth:`Tracer.write`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for key, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            arrays[key] = arr
    return header["names"], arrays
