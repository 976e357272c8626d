"""Outside-in span recorder for the paratile benchmark.

``Tracer.install`` wraps every public function of the ten paratile layers at
every module that binds it (``construction`` imports ``inverse`` from
``linalg``, so both ``linalg.inverse`` and ``construction.inverse`` are
replaced by one wrapper), and the public methods of the layers' public
classes on the class itself.  Dunder methods (``SqrtSum.__add__``,
``Interval.__mul__``) and properties are left alone: their time lands in the
span of the caller.

A span is (name, start, end, parent); spans live in one flat int64 array and
are written out when the benchmark ends.  A layer's self time is the time of
its spans minus the part covered by their child spans.  The program itself is
not changed: ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
import types
from array import array
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

LAYERS = ("intervals", "radicals", "linalg", "lattices", "polytopes",
          "sampler", "construction", "verify", "serialization", "cli")
HARNESS = "harness"

_FIELDS = 4  # name id, start ns, end ns, parent span index (-1 for a root)

# counters read from arguments or results at the layer boundary
_MATRIX_SIZED = ("linalg.rank_over_rationals", "linalg.inverse",
                 "linalg.det_q")
_PRECISION_ARG = {"intervals.exp_interval": "prec",
                  "intervals.log_interval": "prec",
                  "intervals.sqrt_interval": "bits"}


def _arg(args, kwargs, index: int, name: str, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Span and counter recorder; off until ``install`` is called."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.spans = array("q")
        self._stack: List[int] = []
        self.counters: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self._wrappers: Dict[int, Callable] = {}
        self._first_rung = importlib.import_module(
            "paratile.intervals").PREC_LADDER[0]

    # --- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def reset(self) -> None:
        """Drop the spans and counters of the previous pass."""
        self.spans = array("q")
        self._stack.clear()
        self.counters = {}

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        nid = self.name_id(name)
        spans, stack = self.spans, self._stack
        idx = len(spans) // _FIELDS
        spans.extend((nid, time.perf_counter_ns(), 0,
                      stack[-1] if stack else -1))
        stack.append(idx)
        try:
            yield
        finally:
            spans[idx * _FIELDS + 2] = time.perf_counter_ns()
            stack.pop()

    def _wrap(self, fn: Callable) -> Callable:
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__qualname__}"
        nid = self.name_id(name)
        pre, post = self._hooks(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = pre(args, kwargs) if pre else None
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans) // _FIELDS
            spans.extend((nid, 0, 0, stack[-1] if stack else -1))
            stack.append(idx)
            spans[idx * _FIELDS + 1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx * _FIELDS + 2] = time.perf_counter_ns()
                stack.pop()
            if post:
                post(args, kwargs, result, state)
            return result

        self._wrappers[key] = wrapper
        return wrapper

    # --- counters at the layer boundary ----------------------------------------

    def _hooks(self, name: str):
        count = self.count
        if name in _MATRIX_SIZED:
            def post(args, kwargs, result, state):
                m = args[0]
                entries = m.nrows * m.ncols
                if entries > self.counters.get("linalg.max_matrix_entries", 0):
                    self.counters["linalg.max_matrix_entries"] = entries
            return None, post
        if name in _PRECISION_ARG:
            arg = _PRECISION_ARG[name]

            def post(args, kwargs, result, state):
                count("intervals.ladder_calls")
                if _arg(args, kwargs, 1, arg, 64) > self._first_rung:
                    count("intervals.calls_escalated")
            return None, post
        if name == "lattices.enumerate_short_vectors":
            def post(args, kwargs, result, state):
                count("lattices.enum_vectors", len(result))
            return None, post
        if name == "polytopes.voronoi_cell":
            def pre(args, kwargs):
                return self.counters.get("lattices.enum_vectors", 0)

            def post(args, kwargs, result, state):
                count("polytopes.voronoi_candidates",
                      self.counters.get("lattices.enum_vectors", 0) - state)
                count("polytopes.voronoi_facets", len(result._cache["facets"]))
            return pre, post
        if name == "polytopes.HPolytope.measures":
            def pre(args, kwargs):
                return "measures" in args[0]._cache

            def post(args, kwargs, result, was_cached):
                if not was_cached:
                    cache = args[0]._cache
                    count("polytopes.vertices", len(cache.get("vertices", ())))
                    count("polytopes.facets", len(cache.get("facets", ())))
            return pre, post
        if name == "sampler.sample_ldpc":
            def post(args, kwargs, result, state):
                count("sampler.tries", result[1]["tries"])
                count("sampler.accepted")
            return None, post
        if name == "verify.verify_tiling":
            def post(args, kwargs, result, state):
                count("verify.samples", result.samples)
                if result.engine == "bigint":
                    count("verify.bigint_samples", result.samples)
                count("verify.translates", result.translates)
            return None, post
        if name == "serialization.dump_json":
            def post(args, kwargs, result, state):
                count("serialization.bytes_out", len(result.encode()))
            return None, post
        return None, None

    # --- patching ----------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions and methods of every layer."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("paratile")
        modules = [importlib.import_module(f"paratile.{layer}")
                   for layer in LAYERS]
        for mod in modules + [package]:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and \
                        obj.__module__.startswith("paratile."):
                    self._patch(mod, attr, self._wrap(obj))
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._patch_class(obj)

    def _patch_class(self, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(raw.__func__)))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(raw.__func__)))
            elif isinstance(raw, types.FunctionType):
                self._patch(cls, attr, self._wrap(raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- analysis -------------------------------------------------------------------

    def table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, _FIELDS)

    def pass_summary(self) -> Dict[str, float]:
        """Self time and calls per layer, call counts per span name, and the
        counters, for the spans recorded since the last ``reset``."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        tab = self.table()
        name_id, start, end, parent = tab.T
        dur = end - start
        if (dur < 0).any():
            raise RuntimeError("span ends before it starts")
        child = np.zeros(len(tab), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        groups = LAYERS + (HARNESS,)
        layer_of = np.array([groups.index(n.split(".", 1)[0])
                             for n in self.names], dtype=np.int64)
        layers = layer_of[name_id]
        self_s = np.bincount(layers, weights=self_ns,
                             minlength=len(groups)) / 1e9
        calls = np.bincount(layers, minlength=len(groups))
        by_name = np.bincount(name_id, minlength=len(self.names))
        out: Dict[str, float] = {}
        for i, layer in enumerate(groups):
            out[f"{layer}.self_s"] = float(self_s[i])
            out[f"{layer}.calls"] = int(calls[i])
        out["spans"] = int(len(tab))
        out["accounted_s"] = float(self_ns.sum()) / 1e9
        out["negative_self_spans"] = int((self_ns < 0).sum())
        verify_id = self._name_ids.get("verify.verify_tiling")
        out["verify.inclusive_s"] = float(
            dur[name_id == verify_id].sum()) / 1e9 if verify_id is not None \
            else 0.0
        for name, nid in self._name_ids.items():
            out[f"calls:{name}"] = int(by_name[nid])
        out.update(self.counters)
        return out

    def dump(self, path: str, passes: List[Tuple[int, array]]) -> None:
        """Write the spans of every traced pass as gzipped JSON lines."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["pass", "id", "name", "start_ns",
                                            "end_ns", "parent"]}) + "\n")
            for pass_no, spans in passes:
                tab = np.frombuffer(spans, dtype=np.int64).reshape(-1, _FIELDS)
                for i, (nid, t0, t1, par) in enumerate(tab.tolist()):
                    fh.write(f"[{pass_no},{i},{nid},{t0},{t1},{par}]\n")


def open_span(tracer: Optional[Tracer], name: str):
    """A harness span when tracing, a no-op otherwise."""
    return nullcontext() if tracer is None else tracer.span(name)
