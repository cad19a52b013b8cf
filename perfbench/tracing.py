"""In-memory spans around calls into cjtk's layers, for the traced run.

A ``Tracer`` records one span per call: name, start, end, parent span and
the id of the document being replayed.  ``patched`` swaps each listed
public function for a recording wrapper in every loaded ``cjtk`` module
that refers to it, so calls the library makes to itself (``validate_text``
into ``codec.parse``, ``merge`` into ``quantize``) are recorded too; the
originals are restored on exit and nothing in ``cjtk`` is edited.

With ``alloc=True`` each span also records its peak ``tracemalloc`` growth
over its start; that pass runs separately so its cost stays out of the
self times.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
import tracemalloc

# span name -> (module, attribute) of the function wrapped under that name
LAYER_FUNCTIONS = {
    "codec.parse": ("cjtk.codec", "parse"),
    "codec.dumps": ("cjtk.codec", "dumps"),
    "validation.validate_text": ("cjtk.validation", "validate_text"),
    "validation.validate": ("cjtk.validation", "validate"),
    "validation.validate_structure": ("cjtk.validation",
                                      "validate_structure"),
    "validation.validate_consistency": ("cjtk.validation",
                                        "validate_consistency"),
    "extensions.validate_extended": ("cjtk.extensions", "validate_extended"),
    "geomops.quantize": ("cjtk.geomops", "quantize"),
    "geomops.dequantize": ("cjtk.geomops", "dequantize"),
    "geomops.dedupe_vertices": ("cjtk.geomops", "dedupe_vertices"),
    "ops.subset": ("cjtk.ops", "subset"),
    "ops.refresh_metadata": ("cjtk.ops", "refresh_metadata"),
    "ops.partition_grid": ("cjtk.ops", "partition_grid"),
    "ops.merge": ("cjtk.ops", "merge"),
    "gml.import_citygml": ("cjtk.gml", "import_citygml"),
    "synth.make_scene": ("cjtk.synth", "make_scene"),
    "synth.scene_to_model": ("cjtk.synth", "scene_to_model"),
    "synth.scene_to_citygml": ("cjtk.synth", "scene_to_citygml"),
}

SETUP_LAYERS = [n for n in LAYER_FUNCTIONS if n.startswith("synth.")]
REPLAY_LAYERS = [n for n in LAYER_FUNCTIONS if not n.startswith("synth.")]


# Work counted at the call boundary, after the span has closed.
def _count_parse(c, args, result):
    c["bytes"] = c.get("bytes", 0) + len(args[0])


def _count_dumps(c, args, result):
    c["bytes"] = c.get("bytes", 0) + len(result)


def _count_quantize(c, args, result):
    c["vertices"] = c.get("vertices", 0) + len(args[0].vertices)


def _count_dedupe(c, args, result):
    c["vertices_removed"] = c.get("vertices_removed", 0) \
        + len(args[0].vertices) - len(result.vertices)


def _count_subset(c, args, result):
    c["objects_out"] = c.get("objects_out", 0) + len(result.city_objects)


def _count_partition(c, args, result):
    c["parts"] = c.get("parts", 0) + len(result)


def _count_import(c, args, result):
    c["bytes"] = c.get("bytes", 0) + len(args[0])
    c["objects_out"] = c.get("objects_out", 0) + len(result[0].city_objects)


COUNTERS = {
    "codec.parse": _count_parse,
    "codec.dumps": _count_dumps,
    "geomops.quantize": _count_quantize,
    "geomops.dedupe_vertices": _count_dedupe,
    "ops.subset": _count_subset,
    "ops.partition_grid": _count_partition,
    "gml.import_citygml": _count_import,
}


class Span:
    __slots__ = ("sid", "name", "doc", "parent", "start", "end", "error",
                 "counts", "base", "peak")

    def __init__(self, sid, name, doc, parent):
        self.sid = sid
        self.name = name
        self.doc = doc
        self.parent = parent
        self.start = self.end = 0
        self.error = None
        self.counts = {}
        self.base = self.peak = 0

    def to_json(self) -> dict:
        out = {"id": self.sid, "name": self.name, "doc": self.doc,
               "parent": self.parent, "start_ns": self.start,
               "end_ns": self.end}
        if self.error:
            out["error"] = self.error
        if self.counts:
            out["counts"] = self.counts
        if self.peak:
            out["alloc_peak_bytes"] = self.peak - self.base
        return out


class Tracer:
    def __init__(self, alloc: bool = False):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.doc = None
        self.alloc = alloc

    @contextlib.contextmanager
    def document(self, doc: str, name: str = "cli.run"):
        """Root span of one replayed invocation; its id tags the children."""
        self.doc = doc
        try:
            with self.span(name) as sp:
                yield sp
        finally:
            self.doc = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, self.doc,
                  parent.sid if parent else None)
        self.spans.append(sp)
        if self.alloc:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            sp.base = sp.peak = current
        self._stack.append(sp)
        sp.start = time.perf_counter_ns()
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter_ns()
            self._stack.pop()
            if self.alloc:
                sp.peak = max(sp.peak, tracemalloc.get_traced_memory()[1])
                if parent is not None:
                    parent.peak = max(parent.peak, sp.peak)
                tracemalloc.reset_peak()

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if count is not None:
                count(sp.counts, args, result)
            return result
        traced.__wrapped__ = fn
        return traced


class NoTracer:
    """Stand-in for ``Tracer`` in the untraced replay."""

    class _Span:
        def __init__(self):
            self.counts = {}

    @contextlib.contextmanager
    def document(self, doc):
        yield self._Span()

    @contextlib.contextmanager
    def span(self, name):
        yield self._Span()


@contextlib.contextmanager
def patched(tracer: Tracer | None, names):
    """Route calls to the named layer functions through ``tracer``."""
    if tracer is None:
        yield
        return
    modules = [m for key, m in list(sys.modules.items())
               if key == "cjtk" or key.startswith("cjtk.")]
    swapped = []
    try:
        for name in names:
            modname, attr = LAYER_FUNCTIONS[name]
            original = getattr(importlib.import_module(modname), attr)
            wrapper = tracer.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        swapped.append((module, key, original))
        yield
    finally:
        for module, key, original in reversed(swapped):
            setattr(module, key, original)


def self_ns(spans: list[Span]) -> dict[int, int]:
    """span id -> duration minus the time its (sequential) children cover."""
    covered: dict[int, int] = {}
    for sp in spans:
        if sp.parent is not None:
            covered[sp.parent] = covered.get(sp.parent, 0) + sp.end - sp.start
    return {sp.sid: sp.end - sp.start - covered.get(sp.sid, 0)
            for sp in spans}
