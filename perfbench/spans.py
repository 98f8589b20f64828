"""Spans around the library's public functions, recorded from outside it.

``Tracer.patch`` swaps each listed function, in every ``stgraph`` module
that holds it, for a wrapper that records a span; calls the library
makes internally (``train_loop`` calling ``clip_loss`` calling
``run_inference``) are therefore traced without touching its source.
Spans nest through a per-thread stack.  A span opened on a thread with no
open span of its own (an evaluation pool worker) takes as parent the
innermost span open on the thread that created the tracer.
"""

import functools
import importlib
import statistics
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

# span name -> (module, function) pairs that feed it
TRACED = {
    "data.load_dataset": [("stgraph.data", "load_dataset")],
    "data.featurize_clip": [("stgraph.data", "featurize_clip")],
    "graph.build_graph": [("stgraph.graph", "build_graph")],
    "passing.run_inference": [("stgraph.passing", "run_inference")],
    "heads.readout": [("stgraph.heads", "action_readout"), ("stgraph.heads", "sg_readout")],
    "heads.loss": [("stgraph.heads", "action_loss"), ("stgraph.heads", "sg_loss")],
    "numgrad.grad": [("stgraph.numgrad", "grad")],
    "metrics.frame_ap": [("stgraph.metrics", "frame_ap")],
    "metrics.recall_at_k": [("stgraph.metrics", "recall_at_k")],
    "train.init_params": [("stgraph.train", "init_params")],
    "train.clip_loss": [("stgraph.train", "clip_loss")],
    "train.sgd_step": [("stgraph.train", "sgd_step")],
    "train.train_loop": [("stgraph.train", "train_loop")],
    "train.evaluate": [("stgraph.train", "evaluate_action"), ("stgraph.train", "evaluate_scenegraph")],
    "train.save_checkpoint": [("stgraph.train", "save_checkpoint")],
    "train.load_checkpoint": [("stgraph.train", "load_checkpoint")],
}


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: "Span | None"):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while ``enabled``; records nothing otherwise."""

    def __init__(self, enabled: bool = True):
        self.spans: list[Span] = []
        self.enabled = enabled
        self._local = threading.local()
        self._home = self._stack()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else (self._home[-1] if self._home else None)
        span = Span(name, perf_counter(), parent)
        self.spans.append(span)
        stack.append(span)
        try:
            yield
        finally:
            span.end = perf_counter()
            stack.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def patch(self) -> None:
        """Route every TRACED function through a span-recording wrapper."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "stgraph" or n.startswith("stgraph.")) and m is not None]
        for name, targets in TRACED.items():
            for module_name, attr in targets:
                original = getattr(importlib.import_module(module_name), attr)
                wrapper = self._wrap(original, name)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, key, original))
                            setattr(module, key, wrapper)

    def unpatch(self) -> None:
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved.clear()


# ---------------------------------------------------------------------------
# reading spans back


def self_seconds(span: Span, children: list[Span]) -> float:
    """Span length minus the part of it covered by its children's union."""
    covered, reach = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.seconds - covered


def _inside(span: Span, op: str) -> Span | None:
    """The nearest enclosing span named ``op``, if any."""
    node = span.parent
    while node is not None and node.name != op:
        node = node.parent
    return node


def per_op_totals(spans: list[Span], op: str, layer: str) -> list[float]:
    """Seconds spent in ``layer`` spans inside each ``op`` span, one value per op.

    Ops without a ``layer`` span count as 0.
    """
    totals = {id(s): 0.0 for s in spans if s.name == op}
    for s in spans:
        if s.name == layer:
            owner = _inside(s, op)
            if owner is not None:
                totals[id(owner)] += s.seconds
    return list(totals.values())


def per_op_self(spans: list[Span], op: str, layer: str) -> list[float]:
    """Self seconds of each ``layer`` span that lies inside an ``op`` span."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = []
    for s in spans:
        if s.name == layer and _inside(s, op) is not None:
            out.append(self_seconds(s, children.get(id(s), [])))
    return out


def median_ms(values: list[float]) -> float:
    return 1e3 * statistics.median(values) if values else 0.0
