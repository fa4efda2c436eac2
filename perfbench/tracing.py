"""Spans around natgrad's layers, installed from outside the library.

The traced run replaces every binding of each public function of the
layers below (and of the numpy.linalg calls natgrad makes) with a wrapper
that records a span: label, start, end and parent.  A function is
replaced on every module attribute and class that binds it, because
natgrad modules import names from one another (``validate`` is bound in
both ``natgrad.data`` and ``natgrad.optim``).  Spans are recorded only
inside an op's root span, so the benchmark's own checks, which also call
numpy.linalg, never count.  Every original object is put back when the
``installed`` block ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

LAYERS = ("network", "gram", "optim", "theory", "data", "forster", "cli")
LINALG = ("eigvalsh", "eigh", "solve", "pinv", "cholesky", "norm")


def natgrad_bindings(obj) -> list[tuple[object, str]]:
    """Every (module, attribute) of the natgrad package bound to obj."""
    found = []
    for name, module in list(sys.modules.items()):
        if name == "natgrad" or name.startswith("natgrad."):
            found += [(module, attr) for attr, value in vars(module).items() if value is obj]
    return found


def traced_targets() -> list[tuple[str, object, list[tuple[object, str]]]]:
    """(label, original, bindings) for each function the traced run wraps.

    Labels are ``<layer>.<function>``; public methods of public classes
    are labelled by layer and method name (``network.grad_matrix``).
    """
    targets = []
    for layer in LAYERS:
        module = importlib.import_module(f"natgrad.{layer}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                targets.append((f"{layer}.{attr}", obj, natgrad_bindings(obj)))
            elif inspect.isclass(obj):
                for method, fn in vars(obj).items():
                    if not method.startswith("_") and inspect.isfunction(fn):
                        targets.append((f"{layer}.{method}", fn, [(obj, method)]))
    linalg = importlib.import_module("numpy.linalg")
    for attr in LINALG:
        fn = getattr(linalg, attr)
        targets.append((f"linalg.{attr}", fn, [(linalg, attr)] + natgrad_bindings(fn)))
    return targets


@contextmanager
def patched(assignments):
    """Set each (owner, attribute, value) for the block, and put the
    originals back in reverse order when it ends."""
    saved = []
    try:
        for owner, attr, value in assignments:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextmanager
def recording_weights(natgrad):
    """Collect the weight matrices ``network.forward`` sees, in order.

    train() evaluates the network at the initial weights and after every
    step, so the list ends up as W(0), W(1), ..., W(K).
    """
    seen: list = []
    forward = natgrad.network.forward

    def record(p, X):
        if not seen or seen[-1] is not p.w:
            seen.append(p.w)
        return forward(p, X)

    with patched((owner, attr, record) for owner, attr in natgrad_bindings(forward)):
        yield seen


@dataclass
class LabelStats:
    calls: int = 0
    ms: float = 0.0
    self_ms: float = 0.0
    results: list = field(default_factory=list)


class Tracer:
    """Keeps spans in memory; ``installed`` wraps the targets for a block.

    A cg_solve span also stores the call's (iterations, converged): the
    iteration count is visible only in its return value.
    """

    def __init__(self):
        self.targets = traced_targets()
        self.labels = tuple(label for label, _, _ in self.targets)
        self.spans: list[list] = []  # [label, start, end, parent, result]
        self.roots: list[int] = []
        self._stack: list[int] = []

    def _wrap(self, label: str, fn):
        stack = self._stack
        spans = self.spans
        keep_result = label == "optim.cg_solve"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = [label, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if keep_result:
                span[4] = (result[1], result[2])
            return result

        return wrapper

    def installed(self):
        """Context in which every target is replaced by its wrapper."""
        assignments = []
        for label, fn, bindings in self.targets:
            wrapper = self._wrap(label, fn)
            assignments += [(owner, attr, wrapper) for owner, attr in bindings]
        return patched(assignments)

    @contextmanager
    def root(self, label: str):
        """Root span of one op; only spans under a root are recorded."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        index = len(self.spans)
        span = [label, 0.0, 0.0, -1, None]
        self.spans.append(span)
        self.roots.append(index)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            yield index
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def summary(self, root: int) -> dict[str, LabelStats]:
        """Calls, inclusive and self milliseconds of each label under root.

        Self time is a span's duration minus its children's.
        """
        end = next((r for r in self.roots if r > root), len(self.spans))
        child_ms: dict[int, float] = {}
        for i in range(root + 1, end):
            label, start, stop, parent, _ = self.spans[i]
            child_ms[parent] = child_ms.get(parent, 0.0) + (stop - start) * 1e3
        stats = {label: LabelStats() for label in self.labels}
        for i in range(root + 1, end):
            label, start, stop, _, result = self.spans[i]
            s = stats[label]
            ms = (stop - start) * 1e3
            s.calls += 1
            s.ms += ms
            s.self_ms += ms - child_ms.get(i, 0.0)
            if result is not None:
                s.results.append(result)
        return stats

    def dump(self, path) -> None:
        """Write every span as {label, start_s, end_s, parent}."""
        rows = [
            {"label": label, "start_s": start, "end_s": stop, "parent": parent}
            for label, start, stop, parent, _ in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
            fh.write("\n")
