"""Span tracer installed around the calls between kdlab's modules.

The tracer finds its wrap points by inspection, not by a list of names:
every function that one ``kdlab`` module (the package namespace
included) imports from another ``kdlab`` module is replaced, in the
importing module only, by a wrapper that records a span named after the
function and attributed to the layer that defines it.  Three
``numpy.linalg`` routines get call counters.  Names that a refactor
removes are simply never found, so the trace keeps working.

Spans are kept in memory as tuples ``(layer, name, start, end, parent)``
and written out once, after the run.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter

import numpy as np

COUNTED_LINALG = ("eigh", "lstsq", "svd")


def _layer(module_name: str) -> str | None:
    parts = module_name.split(".")
    if parts[0] != "kdlab" or len(parts) != 2:
        return None
    return parts[1]


def kdlab_modules() -> list:
    return sorted(
        (m for name, m in list(sys.modules.items()) if name == "kdlab" or name.startswith("kdlab.")),
        key=lambda m: m.__name__,
    )


class Tracer:
    """Records spans and counts while ``active``; otherwise a pass-through."""

    def __init__(self):
        self.active = False
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module in kdlab_modules():
            for attr, value in list(vars(module).items()):
                if isinstance(value, type) or not callable(value):
                    continue
                layer = _layer(getattr(value, "__module__", "") or "")
                if layer is None or getattr(value, "__module__") == module.__name__:
                    continue
                self._patch(module, attr, self._span_wrapper(value, layer, attr))
        for name in COUNTED_LINALG:
            original = getattr(np.linalg, name, None)
            if original is not None:
                self._patch(np.linalg, name, self._count_wrapper(original, f"numpy.linalg.{name}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, layer: str, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer.span(layer, name, fn, *args, **kwargs)

        return wrapper

    def _count_wrapper(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def span(self, layer: str, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; also used for the benchmark's own op spans."""
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        self.counts[f"{layer}.calls"] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (layer, name, start, end, parent)

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per layer spent in its own spans, children excluded."""
        child_time = [0.0] * len(self.spans)
        for layer, name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Counter = Counter()
        for sid, (layer, name, start, end, parent) in enumerate(self.spans):
            totals[layer] += (end - start) - child_time[sid]
        return dict(totals)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, (layer, name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([sid, layer, name, start, end, parent]) + "\n")
