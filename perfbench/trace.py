"""Per-layer attribution of host time, and benchmark-side spans.

:class:`LayerProfile` runs the standard-library profiler and folds its
per-function self time and call counts into the ``repro.<layer>``
package that owns each function.  Built-in functions are not profiled
separately, so their time counts towards the Python function that
called them.

:class:`Spans` records a span around each call the benchmark makes
into a public layer function (build/boot, measure), keeps them in
memory and writes them as Chrome trace-event JSON.
"""

from __future__ import annotations

import cProfile
import json
import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from perfbench.metrics import LAYERS, OTHER


def layer_of_module(module: str) -> str:
    """The layer owning a dotted module name (``repro.sim.kernel`` -> ``sim``)."""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return OTHER


class LayerProfile:
    """Self time and call counts per layer over the ``with`` block."""

    def __init__(self, package_dir: str) -> None:
        self._root = os.path.realpath(package_dir)
        self._profiler = cProfile.Profile(builtins=False)
        self._layers: Dict[str, str] = {}

    def __enter__(self) -> "LayerProfile":
        self._profiler.enable()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._profiler.disable()

    def _layer_of_file(self, filename: str) -> str:
        layer = self._layers.get(filename)
        if layer is None:
            path = os.path.realpath(filename)
            layer = OTHER
            if path.startswith(self._root + os.sep) and path.endswith(".py"):
                rel = os.path.relpath(path, self._root)[: -len(".py")]
                parts = ["repro"] + rel.split(os.sep)
                if parts[-1] == "__init__":
                    parts.pop()
                layer = layer_of_module(".".join(parts))
            self._layers[filename] = layer
        return layer

    def totals(self) -> Dict[str, Tuple[float, int]]:
        """layer -> (self seconds, calls), every layer present."""
        self._profiler.create_stats()
        self_s = dict.fromkeys(LAYERS + (OTHER,), 0.0)
        calls = dict.fromkeys(LAYERS + (OTHER,), 0)
        for (filename, _line, _name), (_cc, ncalls, tottime, _cum, _callers) in (
            self._profiler.stats.items()  # type: ignore[attr-defined]
        ):
            layer = self._layer_of_file(filename)
            self_s[layer] += tottime
            calls[layer] += ncalls
        return {layer: (self_s[layer], calls[layer]) for layer in self_s}


class Spans:
    """In-memory span recorder; a disabled recorder records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self._events: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._next_id = 1
        self._origin_ns = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str, layer: str, **args: Any) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span_id = self._next_id
        self._next_id += 1
        parent: Optional[int] = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._events.append({
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - self._origin_ns) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": dict(args, id=span_id, parent=parent),
            })

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        events = sorted(self._events, key=lambda e: e["ts"])
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)
