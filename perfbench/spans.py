"""In-memory span recorder for the traced benchmark run.

The recorder replaces, for the duration of a traced pass, every layer
function that `omtop.verify` imports from `realization`, `matroid`,
`bounded` and `topology` with a thin wrapper that records one span per
call: name, start, end, parent span and instance id.  Only the names in
`omtop.verify`'s own namespace are patched, so a span marks a call from
the orchestration into a layer, never a call inside one.  Nothing under
`src/` is edited; `uninstall` puts the original objects back.

Span names are `<layer>.<function>`.  A function that a later version
of the package removes or renames simply produces no span: the metric
that expects it reads as absent, and the run goes on.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass

LAYERS = ("realization", "matroid", "bounded", "topology")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a root
    instance: str

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "instance": self.instance,
        }


class Recorder:
    """Collects nested spans; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, instance: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, instance))
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def wrap(self, name: str, fn):
        """A wrapper that records a span under the enclosing span's
        instance id each time fn is called."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            instance = self.spans[self._stack[-1]].instance if self._stack else ""
            return self.call(name, instance, fn, *args, **kwargs)

        return traced

    def install(self, module) -> list[str]:
        """Wrap every layer function in `module`'s namespace; returns the
        span names installed."""
        names = []
        for attr, obj in sorted(vars(module).items()):
            if not inspect.isfunction(obj):
                continue
            layer = obj.__module__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            name = f"{layer}.{attr}"
            self._patched.append((module, attr, obj))
            setattr(module, attr, self.wrap(name, obj))
            names.append(name)
        return names

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct
    children (spans are properly nested, so children never overlap)."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out
