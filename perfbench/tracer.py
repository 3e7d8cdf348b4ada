"""In-memory span recording for the traced benchmark run.

The benchmark records spans around the calls it makes into each layer's
public functions; the program itself gains no spans. A span is a name,
a start, an end, a parent span and the run id shared by every span of
one run. Spans stay in memory and are written out when the run ends.

The untraced run uses :data:`NULL_TRACER`, whose ``span`` is a shared
no-op context manager, so the end-to-end numbers pay no clock reads for
tracing.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

__all__ = ["NULL_TRACER", "Tracer", "layer_of"]

#: Spans the program records into an attached ``MetricsRegistry``, by the
#: layer their self time belongs to.
PROGRAM_LAYERS = {"engine": "engine", "flush": "online",
                  "hfta.merge": "hfta"}


def layer_of(name: str) -> str:
    """The layer a span's self time is charged to."""
    if name.startswith("program."):
        return PROGRAM_LAYERS.get(name[len("program."):], "program")
    return name.split(".", 1)[0]


class _Span:
    __slots__ = ("tracer", "name", "start", "end", "parent")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.parent = tracer._stack[-1] if tracer._stack else None
        self.start = self.end = 0.0

    def __enter__(self) -> "_Span":
        self.tracer._stack.append(len(self.tracer.spans))
        self.tracer.spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = time.perf_counter()
        self.tracer._stack.pop()


class Tracer:
    """Records nested spans; parents come from the open-span stack."""

    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def adopt(self, registry_spans, prefix: str = "program.") -> None:
        """Import spans a ``MetricsRegistry`` recorded during this run.

        The registry uses the same ``perf_counter`` clock, so each one is
        re-parented under the innermost span whose interval contains it.
        """
        for span in registry_spans:
            record = _Span(self, prefix + span.name)
            record.start, record.end = span.start, span.end
            self.spans.append(record)
        self._reparent()

    def _reparent(self) -> None:
        order = sorted(range(len(self.spans)),
                       key=lambda i: (self.spans[i].start,
                                      -self.spans[i].end, i))
        open_stack: list[int] = []
        for i in order:
            span = self.spans[i]
            while open_stack and self.spans[open_stack[-1]].end < span.end:
                open_stack.pop()
            span.parent = open_stack[-1] if open_stack else None
            open_stack.append(i)

    # -- reading -------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self) -> dict[int, float]:
        """Per span: duration minus the time its direct children cover."""
        own = {i: s.end - s.start for i, s in enumerate(self.spans)}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def self_time_by_layer(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for i, seconds in self.self_times().items():
            totals[layer_of(self.spans[i].name)] += seconds
        return dict(sorted(totals.items()))

    def top_level_seconds(self) -> float:
        """Summed duration of the spans that have no parent.

        Equal to the sum of every span's self time, since self times
        partition each top-level span.
        """
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "run": self.run_id, "id": i, "name": s.name,
                    "start": s.start, "end": s.end,
                    "parent": s.parent}) + "\n")


class _NullSpan:
    """Shared no-op span; callers may still rename it."""

    name = ""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _NullTracer:
    enabled = False
    spans: list = []

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def adopt(self, registry_spans, prefix: str = "program.") -> None:
        return None


NULL_TRACER = _NullTracer()
