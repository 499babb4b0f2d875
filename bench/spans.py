"""In-memory span recorder for the benchmark's traced run.

The program under test is not touched: spans are opened here, in the
benchmark, around calls into each layer's public functions.  A span is
``(id, name, layer, start, end, parent, op_id)``; spans of one replayed
operation share ``op_id``.  Everything stays in memory until
:meth:`SpanRecorder.write_jsonl` is called at the end of the run.

A layer's **self time** is its spans' duration minus the part their child
spans cover, so the self times of one tree add up to the root's duration.
Two kinds of child exist: a *measured* child (a nested ``with span(...)``)
and an *attributed* child (:meth:`SpanRecorder.attribute`), whose duration
comes from a timer the program already exports (``EngineStats`` ``bfs``
seconds inside ``evaluate_crpq``, say) because the call happens where the
benchmark cannot wrap it.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: "int | None"
    op_id: "int | None"

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records a forest of spans; one recorder per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        #: span id -> summed duration of its closed children
        self._covered: list[float] = []
        self._clock = clock
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, layer: str, op_id: "int | None" = None):
        """Time the body as a child of the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        if op_id is None and parent is not None:
            op_id = parent.op_id
        span = Span(
            len(self.spans), name, layer, self._clock(), 0.0,
            parent.id if parent is not None else None, op_id,
        )
        self._add(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = self._clock()
            self._stack.pop()
            if parent is not None:
                self._covered[parent.id] += span.duration

    def wrap(self, name: str, layer: str, function):
        """``function`` with a span around every call.  Installed on an
        object the benchmark made (``store.flush = recorder.wrap(...)``) it
        times a layer's public function where the program itself calls it."""

        def spanned(*args, **kwargs):
            with self.span(name, layer):
                return function(*args, **kwargs)

        return spanned

    def _add(self, span: Span) -> None:
        self.spans.append(span)
        self._covered.append(0.0)

    def attribute(self, name: str, layer: str, seconds: float) -> Span:
        """Add a child of the open span whose duration a program timer gave.

        The child is laid at the parent's start; only its duration matters
        to self time.  It is clipped to what the parent has left, so a
        timer that over-reports cannot make the parent's self time negative.
        """
        if not self._stack:
            raise RuntimeError("attribute() needs an open parent span")
        parent = self._stack[-1]
        room = self._clock() - parent.start - self._covered[parent.id]
        seconds = min(max(seconds, 0.0), max(room, 0.0))
        span = Span(
            len(self.spans), name, layer, parent.start, parent.start + seconds,
            parent.id, parent.op_id,
        )
        self._add(span)
        self._covered[parent.id] += seconds
        return span

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the duration of its children."""
        return {
            span.id: span.duration - self._covered[span.id]
            for span in self.spans
        }

    def layer_self_seconds(self) -> dict[str, float]:
        """Layer -> summed self time of its spans, largest first."""
        own = self.self_times()
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.layer] = totals.get(span.layer, 0.0) + own[span.id]
        return dict(sorted(totals.items(), key=lambda item: -item[1]))

    def durations(self, name: str) -> list[float]:
        return [span.duration for span in self.spans if span.name == name]

    def root_seconds(self) -> float:
        return sum(span.duration for span in self.spans if span.parent is None)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "name": span.name,
                            "layer": span.layer,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "op_id": span.op_id,
                        }
                    )
                    + "\n"
                )


def span_cost_seconds(samples: int = 20000) -> float:
    """What opening and closing one empty span costs on this machine."""
    recorder = SpanRecorder()
    started = time.perf_counter()
    for _ in range(samples):
        with recorder.span("calibrate", "bench"):
            pass
    return (time.perf_counter() - started) / samples


def flame_table(layer_seconds: dict[str, float]) -> str:
    """The per-layer self-time table the traced run prints."""
    total = sum(layer_seconds.values()) or 1.0
    width = max((len(layer) for layer in layer_seconds), default=5)
    lines = [f"  {'layer':<{width}}  {'self ms':>10}  {'share':>6}"]
    for layer, seconds in layer_seconds.items():
        lines.append(
            f"  {layer:<{width}}  {seconds * 1000:>10.3f}  {seconds / total:>6.1%}"
        )
    return "\n".join(lines)
