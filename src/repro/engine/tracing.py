"""Hierarchical query tracing: spans, per-thread trees, JSONL export.

The paper's evaluation story (Sections 5-6) is about *where* the cost of a
graph query goes — product construction vs. join order vs. enumeration —
and the engine crosses exactly those phase boundaries at runtime.  This
module records them as a tree of **spans**:

* a :class:`Span` is a named interval (``start``/``end`` from
  ``perf_counter``) with free-form attributes and child spans;
* a :class:`Tracer` maintains a **thread-local** current-span stack, so the
  query server's pool workers each grow their own per-request trees
  without interleaving (tested by ``tests/engine/test_tracing.py``);
* finished root spans are collected on the tracer (under a lock) and can be
  rendered as an indented tree (``repro profile``), exported as JSON dicts
  (``repro profile --json``) or streamed one-tree-per-line to a ``.jsonl``
  trace file (``repro workload run --trace-out``).

Tracing is **disabled by default** and zero-cost when off: the module-level
active tracer starts as :data:`NULL_TRACER`, whose ``enabled`` flag lets hot
paths skip instrumentation with a single attribute check, and whose
``span()`` hands back one reusable no-op context manager.  The
``bench_engine.py`` overhead gate asserts the disabled path stays within a
few percent of the uninstrumented kernel.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager

#: Ceiling on the number of spans a serialized subtree may carry when it is
#: shipped across a process boundary (shard responses).  A runaway trace
#: must never dwarf the answer payload it rides along with.
SPAN_TREE_CAP = 512


def new_trace_id() -> str:
    """A fresh 128-bit trace id (32 hex chars), W3C-trace-context sized."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id (16 hex chars)."""
    return os.urandom(8).hex()


class Span:
    """One named, timed interval in a query's execution tree.

    Spans carry distributed-tracing identity: every root draws a fresh
    ``trace_id`` and each span a process-unique ``span_id``; children
    inherit the trace id and record ``parent_span_id``.  A root opened on
    behalf of a *remote* caller adopts the caller's identity via
    :meth:`adopt_remote`, which is how one logical trace crosses the
    coordinator/shard process boundary (DESIGN.md §12).  ``start_unix``
    is wall-clock (``time.time``) so spans from different machines can be
    laid on one timeline; ``start``/``end`` stay ``perf_counter`` for
    exact intra-process durations.
    """

    __slots__ = (
        "name", "attributes", "start", "end", "parent", "children",
        "trace_id", "span_id", "parent_span_id", "start_unix", "grafts",
    )

    def __init__(self, name: str, attributes: "dict | None" = None, parent: "Span | None" = None):
        self.name = name
        self.attributes: dict = dict(attributes) if attributes else {}
        self.start = time.perf_counter()
        self.start_unix = time.time()
        self.end: "float | None" = None
        self.parent = parent
        self.children: list[Span] = []
        self.span_id = new_span_id()
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_span_id = parent.span_id
        else:
            self.trace_id = new_trace_id()
            self.parent_span_id: "str | None" = None
        #: serialized span subtrees from *other processes* stitched under
        #: this span (shard responses); plain dicts, rendered after the
        #: local children.
        self.grafts: "list[dict] | None" = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def set(self, **attributes) -> "Span":
        """Attach (or overwrite) attributes on the span."""
        self.attributes.update(attributes)
        return self

    def adopt_remote(self, context: dict) -> "Span":
        """Make this span a *remote child* of a span in another process.

        ``context`` is the wire trace context (``{"trace_id": ...,
        "span_id": ...}``): this span joins the caller's trace and records
        the caller's span as its parent.  Call it before opening child
        spans — children inherit ``trace_id`` at creation time.
        """
        trace_id = context.get("trace_id")
        parent_span_id = context.get("span_id")
        if isinstance(trace_id, str) and trace_id:
            self.trace_id = trace_id
        if isinstance(parent_span_id, str) and parent_span_id:
            self.parent_span_id = parent_span_id
        return self

    def graft(self, tree: dict) -> "Span":
        """Stitch a serialized remote subtree (a span dict) under this span."""
        if self.grafts is None:
            self.grafts = []
        self.grafts.append(tree)
        return self

    def finish(self) -> "Span":
        """Close the interval (idempotent; the tracer calls this on exit)."""
        if self.end is None:
            self.end = time.perf_counter()
        return self

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        """Wall seconds from start to end (to *now* while still open)."""
        return (self.end if self.end is not None else time.perf_counter()) - self.start

    def walk(self):
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def as_dict(self) -> dict:
        """A JSON-serializable tree (what trace files and ``--json`` carry).

        Grafted remote subtrees appear after the local children, already in
        dict form.
        """
        children = [child.as_dict() for child in self.children]
        if self.grafts:
            children.extend(self.grafts)
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "start_unix": round(self.start_unix, 6),
            "duration_ms": round(self.duration * 1000, 6),
            "attributes": dict(self.attributes),
            "children": children,
        }

    def render(self, indent: int = 0) -> str:
        """Indented one-span-per-line tree with wall times and attributes."""
        pad = "  " * indent
        attrs = "".join(
            f" {key}={value}" for key, value in sorted(self.attributes.items())
        )
        lines = [f"{pad}{self.name}  {self.duration * 1000:.3f} ms{attrs}"]
        for child in self.children:
            lines.append(child.render(indent + 1))
        for tree in self.grafts or ():
            lines.append(render_span_dict(tree, indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Span {self.name!r} {self.duration * 1000:.3f}ms children={len(self.children)}>"


def span_tree_dict(span: Span, max_spans: int = SPAN_TREE_CAP) -> dict:
    """``span.as_dict()`` with a hard cap on the serialized span count.

    Shard responses carry their request's span subtree back to the
    coordinator; this keeps a pathological trace from flooding the wire.
    Serialization is depth-first; once ``max_spans`` spans are emitted the
    remaining children are dropped and the nearest kept ancestor is marked
    ``spans_truncated`` with the number it lost.
    """
    budget = [max_spans]

    def serialize(node) -> dict:
        budget[0] -= 1
        if isinstance(node, dict):  # an already-serialized graft
            tree = {key: value for key, value in node.items() if key != "children"}
            children = node.get("children", ())
        else:
            tree = {
                "name": node.name,
                "trace_id": node.trace_id,
                "span_id": node.span_id,
                "parent_span_id": node.parent_span_id,
                "start_unix": round(node.start_unix, 6),
                "duration_ms": round(node.duration * 1000, 6),
                "attributes": dict(node.attributes),
            }
            children = list(node.children)
            if node.grafts:
                children.extend(node.grafts)
        kept, dropped = [], 0
        for child in children:
            if budget[0] <= 0:
                dropped += _count_spans(child)
                continue
            kept.append(serialize(child))
        tree["children"] = kept
        if dropped:
            attributes = dict(tree.get("attributes") or {})
            attributes["spans_truncated"] = (
                attributes.get("spans_truncated", 0) + dropped
            )
            tree["attributes"] = attributes
        return tree

    return serialize(span)


def _count_spans(node) -> int:
    if isinstance(node, dict):
        return 1 + sum(_count_spans(child) for child in node.get("children", ()))
    return sum(1 for _ in node.walk()) + sum(
        _count_spans(tree) for tree in node.grafts or ()
    )


def render_span_dict(tree: dict, indent: int = 0) -> str:
    """Render a serialized span tree in the same style as ``Span.render``.

    Used for remote subtrees (which only exist as dicts on this side of the
    process boundary) and for re-rendering trace JSONL files.
    """
    pad = "  " * indent
    attrs = "".join(
        f" {key}={value}"
        for key, value in sorted((tree.get("attributes") or {}).items())
    )
    duration = tree.get("duration_ms", 0.0)
    lines = [f"{pad}{tree.get('name', '?')}  {duration:.3f} ms{attrs}"]
    for child in tree.get("children", ()):
        lines.append(render_span_dict(child, indent + 1))
    return "\n".join(lines)


class Tracer:
    """Collects span trees, one current-span stack per thread.

    ``span()`` is a context manager: the new span is pushed on the calling
    thread's stack (becoming the parent of any span opened inside it on the
    same thread) and, when it has no parent, appended to :attr:`roots` on
    exit.  Different threads never see each other's stacks, so concurrent
    workers produce disjoint trees.
    """

    enabled = True

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.roots: list[Span] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> "Span | None":
        """The innermost open span on the calling thread (None outside)."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attributes):
        """Open a child of the calling thread's current span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, attributes, parent)
        if parent is not None:
            parent.children.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.finish()
            stack.pop()
            if parent is None:
                with self._lock:
                    self.roots.append(span)

    def discard(self, span: Span) -> None:
        """Forget a finished root: an attempt whose work reruns elsewhere
        (a served read that spilled to the worker pool) opens no tree."""
        with self._lock:
            if span in self.roots:
                self.roots.remove(span)

    def annotate(self, **attributes) -> None:
        """Attach attributes to the current span (no-op outside any span)."""
        span = self.current()
        if span is not None:
            span.set(**attributes)

    def trace_context(self) -> "dict | None":
        """The wire trace context of the calling thread's current span.

        ``{"trace_id": ..., "span_id": ...}`` — what a client injects as a
        request's ``trace`` param so the server can open its root as a
        remote child.  ``None`` outside any span (and always on the
        :class:`NullTracer`), which is exactly the "no ``trace`` field on
        the wire when tracing is off" guarantee.
        """
        span = self.current()
        if span is None:
            return None
        return {"trace_id": span.trace_id, "span_id": span.span_id}

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Every collected root tree, blank-line separated."""
        with self._lock:
            roots = list(self.roots)
        return "\n".join(root.render() for root in roots)

    def as_dicts(self) -> list[dict]:
        with self._lock:
            roots = list(self.roots)
        return [root.as_dict() for root in roots]

    def drain_roots(self) -> list:
        """Remove and return the collected root spans.

        Long-lived processes (the query server) flush roots to their trace
        sink incrementally; without draining, a resident tracer would grow
        without bound.
        """
        with self._lock:
            roots, self.roots = self.roots, []
        return roots

    def write_jsonl(self, path: str, *, drain: bool = True) -> int:
        """Append one JSON span tree per line to ``path``; returns the count.

        **Drains by default**: exported roots are removed from the tracer,
        so a long-lived process flushing periodically writes each tree
        exactly once (a resident server re-exporting its whole history on
        every flush was the bug this replaces).  Pass ``drain=False`` to
        snapshot without consuming — the next call will re-write those
        roots.
        """
        if drain:
            roots = self.drain_roots()
        else:
            with self._lock:
                roots = list(self.roots)
        if not roots:
            return 0
        with open(path, "a", encoding="utf-8") as handle:
            for root in roots:
                handle.write(
                    json.dumps(root.as_dict(), sort_keys=True, default=str) + "\n"
                )
        return len(roots)


class _NullContext:
    """A reusable no-op context manager yielding ``None``."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL_CONTEXT = _NullContext()


class NullTracer:
    """The disabled tracer: every operation is a constant-time no-op.

    Hot loops guard on ``tracer.enabled`` and skip attribute bookkeeping
    entirely; code that unconditionally enters ``tracer.span(...)`` gets the
    shared :class:`_NullContext` back, so no ``Span`` is ever allocated.

    Full API parity with :class:`Tracer` is a contract (tested by
    ``tests/engine/test_tracing.py::TestSubclassContract``): call sites
    never need ``isinstance`` guards — every public method exists here and
    returns the "nothing happened" value of its real counterpart.
    """

    enabled = False
    roots: tuple = ()

    def span(self, name: str, **attributes):
        return _NULL_CONTEXT

    def current(self) -> None:
        return None

    def discard(self, span) -> None:
        return None

    def annotate(self, **attributes) -> None:
        return None

    def trace_context(self) -> None:
        return None

    def render(self) -> str:
        return ""

    def as_dicts(self) -> list:
        return []

    def drain_roots(self) -> list:
        return []

    def write_jsonl(self, path: str, *, drain: bool = True) -> int:
        return 0


#: The process-wide disabled tracer (the default active tracer).
NULL_TRACER = NullTracer()

_ACTIVE: "Tracer | NullTracer" = NULL_TRACER

#: Per-thread tracer overrides (see :func:`use_thread_tracer`).
_THREAD_OVERRIDE = threading.local()


def get_tracer() -> "Tracer | NullTracer":
    """The calling thread's active tracer.

    A thread-scoped override (:func:`use_thread_tracer`) wins; otherwise
    the process-wide tracer installed by :func:`use_tracer` — which is
    :data:`NULL_TRACER` unless tracing was enabled.
    """
    override = getattr(_THREAD_OVERRIDE, "tracer", None)
    return _ACTIVE if override is None else override


@contextmanager
def use_tracer(tracer: "Tracer | NullTracer"):
    """Install ``tracer`` as the process-wide active tracer for a scope.

    Worker threads spawned inside the scope observe the same tracer (that is
    the point: the server's worker pool inherits it), so nesting different
    tracers from concurrent threads is not supported — last installer wins.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


@contextmanager
def use_thread_tracer(tracer: "Tracer | NullTracer"):
    """Install ``tracer`` for the *calling thread only*.

    The server uses this for per-request tracing: a request that carries a
    remote trace context gets an ephemeral tracer on its worker thread,
    without perturbing concurrent requests (or the process-wide tracer) —
    exactly what :func:`use_tracer`'s global install cannot provide.
    Nests with itself and composes with :func:`use_tracer`; restores the
    previous override on exit.
    """
    previous = getattr(_THREAD_OVERRIDE, "tracer", None)
    _THREAD_OVERRIDE.tracer = tracer
    try:
        yield tracer
    finally:
        _THREAD_OVERRIDE.tracer = previous
