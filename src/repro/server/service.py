"""The resident engine: graph catalog, answer cache, query execution.

This is where the per-process amortization of the engine finally outlives
a single query: the :class:`GraphCatalog` keeps named graphs (and therefore
their CSR snapshots) alive across requests, the process-wide compile cache
stays warm, and the :class:`AnswerCache` short-circuits repeated queries
entirely.

**One request pipeline.**  :meth:`QueryService.execute` checks the request
against the protocol's op table and runs the handler the table names.
Cacheable ops go through :meth:`AnswerCache.lookup` under
:func:`answer_key` — the one cache path, which the shard coordinator uses
too — and their handlers are functions of (graph, arguments), which the
coordinator's degraded reads run on its own copy.

**Cache invalidation is by version, not by notification.**  An answer is
keyed on ``(graph name, catalog generation, graph.version, op, query,
options)``:

* ``graph.version`` is the graph's monotone mutation counter — any in-place
  mutation of a cataloged graph silently retires every answer computed
  against the old version;
* the catalog ``generation`` is a catalog-wide monotone counter stamped on
  every (re-)registration — two different uploads under one name can never
  collide even if their mutation counters happen to match.

Stale entries are never served (the key no longer matches) and age out of
the LRU; re-uploading a name also proactively drops its old entries.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import nullcontext

from repro.engine.cache import DEFAULT_CACHE
from repro.engine.csr import get_csr
from repro.engine.faults import FaultError, fault_point
from repro.engine.limits import BudgetExceeded, Spill
from repro.engine.metrics import MetricsRegistry
from repro.engine.stats import EngineStats
from repro.engine.tracing import (
    Tracer,
    get_tracer,
    span_tree_dict,
    use_thread_tracer,
)
from repro.errors import GraphError
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.graph.property_graph import PropertyGraph
from repro.graph.serialize import graph_from_dict, is_json_scalar
from repro.server.protocol import (
    BUDGET_PARAMS,
    OP_TABLE,
    BadRequestError,
    GraphNotFoundError,
    Request,
    check_request,
)


class CatalogEntry:
    """One named graph in the catalog: resident, or a lazy stored handle.

    A durable catalog registers stored graphs without loading them — the
    entry then holds a :class:`~repro.storage.lazy.LazyGraphHandle` and the
    service queries label-segment *views* of it.  Touching :attr:`graph`
    (mutations, dlrpq-free ops that need the full graph) materializes the
    fully-resident, journal-attached graph on demand.
    """

    __slots__ = ("name", "generation", "_graph", "handle")

    def __init__(
        self,
        name: str,
        graph: "EdgeLabeledGraph | None",
        generation: int,
        handle=None,
    ):
        self.name = name
        self._graph = graph
        self.generation = generation
        self.handle = handle

    @property
    def graph(self) -> EdgeLabeledGraph:
        """The fully-resident graph (materializing a lazy entry on demand)."""
        graph = self._graph
        if graph is None:
            # Benign race: materialize() is locked and memoized on the
            # handle, so concurrent callers converge on one object.
            graph = self.handle.materialize()
            self._graph = graph
        return graph

    @property
    def resident(self) -> bool:
        return self._graph is not None

    @property
    def version(self) -> tuple:
        """The answer-cache version key: survives both in-place mutation
        (``graph.version`` moves) and replacement (``generation`` moves).

        For lazy entries the durable version stands in — by construction it
        equals the ``graph.version`` a materialized copy reports, so keys
        computed before and after materialization coincide."""
        graph = self._graph
        if graph is not None:
            return (self.generation, graph.version)
        return (self.generation, self.handle.version)

    def info(self) -> dict:
        graph = self._graph
        if graph is None:
            # Manifest-only: answering graphs.list must not fault segments.
            handle = self.handle
            return {
                "name": self.name,
                "kind": handle.kind,
                "nodes": handle.num_nodes,
                "edges": handle.num_edges,
                "labels": sorted(map(str, handle.labels)),
                "version": list(self.version),
            }
        return {
            "name": self.name,
            "kind": "property" if isinstance(graph, PropertyGraph) else "edge_labeled",
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "labels": sorted(map(str, graph.labels)),
            "version": list(self.version),
        }


class GraphCatalog:
    """Named, versioned graphs resident in the service process.

    With ``data_dir`` the catalog is durable: the manifest is loaded at
    startup (as lazy entries — nothing faults in until queried),
    registrations write through to the store, and mutations of cataloged
    graphs are journaled (see DESIGN.md §13).
    """

    def __init__(
        self,
        data_dir: "str | None" = None,
        *,
        max_resident_edges: "int | None" = None,
    ) -> None:
        self._entries: dict[str, CatalogEntry] = {}
        self._lock = threading.Lock()
        self._generation = 0
        self.max_resident_edges = max_resident_edges
        self._store = None
        if data_dir is not None:
            from repro.storage.lazy import LazyGraphHandle
            from repro.storage.store import GraphStore

            self._store = GraphStore(data_dir)
            for name in self._store.names():
                self._generation += 1
                handle = LazyGraphHandle(
                    self._store, name, max_resident_edges=max_resident_edges
                )
                self._entries[name] = CatalogEntry(
                    name, None, self._generation, handle
                )

    @property
    def store(self):
        """The backing :class:`GraphStore`, or ``None`` for memory-only."""
        return self._store

    @property
    def durable(self) -> bool:
        return self._store is not None

    @classmethod
    def with_builtins(
        cls,
        data_dir: "str | None" = None,
        *,
        max_resident_edges: "int | None" = None,
    ) -> "GraphCatalog":
        """A catalog preloaded with the paper's bank graphs (fig2, fig3).

        On a durable catalog the builtins are only seeded when the store
        does not already hold them — a restart must hand back the user's
        (possibly mutated) fig2, not a fresh copy.
        """
        from repro.graph.datasets import figure2_graph, figure3_graph

        catalog = cls(data_dir, max_resident_edges=max_resident_edges)
        for name, build in (("fig2", figure2_graph), ("fig3", figure3_graph)):
            if name not in catalog:
                catalog.register(name, build())
        return catalog

    def register(self, name: str, graph: EdgeLabeledGraph) -> CatalogEntry:
        """Add (or replace) a graph under ``name`` (write-through when durable)."""
        if not isinstance(name, str) or not name:
            raise BadRequestError("graph name must be a non-empty string")
        if not isinstance(graph, EdgeLabeledGraph):
            raise BadRequestError("only graph objects can be cataloged")
        if self._store is not None:
            # Store first, swap second: a failed snapshot must not leave a
            # catalog entry with no durable backing.
            self._store.put_graph(name, graph)
            self._store.attach(name, graph)
        with self._lock:
            self._generation += 1
            entry = CatalogEntry(name, graph, self._generation)
            old = self._entries.get(name)
            self._entries[name] = entry
        if old is not None and old.resident and old._graph is not graph:
            # The replaced graph object must stop journaling under this name.
            old._graph.detach_journal()
        return entry

    def get(self, name: str) -> CatalogEntry:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise GraphNotFoundError(
                f"no graph named {name!r} in the catalog", graph=name
            )
        return entry

    def drop(self, name: str) -> None:
        with self._lock:
            entry = self._entries.pop(name, None)
        if entry is None:
            raise GraphNotFoundError(
                f"no graph named {name!r} in the catalog", graph=name
            )
        if self._store is not None:
            if entry.resident:
                entry._graph.detach_journal()
            self._store.delete_graph(name)

    def flush(self, name: "str | None" = None) -> int:
        """Journal durability barrier (no-op for memory-only catalogs)."""
        if self._store is None:
            return 0
        return self._store.flush(name)

    def close(self) -> None:
        """Flush every journal buffer and close the store (idempotent)."""
        if self._store is not None:
            self._store.close()

    def storage_info(self) -> "dict | None":
        """Where the store lives, what is resident, and the store's own
        write counters (flushes, compactions, records, compaction seconds)."""
        if self._store is None:
            return None
        lazy = resident = 0
        with self._lock:
            for entry in self._entries.values():
                if entry.resident:
                    resident += 1
                elif entry.handle is not None:
                    lazy += 1
        return {
            "data_dir": self._store.data_dir,
            "path": self._store.path,
            "resident_graphs": resident,
            "lazy_graphs": lazy,
            "max_resident_edges": self.max_resident_edges,
            **self._store.counters(),
        }

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def versions(self) -> dict:
        """``{name: [generation, durable version]}`` for every graph.

        Deliberately cheap: reads the manifest-backed version of lazy
        entries without faulting a single segment in, so the fleet
        supervisor's heartbeat probes cost O(catalog) dict reads even on
        a durable catalog holding larger-than-RAM graphs.
        """
        with self._lock:
            entries = list(self._entries.values())
        return {entry.name: list(entry.version) for entry in entries}

    def list_info(self) -> list[dict]:
        with self._lock:
            entries = list(self._entries.values())
        return [entry.info() for entry in sorted(entries, key=lambda e: e.name)]

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_MISSING = object()


def answer_key(graph: str, version, op: str, args: dict) -> tuple:
    """``(graph, version, op, query, canonical JSON of the other args)``.

    The one answer-cache key, built from what the handler reads: a checked
    request's ``args``, defaults filled in.  A budget limit decides how far
    an evaluation may run, not what its complete answer is, and ``trace``
    is per-request routing context, so neither is keyed.  The graph name
    comes first because :meth:`AnswerCache.invalidate_graph` matches on it.
    """
    unkeyed = ("graph", "query", "trace", *BUDGET_PARAMS)
    options = {key: value for key, value in args.items() if key not in unkeyed}
    return (
        graph, version, op, args.get("query"),
        json.dumps(options, sort_keys=True, default=str),
    )


class AnswerCache:
    """A thread-safe LRU of fully-materialized query answers.

    The service stores the JSON-ready result dicts the protocol ships, so a
    hit costs one dict lookup — no compile, no index, no BFS, no re-sorting;
    the shard coordinator stores relations and routed result dicts.
    """

    def __init__(self, maxsize: int = 512):
        if maxsize < 1:
            raise ValueError("answer cache maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: dict = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, key: tuple):
        """The cached answer for ``key``, or ``None`` (and a miss count)."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return None
            # LRU refresh: dicts iterate in insertion order, so re-inserting
            # moves the key to the most-recently-used end.
            del self._entries[key]
            self._entries[key] = value
            self.hits += 1
            return value

    def put(self, key: tuple, value) -> None:
        with self._lock:
            if key in self._entries:
                del self._entries[key]
            self._entries[key] = value
            while len(self._entries) > self.maxsize:
                oldest = next(iter(self._entries))
                del self._entries[oldest]
                self.evictions += 1

    def lookup(self, key: tuple, compute, *, budget=None, rows=None, on_put_failure=None) -> tuple:
        """``(answer, hit)``: the answer cached under ``key``, else ``compute()``'s.

        The one rule of what may be cached: only complete answers.  A
        partial answer is a budget trip, which raises out of ``compute``
        before anything is stored; a result dict marked ``degraded`` is
        handed back unstored (stored, it would alias the exact answer after
        the fleet heals); and a result's ``trace_spans`` ride only on the
        copy handed back, never in the cache.  A failed insert (the
        ``service.cache_put`` fault site) degrades to an uncached answer and
        calls ``on_put_failure``.

        The one place ``budget``'s row ceiling meets a finished answer, a
        hit or a computed one: over it, the answer trips with exactly
        ``max_rows`` of its rows (stored first when complete).  The rows
        are a result dict's ``rows`` field, as tuples, or a non-dict answer.
        """
        answer = self.get(key)
        hit = answer is not None
        if not hit:
            try:
                answer = compute()
            except Spill:
                # The rerun on the worker pool looks the key up again and
                # counts this request's one miss.
                with self._lock:
                    self.misses -= 1
                raise
            self._store(key, answer, on_put_failure)
        found = answer
        if isinstance(answer, dict):
            found = None if rows is None else answer[rows]
        if budget is not None and found is not None:
            try:
                budget.check_rows(len(found))
            except BudgetExceeded as exc:
                if found is not answer:  # JSON rows, as budget_trip decodes them
                    found = [tuple(row) if isinstance(row, list) else row for row in found]
                raise exc.attach_partial(found)
        return answer, hit

    def _store(self, key: tuple, answer, on_put_failure) -> None:
        if isinstance(answer, dict):
            if answer.get("degraded"):
                return
            if "trace_spans" in answer:
                answer = {k: v for k, v in answer.items() if k != "trace_spans"}
        try:
            fault_point("service.cache_put")
            self.put(key, answer)
        except FaultError:
            if on_put_failure is not None:
                on_put_failure()

    def invalidate_graph(self, name: str) -> int:
        """Drop every entry whose key belongs to graph ``name``.

        Version keying already guarantees stale answers are never *served*;
        this proactively frees the memory when a graph is re-uploaded.
        """
        with self._lock:
            stale = [key for key in self._entries if key[0] == name]
            for key in stale:
                del self._entries[key]
            self.invalidations += len(stale)
        return len(stale)

    def info(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class QueryService:
    """Execute protocol requests against the resident catalog and engine.

    :meth:`execute` is synchronous and thread-safe.  The app runs a read
    on its event loop first (``on_loop=True``, under a spill allowance) and
    reruns it on a worker pool via ``run_in_executor`` only when that
    attempt spills; either way the request's ``server.request`` span opens
    on the thread's empty stack and becomes a root tree with the kernel's
    spans nested inside.  Both calls share the metrics and span code below,
    and a spilled attempt counts nothing, so a request is counted once
    whichever of them answers it.

    Budget limits (timeout/max_rows/max_states) reach the handlers as the
    ``budget`` argument and are never part of an answer's cache key; a
    tripped budget *raises* before the cache write, so the cache only ever
    holds complete answers, and the row ceiling also applies to a hit.
    """

    def __init__(
        self,
        catalog: "GraphCatalog | None" = None,
        *,
        answer_cache_size: int = 512,
        metrics: "MetricsRegistry | None" = None,
    ):
        self.catalog = catalog if catalog is not None else GraphCatalog.with_builtins()
        self.answer_cache = AnswerCache(answer_cache_size)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.started_at = time.time()
        self._metrics_lock = threading.Lock()

    # ------------------------------------------------------------------
    # the entry point
    # ------------------------------------------------------------------
    def execute(
        self, request: Request, budget=None, *, on_loop: bool = False,
        queued_at: "float | None" = None,
    ) -> dict:
        """Run one request to a JSON-ready result (raises typed errors).

        ``budget`` (a :class:`~repro.engine.limits.QueryBudget`, built by
        the app from the request's limit params and the server default) is
        threaded into the evaluators; a tripped budget raises
        :class:`BudgetExceeded` — counted under ``server_budget_exceeded``
        — before any cache write happens, and its row ceiling trips on a
        cached answer too.

        A remote ``trace`` context (``{"trace_id": <32-hex>, "span_id":
        <16-hex>}``, ``span_id`` naming the *caller's* span) makes this
        request's ``server.request`` root its remote child.

        ``on_loop`` marks the app's first attempt at a read, on its event
        loop, under a budget with a spill allowance
        (:meth:`~repro.engine.limits.QueryBudget.spill_after`).  An answer
        it produces — a cache hit or a finished computation — is counted
        like any other and under ``server_answers_on_loop``.  When the
        allowance runs out, or a lazy graph would have to fault in,
        :class:`Spill` leaves with nothing counted or cached but
        ``server_spills_total`` and no span tree kept; the app reruns the
        request on its worker pool (``on_loop`` off), which counts it.
        The ``service.execute`` fault site fires on that pool entry only.
        ``queued_at`` is the ``perf_counter()`` reading at which the app
        submitted the request to its worker pool; the wait until this call
        starts is observed as ``server_executor_wait_seconds``.
        """
        request = check_request(request)
        spec = OP_TABLE[request.op]
        started = time.perf_counter()
        if not (spec.control or on_loop):
            if queued_at is not None:
                with self._metrics_lock:
                    self.metrics.observe(
                        "server_executor_wait_seconds", started - queued_at
                    )
            fault_point("service.execute")
        tracer = get_tracer()
        trace_ctx = request.args["trace"]
        try:
            if trace_ctx is None and not tracer.enabled:
                result, cache_hit = self._dispatch(request, budget)
            else:
                # With a remote trace context but no tracing here, the
                # request runs under a per-request ephemeral tracer so the
                # caller still gets its subtree.  Safe because execute()
                # runs synchronously on one thread (a pool worker, or the
                # event loop) — the override is thread-local and unwinds
                # here.  The root adopts the caller's trace_id/span_id, and
                # the finished subtree ships back as ``trace_spans`` on a
                # shallow copy, so the answer cache never holds spans.
                scope = nullcontext(tracer) if tracer.enabled else use_thread_tracer(Tracer())
                with scope as active:
                    try:
                        with active.span(
                            "server.request", op=request.op, id=request.id
                        ) as span:
                            if trace_ctx is not None:
                                span.adopt_remote(trace_ctx)
                            result, cache_hit = self._dispatch(request, budget)
                            span.set(cache_hit=cache_hit)
                    except Spill:
                        # The rerun on the pool opens the request's one root.
                        active.discard(span)
                        raise
                if trace_ctx is not None:
                    result = {**result, "trace_spans": [span_tree_dict(span)]}
        except BudgetExceeded as exc:
            with self._metrics_lock:
                self.metrics.inc("server_budget_exceeded")
                self.metrics.inc(f"server_budget_exceeded_{exc.limit}")
            raise
        except Spill:
            with self._metrics_lock:
                self.metrics.inc("server_spills_total")
            raise
        elapsed = time.perf_counter() - started
        with self._metrics_lock:
            self.metrics.inc("server_requests_total")
            self.metrics.inc(f"server_requests_{request.op.replace('.', '_')}")
            self.metrics.observe("server_request_seconds", elapsed)
            if spec.cacheable:
                self.metrics.inc(
                    "server_answer_cache_hits" if cache_hit
                    else "server_answer_cache_misses"
                )
                self.metrics.observe(
                    "server_cache_hit_seconds" if cache_hit
                    else "server_cache_miss_seconds",
                    elapsed,
                )
            if on_loop:
                self.metrics.inc("server_answers_on_loop")
        return result

    def observe(self, name: str, value: float) -> None:
        """Record one observation of histogram ``name`` (the app's loop
        lag and pool wake-up timings share the service's registry)."""
        with self._metrics_lock:
            self.metrics.observe(name, value)

    def record_error(self, code: str) -> None:
        """Count one failed request (the app calls this per error envelope)."""
        with self._metrics_lock:
            self.metrics.inc("server_errors_total")
            self.metrics.inc(f"server_errors_{code}")

    def _dispatch(self, request, budget=None) -> tuple[dict, bool]:
        """Run the handler the op table names: control handlers take no
        arguments, cacheable ones go through the answer cache, the rest take
        the checked request and the budget."""
        spec = OP_TABLE[request.op]
        if spec.handler is None:
            raise BadRequestError(f"op {request.op!r} is not executable by the service")
        if spec.cacheable:
            return self._query(request, budget)
        handler = getattr(self, spec.handler)
        return (handler() if spec.control else handler(request, budget)), False

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def _ping(self) -> dict:
        return {"pong": True}

    def _list_graphs(self) -> dict:
        return {"graphs": self.catalog.list_info()}

    def _cluster_metrics(self) -> dict:
        """This process's registry in the lossless dump form (raw bucket
        counts), so a coordinator can merge registries across shards
        exactly."""
        with self._metrics_lock:
            return {"metrics": self.metrics.dump()}

    def stats(self) -> dict:
        with self._metrics_lock:
            metrics = self.metrics.as_dict()
        result = {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "graphs": self.catalog.list_info(),
            "answer_cache": self.answer_cache.info(),
            "compile_cache": DEFAULT_CACHE.info(),
            "metrics": metrics,
        }
        storage = self.catalog.storage_info()
        if storage is not None:
            result["storage"] = storage
        return result

    def health(self) -> dict:
        """The cheap, idempotent liveness probe (DESIGN.md §14).

        Everything here answers from in-memory state — catalog names with
        their durable versions (no segment faulting), uptime, request
        counters — so a heartbeat prober can hammer it at sub-second
        intervals without competing with query execution (it is a control
        op: no admission slot, no worker pool).  The app layer adds the
        fields only it knows: ``in_flight`` and the draining flag.
        """
        with self._metrics_lock:
            requests_total = self.metrics.counters.get(
                "server_requests_total", 0
            )
        return {
            "status": "ok",
            "pid": os.getpid(),
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "graphs": self.catalog.versions(),
            "requests_total": requests_total,
        }

    def close(self) -> None:
        """Flush write-through journals and release the catalog's store.

        The app calls this at the end of a graceful drain; after it, the
        last acknowledged mutation is durable on disk."""
        self.catalog.close()

    def _upload(self, request, budget=None) -> dict:
        name = request.args["name"]
        try:
            graph = graph_from_dict(request.args["graph"])
        except GraphError as exc:
            raise BadRequestError(f"parameter 'graph': {exc}", param="graph") from None
        entry = self.catalog.register(name, graph)
        # Build the CSR snapshot here, on the worker: a read then runs on
        # the event loop without an O(edges) build in front of it.
        stats = EngineStats()
        get_csr(entry.graph, stats)
        with self._metrics_lock:
            self.metrics.fold_stats(stats)
        dropped = self.answer_cache.invalidate_graph(name)
        info = entry.info()
        info["cache_entries_dropped"] = dropped
        return info

    def _mutate(self, request, budget=None) -> dict:
        """Apply in-place edits to a cataloged graph (write-through).

        Edits apply sequentially and in place; an invalid edit raises a
        typed error after its predecessors took effect (the response never
        reaches the client, but the applied prefix is flushed and stays
        durable — exactly the journal's consistent-prefix contract).  The
        flush below is the durability barrier: once the reply is on the
        wire, the mutation survives ``kill -9``.
        """
        name = request.args["graph"]
        entry = self.catalog.get(name)
        graph = entry.graph  # materializes a lazy entry before writing
        applied = 0
        try:
            for index, edit in enumerate(request.args["edits"]):
                self._apply_edit(graph, edit, index)
                applied += 1
        finally:
            self.catalog.flush(name)
            if applied:
                self.answer_cache.invalidate_graph(name)
            with self._metrics_lock:
                self.metrics.inc("server_edits_applied", applied)
        return {
            "op": "graphs.mutate",
            "graph": name,
            "applied": applied,
            "version": list(entry.version),
        }

    @staticmethod
    def _apply_edit(graph, edit: dict, index: int) -> None:
        def field(key, scalar=True):
            """Object ids, labels and property names are JSON scalars."""
            try:
                value = edit[key]
            except KeyError:
                raise BadRequestError(
                    f"edit {index}: missing field {key!r}", param="edits"
                ) from None
            if scalar and value is not None and not is_json_scalar(value):
                raise BadRequestError(
                    f"parameter 'edits': edit {index} field {key!r} must be "
                    "a JSON scalar",
                    param="edits",
                )
            return value

        kind = edit.get("kind")
        is_property = isinstance(graph, PropertyGraph)
        if kind == "add_edge":
            if is_property:
                graph.add_edge(
                    field("id"), field("src"), field("tgt"), field("label"),
                    properties=edit.get("properties"),
                )
            else:
                graph.add_edge(
                    field("id"), field("src"), field("tgt"), field("label")
                )
        elif kind == "add_node":
            if is_property:
                graph.add_node(
                    field("id"),
                    label=field("label") if "label" in edit else None,
                    properties=edit.get("properties"),
                )
            else:
                graph.add_node(field("id"))
        elif kind == "set_property":
            if not is_property:
                raise BadRequestError(
                    f"edit {index}: set_property needs a property graph"
                )
            graph.set_property(
                field("id"), field("name"), field("value", scalar=False)
            )
        else:
            raise BadRequestError(f"edit {index}: unknown edit kind {kind!r}")

    @staticmethod
    def _graph_for(entry: CatalogEntry, op: str, query: str, budget=None):
        """The graph to evaluate against: a lazy entry serves a label view.

        The view holds every node but only the label segments the compiled
        automaton can traverse (``query_labels``); dlrpq — whose query
        syntax the regex front-end does not cover — gets the all-labels
        view.  Resident entries (and memory-only catalogs) evaluate the
        graph itself.  Building a view faults segments in, which an attempt
        on the event loop must not do: its ``budget`` spills first.
        """
        handle = entry.handle
        if handle is None or handle.resident:
            return entry.graph
        if budget is not None:
            budget.spill("a stored graph must fault in")
        if op == "dlrpq":
            return handle.view(handle.labels)
        from repro.storage.lazy import query_labels

        return handle.view(query_labels(query, handle.labels))

    def _query(self, request, budget=None) -> tuple[dict, bool]:
        name = request.args["graph"]
        entry = self.catalog.get(name)

        def compute() -> dict:
            stats = EngineStats()
            graph = self._graph_for(
                entry, request.op, request.args["query"], budget
            )
            result = self.evaluate(request, graph, stats, budget)
            result["graph"] = name
            result["graph_version"] = list(entry.version)
            with self._metrics_lock:
                self.metrics.fold_stats(stats)
            return result

        return self.answer_cache.lookup(
            answer_key(name, entry.version, request.op, request.args),
            compute,
            budget=budget, rows=OP_TABLE[request.op].answer,
            on_put_failure=self._count_put_failure,
        )

    def _count_put_failure(self) -> None:
        with self._metrics_lock:
            self.metrics.inc("server_cache_put_failures")

    def _frontier_step(self, request, budget=None) -> dict:
        """The shard half of the scatter-gather product BFS (DESIGN.md §11)."""
        from repro.distributed.frontier import (
            decode_mask,
            decode_pairs,
            local_frontier_step,
        )

        args = request.args
        try:
            owned_mask = decode_mask(args["owned"])
            frontier = decode_pairs(args["frontier"])
        except ValueError as exc:
            raise BadRequestError(f"malformed frontier: {exc}") from None
        name = args["graph"]
        entry = self.catalog.get(name)
        if not entry.resident and budget is not None:
            budget.spill("a stored graph must fault in")
        stats = EngineStats()
        try:
            with get_tracer().span(
                "frontier_step", graph=name, round=args["round"],
                frontier=len(frontier),
            ) as span:
                result = local_frontier_step(
                    entry.graph, args["query"], args["alphabet"],
                    args["state_bits"], owned_mask, frontier, stats=stats,
                    budget=budget,
                )
                if span is not None:
                    span.set(
                        expanded=result["expanded"],
                        relaxed=result["relaxed"],
                        answers=len(result["answers"]),
                        cross=len(result["cross"]),
                        bounced=result.get("bounced", 0),
                    )
        except ValueError as exc:
            raise BadRequestError(str(exc)) from None
        result["op"] = "frontier_step"
        result["graph"] = name
        result["graph_version"] = list(entry.version)
        with self._metrics_lock:
            self.metrics.fold_stats(stats)
        return result

    # ------------------------------------------------------------------
    # the cacheable ops: functions of (graph, checked arguments)
    # ------------------------------------------------------------------
    @staticmethod
    def evaluate(request, graph, stats=None, budget=None) -> dict:
        """The answer of a cacheable ``request`` on ``graph``, uncached.

        Runs the handler the op table names on the graph it is given; the
        service passes its catalog entry (or a lazy label view), the shard
        coordinator's degraded reads pass their retained copy.
        """
        request = check_request(request)
        handler = getattr(QueryService, OP_TABLE[request.op].handler)
        return handler(graph, request.args, stats, budget)

    @staticmethod
    def _run_rpq(graph, args, stats, budget) -> dict:
        from repro.rpq.evaluation import evaluate_rpq

        source = args["source"]
        pairs = evaluate_rpq(
            args["query"], graph, sources=None if source is None else [source],
            stats=stats, budget=budget,
        )
        return relation_result("rpq", args, pairs)

    @staticmethod
    def _run_crpq(graph, args, stats, budget) -> dict:
        from repro.crpq.evaluation import evaluate_crpq

        rows = evaluate_crpq(
            args["query"], graph, planner=args["planner"], stats=stats,
            budget=budget,
        )
        return relation_result("crpq", args, rows)

    @staticmethod
    def _run_dlrpq(graph, args, stats, budget) -> dict:
        from repro.datatests.dlrpq import evaluate_dlrpq

        if not isinstance(graph, PropertyGraph):
            raise BadRequestError(
                "dlrpq queries need a property graph (data tests read "
                "edge properties)"
            )
        bindings = _rows(
            (
                {
                    "path": list(binding.path.objects),
                    "lists": {
                        str(variable): list(values)
                        for variable, values in binding.mu.items()
                    },
                }
                for binding in evaluate_dlrpq(
                    args["query"], graph, args["source"], args["target"],
                    mode=args["mode"], limit=args["limit"], budget=budget,
                )
            ),
            budget,
        )
        return {
            "op": "dlrpq",
            "query": args["query"],
            "bindings": bindings,
            "count": len(bindings),
        }

    @staticmethod
    def _run_paths(graph, args, stats, budget) -> dict:
        from repro.rpq.path_modes import matching_paths

        paths = _rows(
            (
                list(path.objects)
                for path in matching_paths(
                    args["query"], graph, args["source"], args["target"],
                    mode=args["mode"], limit=args["limit"], stats=stats,
                    budget=budget,
                )
            ),
            budget,
        )
        return {
            "op": "paths",
            "query": args["query"],
            "mode": args["mode"],
            "paths": paths,
            "count": len(paths),
        }

    @staticmethod
    def _run_explain(graph, args, stats, budget) -> dict:
        from repro.engine.explain import explain_query

        report = explain_query(
            args["query"], graph, planner=args["planner"], budget=budget
        )
        return {"op": "explain", "report": report}


def relation_result(op: str, args: dict, rows) -> dict:
    """The result dict of an ``rpq`` or ``crpq`` whose answer is the tuple
    set ``rows``: its rows as JSON lists in ``repr`` order, under the op
    table's ``answer`` field.  The service's handlers and the shard
    coordinator's partitioned reads both encode here."""
    return {
        "op": op,
        "query": args["query"],
        OP_TABLE[op].answer: sorted((list(row) for row in rows), key=repr),
        "count": len(rows),
    }


def _rows(rows, budget) -> list:
    """The enumerated ``rows`` as a list, the row ceiling checked per row.

    A trip carries the rows so far as its partial result; a ``max_rows``
    trip keeps exactly the first ``max_rows`` (enumeration order is
    deterministic for path-shaped results).
    """
    listed: list = []
    try:
        for row in rows:
            listed.append(row)
            if budget is not None:
                budget.check_rows(len(listed))
    except BudgetExceeded as exc:
        raise exc.attach_partial(listed)
    return listed
