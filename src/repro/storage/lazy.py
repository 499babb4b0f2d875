"""Lazy graph handles: fault in only the label segments a query touches.

A catalog bigger than RAM stays queryable because a stored graph is not
loaded at registration — a :class:`LazyGraphHandle` holds just the manifest
(kind, durable version, per-label edge counts).  When a query arrives the
service asks :func:`query_labels` which stored labels the compiled
automaton can actually traverse, and the handle builds (or reuses) a
**view**: a real :class:`EdgeLabeledGraph` / :class:`PropertyGraph` holding
every node but only the edges of those labels, fed straight into the
existing CSR build path.

Correctness hinges on the Remark 11 alphabet: wildcards (``_``) and
negation (``!{a}``) instantiate over ``graph.labels``, so a view that
reported only its resident labels would compile a *different* automaton
than the fully-resident graph.  Views therefore report the full stored
label set (``_labels_seen``), and :func:`query_labels` derives the needed
labels from the automaton compiled over that same full alphabet — the
compilation-cache key, the automaton and hence the answers are identical to
resident evaluation, which the differential suite proves.

Views are the LRU unit of the ``--max-resident-edges`` budget: each keyed
by its label set, evicted least-recently-used first (the view being built
is always kept, so a single over-budget query still runs).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterable

from repro.engine.cache import DEFAULT_CACHE, CompilationCache
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.graph.property_graph import PropertyGraph
from repro.regex.ast import symbols
from repro.storage.store import GraphStore


def query_labels(
    query: str,
    stored_labels: frozenset,
    *,
    cache: "CompilationCache | None" = None,
) -> frozenset:
    """The stored labels the compiled query can traverse.

    Works for RPQs and CRPQs (one automaton per atom).  Each regex is
    compiled over the full Remark 11 alphabet — stored labels plus query
    symbols — and the union of symbols appearing in any transition row is
    intersected with the stored labels.  A query whose alphabet misses
    every stored label yields the empty set (the view then has nodes but no
    edges, exactly what resident evaluation would traverse).
    """
    cache = cache if cache is not None else DEFAULT_CACHE
    if ":-" in query:
        from repro.crpq.ast import parse_crpq

        regexes = [atom.regex for atom in parse_crpq(query).atoms]
    else:
        regexes = [cache.parse(query)]
    needed: set = set()
    for regex in regexes:
        compiled = cache.compile(regex, stored_labels | symbols(regex))
        for row in compiled.delta.values():
            needed.update(row)
    return frozenset(needed) & stored_labels


class LazyGraphHandle:
    """A stored graph addressed by manifest, materialized by label segment.

    ``view(labels)`` returns a graph restricted to the requested label
    segments; ``materialize()`` upgrades to the fully-resident, journal-
    attached graph (required before mutating).  Both are thread-safe.
    """

    def __init__(
        self,
        store: GraphStore,
        name: str,
        *,
        max_resident_edges: "int | None" = None,
    ) -> None:
        self.store = store
        self.name = name
        self.max_resident_edges = max_resident_edges
        self._lock = threading.RLock()
        self._views: "OrderedDict[frozenset, EdgeLabeledGraph]" = OrderedDict()
        self._resident_edges = 0
        self._nodes: "list | None" = None
        self._full: "EdgeLabeledGraph | None" = None
        #: observability: segment-faulted view builds / cache hits
        self.view_builds = 0
        self.view_hits = 0
        info = store.graph_info(name)
        self.kind: str = info["kind"]
        self.version: int = info["version"]
        self.num_nodes: int = info["nodes"]
        self.num_edges: int = info["edges"]
        self.label_counts: dict = store.label_counts(name)
        self.labels: frozenset = frozenset(self.label_counts)

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    def info(self) -> dict:
        with self._lock:
            return {
                "name": self.name,
                "kind": self.kind,
                "nodes": self.num_nodes,
                "edges": self.num_edges,
                "labels": sorted(self.labels, key=repr),
                "version": self.version,
                "resident": self._full is not None,
                "resident_edges": self._resident_edges,
                "views": len(self._views),
            }

    @property
    def resident(self) -> bool:
        return self._full is not None

    # ------------------------------------------------------------------
    # faulting
    # ------------------------------------------------------------------
    def view(self, labels: Iterable) -> EdgeLabeledGraph:
        """A graph holding all nodes and exactly the edges of ``labels``.

        Once materialized, the full graph answers every view request (it is
        a superset and already paid for).
        """
        full = self._full
        if full is not None:
            return full
        key = frozenset(labels) & self.labels
        with self._lock:
            if self._full is not None:
                return self._full
            cached = self._views.get(key)
            if cached is not None:
                self._views.move_to_end(key)
                self.view_hits += 1
                return cached
            view = self._build_view(key)
            self.view_builds += 1
            self._views[key] = view
            self._resident_edges += view.num_edges
            self._evict()
            return view

    def materialize(self) -> EdgeLabeledGraph:
        """The fully-resident graph, write-through journal attached."""
        with self._lock:
            if self._full is None:
                graph = self.store.load_graph(self.name)
                self.store.attach(self.name, graph)
                self._full = graph
                # Segment views are strictly redundant now; free them.
                self._views.clear()
                self._resident_edges = graph.num_edges
            return self._full

    def _build_view(self, key: frozenset) -> EdgeLabeledGraph:
        is_property = self.kind == "property"
        view: EdgeLabeledGraph = PropertyGraph() if is_property else EdgeLabeledGraph()
        if self._nodes is None:
            self._nodes = self.store.read_nodes(self.name)
        for node, label, props in self._nodes:
            if is_property:
                view.add_node(node, label=label, properties=props)
            else:
                view.add_node(node)
        for label in sorted(key, key=repr):
            for edge, src, tgt, edge_label, props in self.store.read_segment(
                self.name, label
            ):
                if is_property:
                    view.add_edge(edge, src, tgt, edge_label, properties=props)
                else:
                    view.add_edge(edge, src, tgt, edge_label)
        # Wildcard coherence (Remark 11): the view must report the *stored*
        # label set so alphabet_for() compiles the identical automaton the
        # resident graph would get — same compile-cache key, same answers.
        view._labels_seen = set(self.labels)
        # Version coherence: answers computed from this view are answers of
        # the stored graph at its durable version; the answer cache keys on
        # it, so a restart (or a peer view) maps to the same entry.
        view._version = self.version
        return view

    def _evict(self) -> None:
        budget = self.max_resident_edges
        if budget is None:
            return
        while self._resident_edges > budget and len(self._views) > 1:
            _, evicted = self._views.popitem(last=False)
            self._resident_edges -= evicted.num_edges

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LazyGraphHandle {self.name!r} kind={self.kind} "
            f"labels={len(self.labels)} views={len(self._views)} "
            f"resident={self._full is not None}>"
        )
