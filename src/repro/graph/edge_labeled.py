"""Edge-labeled graphs (Definition 4 of the paper).

An edge-labeled graph is a tuple ``(N, E, src, tgt, lambda)`` where ``N`` is a
finite set of node identifiers, ``E`` a finite set of edge identifiers
(disjoint from ``N``), ``src`` and ``tgt`` are total functions from edges to
nodes, and ``lambda`` assigns a label to every edge.

Unlike RDF-style triple sets, edges are first-class citizens: two parallel
edges with the same label and endpoints are distinct objects (the paper's
t2 and t5 between a3 and a2 in Figure 2 are the canonical example).
"""

from __future__ import annotations

import enum
from collections.abc import Hashable, Iterable, Iterator
from itertools import islice

from repro.errors import DuplicateObjectError, UnknownObjectError

ObjectId = Hashable
Label = Hashable


class ObjectKind(enum.Enum):
    """Whether a graph object is a node or an edge.

    The paper calls nodes and edges collectively *objects* (GQL and SQL/PGQ
    call them *elements*); many semantics in Section 3.2 treat the two kinds
    symmetrically, so code frequently needs to branch on the kind.
    """

    NODE = "node"
    EDGE = "edge"


class EdgeLabeledGraph:
    """A finite directed multigraph with labeled, identifiable edges.

    Node and edge identifiers share a single namespace: an id cannot denote
    both a node and an edge.  This mirrors the paper's assumption that
    ``Nodes`` and ``Edges`` are disjoint and lets a :class:`Path` hold a flat
    sequence of object ids.

    The graph is mutable while being built (``add_node`` / ``add_edge``) and
    treated as read-only by every query engine in the library.
    """

    __slots__ = (
        "_nodes",
        "_edges",
        "_out",
        "_in",
        "_labels_seen",
        "_version",
        "_journal",
        "_engine_csr",
    )

    def __init__(self) -> None:
        self._nodes: set[ObjectId] = set()
        # edge id -> (src, tgt, label)
        self._edges: dict[ObjectId, tuple[ObjectId, ObjectId, Label]] = {}
        # adjacency: node -> list of outgoing / incoming edge ids
        self._out: dict[ObjectId, list[ObjectId]] = {}
        self._in: dict[ObjectId, list[ObjectId]] = {}
        self._labels_seen: set[Label] = set()
        # Monotone mutation counter; the engine's CSR snapshot records the
        # version it was taken at and catches up when it moves.  Every
        # mutating method must call _touch().
        self._version: int = 0
        # Optional mutation sink ``(op, payload, version) -> None`` installed
        # by the storage tier (GraphStore.attach) to journal in-place
        # mutations.  ``None`` for purely in-memory graphs; mutators must
        # emit exactly one record per observable state change.
        self._journal = None
        self._engine_csr = None

    # ------------------------------------------------------------------
    # mutation tracking
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Mutation counter: increases on every change to the graph."""
        return self._version

    def _touch(self) -> None:
        """Record a mutation by bumping the version.

        The CSR snapshot is kept: every mutator is append-only (nodes and
        edges are only ever added, ``_edges`` keeps insertion order), so
        :func:`repro.engine.csr.get_csr` catches a stale snapshot up from
        the records past its ``num_edges`` instead of rebuilding it, and an
        older snapshot's edge column still reads its own first ``num_edges``
        records.  A future non-additive mutator (remove, relabel) must reset
        ``_engine_csr`` itself.
        """
        self._version += 1

    def attach_journal(self, sink) -> None:
        """Install a mutation sink called as ``sink(op, payload, version)``.

        The storage tier uses this to capture in-place mutations for its
        append-only journal; the sink must be cheap (the hot mutation path
        pays for it) and must not mutate the graph.
        """
        self._journal = sink

    def detach_journal(self) -> None:
        self._journal = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: ObjectId) -> ObjectId:
        """Add a node; adding an existing node is a no-op.

        Raises :class:`DuplicateObjectError` if the id already names an edge.
        """
        if node in self._edges:
            raise DuplicateObjectError(f"{node!r} is already an edge id")
        if node not in self._nodes:
            self._nodes.add(node)
            self._out[node] = []
            self._in[node] = []
            self._touch()
            if self._journal is not None:
                self._journal("add_node", (node, None, None), self._version)
        return node

    def add_edge(
        self, edge: ObjectId, src: ObjectId, tgt: ObjectId, label: Label
    ) -> ObjectId:
        """Add a directed edge ``src -> tgt`` with the given label.

        Endpoint nodes are created on demand.  Edge ids must be fresh: the
        paper's model gives every edge its own identity, so re-adding an edge
        id (even with identical endpoints) raises
        :class:`DuplicateObjectError`.
        """
        if edge in self._edges or edge in self._nodes:
            raise DuplicateObjectError(f"object id {edge!r} already in use")
        self.add_node(src)
        self.add_node(tgt)
        self._edges[edge] = (src, tgt, label)
        self._out[src].append(edge)
        self._in[tgt].append(edge)
        self._labels_seen.add(label)
        self._touch()
        if self._journal is not None:
            self._journal("add_edge", (edge, src, tgt, label, None), self._version)
        return edge

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> frozenset[ObjectId]:
        """The node set ``N`` (as an immutable snapshot)."""
        return frozenset(self._nodes)

    @property
    def edges(self) -> frozenset[ObjectId]:
        """The edge set ``E`` (as an immutable snapshot)."""
        return frozenset(self._edges)

    def iter_nodes(self) -> Iterator[ObjectId]:
        """Iterate over node ids without copying the node set."""
        return iter(self._nodes)

    def iter_edges(self) -> Iterator[ObjectId]:
        """Iterate over edge ids without copying the edge set."""
        return iter(self._edges)

    def iter_edge_records(
        self, start: int = 0
    ) -> Iterator[tuple[ObjectId, ObjectId, ObjectId, Label]]:
        """Iterate ``(edge, src, tgt, label)`` records in insertion order.

        The engine's CSR snapshot (its rows and its edge column) and the
        pattern evaluators use this instead of per-edge ``endpoints``/
        ``label`` lookups.  ``start`` skips that many of the oldest records:
        edges are never removed, so the records from ``start`` on are
        exactly those added since the graph held ``start`` edges (what a CSR
        catch-up reads), and the first ``n`` records are those of the graph
        when it held ``n`` edges (what a snapshot's edge column reads).  The
        tail is reached from the dict's end, in O(records yielded), not
        O(``start``).
        """
        items = self._edges.items()
        if start:
            tail = list(islice(reversed(items), len(self._edges) - start))
            items = reversed(tail)
        for edge, (src, tgt, label) in items:
            yield (edge, src, tgt, label)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def labels(self) -> frozenset[Label]:
        """All edge labels that occur in the graph."""
        return frozenset(self._labels_seen)

    def has_node(self, obj: ObjectId) -> bool:
        return obj in self._nodes

    def has_edge(self, obj: ObjectId) -> bool:
        return obj in self._edges

    def has_object(self, obj: ObjectId) -> bool:
        return obj in self._nodes or obj in self._edges

    def kind(self, obj: ObjectId) -> ObjectKind:
        """Return whether ``obj`` is a node or an edge.

        Raises :class:`UnknownObjectError` for foreign ids.
        """
        if obj in self._nodes:
            return ObjectKind.NODE
        if obj in self._edges:
            return ObjectKind.EDGE
        raise UnknownObjectError(f"{obj!r} is not an object of this graph")

    def src(self, edge: ObjectId) -> ObjectId:
        """The source node of an edge (the total function ``src``)."""
        return self._edge_record(edge)[0]

    def tgt(self, edge: ObjectId) -> ObjectId:
        """The target node of an edge (the total function ``tgt``)."""
        return self._edge_record(edge)[1]

    def label(self, edge: ObjectId) -> Label:
        """The label of an edge (the total function ``lambda``)."""
        return self._edge_record(edge)[2]

    def endpoints(self, edge: ObjectId) -> tuple[ObjectId, ObjectId]:
        """``(src, tgt)`` of an edge in one lookup."""
        record = self._edge_record(edge)
        return record[0], record[1]

    def _edge_record(self, edge: ObjectId) -> tuple[ObjectId, ObjectId, Label]:
        try:
            return self._edges[edge]
        except KeyError:
            raise UnknownObjectError(f"{edge!r} is not an edge of this graph") from None

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------
    def out_edges(
        self, node: ObjectId, label: Label | None = None
    ) -> Iterator[ObjectId]:
        """Iterate over edges leaving ``node``, optionally filtered by label."""
        if node not in self._nodes:
            raise UnknownObjectError(f"{node!r} is not a node of this graph")
        for edge in self._out[node]:
            if label is None or self._edges[edge][2] == label:
                yield edge

    def in_edges(
        self, node: ObjectId, label: Label | None = None
    ) -> Iterator[ObjectId]:
        """Iterate over edges entering ``node``, optionally filtered by label."""
        if node not in self._nodes:
            raise UnknownObjectError(f"{node!r} is not a node of this graph")
        for edge in self._in[node]:
            if label is None or self._edges[edge][2] == label:
                yield edge

    def edges_between(
        self, src: ObjectId, tgt: ObjectId, label: Label | None = None
    ) -> Iterator[ObjectId]:
        """Iterate over (parallel) edges from ``src`` to ``tgt``."""
        for edge in self.out_edges(src, label):
            if self._edges[edge][1] == tgt:
                yield edge

    def successors(self, node: ObjectId, label: Label | None = None) -> set[ObjectId]:
        """The set of nodes reachable from ``node`` by one edge."""
        return {self._edges[e][1] for e in self.out_edges(node, label)}

    def predecessors(
        self, node: ObjectId, label: Label | None = None
    ) -> set[ObjectId]:
        """The set of nodes with an edge into ``node``."""
        return {self._edges[e][0] for e in self.in_edges(node, label)}

    def out_degree(self, node: ObjectId) -> int:
        if node not in self._nodes:
            raise UnknownObjectError(f"{node!r} is not a node of this graph")
        return len(self._out[node])

    def in_degree(self, node: ObjectId) -> int:
        if node not in self._nodes:
            raise UnknownObjectError(f"{node!r} is not a node of this graph")
        return len(self._in[node])

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def path(self, *objects: ObjectId):
        """Build a validated :class:`~repro.graph.paths.Path` in this graph.

        ``graph.path()`` is the empty path; ``graph.path("a1", "t1", "a3")``
        is the node-to-node path of Example 10.
        """
        from repro.graph.paths import Path

        return Path(self, tuple(objects))

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def triples(self) -> Iterator[tuple[ObjectId, Label, ObjectId]]:
        """Iterate ``(src, label, tgt)`` triples — the classical RDF-ish view.

        Parallel same-labeled edges yield duplicate triples, which is exactly
        the information the triple view loses (Section 2 of the paper).
        """
        for src, tgt, label in self._edges.values():
            yield (src, label, tgt)

    def subgraph_by_labels(self, labels: Iterable[Label]) -> "EdgeLabeledGraph":
        """A new graph keeping all nodes but only edges with a label in ``labels``."""
        keep = set(labels)
        sub = EdgeLabeledGraph()
        for node in self._nodes:
            sub.add_node(node)
        for edge, (src, tgt, label) in self._edges.items():
            if label in keep:
                sub.add_edge(edge, src, tgt, label)
        return sub

    def reversed_copy(self) -> "EdgeLabeledGraph":
        """A new edge-labeled graph with every edge direction flipped.

        Edge ids and labels are preserved.  Property graphs also come back
        as plain edge-labeled graphs: this view exists for automata-style
        backward traversal, which only needs ``lambda|_E``.
        """
        flipped = EdgeLabeledGraph()
        for node in self._nodes:
            flipped.add_node(node)
        for edge, (src, tgt, label) in self._edges.items():
            flipped.add_edge(edge, tgt, src, label)
        return flipped

    def __contains__(self, obj: ObjectId) -> bool:
        return self.has_object(obj)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} nodes={len(self._nodes)} "
            f"edges={len(self._edges)} labels={len(self._labels_seen)}>"
        )
