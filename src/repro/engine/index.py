"""Per-graph label-indexed adjacency *with edge ids*.

Relation queries (RPQ, CRPQ, the batch executor, the planner's statistics)
run on the int-encoded CSR snapshot of :mod:`repro.engine.csr` and never
build this index.  The CSR deliberately stores no edge ids — a relation is
node pairs — so the two evaluators whose answers *name edges* keep a
dict-of-dicts index that does: ``rpq/product_graph.py`` (product edges are
``(edge, transition)`` pairs, the input of every path mode) and
``gql/semantics.py`` (an edge pattern binds its variable to the edge).

The product asks *"which edges leave node ``u`` with label ``a``?"*.  The
seed evaluator answers it by scanning every outgoing edge of ``u`` and
comparing labels — O(out-degree) per automaton transition.  The
:class:`GraphIndex` answers it in one dict lookup, ``out_edges``:

``label -> (src -> ((edge, tgt), ...))``

The pattern evaluator asks for every edge of a label (GQL edge patterns
filter by label before anything else): ``edges_with_label``, a flat
``label -> ((edge, src, tgt), ...)`` listing.

Indexes are built **lazily** — the first call on a graph pays the single
O(|E|) build — and **invalidated on mutation** via the graph's monotone
``version`` counter (every ``add_node``/``add_edge``/property mutation bumps
it).  :func:`get_index` returns the cached index while the version matches
and transparently rebuilds otherwise, so callers never see stale adjacency.
"""

from __future__ import annotations

from repro.graph.edge_labeled import EdgeLabeledGraph, Label, ObjectId

_EMPTY: tuple = ()


class GraphIndex:
    """An immutable label-first adjacency snapshot of one graph version."""

    __slots__ = ("version", "num_edges", "_out", "_by_label")

    def __init__(self, graph: EdgeLabeledGraph):
        self.version = graph.version
        self.num_edges = graph.num_edges
        out: dict[Label, dict[ObjectId, list]] = {}
        by_label: dict[Label, list] = {}
        for edge, src, tgt, label in graph.iter_edge_records():
            out.setdefault(label, {}).setdefault(src, []).append((edge, tgt))
            by_label.setdefault(label, []).append((edge, src, tgt))
        # Freeze the buckets: tuples are lighter to iterate and make the
        # snapshot safely shareable between concurrent evaluations.
        self._out = {
            label: {src: tuple(bucket) for src, bucket in per_src.items()}
            for label, per_src in out.items()
        }
        self._by_label = {label: tuple(bucket) for label, bucket in by_label.items()}

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def out_edges(self, node: ObjectId, label: Label) -> tuple:
        """``((edge, tgt), ...)`` for edges ``node --label--> tgt``."""
        per_src = self._out.get(label)
        if per_src is None:
            return _EMPTY
        return per_src.get(node, _EMPTY)

    def edges_with_label(self, label: Label) -> tuple:
        """``((edge, src, tgt), ...)`` for every edge carrying ``label``."""
        return self._by_label.get(label, _EMPTY)

    @property
    def labels(self) -> frozenset[Label]:
        return frozenset(self._by_label)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GraphIndex version={self.version} labels={len(self._by_label)} "
            f"edges={self.num_edges}>"
        )


def get_index(graph: EdgeLabeledGraph, stats=None) -> GraphIndex:
    """The current :class:`GraphIndex` of ``graph`` (cached per version).

    The index is stored on the graph itself (cleared by ``_touch()`` on
    mutation); the version check is belt-and-braces so that even an index
    smuggled across a mutation is never served stale.
    """
    index = graph._engine_index
    if index is not None and index.version == graph.version:
        if stats is not None:
            stats.count("index_reuses")
        return index
    index = GraphIndex(graph)
    graph._engine_index = index
    if stats is not None:
        stats.count("index_builds")
    return index
