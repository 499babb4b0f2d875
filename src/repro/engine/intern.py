"""Node/label interning: hashable object ids -> dense ints, per graph version.

The flat CSR data plane (:mod:`repro.engine.csr`) and the int-space kernel
loops need every node and every edge label mapped onto ``0..n-1`` so that
adjacency can live in ``array('i')`` rows and a product state can be packed
into a single machine int.  The :class:`Interner` is that mapping, built in
one pass and frozen:

* **dense** — node ids cover exactly ``0..num_nodes-1`` and label ids
  ``0..num_labels-1`` with no holes (property-tested);
* **stable per version, whatever the hash seed** — nodes are numbered in
  the order they were added to the graph (its ``iter_nodes`` order) and
  labels in ``repr`` order, never in the iteration order of a set (which
  follows ``PYTHONHASHSEED``), so two interners built from the same
  unmutated graph assign identical ids in any process, a rebuilt CSR or
  transition table is bit-identical, and the order a relation decodes in
  — and with it which rows a ``max_rows`` partial keeps — is a function
  of the graph;
* **append-only across versions** — graphs only grow, so the interner of a
  later version is :meth:`Interner.extended` from the earlier one: old ids
  keep their meaning, new nodes and labels take the next free ids, and the
  earlier interner is never written (a table that grows is copied first);
* **one uid per label numbering** — consumers (the per-``CompiledQuery``
  int transition tables) key on the process-unique ``uid``.  A lowered
  table depends on the label ids only, so ``extended`` keeps the uid while
  the label set is unchanged and mints a new one when a label is added: a
  table built over another label numbering can never be resurrected.

Interners are cached on the graph *inside* the CSR snapshot (one slot, kept
current by :func:`repro.engine.csr.get_csr`); :func:`get_interner` is the
convenience accessor.
"""

from __future__ import annotations

import itertools

from repro.graph.edge_labeled import EdgeLabeledGraph, Label, ObjectId

#: Process-wide monotone interner ids (uniqueness is all that matters).
_UIDS = itertools.count(1)


class Interner:
    """A frozen two-way node/label <-> dense-int mapping for one graph version."""

    __slots__ = (
        "version",
        "uid",
        "num_nodes",
        "num_labels",
        "_node_ids",
        "_nodes",
        "_label_ids",
        "_labels",
    )

    def __init__(self, graph: EdgeLabeledGraph):
        self.version = graph.version
        self.uid = next(_UIDS)
        self._nodes: list[ObjectId] = list(graph.iter_nodes())
        self._node_ids: dict[ObjectId, int] = {
            node: index for index, node in enumerate(self._nodes)
        }
        self._labels: list[Label] = sorted(graph.labels, key=repr)
        self._label_ids: dict[Label, int] = {
            label: index for index, label in enumerate(self._labels)
        }
        self.num_nodes = len(self._nodes)
        self.num_labels = len(self._labels)

    def extended(self, version: int, nodes: list, labels: list) -> "Interner":
        """A new interner for a later ``version`` of the same graph.

        ``nodes`` and ``labels`` (unknown to this interner, no duplicates)
        are appended at ids ``num_nodes..`` and ``num_labels..``.  This
        interner is left untouched: tables that do not grow are shared with
        the result, tables that grow are copied.
        """
        grown = object.__new__(Interner)
        grown.version = version
        grown.uid = next(_UIDS) if labels else self.uid
        grown._nodes, grown._node_ids = _appended(self._nodes, self._node_ids, nodes)
        grown._labels, grown._label_ids = _appended(
            self._labels, self._label_ids, labels
        )
        grown.num_nodes = len(grown._nodes)
        grown.num_labels = len(grown._labels)
        return grown

    # ------------------------------------------------------------------
    # interning (object -> int)
    # ------------------------------------------------------------------
    def node_id(self, node: ObjectId) -> "int | None":
        """The dense int of ``node``, or ``None`` for foreign objects."""
        return self._node_ids.get(node)

    def label_id(self, label: Label) -> "int | None":
        """The dense int of ``label``, or ``None`` when the graph has no
        edge carrying it (query-only symbols resolve to ``None`` and the
        kernel simply skips those transitions — zero matching edges)."""
        return self._label_ids.get(label)

    # ------------------------------------------------------------------
    # resolving (int -> object)
    # ------------------------------------------------------------------
    def node(self, index: int) -> ObjectId:
        """The node object a dense int denotes (the inverse of ``node_id``)."""
        return self._nodes[index]

    def label(self, index: int) -> Label:
        return self._labels[index]

    @property
    def nodes(self) -> list:
        """All nodes in id order (``nodes[i]`` has id ``i``) — a direct
        reference for hot decode loops; treat as read-only."""
        return self._nodes

    @property
    def labels(self) -> list:
        """All labels in id order (read-only, like :attr:`nodes`)."""
        return self._labels

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Interner uid={self.uid} version={self.version} "
            f"nodes={self.num_nodes} labels={self.num_labels}>"
        )


def _appended(objects: list, ids: dict, new: list) -> "tuple[list, dict]":
    """``(objects, ids)`` with ``new`` given the next ids; shared when empty."""
    if not new:
        return objects, ids
    ids = dict(ids)
    for index, obj in enumerate(new, len(objects)):
        ids[obj] = index
    return objects + new, ids


def get_interner(graph: EdgeLabeledGraph, stats=None) -> Interner:
    """The current interner of ``graph`` (cached with the CSR snapshot)."""
    from repro.engine.csr import get_csr

    return get_csr(graph, stats).interner
