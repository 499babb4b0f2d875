"""Flat int-encoded CSR adjacency, label-partitioned, forward and reversed.

This is the one adjacency structure every op reads: *"edges leaving u
with label a"* is one list index and an ``array('i')`` slice —

``out_rows[label_int] = (offsets, targets)`` where the targets of node
``u`` (as a dense int from :class:`~repro.engine.intern.Interner`) occupy
``targets[offsets[u] : offsets[u + 1]]``.

Layout notes:

* one ``(offsets, targets)`` pair per label and direction, built by a
  counting sort over the edge records (O(|E| + |labels|·|N|), no numpy);
  the reversed direction is packed from the forward one when first asked
  for — by :func:`repro.engine.kernel.evaluate_sweep_backward`, which is
  how a CRPQ atom with a bound right term runs, or a backward
  :func:`repro.engine.kernel.reachable`;
* per label, a *column* ``{target: mask of its sources}`` is packed from
  the forward rows on first use (:meth:`CSRGraph.label_column`): it is the
  first step of every all-sources sweep, done once per snapshot instead
  of once per query;
* parallel edges are preserved — the rows store one entry per *edge*, in
  insertion order within a node's run;
* edge ids live in a column beside the forward rows, packed on first use
  (:meth:`CSRGraph.edge_rows`): the relation kernels never need them, the
  evaluators whose answers *name edges* do — the product graph behind
  every path mode (product edges are ``(edge, transition)`` pairs) and GQL
  edge patterns (the variable binds to the edge);
* the snapshot is immutable and version-stamped; :func:`get_csr` caches it
  on the graph and checks it against ``graph.version`` on every call, so a
  stale snapshot is never served;
* a write does not discard the snapshot.  Graph mutators are append-only,
  so :meth:`CSRGraph.caught_up` derives the snapshot of the current version
  from a stale one and the edge records added since: a *new*
  :class:`CSRGraph` that re-packs the rows of the labels those edges carry
  and shares every other label's arrays with its predecessor (copy on
  write; no array of a snapshot already handed out is ever written).

The module also hosts the bytearray bitset helpers the flat kernel loops
inline: packed ``(node_int << k) | state_int`` codes index into a bitset of
``num_nodes << k`` bits, the visited set of the single-source BFS.
"""

from __future__ import annotations

import sys
from array import array
from itertools import islice

from repro.engine.intern import Interner
from repro.graph.edge_labeled import EdgeLabeledGraph


def _pack_rows(keys: array, values: array, num_nodes: int):
    """Counting-sort ``(keys[i] -> values[i])`` pairs into one CSR row pair.

    Returns ``(offsets, targets)`` with ``targets[offsets[k]:offsets[k+1]]``
    holding every value whose key is ``k`` (input order preserved within a
    key, so the row order is deterministic for a fixed build order).
    """
    counts = [0] * (num_nodes + 1)
    for key in keys:
        counts[key + 1] += 1
    for index in range(1, num_nodes + 1):
        counts[index] += counts[index - 1]
    offsets = array("i", counts)
    cursor = counts[:num_nodes]
    targets = array("i", bytes(len(values) * values.itemsize))
    for key, value in zip(keys, values):
        at = cursor[key]
        targets[at] = value
        cursor[key] = at + 1
    return offsets, targets


def _lane_sum(run: array, addend: bytes) -> array:
    """``run`` plus ``addend`` (the raw items of an equally long array), element-wise.

    ``array`` has no element-wise arithmetic, and a Python-level loop over
    the |N| offsets of every touched row is what a catch-up would otherwise
    spend its time in.  Read as one big integer, an array is a vector of
    fixed-width lanes, and one integer addition adds lane to lane.  No lane
    carries into its neighbour here: the sums are offsets into a targets
    array, non-negative and within the signed item, so each fits its lane.
    """
    total = int.from_bytes(run.tobytes(), sys.byteorder) + int.from_bytes(
        addend, sys.byteorder
    )
    return array(run.typecode, total.to_bytes(len(addend), sys.byteorder))


def _splice_rows(row, added: "dict[int, list[int]]", num_nodes: int):
    """``row`` with ``added[key]`` appended to each key's run; ``row`` is only read.

    Every added value lands at the end of its key's run, which is where
    :func:`_pack_rows` puts it when the added pairs follow the old ones in
    its input.  ``row`` may be narrower than ``num_nodes`` (nodes added
    since it was packed have empty runs).  Arrays that do not change are
    shared with ``row``; arrays that change are new.
    """
    offsets, targets = row
    missing = num_nodes + 1 - len(offsets)
    if missing:
        offsets = offsets + offsets[-1:] * missing
    if not added:
        return (offsets, targets) if missing else row
    ordered = sorted(added)
    # Offsets up to the first touched key stand; each later one grows by the
    # number of values added at smaller keys, a step function of the node.
    new_targets = array("i")
    steps = bytearray()
    cut = 0  # targets[:cut] are copied so far
    shift = 0
    for key, next_key in zip(ordered, ordered[1:] + [num_nodes]):
        end = offsets[key + 1]
        new_targets.extend(targets[cut:end])
        new_targets.extend(added[key])
        cut = end
        shift += len(added[key])
        steps += array("i", [shift]).tobytes() * (next_key - key)
    new_targets.extend(targets[cut:])
    first = ordered[0] + 1
    return offsets[:first] + _lane_sum(offsets[first:], steps), new_targets


class CSRGraph:
    """An immutable int-encoded adjacency snapshot of one graph version.

    ``out_rows``/``in_rows`` are lists indexed by label int; each entry is
    an ``(offsets, targets)`` pair of ``array('i')`` rows.  Every label the
    interner knows has a row (labels exist only because some edge carries
    them), and every node int indexes validly into every ``offsets`` row.

    Sweeps and forward searches read ``out_rows``, so that is what a build
    and a catch-up maintain.  Five slots hold what is derived from this
    snapshot alone, on first use, and go when a write replaces it:
    ``in_rows`` (backward searches), ``edge_rows`` (edge ids, for the
    evaluators that return edges) and the per-label ``label_column``
    (origin masks that seed an all-sources sweep, kept with their bit
    totals) here, and two that other
    modules fill:
    ``shard_numbering``, the node numbering a partitioned graph's processes
    share (:mod:`repro.distributed.frontier`), and ``label_statistics``, the
    planner's per-label counts (:mod:`repro.engine.cardinality`).  Two
    threads racing to derive one compute equal values and publish with one
    assignment.
    """

    __slots__ = (
        "version", "interner", "num_nodes", "num_edges", "out_rows", "_in_rows",
        "_edge_rows", "_label_columns", "shard_numbering", "label_statistics",
    )

    def __init__(self, graph: EdgeLabeledGraph, interner: "Interner | None" = None):
        if interner is None:
            interner = Interner(graph)
        self.interner = interner
        self.version = graph.version
        self.num_nodes = interner.num_nodes
        self.num_edges = graph.num_edges
        num_labels = interner.num_labels
        srcs = [array("i") for _ in range(num_labels)]
        tgts = [array("i") for _ in range(num_labels)]
        node_ids = interner._node_ids
        label_ids = interner._label_ids
        for _edge, src, tgt, label in graph.iter_edge_records():
            label_int = label_ids[label]
            srcs[label_int].append(node_ids[src])
            tgts[label_int].append(node_ids[tgt])
        n = self.num_nodes
        self.out_rows = [
            _pack_rows(srcs[li], tgts[li], n) for li in range(num_labels)
        ]
        self._in_rows = None
        self._edge_rows = None
        self._label_columns = [None] * num_labels
        self.shard_numbering = None
        self.label_statistics = None

    def caught_up(self, graph: EdgeLabeledGraph) -> "CSRGraph":
        """The snapshot of ``graph``'s current version, derived from this one.

        ``self`` must be a snapshot of an earlier version of the same
        graph.  The graph only grows, so the difference is the edge records
        past ``self.num_edges`` plus the nodes and labels the interner has
        not seen; they get the next free ids, in the order they were added
        to the graph.  Cost is O(|N|) per label the new edges carry (a copy
        and one big-integer addition), nothing per old edge, and a write
        that adds no edge (``set_property``) only re-stamps the version.
        ``self`` stays valid for its own version.
        """
        version = graph.version
        delta = list(graph.iter_edge_records(self.num_edges))
        old = self.interner
        new_nodes = (
            [node for node in graph.iter_nodes() if node not in old._node_ids]
            if graph.num_nodes > old.num_nodes
            else []
        )
        new_labels = list(
            dict.fromkeys(
                label for _e, _s, _t, label in delta if label not in old._label_ids
            )
        )
        interner = old.extended(version, new_nodes, new_labels)
        node_ids = interner._node_ids
        label_ids = interner._label_ids
        added: dict[int, dict[int, list[int]]] = {}  # label -> source -> targets
        for _edge, src, tgt, label in delta:
            runs = added.setdefault(label_ids[label], {})
            runs.setdefault(node_ids[src], []).append(node_ids[tgt])
        n = interner.num_nodes
        unseen = (array("i", [0]), array("i"))  # the row of a brand-new label
        caught = object.__new__(CSRGraph)
        caught.interner = interner
        caught.version = version
        caught.num_nodes = n
        caught.num_edges = self.num_edges + len(delta)
        caught.out_rows = [
            _splice_rows(row, added.get(li), n)
            for li, row in enumerate(self.out_rows + [unseen] * len(new_labels))
        ]
        caught._in_rows = None
        caught._edge_rows = None
        caught._label_columns = [None] * len(caught.out_rows)
        caught.shard_numbering = None
        caught.label_statistics = None
        return caught

    @property
    def in_rows(self) -> list:
        """The reversed rows: ``in_rows[label][node]`` runs hold the sources
        of the edges into ``node``.  Packed from ``out_rows`` on first use
        and kept."""
        if self._in_rows is None:
            n = self.num_nodes
            rows = []
            for offsets, targets in self.out_rows:
                sources = array("i")
                for node in range(n):
                    sources.extend([node] * (offsets[node + 1] - offsets[node]))
                rows.append(_pack_rows(targets, sources, n))
            self._in_rows = rows
        return self._in_rows

    def label_column(self, label_int: int) -> dict:
        """``{target: mask}`` for one label: bit ``v`` of ``mask`` is set when
        an edge ``v --label--> target`` exists.

        This is what an all-sources sweep's first step computes, seed code by
        seed code, when bit ``v`` stands for node ``v``: the origin masks
        the label's edges carry out of the seeds.  Targets appear in the
        order a seed-by-seed step first reaches them (sources ascending,
        each source's run in row order).  Packed from ``out_rows`` on first
        use, per label, and kept with its bit total (:meth:`column_rows`).
        The dict is this snapshot's: a reader copies it before changing it.
        """
        packed = self._label_columns[label_int]
        if packed is None:
            offsets, targets = self.out_rows[label_int]
            column = {}
            get = column.get
            for node in range(self.num_nodes):
                lo = offsets[node]
                hi = offsets[node + 1]
                if lo == hi:
                    continue
                bit = 1 << node
                for target in targets[lo:hi]:
                    column[target] = get(target, 0) | bit
            packed = column, sum(mask.bit_count() for mask in column.values())
            self._label_columns[label_int] = packed
        return packed[0]

    def column_rows(self, label_int: int) -> int:
        """The bit total of :meth:`label_column`: how many distinct
        ``(source, target)`` pairs the label's edges join."""
        self.label_column(label_int)
        return self._label_columns[label_int][1]

    def edge_rows(self, graph: EdgeLabeledGraph) -> tuple:
        """``(edges, ordinals)``: the edge ids behind the forward rows.

        ``ordinals[label]`` runs parallel to ``out_rows[label]``'s targets,
        and ``edges[ordinals[label][k]]`` is the edge whose target is
        ``targets[k]``.  ``graph`` is the graph this snapshot was taken of,
        at this or any later version: edges are only ever appended, so its
        first ``num_edges`` records are exactly this snapshot's edges, and a
        run lists them in insertion order, as the rows do.  Packed on first
        use and kept; relation queries never ask for it.
        """
        if self._edge_rows is None:
            num_labels = self.interner.num_labels
            srcs = [array("i") for _ in range(num_labels)]
            ordinals = [array("i") for _ in range(num_labels)]
            node_ids = self.interner._node_ids
            label_ids = self.interner._label_ids
            edges = []
            records = islice(graph.iter_edge_records(), self.num_edges)
            for ordinal, (edge, src, _tgt, label) in enumerate(records):
                edges.append(edge)
                label_int = label_ids[label]
                srcs[label_int].append(node_ids[src])
                ordinals[label_int].append(ordinal)
            n = self.num_nodes
            self._edge_rows = edges, [
                _pack_rows(srcs[li], ordinals[li], n)[1] for li in range(num_labels)
            ]
        return self._edge_rows

    # ------------------------------------------------------------------
    # lookups (tests and cold paths; hot loops index the rows directly)
    # ------------------------------------------------------------------
    def out_targets(self, node_int: int, label_int: int) -> array:
        """Target node ints of edges ``node --label--> *`` (with multiplicity)."""
        offsets, targets = self.out_rows[label_int]
        return targets[offsets[node_int] : offsets[node_int + 1]]

    def in_sources(self, node_int: int, label_int: int) -> array:
        """Source node ints of edges ``* --label--> node`` (with multiplicity)."""
        offsets, sources = self.in_rows[label_int]
        return sources[offsets[node_int] : offsets[node_int + 1]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CSRGraph version={self.version} nodes={self.num_nodes} "
            f"edges={self.num_edges} labels={self.interner.num_labels}>"
        )


def get_csr(graph: EdgeLabeledGraph, stats=None) -> CSRGraph:
    """The current :class:`CSRGraph` of ``graph`` (cached per version).

    The snapshot is stored on the graph and survives mutation; a CSR of a
    prior version is never served, it is caught up to ``graph.version``
    first (``tests/engine/test_csr.py`` locks the mutate-between-queries
    scenario in).  Counters: ``csr_reuses`` for a current snapshot,
    ``csr_builds`` for a full build (the first call), ``csr_patches`` for
    a catch-up.
    """
    csr = graph._engine_csr
    if csr is not None and csr.version == graph.version:
        if stats is not None:
            stats.count("csr_reuses")
        return csr
    if csr is None:
        csr = CSRGraph(graph)
        counter = "csr_builds"
    else:
        csr = csr.caught_up(graph)
        counter = "csr_patches"
    graph._engine_csr = csr
    if stats is not None:
        stats.count(counter)
    return csr


# ----------------------------------------------------------------------
# bytearray bitsets over packed (node << k) | state codes
# ----------------------------------------------------------------------
def bitset_make(num_bits: int) -> bytearray:
    """A zeroed bitset able to hold ``num_bits`` bits."""
    return bytearray((num_bits + 7) >> 3)


def bitset_test(bits: bytearray, index: int) -> bool:
    return bool(bits[index >> 3] & (1 << (index & 7)))


def bitset_set(bits: bytearray, index: int) -> bool:
    """Set bit ``index``; True when it was newly set (hot loops inline this)."""
    byte = bits[index >> 3]
    mask = 1 << (index & 7)
    if byte & mask:
        return False
    bits[index >> 3] = byte | mask
    return True


def bitset_count(bits: bytearray) -> int:
    return sum(byte.bit_count() for byte in bits)


def bitset_indices(bits: bytearray):
    """Iterate the set bit positions in increasing order (decode helper)."""
    for position, byte in enumerate(bits):
        while byte:
            low = byte & -byte
            yield (position << 3) | (low.bit_length() - 1)
            byte ^= low
