"""Graph partitioning for the distributed tier: shard maps and subgraphs.

The scatter-gather product BFS (DESIGN.md §11) partitions a graph by
**source-node ownership**: every node is assigned to exactly one shard, and
a shard's subgraph holds *all* nodes but only the edges whose source it
owns.  Consequences the rest of the tier relies on:

* the shard edge sets **partition** the original edge multiset (every edge
  id appears in exactly one shard — the hypothesis invariant in
  ``tests/distributed/test_partition.py``);
* every shard can name any node (targets of its edges included), so a
  frontier entry can always be decoded locally and forwarded;
* a ``(node, state)`` product pair is *expanded* only by the shard owning
  ``node`` — the coordinator routes frontiers by :meth:`ShardMap.shard_of`.

**Stability.**  Shard maps are pure functions of the node ids (and, for the
edge-cut strategy, the adjacency) — never of ``hash()`` (salted per
process), never of interner ids or iteration order.  The same graph
produces the same map in the coordinator process and in every shard
process, and rebuilding the interner/CSR plane cannot move a node between
shards.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterable

from repro.graph.edge_labeled import EdgeLabeledGraph, ObjectId

#: The partitioning strategies :func:`make_shard_map` understands.
STRATEGIES = ("hash", "edge-cut")


def stable_hash(obj) -> int:
    """A process-stable 32-bit hash of any object with a stable ``repr``.

    Builtin ``hash`` is salted per interpreter (PYTHONHASHSEED), so it can
    never be used to agree on placement across the coordinator and shard
    processes; CRC-32 of the repr is stable, fast, and good enough to
    spread node ids evenly.
    """
    return zlib.crc32(repr(obj).encode("utf-8"))


class ShardMap:
    """An immutable node -> shard assignment for one graph.

    The map is keyed on node *objects* (ids), so it survives interner
    rebuilds, CSR invalidation, and process boundaries; it travels on the
    wire via :meth:`to_dict` / :meth:`from_dict`.
    """

    __slots__ = ("num_shards", "strategy", "_assignment")

    def __init__(
        self, num_shards: int, assignment: dict, strategy: str = "hash"
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        self.strategy = strategy
        self._assignment = dict(assignment)
        for node, shard in self._assignment.items():
            if not 0 <= shard < num_shards:
                raise ValueError(
                    f"node {node!r} assigned to shard {shard} "
                    f"outside 0..{num_shards - 1}"
                )

    def shard_of(self, node: ObjectId) -> int:
        """The shard owning ``node`` (raises KeyError for foreign nodes)."""
        return self._assignment[node]

    def owned_mask(self, shard: int, order: "list[ObjectId]") -> int:
        """A bitmask over ``order`` positions of the nodes ``shard`` owns.

        ``order`` is the shared node order of
        :func:`repro.distributed.frontier.node_order`; the mask is how
        ownership ships to shards inside a ``frontier_step`` request.
        """
        mask = 0
        assignment = self._assignment
        for index, node in enumerate(order):
            if assignment.get(node) == shard:
                mask |= 1 << index
        return mask

    def counts(self) -> list[int]:
        """Nodes per shard (balance diagnostics and tests)."""
        totals = [0] * self.num_shards
        for shard in self._assignment.values():
            totals[shard] += 1
        return totals

    def __len__(self) -> int:
        return len(self._assignment)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShardMap):
            return NotImplemented
        return (
            self.num_shards == other.num_shards
            and self._assignment == other._assignment
        )

    def __hash__(self):  # pragma: no cover - maps are not dict keys
        return NotImplemented

    def to_dict(self) -> dict:
        """A JSON-ready document (nodes sorted by repr for determinism)."""
        return {
            "num_shards": self.num_shards,
            "strategy": self.strategy,
            "assignment": [
                [node, shard]
                for node, shard in sorted(
                    self._assignment.items(), key=lambda item: repr(item[0])
                )
            ],
        }

    @classmethod
    def from_dict(cls, document: dict) -> "ShardMap":
        return cls(
            document["num_shards"],
            {node: shard for node, shard in document["assignment"]},
            document.get("strategy", "hash"),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardMap shards={self.num_shards} nodes={len(self._assignment)} "
            f"strategy={self.strategy}>"
        )


def hash_shard_map(
    nodes: "Iterable[ObjectId] | EdgeLabeledGraph", num_shards: int
) -> ShardMap:
    """Assign each node to ``stable_hash(node) % num_shards``.

    Stateless and adjacency-blind: any process can compute a node's owner
    from the id alone, which is what the coordinator's frontier routing
    does millions of times per query.
    """
    if isinstance(nodes, EdgeLabeledGraph):
        nodes = nodes.iter_nodes()
    return ShardMap(
        num_shards,
        {node: stable_hash(node) % num_shards for node in nodes},
        "hash",
    )


def edge_cut_shard_map(graph: EdgeLabeledGraph, num_shards: int) -> ShardMap:
    """A deterministic greedy edge-balancing assignment.

    Nodes are placed heaviest-first (by out-degree, ties broken by repr)
    onto the shard currently carrying the fewest edges — a streaming
    edge-cut heuristic that keeps *work* per shard balanced even when a few
    hub nodes dominate the edge count (hash placement balances node counts
    but can put two hubs on one shard).
    """
    ordered = sorted(
        graph.iter_nodes(), key=lambda node: (-graph.out_degree(node), repr(node))
    )
    load = [0] * num_shards
    assignment: dict = {}
    for node in ordered:
        shard = min(range(num_shards), key=lambda index: (load[index], index))
        assignment[node] = shard
        load[shard] += graph.out_degree(node)
    return ShardMap(num_shards, assignment, "edge-cut")


def make_shard_map(
    graph: EdgeLabeledGraph, num_shards: int, strategy: str = "hash"
) -> ShardMap:
    """Build a shard map with the named strategy (:data:`STRATEGIES`)."""
    if strategy == "hash":
        return hash_shard_map(graph, num_shards)
    if strategy == "edge-cut":
        return edge_cut_shard_map(graph, num_shards)
    raise ValueError(
        f"unknown partition strategy {strategy!r}; known: {STRATEGIES}"
    )


def partition_graph(
    graph: EdgeLabeledGraph, shard_map: ShardMap
) -> list[EdgeLabeledGraph]:
    """The per-shard subgraphs under source-node ownership.

    Each shard graph holds **every** node (so frontier targets always
    resolve) and exactly the edges whose *source* the shard owns.  The edge
    sets therefore partition the original edge multiset, and the union of
    the shard subgraphs reconstructs the input exactly.
    """
    shards = [EdgeLabeledGraph() for _ in range(shard_map.num_shards)]
    for shard in shards:
        for node in graph.iter_nodes():
            shard.add_node(node)
    for edge, src, tgt, label in graph.iter_edge_records():
        shards[shard_map.shard_of(src)].add_edge(edge, src, tgt, label)
    return shards
