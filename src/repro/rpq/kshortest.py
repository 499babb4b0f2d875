"""k shortest matching paths (Section 7.1, "Eppstein's data structure").

The paper suggests looking at k-shortest-path enumeration for RPQ results.
We implement the classical deviation approach (Yen's algorithm, loopless
variants relaxed to allow walks) directly *on the product graph*: the i-th
shortest matching path of an RPQ from ``u`` to ``v`` is the projection of
the i-th shortest ``(u, q0)``-to-accepting path in ``G x A``.

Because an ambiguous automaton can represent one graph path by several
product paths, candidates are deduplicated on their projection before being
counted towards ``k``.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterator

from repro.graph.edge_labeled import EdgeLabeledGraph, ObjectId
from repro.graph.paths import Path
from repro.pmr.enumerate import _sorted_steps
from repro.rpq.evaluation import compile_for_graph
from repro.rpq.product_graph import build_product


def _shortest_product_path(
    steps,
    start_nodes,
    targets: frozenset,
    banned_edges: set,
    banned_nodes: set,
    forced_prefix: tuple | None = None,
) -> tuple | None:
    """One shortest path (as an alternating node/edge tuple) by BFS.

    Deterministic: ``steps(node)`` lists a node's ``(edge, successor)``
    pairs in ``repr`` order of the edges, so ties break stably.
    ``forced_prefix`` (a path tuple) fixes the beginning; the search
    continues from its last node.
    """
    if forced_prefix is not None:
        frontier = deque([forced_prefix])
        seen = {forced_prefix[-1]}
    else:
        starts = [node for node in start_nodes if node not in banned_nodes]
        frontier = deque((node,) for node in sorted(starts, key=repr))
        seen = set(starts)
    while frontier:
        path = frontier.popleft()
        node = path[-1]
        if node in targets:
            return path
        for edge, successor in steps(node):
            if edge in banned_edges or successor in banned_nodes:
                continue
            if successor in seen:
                continue
            seen.add(successor)
            frontier.append(path + (edge, successor))
    return None


def k_shortest_matching_paths(
    query,
    graph: EdgeLabeledGraph,
    source: ObjectId,
    target: ObjectId,
    k: int,
) -> Iterator[Path]:
    """Yield up to ``k`` distinct matching paths in non-decreasing length.

    Yen's deviation scheme over the trimmed product graph.  The enumeration
    is loopless *in the product*, i.e. it ranges over product-simple paths;
    that covers all matching paths whose (graph node, automaton state) pairs
    do not repeat — the natural product analogue of simple paths.
    """
    if k <= 0:
        return
    nfa = compile_for_graph(query, graph) if not hasattr(query, "initial") else query
    product = build_product(graph, nfa, sources=[source], targets=[target]).trim()
    if not product.targets:
        return
    steps = _sorted_steps(product.inner)
    first = _shortest_product_path(
        steps, product.sources, product.targets, set(), set()
    )
    if first is None:
        return

    accepted: list[tuple] = [first]
    emitted_projections = {product.project_objects(first)}
    yield next(iter(emitted_projections))
    candidates: list[tuple[int, tuple]] = []
    candidate_set: set[tuple] = set()

    while len(emitted_projections) < k:
        previous = accepted[-1]
        previous_nodes = previous[::2]
        for spur_index in range(len(previous_nodes) - 1):
            spur_node = previous_nodes[spur_index]
            root = previous[: 2 * spur_index + 1]
            banned_edges: set = set()
            for path in accepted:
                if path[: 2 * spur_index + 1] == root and len(path) > len(root):
                    banned_edges.add(path[2 * spur_index + 1])
            banned_nodes = set(previous_nodes[:spur_index])
            spur = _shortest_product_path(
                steps,
                [spur_node],
                product.targets,
                banned_edges,
                banned_nodes,
                forced_prefix=(spur_node,),
            )
            if spur is None:
                continue
            candidate = root[:-1] + spur
            if candidate not in candidate_set and candidate not in set(accepted):
                candidate_set.add(candidate)
                heapq.heappush(
                    candidates, (len(candidate) // 2, repr(candidate), candidate)
                )
        if not candidates:
            return
        _, _, best = heapq.heappop(candidates)
        candidate_set.discard(best)
        accepted.append(best)
        projection = product.project_objects(best)
        if projection not in emitted_projections:
            emitted_projections.add(projection)
            yield projection
