"""The product graph ``G x A`` (Section 6.2).

Following the paper verbatim: for an edge-labeled graph ``G`` and an NFA
``A = (Q, Sigma, delta, q0, F)``,

* product nodes are pairs ``(u, q)`` of a graph node and a state;
* product edges are pairs ``(e, (q1, a, q2))`` of a graph edge and a
  transition with ``lambda(e) = a``;
* ``src((e, t)) = (src(e), q1)`` and ``tgt((e, t)) = (tgt(e), q2)``.

Every path in the product projects (via the first components) to a path in
``G`` of the same length whose label word drives ``A`` from the first
state to the last; testing whether ``(u, v)`` answers the RPQ becomes plain
reachability from ``(u, q0)`` to ``(v, f)`` with ``f`` accepting.

The product *is* a PMR of ``G`` (Section 6.4; see
:mod:`repro.pmr.representation`): gamma is the first-component projection,
so trimming, the cycle test and every path-mode search are the PMR
package's, not copies kept here.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable

from repro.graph.edge_labeled import EdgeLabeledGraph, Label, ObjectId
from repro.automata.nfa import NFA
from repro.engine.csr import get_csr
from repro.pmr.ops import is_finite, trim
from repro.pmr.representation import PMR, PROJECTION


class ProductGraph(PMR):
    """A materialized product graph with its designated source/target nodes.

    ``sources`` are the ``(u, q0)`` nodes and ``targets`` the ``(v, f)``
    nodes with ``f`` accepting.  Built only by :func:`build_product`, whose
    edges commute with the projection by construction, so it is never
    re-validated.
    """

    __slots__ = ()

    @property
    def graph(self) -> EdgeLabeledGraph:
        """The product itself, as an edge-labeled graph (the PMR's ``inner``)."""
        return self.inner

    def trim(self) -> "ProductGraph":
        """Restrict to nodes reachable from a source and co-reachable from a
        target (the useful part for query answering)."""
        return trim(self)

    def has_accepting_cycle_path(self) -> bool:
        """Whether the useful part contains a cycle — i.e. whether the set of
        source-to-target matching paths is infinite (Section 6.3)."""
        return not is_finite(self)


def build_product(
    graph: EdgeLabeledGraph,
    nfa: NFA,
    sources: Iterable[ObjectId] | None = None,
    targets: Iterable[ObjectId] | None = None,
    *,
    stats=None,
    budget=None,
    label_of: Callable[[object], Label] | None = None,
) -> ProductGraph:
    """Materialize the product of a graph and an NFA.

    ``sources``/``targets`` restrict which graph nodes count as start/end
    points (defaults: all nodes).  Only the part of the product forward-
    reachable from the sources is materialized, which keeps the common
    single-source case small.

    The traversal reads successor edges off the CSR snapshot's rows and edge
    column (:meth:`~repro.engine.csr.CSRGraph.edge_rows`); it builds the
    product :func:`repro.reference.product` builds from linear ``out_edges``
    scans (possibly in a different edge insertion order).  A ``budget`` is
    ticked once per expanded product node (materialization is polynomial,
    but on a large graph it can dominate a timed-out query's wall clock).

    ``label_of`` is internal: the edge label a transition symbol matches.
    Symbols of an NFA over labels match themselves (the default); the capture
    atoms of :func:`repro.listvars.compile.compile_lrpq` match by their
    ``label`` field.  The symbol, not the label, goes into the product edge.
    """
    started = time.perf_counter()
    tick = budget.tick if budget is not None else None
    source_nodes = set(sources) if sources is not None else set(graph.iter_nodes())
    target_nodes = set(targets) if targets is not None else set(graph.iter_nodes())

    # Index automaton transitions state-major, then by the edge label they
    # match, for fast joint traversal.
    by_state: dict = {}
    for state_from, symbol, state_to in nfa.transitions():
        label = symbol if label_of is None else label_of(symbol)
        by_state.setdefault(state_from, {}).setdefault(label, []).append(
            (symbol, state_to)
        )

    csr = get_csr(graph, stats)
    edges, ordinals = csr.edge_rows(graph)
    node_ids, nodes = csr.interner._node_ids, csr.interner.nodes
    label_id = csr.interner.label_id
    # Per state, once: the rows of the labels it consumes that the graph
    # has, as (label, offsets, targets, ordinals, matching transitions).
    rows = {
        state: [
            (label, *csr.out_rows[li], ordinals[li], matching)
            for label, matching in by_label.items()
            if (li := label_id(label)) is not None
        ]
        for state, by_label in by_state.items()
    }

    product = EdgeLabeledGraph()
    start_pairs = {
        (node, state)
        for node in source_nodes
        if graph.has_node(node)
        for state in nfa.initial
    }
    for pair in start_pairs:
        product.add_node(pair)
    frontier = list(start_pairs)
    seen = set(start_pairs)
    expanded = 0
    relaxed = 0
    while frontier:
        if tick is not None:
            tick()
        node, state = frontier.pop()
        expanded += 1
        u = node_ids[node]
        moves = (
            (edges[ords[k]], label, nodes[targets[k]], symbol, next_state)
            for label, offsets, targets, ords, matching in rows.get(state, ())
            for k in range(offsets[u], offsets[u + 1])
            for symbol, next_state in matching
        )
        for edge, label, target, symbol, next_state in moves:
            relaxed += 1
            next_pair = (target, next_state)
            product_edge = (edge, (state, symbol, next_state))
            if next_pair not in seen:
                seen.add(next_pair)
                product.add_node(next_pair)
                frontier.append(next_pair)
            if not product.has_edge(product_edge):
                product.add_edge(product_edge, (node, state), next_pair, label)
    accepting = frozenset(
        (node, state)
        for (node, state) in seen
        if state in nfa.finals and node in target_nodes
    )
    if stats is not None:
        stats.count("nodes_expanded", expanded)
        stats.count("edges_relaxed", relaxed)
        stats.add_time("product", time.perf_counter() - started)
    return ProductGraph._trusted(
        product, graph, PROJECTION, frozenset(start_pairs), accepting
    )
