"""Constructing PMRs from query evaluation (Section 6.4).

"PMRs are closely related to the product graph" — and indeed the PMR of an
RPQ's matching paths *is* the trimmed product graph with gamma the
projection: :class:`~repro.rpq.product_graph.ProductGraph` is a PMR, so
construction is build + one trim.  This is the pre-processing step of the
enumeration algorithms the paper cites ([41, 84]).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.pmr.ops import trim
from repro.pmr.representation import PMR

if TYPE_CHECKING:  # pragma: no cover - rpq.product_graph imports this package
    from repro.rpq.product_graph import ProductGraph


def pmr_from_product(product: "ProductGraph") -> PMR:
    """The PMR of a product graph's matching paths: its useful part."""
    return trim(product)


def pmr_for_rpq(
    query,
    graph: EdgeLabeledGraph,
    source,
    target,
) -> PMR:
    """The PMR representing all matching paths of an RPQ between two nodes.

    For the Figure 5 graph and ``a*`` this is the O(n)-size representation
    of 2^n paths; for cyclic matches it is a finite representation of an
    infinite path set (the Mike-to-Mike cycles example).
    """
    # Imported at call time: rpq.product_graph subclasses this package's PMR.
    from repro.rpq.evaluation import compile_for_graph
    from repro.rpq.product_graph import build_product

    nfa = compile_for_graph(query, graph) if not hasattr(query, "initial") else query
    return trim(build_product(graph, nfa, sources=[source], targets=[target]))


def pmr_for_unblocked_cycles(graph, account: str = "a3") -> PMR:
    """The paper's Section 6.4 example: all transfer cycles from Mike's
    account back to itself that never pass through a blocked account.

    "Never pass through a blocked account" restricts the graph to unblocked
    accounts before building the product — on Figure 3 the result is the
    single t7-t4-t1 loop, a finite PMR for infinitely many cycles.
    """
    unblocked = EdgeLabeledGraph()
    for node in graph.iter_nodes():
        if graph.get_property(node, "isBlocked") == "no":
            unblocked.add_node(node)
    for edge in graph.iter_edges():
        if graph.label(edge) != "Transfer":
            continue
        src, tgt = graph.endpoints(edge)
        if unblocked.has_node(src) and unblocked.has_node(tgt):
            unblocked.add_edge(edge, src, tgt, "Transfer")
    return pmr_for_rpq("Transfer.Transfer*", unblocked, account, account)
