"""Two-way RPQs: backward navigation (Remark 9).

The paper restricts its formal development to one-way paths "just for the
sake of technical simplicity: our framework can easily be extended with
two-way paths".  This module is that easy extension: regular expressions
may use *inverse labels* ``~a``, matching an ``a``-edge traversed from its
target to its source (the classical 2RPQs of [23, 24]).

Implementation: a two-way expression over ``Labels ∪ {~a}`` is an ordinary
one-way expression over the *completed* graph that carries, for every edge
``e: u -> v`` with label ``a``, a twin edge ``(e, "~"): v -> u`` labeled
``Inverse(a)``.  All one-way machinery (product construction, path modes,
counting) then applies unchanged; results project back to the base graph by
dropping the twin marker, yielding the forward/backward *walks* practical
languages offer.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass

from repro.graph.edge_labeled import EdgeLabeledGraph, Label, ObjectId
from repro.regex.ast import Regex, map_symbols
from repro.regex.parser import parse_regex
from repro.rpq.evaluation import evaluate_rpq, reachable_by_rpq, rpq_holds


@dataclass(frozen=True, slots=True)
class Inverse:
    """The inverse ``~a`` of an edge label ``a``."""

    label: Label

    def __repr__(self) -> str:
        return f"~{self.label}"


#: Marker appended to edge ids of backward twins in the completed graph.
BACKWARD_MARKER = "~"


def parse_two_way_regex(text: str) -> Regex:
    """Parse a two-way RPQ; ``~`` before a label inverts it.

    Implemented by rewriting ``~label`` occurrences to placeholder labels
    before using the one-way parser, then restoring :class:`Inverse`
    payloads — the same trick the l-RPQ parser uses for captures.
    """
    import re as _stdlib_re

    placeholders: dict[str, Inverse] = {}

    def substitute(match: "_stdlib_re.Match[str]") -> str:
        token = f"INVERSEATOM{len(placeholders)}X"
        placeholders[token] = Inverse(match.group(1))
        return token

    rewritten = _stdlib_re.sub(
        r"~\s*([A-Za-z][A-Za-z0-9_]*)", substitute, text
    )
    plain = parse_regex(rewritten)

    def restore(symbol):
        return placeholders.get(symbol, symbol)

    return map_symbols(plain, restore)


def completed_graph(graph: EdgeLabeledGraph) -> EdgeLabeledGraph:
    """The graph plus a backward twin for every edge.

    The twin of edge ``e`` has id ``(e, BACKWARD_MARKER)``, swapped
    endpoints, and label ``Inverse(lambda(e))``.
    """
    completed = EdgeLabeledGraph()
    for node in graph.iter_nodes():
        completed.add_node(node)
    for edge in graph.iter_edges():
        src, tgt = graph.endpoints(edge)
        label = graph.label(edge)
        completed.add_edge(edge, src, tgt, label)
        completed.add_edge((edge, BACKWARD_MARKER), tgt, src, Inverse(label))
    return completed


def evaluate_two_way_rpq(
    query: "Regex | str",
    graph: EdgeLabeledGraph,
    sources=None,
) -> Set[tuple[ObjectId, ObjectId]]:
    """``[[R]]_G`` for a two-way RPQ: node pairs connected by a walk whose
    forward/backward label word matches the expression (a read-only set,
    as :func:`~repro.rpq.evaluation.evaluate_rpq` returns it)."""
    regex = parse_two_way_regex(query) if isinstance(query, str) else query
    return evaluate_rpq(regex, completed_graph(graph), sources=sources)


def two_way_rpq_holds(
    query: "Regex | str",
    graph: EdgeLabeledGraph,
    source: ObjectId,
    target: ObjectId,
) -> bool:
    """Single-pair decision for a two-way RPQ."""
    regex = parse_two_way_regex(query) if isinstance(query, str) else query
    return rpq_holds(regex, completed_graph(graph), source, target)


def reachable_by_two_way_rpq(
    query: "Regex | str", graph: EdgeLabeledGraph, source: ObjectId
) -> set[ObjectId]:
    """Forward-image of one node under a two-way RPQ."""
    regex = parse_two_way_regex(query) if isinstance(query, str) else query
    return reachable_by_rpq(regex, completed_graph(graph), source)


def project_walk_objects(objects: tuple) -> tuple:
    """Map a completed-graph path back to base-graph objects.

    Backward twins ``(e, "~")`` project to ``e``; note the projection is a
    *walk annotation*, not a paper-Section-2 path, because the base edge is
    traversed against its direction.
    """
    projected = []
    for obj in objects:
        if (
            isinstance(obj, tuple)
            and len(obj) == 2
            and obj[1] == BACKWARD_MARKER
        ):
            projected.append(obj[0])
        else:
            projected.append(obj)
    return tuple(projected)
