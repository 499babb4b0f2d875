"""Enumerating matching paths under path modes (Sections 3.1.5 and 6.3).

GQL and SQL/PGQ introduced ``shortest`` / ``simple`` / ``trail`` restrictions
to keep path results finite; the paper's l-CRPQ semantics applies them per
endpoint pair after endpoint selection.  This module answers a single RPQ
between two nodes under each mode, PathFinder-style ([41]): build the
product graph, trim it — that is the PMR of the matching paths — and hand it
to the one search per mode in :mod:`repro.pmr.enumerate`, which constrains
the *projected* graph path.

Complexity notes mirroring the paper: ``shortest`` is polynomial (BFS on the
product), ``simple``/``trail`` existence is NP-complete in general
(Section 6.3) and implemented as a backtracking search that behaves well on
the "well-behaved" queries and graphs the paper describes; ``all`` may be
infinite, in which case an :class:`InfiniteResultError` is raised unless the
caller bounds the enumeration.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import EvaluationError
from repro.graph.edge_labeled import EdgeLabeledGraph, ObjectId
from repro.graph.paths import Path
from repro.pmr.enumerate import search_paths
from repro.pmr.ops import trim
from repro.rpq.evaluation import compile_for_graph
from repro.rpq.product_graph import build_product

PATH_MODES = ("all", "shortest", "simple", "trail")


def matching_paths(
    query,
    graph: EdgeLabeledGraph,
    source: ObjectId,
    target: ObjectId,
    mode: str = "shortest",
    limit: int | None = None,
    *,
    use_index: bool = True,
    stats=None,
    budget=None,
) -> Iterator[Path]:
    """Yield the node-to-node paths from ``source`` to ``target`` matching
    the RPQ, restricted by ``mode``, each exactly once.

    The same graph path can be witnessed by several automaton runs; results
    are deduplicated, so ambiguity of the expression never duplicates paths
    (the set semantics the paper advocates).

    ``use_index=False`` replays the seed pipeline (fresh compilation, linear
    edge scans while building the product); both settings enumerate the
    same paths in the same order, which the differential tests assert.

    ``budget`` (a :class:`repro.engine.limits.QueryBudget`) is checked
    between extension steps of the search — essential for ``simple`` and
    ``trail``, whose backtracking is NP-hard (Section 6.3) and can stall
    arbitrarily long *between* two yielded paths.
    """
    if mode not in PATH_MODES:
        raise EvaluationError(f"unknown path mode {mode!r}; use one of {PATH_MODES}")
    if not (graph.has_node(source) and graph.has_node(target)):
        return
    if budget is not None:
        budget.check()
    if hasattr(query, "initial"):
        nfa = query
    else:
        nfa = compile_for_graph(query, graph, cached=use_index, stats=stats)
    product = trim(
        build_product(
            graph, nfa, sources=[source], targets=[target], use_index=use_index,
            stats=stats, budget=budget,
        )
    )
    yield from search_paths(product, mode, limit, budget=budget)
