"""RPQ evaluation: ``[[R]]_G`` via the product construction (Section 6.2).

The result of an RPQ ``R`` on a graph ``G`` is the set of node pairs
``(u, v)`` connected by a path whose edge-label word is in ``L(R)``.  The
evaluator runs a BFS over ``(node, state)`` pairs — the product graph is
explored lazily and never materialized, which the paper notes is possible
when "only one answer is required" and is also the cheapest way to compute
the full answer set.

The evaluator is :mod:`repro.engine.kernel`: compilation goes through the
LRU cache and the BFS walks the label-partitioned CSR rows
(O(out-degree-by-label) per automaton transition).  The reference it is
judged against is :mod:`repro.reference`.
"""

from __future__ import annotations

from collections.abc import Iterable, Set

from repro.automata.nfa import NFA
from repro.engine import kernel
from repro.engine.cache import CompiledQuery
from repro.engine.stats import EngineStats
from repro.engine.tracing import get_tracer
from repro.graph.edge_labeled import EdgeLabeledGraph, ObjectId
from repro.regex.ast import Regex


def compile_for_graph(
    query: "Regex | str",
    graph: EdgeLabeledGraph,
    *,
    stats: "EngineStats | None" = None,
) -> NFA:
    """Compile an RPQ over the union of the graph's and the query's labels.

    This instantiates Remark 11 wildcards over the graph's actual alphabet.
    The result comes from the engine's LRU compilation cache; the cache key
    includes the alphabet, so the same wildcard expression never collides
    across graphs with different labels.
    """
    return kernel.compile_query(query, graph, stats=stats).nfa


def _compiled(query, graph: EdgeLabeledGraph, stats) -> CompiledQuery:
    """``query`` in the form the kernel runs."""
    if isinstance(query, NFA):
        return CompiledQuery.from_nfa(query)
    return kernel.compile_query(query, graph, stats=stats)


def reachable_by_rpq(
    query: "Regex | str | NFA | CompiledQuery",
    graph: EdgeLabeledGraph,
    source: ObjectId,
    *,
    stats: "EngineStats | None" = None,
    budget=None,
) -> set[ObjectId]:
    """All nodes ``v`` with ``(source, v)`` in ``[[R]]_G``.

    A single BFS over (node, state) pairs starting from ``(source, q0)``.
    ``budget`` (a :class:`repro.engine.limits.QueryBudget`) bounds the
    traversal.
    """
    return kernel.reachable(
        _compiled(query, graph, stats), graph, source, stats=stats, budget=budget
    )


def evaluate_rpq(
    query: "Regex | str | NFA | CompiledQuery",
    graph: EdgeLabeledGraph,
    sources: Iterable[ObjectId] | None = None,
    *,
    use_index: bool = True,
    stats: "EngineStats | None" = None,
    budget=None,
) -> Set[tuple[ObjectId, ObjectId]]:
    """``[[R]]_G`` — the full set of answer pairs (optionally restricted to
    the given source nodes).

    The relation is computed by the kernel's origin-tracking multi-source
    sweep on the CSR snapshot.  A ``budget`` bounds it cooperatively
    (deadline, row and state ceilings, cancellation).

    The result is a read-only set of ``(source, target)`` pairs: the sweep's
    own compact :class:`~repro.engine.relation.PairRelation` — O(1) ``len``,
    ``in`` without decoding, lazy iteration, ``== <= | & -`` against plain
    sets (yielding plain sets) — which is a snapshot of the graph version it
    was computed on.  Call ``set(...)`` on it for a private mutable copy.

    ``use_index=False`` returns :func:`repro.reference.rpq_pairs` instead (a
    plain ``set``; ``stats`` and ``budget`` are ignored).  It stays only for
    the answer checks of the repo benchmark under ``bench/``; no caller in
    the package passes it.

    Example 12: ``evaluate_rpq("Transfer*", figure2_graph())`` contains all
    36 pairs of accounts because the Transfer-subgraph is strongly connected.
    """
    if not use_index:
        from repro import reference

        return reference.rpq_pairs(query, graph, sources)
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span("rpq.evaluate", query=kernel.query_text(query)) as span:
            answers = _evaluate_rpq(query, graph, sources, stats, budget)
            span.set(answers=len(answers))
            return answers
    return _evaluate_rpq(query, graph, sources, stats, budget)


def _evaluate_rpq(query, graph, sources, stats, budget):
    return kernel.evaluate_sweep(
        _compiled(query, graph, stats), graph, sources, stats=stats, budget=budget
    )


def rpq_holds(
    query: "Regex | str",
    graph: EdgeLabeledGraph,
    source: ObjectId,
    target: ObjectId,
    *,
    stats: "EngineStats | None" = None,
    budget=None,
) -> bool:
    """Whether ``(source, target)`` answers the RPQ (the kernel stops at the
    first witness).

    This is the paper's single-pair decision problem: non-emptiness of the
    intersection of ``G`` (seen as an NFA with initial ``source`` and final
    ``target``) with an NFA for ``R``.
    """
    compiled = kernel.compile_query(query, graph, stats=stats)
    return kernel.holds(compiled, graph, source, target, stats=stats, budget=budget)
