"""RPQ evaluation: ``[[R]]_G`` via the product construction (Section 6.2).

The result of an RPQ ``R`` on a graph ``G`` is the set of node pairs
``(u, v)`` connected by a path whose edge-label word is in ``L(R)``.  The
evaluator runs a BFS over ``(node, state)`` pairs — the product graph is
explored lazily and never materialized, which the paper notes is possible
when "only one answer is required" and is also the cheapest way to compute
the full answer set.

Two implementations coexist:

* ``use_index=True`` (default) delegates to :mod:`repro.engine.kernel`:
  compilation goes through the LRU cache and the BFS walks the
  label-partitioned CSR rows (O(out-degree-by-label) per automaton
  transition).
* ``use_index=False`` is the seed's naive pipeline kept verbatim — fresh
  parse + Glushkov per call, linear ``out_edges`` scans.  It is the one
  reference implementation: every differential test and the repo benchmark
  compare the kernel against it.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Set

from repro.automata.glushkov import compile_regex
from repro.automata.nfa import NFA
from repro.engine import kernel
from repro.engine.cache import DEFAULT_CACHE, CompiledQuery
from repro.engine.stats import EngineStats
from repro.engine.tracing import get_tracer
from repro.graph.edge_labeled import EdgeLabeledGraph, ObjectId
from repro.regex.ast import Regex, symbols
from repro.regex.parser import parse_regex


def _as_regex(query: "Regex | str") -> Regex:
    if isinstance(query, str):
        return parse_regex(query)
    return query


def compile_for_graph(
    query: "Regex | str",
    graph: EdgeLabeledGraph,
    *,
    cached: bool = True,
    stats: "EngineStats | None" = None,
) -> NFA:
    """Compile an RPQ over the union of the graph's and the query's labels.

    This instantiates Remark 11 wildcards over the graph's actual alphabet.
    With ``cached=True`` (default) the result comes from the engine's LRU
    compilation cache; the cache key includes the alphabet, so the same
    wildcard expression never collides across graphs with different labels.
    """
    if not cached:
        regex = _as_regex(query)
        alphabet = graph.labels | symbols(regex)
        return compile_regex(regex, alphabet=alphabet)
    return kernel.compile_query(query, graph, stats=stats).nfa


def _compiled(query, graph: EdgeLabeledGraph, stats) -> CompiledQuery:
    """``query`` in the form the kernel runs."""
    if isinstance(query, NFA):
        return CompiledQuery.from_nfa(query)
    return kernel.compile_query(query, graph, stats=stats)


def _seed_nfa(query, graph: EdgeLabeledGraph) -> NFA:
    """``query`` in the form the seed evaluator runs."""
    if isinstance(query, CompiledQuery):
        return query.nfa
    if isinstance(query, NFA):
        return query
    return compile_for_graph(query, graph, cached=False)


def reachable_by_rpq(
    query: "Regex | str | NFA | CompiledQuery",
    graph: EdgeLabeledGraph,
    source: ObjectId,
    *,
    use_index: bool = True,
    stats: "EngineStats | None" = None,
    budget=None,
) -> set[ObjectId]:
    """All nodes ``v`` with ``(source, v)`` in ``[[R]]_G``.

    A single BFS over (node, state) pairs starting from ``(source, q0)``.
    ``budget`` (a :class:`repro.engine.limits.QueryBudget`) bounds the
    indexed traversal; the naive oracle ignores it by design.
    """
    if use_index:
        return kernel.reachable(
            _compiled(query, graph, stats), graph, source,
            stats=stats, budget=budget,
        )
    return _naive_reachable(_seed_nfa(query, graph), graph, source)


def _naive_reachable(
    nfa: NFA, graph: EdgeLabeledGraph, source: ObjectId
) -> set[ObjectId]:
    """The seed evaluator: per-call transition dict, linear edge scans."""
    if not graph.has_node(source):
        return set()
    by_state_symbol: dict = {}
    for state_from, symbol, state_to in nfa.transitions():
        by_state_symbol.setdefault((state_from, symbol), []).append(state_to)

    start = {(source, state) for state in nfa.initial}
    seen = set(start)
    queue = deque(start)
    answers = {
        node for node, state in start if state in nfa.finals
    }
    while queue:
        node, state = queue.popleft()
        for edge in graph.out_edges(node):
            label = graph.label(edge)
            for next_state in by_state_symbol.get((state, label), ()):
                pair = (graph.tgt(edge), next_state)
                if pair not in seen:
                    seen.add(pair)
                    queue.append(pair)
                    if next_state in nfa.finals:
                        answers.add(pair[0])
    return answers


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

    With ``use_index=True`` the relation is computed by the kernel's
    origin-tracking multi-source sweep on the CSR snapshot.  A ``budget``
    bounds it cooperatively (deadline, row and state ceilings,
    cancellation).

    The result is a read-only set of ``(source, target)`` pairs.  The
    default path returns the sweep's own compact
    :class:`~repro.engine.relation.PairRelation` — O(1) ``len``, ``in``
    without decoding, lazy iteration, ``== <= | & -`` against plain sets
    (yielding plain sets) — which is a snapshot of the graph version it was
    computed on; the seed evaluator returns a plain ``set``.  Call
    ``set(...)`` on it for a private mutable copy.

    Example 12: ``evaluate_rpq("Transfer*", figure2_graph())`` contains all
    36 pairs of accounts because the Transfer-subgraph is strongly connected.
    """
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span(
            "rpq.evaluate", query=kernel.query_text(query), use_index=use_index
        ) as span:
            answers = _evaluate_rpq(
                query, graph, sources, use_index, stats, budget
            )
            span.set(answers=len(answers))
            return answers
    return _evaluate_rpq(query, graph, sources, use_index, stats, budget)


def _evaluate_rpq(
    query: "Regex | str | NFA | CompiledQuery",
    graph: EdgeLabeledGraph,
    sources: Iterable[ObjectId] | None = None,
    use_index: bool = True,
    stats: "EngineStats | None" = None,
    budget=None,
) -> Set[tuple[ObjectId, ObjectId]]:
    if use_index:
        return kernel.evaluate_sweep(
            _compiled(query, graph, stats), graph, sources,
            stats=stats, budget=budget,
        )
    nfa = _seed_nfa(query, graph)
    source_nodes = sources if sources is not None else graph.iter_nodes()
    answers: set[tuple[ObjectId, ObjectId]] = set()
    for source in source_nodes:
        for target in _naive_reachable(nfa, graph, source):
            answers.add((source, target))
    return answers


def rpq_holds(
    query: "Regex | str",
    graph: EdgeLabeledGraph,
    source: ObjectId,
    target: ObjectId,
    *,
    use_index: bool = True,
    stats: "EngineStats | None" = None,
    budget=None,
) -> bool:
    """Whether ``(source, target)`` answers the RPQ (the kernel stops at the
    first witness; the seed evaluator computes the source's whole answer).

    This is the paper's single-pair decision problem: non-emptiness of the
    intersection of ``G`` (seen as an NFA with initial ``source`` and final
    ``target``) with an NFA for ``R``.
    """
    if use_index:
        compiled = kernel.compile_query(query, graph, stats=stats)
        return kernel.holds(compiled, graph, source, target, stats=stats, budget=budget)
    nfa = compile_for_graph(query, graph, cached=False)
    if not (graph.has_node(source) and graph.has_node(target)):
        return False
    return target in _naive_reachable(nfa, graph, source)
