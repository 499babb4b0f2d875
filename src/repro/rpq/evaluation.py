"""RPQ evaluation: ``[[R]]_G`` via the product construction (Section 6.2).

The result of an RPQ ``R`` on a graph ``G`` is the set of node pairs
``(u, v)`` connected by a path whose edge-label word is in ``L(R)``.  The
evaluator runs a BFS over ``(node, state)`` pairs — the product graph is
explored lazily and never materialized, which the paper notes is possible
when "only one answer is required" and is also the cheapest way to compute
the full answer set.

Two implementations coexist:

* ``use_index=True`` (default) delegates to :mod:`repro.engine.kernel`:
  compilation goes through the LRU cache and the BFS walks the label index
  (O(out-degree-by-label) per automaton transition).
* ``use_index=False`` is the seed's naive pipeline kept verbatim — fresh
  parse + Glushkov per call, linear ``out_edges`` scans — and serves as the
  oracle in ``tests/engine/test_differential.py``.
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


def reachable_by_rpq(
    query: "Regex | str | NFA | CompiledQuery",
    graph: EdgeLabeledGraph,
    source: ObjectId,
    *,
    use_index: bool = True,
    use_csr: bool = True,
    stats: "EngineStats | None" = None,
    budget=None,
) -> set[ObjectId]:
    """All nodes ``v`` with ``(source, v)`` in ``[[R]]_G``.

    A single BFS over (node, state) pairs starting from ``(source, q0)``.
    ``budget`` (a :class:`repro.engine.limits.QueryBudget`) bounds the
    indexed traversal; the naive oracle ignores it by design.  ``use_csr``
    picks the kernel's data plane (flat int-encoded CSR by default, the
    dict oracle with ``False``); it is meaningless when ``use_index=False``.
    """
    if isinstance(query, CompiledQuery):
        if use_index:
            return kernel.reachable(
                query, graph, source, stats=stats, budget=budget, use_csr=use_csr
            )
        return _naive_reachable(query.nfa, graph, source)
    if isinstance(query, NFA):
        if use_index:
            return kernel.reachable(
                CompiledQuery.from_nfa(query), graph, source,
                stats=stats, budget=budget, use_csr=use_csr,
            )
        return _naive_reachable(query, graph, source)
    if use_index:
        compiled = kernel.compile_query(query, graph, stats=stats)
        return kernel.reachable(
            compiled, graph, source, stats=stats, budget=budget, use_csr=use_csr
        )
    nfa = compile_for_graph(query, graph, cached=False)
    return _naive_reachable(nfa, graph, source)


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
    use_csr: bool = True,
    multi_source: bool = True,
    stats: "EngineStats | None" = None,
    budget=None,
) -> Set[tuple[ObjectId, ObjectId]]:
    """``[[R]]_G`` — the full set of answer pairs (optionally restricted to
    the given source nodes).

    With ``use_index=True`` the relation is computed by the kernel's
    origin-tracking multi-source sweep (``multi_source=False`` falls back to
    the per-source BFS loop, the sweep's differential oracle), on the flat
    CSR data plane unless ``use_csr=False`` asks for the dict oracle.  A
    ``budget`` bounds the indexed paths cooperatively (deadline, row and
    state ceilings, cancellation).

    The result is a read-only set of ``(source, target)`` pairs.  The
    default path returns the sweep's own compact
    :class:`~repro.engine.relation.PairRelation` — O(1) ``len``, ``in``
    without decoding, lazy iteration, ``== <= | & -`` against plain sets
    (yielding plain sets) — which is a snapshot of the graph version it was
    computed on; the oracle arms return a plain ``set``.  Call ``set(...)``
    on it for a private mutable copy.

    Example 12: ``evaluate_rpq("Transfer*", figure2_graph())`` contains all
    36 pairs of accounts because the Transfer-subgraph is strongly connected.
    """
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span(
            "rpq.evaluate", query=kernel.query_text(query), use_index=use_index
        ) as span:
            answers = _evaluate_rpq(
                query, graph, sources, use_index, multi_source, stats, budget,
                use_csr,
            )
            span.set(answers=len(answers))
            return answers
    return _evaluate_rpq(
        query, graph, sources, use_index, multi_source, stats, budget, use_csr
    )


def _evaluate_rpq(
    query: "Regex | str | NFA | CompiledQuery",
    graph: EdgeLabeledGraph,
    sources: Iterable[ObjectId] | None = None,
    use_index: bool = True,
    multi_source: bool = True,
    stats: "EngineStats | None" = None,
    budget=None,
    use_csr: bool = True,
) -> Set[tuple[ObjectId, ObjectId]]:
    if use_index:
        if isinstance(query, CompiledQuery):
            compiled = query
        elif isinstance(query, NFA):
            compiled = CompiledQuery.from_nfa(query)
        else:
            compiled = kernel.compile_query(query, graph, stats=stats)
        return kernel.evaluate(
            compiled, graph, sources, stats=stats, multi_source=multi_source,
            budget=budget, use_csr=use_csr,
        )
    if isinstance(query, CompiledQuery):
        nfa = query.nfa
    elif isinstance(query, NFA):
        nfa = query
    else:
        nfa = compile_for_graph(query, graph, cached=False)
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
    """Whether ``(source, target)`` answers the RPQ, with early exit.

    This is the paper's single-pair decision problem: non-emptiness of the
    intersection of ``G`` (seen as an NFA with initial ``source`` and final
    ``target``) with an NFA for ``R``.
    """
    if use_index:
        compiled = kernel.compile_query(query, graph, stats=stats)
        return kernel.holds(compiled, graph, source, target, stats=stats, budget=budget)
    nfa = compile_for_graph(query, graph, cached=False)
    if not graph.has_node(source) or not graph.has_node(target):
        return False
    by_state_symbol: dict = {}
    for state_from, symbol, state_to in nfa.transitions():
        by_state_symbol.setdefault((state_from, symbol), []).append(state_to)
    start = {(source, state) for state in nfa.initial}
    if any(node == target and state in nfa.finals for node, state in start):
        return True
    seen = set(start)
    queue = deque(start)
    while queue:
        node, state = queue.popleft()
        for edge in graph.out_edges(node):
            label = graph.label(edge)
            for next_state in by_state_symbol.get((state, label), ()):
                pair = (graph.tgt(edge), next_state)
                if pair in seen:
                    continue
                if pair[0] == target and next_state in nfa.finals:
                    return True
                seen.add(pair)
                queue.append(pair)
    return False
