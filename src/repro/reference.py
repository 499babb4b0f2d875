"""The reference evaluator: the seed pipeline, from the paper's definitions.

Every differential test, ``repro rpq|crpq|paths --no-index`` and ``repro
workload run --baseline`` judge the engine by this module, so it imports
nothing from the engine, the RPQ/CRPQ evaluators or the serving tiers (a
test scans its imports).  It keeps the seed's cost: every call compiles
afresh and every step scans the node's out-edges.  Shared by design: the
PMR path search (emission order stays comparable) and GQL's pattern core.
"""

from __future__ import annotations

from collections import deque

from repro.automata.glushkov import compile_regex
from repro.crpq.ast import Var, parse_crpq
from repro.crpq.planning import greedy_plan
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.pmr.enumerate import search_paths
from repro.pmr.ops import trim
from repro.pmr.representation import PMR
from repro.regex.ast import reverse, symbols
from repro.regex.parser import parse_regex


def compile_query(query, graph):
    """A fresh Glushkov automaton over the graph's and the query's labels."""
    if hasattr(query, "initial"):
        return query
    regex = parse_regex(query) if isinstance(query, str) else query
    return compile_regex(regex, alphabet=graph.labels | symbols(regex))


def rpq_reachable(query, graph, source) -> set:
    """All ``v`` with ``(source, v)`` in ``[[R]]_G`` (Sec. 3.1)."""
    return _naive_reachable(compile_query(query, graph), graph, source)


def _naive_reachable(nfa, graph, source) -> set:
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


def rpq_pairs(query, graph, sources=None) -> set:
    """``[[R]]_G``, or its pairs from ``sources`` only."""
    nfa = compile_query(query, graph)
    starts = graph.iter_nodes() if sources is None else sources
    return {(u, v) for u in starts for v in _naive_reachable(nfa, graph, u)}


def rpq_holds(query, graph, source, target) -> bool:
    """Whether ``(source, target)`` is in ``[[R]]_G``."""
    return target in rpq_reachable(query, graph, source)


def product(graph, nfa, sources=None, targets=None) -> PMR:
    """``G x A`` (Sec. 6.2) from ``sources`` (default: all nodes) to
    ``targets``: nodes ``(u, q)``, an edge ``(e, (q1, a, q2))`` per step."""
    moves: dict = {}
    for state_from, symbol, state_to in nfa.transitions():
        moves.setdefault((state_from, symbol), []).append(state_to)
    inner = EdgeLabeledGraph()
    nodes = graph.iter_nodes() if sources is None else set(sources)
    starts = [(u, q) for u in nodes if graph.has_node(u) for q in nfa.initial]
    for pair in starts:
        inner.add_node(pair)
    frontier = list(starts)
    while frontier:
        node, state = frontier.pop()
        for edge in graph.out_edges(node):
            label = graph.label(edge)
            for next_state in moves.get((state, label), ()):
                pair = (graph.tgt(edge), next_state)
                if not inner.has_node(pair):
                    inner.add_node(pair)
                    frontier.append(pair)
                step = (edge, (state, label, next_state))
                inner.add_edge(step, (node, state), pair, label)
    ends = graph.nodes if targets is None else set(targets)
    accepting = [
        (node, state)
        for node, state in inner.iter_nodes()
        if state in nfa.finals and node in ends
    ]
    gamma = {obj: obj[0] for obj in (*inner.iter_nodes(), *inner.iter_edges())}
    return PMR(inner, graph, gamma, starts, accepting)


def matching_paths(query, graph, source, target, mode="shortest", limit=None):
    """The paths matching ``query`` under ``mode``, in PMR search order."""
    if not (graph.has_node(source) and graph.has_node(target)):
        return iter(())
    nfa = compile_query(query, graph)
    return search_paths(trim(product(graph, nfa, [source], [target])), mode, limit)


def crpq_bindings(query, graph) -> list[dict]:
    """The node homomorphisms (Sec. 3.1), atom by atom in greedy order: a
    bound left term reaches forward, else a bound right term backward over
    the reversed graph, else the atom reads its whole relation."""
    query = parse_crpq(query) if isinstance(query, str) else query
    bindings, reversed_graph = [{}], None
    for atom in greedy_plan(query, graph):
        terms = (atom.left, atom.right)
        # Every binding binds the same variables, and a constant is never a
        # key, so ``mu.get(term, term)`` is the term's node, or a free Var.
        left, right = (not isinstance(bindings[0].get(t, t), Var) for t in terms)
        backward = right and not left
        if backward and reversed_graph is None:
            reversed_graph = graph.reversed_copy()
        nfa = compile_query(reverse(atom.regex) if backward else atom.regex, graph)
        start_term = atom.right if backward else atom.left
        reached, extended = {}, []
        for mu in bindings:
            start = mu.get(start_term, start_term) if left or right else None
            if start not in reached:
                if start is None:
                    reached[start] = rpq_pairs(nfa, graph)
                elif backward:
                    found = _naive_reachable(nfa, reversed_graph, start)
                    reached[start] = [(v, start) for v in found]
                else:
                    found = _naive_reachable(nfa, graph, start)
                    reached[start] = [(start, v) for v in found]
            for pair in reached[start]:
                nu = dict(mu)
                if all(
                    nu.setdefault(term, value) == value
                    if isinstance(term, Var) else term == value
                    for term, value in zip(terms, pair)
                ):
                    extended.append(nu)
        bindings = extended
        if not bindings:
            break
    return bindings


def crpq_answers(query, graph) -> set[tuple]:
    """``q(G)``: the homomorphisms projected on the head (``{()}`` or
    ``set()`` for a Boolean query)."""
    query = parse_crpq(query) if isinstance(query, str) else query
    return {
        tuple(mu[var] for var in query.head) for mu in crpq_bindings(query, graph)
    }


def gql_matches(pattern, graph, max_length=None) -> set:
    """GQL's matches, every edge pattern answered by a scan of all edges."""
    from repro.coregql.semantics import _evaluate, _scan_edges
    from repro.gql.parser import parse_gql_pattern
    from repro.gql.semantics import _GQL, GQLMatch

    pattern = parse_gql_pattern(pattern) if isinstance(pattern, str) else pattern
    scans = _GQL._replace(edges=lambda edge, data, _: _scan_edges(data, edge.label))
    return {
        GQLMatch(path, binding)
        for path, binding in _evaluate(pattern, graph, scans, bound=max_length)
    }
