"""Work laws: the kernel's counted work against bounds fixed by the input.

Timings on a shared host spread wider than most differences worth
measuring; counts repeat exactly.  These laws pin the kernel's two
counters, ``nodes_expanded`` and ``edges_relaxed``, to quantities any
reader can compute from the graph and the automaton, on random graphs,
regexes with nested stars and unions, and source sets that are ``None``
(every node) or a subset.  ``|V|``, ``|E|`` and ``|Q|`` are the graph's
nodes and edges and the compiled automaton's states.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import kernel
from repro.engine.stats import EngineStats
from tests.engine.test_differential import graphs
from tests.engine.test_sweep_layers import cyclic_graphs, nested_stars, sources_of


def product_codes(compiled, graph, sources) -> set:
    """Every ``(node, state)`` reachable in ``G x A`` from the seeds
    ``(v, q0)``, ``v`` in ``sources`` (``None``: every node) — a plain
    set-based search over the graph's edges and the NFA's transitions."""
    nfa = compiled.nfa
    starts = graph.iter_nodes() if sources is None else sources
    seen = {(node, state) for node in starts for state in nfa.initial}
    stack = list(seen)
    while stack:
        node, state = stack.pop()
        for edge in graph.out_edges(node):
            target = graph.tgt(edge)
            for following in nfa.successors(state, graph.label(edge)):
                if (target, following) not in seen:
                    seen.add((target, following))
                    stack.append((target, following))
    return seen


class TestOneStartNode:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), graph=graphs(max_nodes=6, max_edges=14), regex=nested_stars())
    def test_work_is_within_the_product(self, data, graph, regex):
        """Law (a), constant 1: from one start node, either loop expands
        at most ``1 · |V| · |Q|`` codes and relaxes at most
        ``1 · |E| · |Q|`` edges — each product code once, each of its
        node's out-edges at most once per code."""
        source = data.draw(st.sampled_from(sorted(graph.iter_nodes())))
        compiled = kernel.compile_query(regex, graph)
        states = compiled.nfa.num_states
        for run in (
            lambda stats: kernel.reachable(compiled, graph, source, stats=stats),
            lambda stats: kernel.evaluate_sweep(compiled, graph, [source], stats=stats),
        ):
            stats = EngineStats()
            run(stats)
            assert stats.counters.get("nodes_expanded", 0) <= graph.num_nodes * states
            assert stats.counters.get("edges_relaxed", 0) <= graph.num_edges * states


class TestRelationSweep:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), graph=cyclic_graphs(), regex=nested_stars())
    def test_expands_each_reached_code_once(self, data, graph, regex):
        """Law (b), constant 1: a relation sweep's ``nodes_expanded`` is
        exactly ``1 ×`` the number of distinct product codes reachable
        from its seeds — no code is expanded twice, none is skipped."""
        sources = data.draw(sources_of(graph))
        compiled = kernel.compile_query(regex, graph)
        stats = EngineStats()
        kernel.evaluate_sweep(compiled, graph, sources, stats=stats)
        reached = product_codes(compiled, graph, sources)
        assert stats.counters.get("nodes_expanded", 0) == len(reached)
