"""Work laws: the kernel's counted work against bounds fixed by the input.

Timings on a shared host spread wider than most differences worth
measuring; counts repeat exactly.  These laws pin the kernel's two
counters, ``nodes_expanded`` and ``edges_relaxed``, to quantities any
reader can compute from the graph and the automaton, on random graphs,
regexes with nested stars and unions, and source sets that are ``None``
(every node) or a subset.  ``|V|``, ``|E|`` and ``|Q|`` are the graph's
nodes and edges and the compiled automaton's states.  Law (c) bounds the
size of a path-multiset representation (PMR) by the graph's.  Law (e)
counts the kernel's traversals themselves: how many times a CRPQ enters
the product.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.crpq.ast import CRPQ, RPQAtom, Var
from repro.crpq.evaluation import evaluate_crpq
from repro.engine import kernel
from repro.engine.stats import EngineStats
from repro.graph.generators import diamond_chain
from repro.pmr.build import pmr_for_rpq
from repro.pmr.ops import count_paths_of_length, pmr_size
from tests.engine.test_differential import graphs, regexes
from tests.engine.test_sweep_layers import cyclic_graphs, nested_stars, sources_of

#: The kernel's entries into the product: one start node's BFS, and the
#: relation sweep in either direction.
TRAVERSALS = ("reachable", "evaluate_sweep", "evaluate_sweep_backward")


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


class TestDiamondChainPMR:
    @pytest.mark.parametrize("diamonds", [2, 4, 8, 16, 32])
    def test_pmr_is_linear_in_the_graph(self, diamonds):
        """Law (c), constant 1 (Fig. 5; E16, E22): the PMR of ``a*`` from
        ``j0`` to ``j<n>`` on the ``n``-diamond chain has at most
        ``1 · (|V| + |E|)`` nodes plus edges — today exactly ``7n + 1``,
        one product node per graph node and one product edge per graph
        edge — and it still holds all ``2**n`` paths of length ``2n``."""
        graph = diamond_chain(diamonds)
        pmr = pmr_for_rpq("a*", graph, "j0", f"j{diamonds}")
        assert pmr_size(pmr) <= 1 * (graph.num_nodes + graph.num_edges)
        assert count_paths_of_length(pmr, 2 * diamonds) == 2**diamonds


@st.composite
def crpqs(draw):
    """CRPQs of one to three atoms over the variables x, y, z and the
    constants v0, v1 (a constant may name no node), any head."""
    terms = st.sampled_from([Var("x"), Var("y"), Var("z"), "v0", "v1"])
    atoms = draw(
        st.lists(st.builds(RPQAtom, regexes(max_leaves=4), terms, terms),
                 min_size=1, max_size=3)
    )
    body = sorted({var for atom in atoms for var in atom.variables()}, key=repr)
    head = draw(st.lists(st.sampled_from(body), unique=True)) if body else []
    return CRPQ(head=tuple(head), atoms=tuple(atoms))


class TestOneTraversalPerAtom:
    @settings(max_examples=150, deadline=None)
    @given(graph=graphs(max_nodes=6, max_edges=14), query=crpqs())
    def test_kernel_traversals_per_crpq_are_at_most_its_atoms(self, graph, query):
        """Law (e), constant 1: evaluating a CRPQ enters the kernel at most
        ``1 ×`` its number of atoms — a bound atom is one sweep from all
        its bound values, never one traversal per value."""
        calls = []

        def counted(name):
            run = getattr(kernel, name)

            def counting(*args, **kwargs):
                calls.append(name)
                return run(*args, **kwargs)

            return counting

        with mock.patch.multiple(kernel, **{name: counted(name) for name in TRAVERSALS}):
            answers = evaluate_crpq(query, graph)
        assert len(calls) <= len(query.atoms)
        assert answers == reference.crpq_answers(query, graph)
