"""The layered relation loop: its schedule and three differentials.

:func:`repro.engine.kernel.sweep_layers` runs a relation sweep one
automaton layer at a time (``IntPlan.layer``, the topological index of a
state's SCC).  A layer whose masks arrive complete runs in FIFO order; a
cyclic layer whose seeds carry different masks is condensed with Tarjan.
The inputs here are drawn to reach the second case: cyclic graphs (a ring
under every node plus random edges), regexes with nested stars and unions,
and many sources at once.  The loop is held to

* ``repro.reference`` on multi-source sweeps;
* itself, cut along a partition: every shard's ``local_frontier_step`` run
  to quiescence gives the single-node relation;
* the budget contract: a ``max_rows=k`` trip carries exactly ``k`` rows of
  the full answer, and a ``max_states`` trip's partial is a subset of it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.engine import kernel
from repro.engine.csr import get_csr
from repro.engine.limits import BudgetExceeded, QueryBudget
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.regex.ast import Star, Union, to_string
from repro.rpq.evaluation import evaluate_rpq
from tests.distributed.test_frontier import Cut
from tests.engine.test_differential import LABELS, regexes


@st.composite
def cyclic_graphs(draw, max_nodes: int = 7, max_extra: int = 12) -> EdgeLabeledGraph:
    """A ring through every node (labels drawn) plus random extra edges."""
    num_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    ring = draw(
        st.lists(st.sampled_from(LABELS), min_size=num_nodes, max_size=num_nodes)
    )
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1),
                st.integers(0, num_nodes - 1),
                st.sampled_from(LABELS),
            ),
            max_size=max_extra,
        )
    )
    graph = EdgeLabeledGraph()
    for node in range(num_nodes):
        graph.add_node(f"v{node}")
    edges = [(node, (node + 1) % num_nodes, label) for node, label in enumerate(ring)]
    for number, (src, tgt, label) in enumerate(edges + extra):
        graph.add_edge(f"e{number}", f"v{src}", f"v{tgt}", label)
    return graph


def nested_stars() -> st.SearchStrategy:
    """Random regexes, and stars of a union holding another star."""
    return st.one_of(
        regexes(max_leaves=6),
        st.builds(
            lambda outer, inner: Star(Union((outer, Star(inner)))),
            regexes(max_leaves=3),
            regexes(max_leaves=3),
        ),
    )


@st.composite
def sources_of(draw, graph):
    """``None`` (every node) or a nonempty subset of the graph's nodes."""
    nodes = sorted(graph.iter_nodes())
    if draw(st.booleans()):
        return None
    return draw(st.lists(st.sampled_from(nodes), min_size=1, unique=True))


class TestSchedule:
    @settings(max_examples=150, deadline=None)
    @given(graph=cyclic_graphs(), regex=nested_stars())
    def test_layers_follow_the_transitions(self, graph, regex):
        plan = kernel.compile_query(regex, graph).int_plan(get_csr(graph).interner)
        assert len(plan.layer) == plan.num_states
        reaches = {state: {state} for state in range(plan.num_states)}
        changed = True
        while changed:
            changed = False
            for state, rows in enumerate(plan.delta):
                for _label, nexts in rows:
                    for following in nexts:
                        grown = reaches[state] | reaches[following]
                        if grown != reaches[state]:
                            reaches[state] = grown
                            changed = True
        for state, rows in enumerate(plan.delta):
            for _label, nexts in rows:
                for following in nexts:
                    assert plan.layer[state] <= plan.layer[following]
        for state in range(plan.num_states):
            for other in range(plan.num_states):
                same_scc = other in reaches[state] and state in reaches[other]
                assert (plan.layer[state] == plan.layer[other]) == same_scc
            on_cycle = any(
                state in reaches[following]
                for _label, nexts in plan.delta[state]
                for following in nexts
            )
            if on_cycle:
                assert plan.cyclic[plan.layer[state]]
        for layer, cyclic in enumerate(plan.cyclic):
            members = [s for s in range(plan.num_states) if plan.layer[s] == layer]
            assert members
            has_cycle = any(
                plan.layer[following] == layer
                for state in members
                for _label, nexts in plan.delta[state]
                for following in nexts
            )
            assert cyclic == has_cycle


class TestMultiSourceSweeps:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), graph=cyclic_graphs(), regex=nested_stars())
    def test_equals_reference(self, data, graph, regex):
        sources = data.draw(sources_of(graph))
        assert evaluate_rpq(regex, graph, sources) == reference.rpq_pairs(
            regex, graph, sources
        )


class TestPartitionedFixpoint:
    @pytest.mark.parametrize("parts", [2, 3])
    def test_equals_single_node_relation(self, parts):
        @settings(max_examples=60, deadline=None)
        @given(data=st.data(), graph=cyclic_graphs(), regex=nested_stars())
        def law(data, graph, regex):
            sources = data.draw(sources_of(graph))
            text = to_string(regex)
            cut = Cut(graph, parts)
            assert cut.evaluate(text, sources) == evaluate_rpq(text, graph, sources)

        law()


class TestTrips:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        graph=cyclic_graphs(),
        regex=nested_stars(),
        k=st.integers(min_value=0, max_value=12),
    )
    def test_max_rows_partial_is_exactly_k_of_the_answer(self, data, graph, regex, k):
        sources = data.draw(sources_of(graph))
        full = evaluate_rpq(regex, graph, sources)
        budget = QueryBudget(max_rows=k, stride=1)
        if len(full) <= k:
            assert evaluate_rpq(regex, graph, sources, budget=budget) == full
            return
        with pytest.raises(BudgetExceeded) as excinfo:
            evaluate_rpq(regex, graph, sources, budget=budget)
        assert excinfo.value.limit == "max_rows"
        partial = set(excinfo.value.partial)
        assert len(partial) == k
        assert partial <= full

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        graph=cyclic_graphs(),
        regex=nested_stars(),
        states=st.integers(min_value=1, max_value=30),
    )
    def test_max_states_partial_is_a_subset(self, data, graph, regex, states):
        sources = data.draw(sources_of(graph))
        full = evaluate_rpq(regex, graph, sources)
        try:
            answer = evaluate_rpq(
                regex, graph, sources, budget=QueryBudget(max_states=states, stride=1)
            )
        except BudgetExceeded as exc:
            assert exc.limit == "max_states"
            assert set(exc.partial) <= full
        else:
            assert answer == full
