"""All-sources sweeps seeded from the snapshot's label columns.

With ``sources=None`` an origin bit is a node id, so the first step out of
an initial state alone in the first automaton layer (every Glushkov
``q0``) is the same in every query: each label's edges carry their
sources' bits to their targets.  :meth:`CSRGraph.label_column` holds that
step per label, and the sweep merges the columns into the later layers
instead of expanding ``|V|`` seed codes.  Held here to

* the columns themselves: a brute-force count over the edges, and a write
  that replaces the snapshot replaces them;
* ``repro.reference``, on nullable and non-nullable expressions, Remark 11
  wildcards and an NFA wrapped with ``CompiledQuery.from_nfa`` (whose
  initial states seed code by code);
* the code-by-code sweep of the same relation: a sweep over the list of
  every node in id order numbers its bits as the column sweep does, seeds
  code by code, and must give the same masks and the same counters;
* the budget contract: a ``max_rows=k`` trip carries exactly ``k`` rows
  of the full answer, a ``max_states`` trip's partial is a subset of it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.automata.nfa import NFA
from repro.engine import kernel
from repro.engine.cache import CompiledQuery
from repro.engine.csr import get_csr
from repro.engine.limits import BudgetExceeded, QueryBudget
from repro.engine.stats import EngineStats
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.regex.ast import Concat, Star, Symbol, Union
from tests.engine.test_differential import LABELS, graphs, regexes
from tests.engine.test_sweep_layers import cyclic_graphs, nested_stars

A, B = Symbol("a"), Symbol("b")


def brute_force_column(graph, label) -> dict:
    """``{target: {sources}}`` of ``label``'s edges, by node object."""
    column: dict = {}
    for _edge, src, tgt, edge_label in graph.iter_edge_records():
        if edge_label == label:
            column.setdefault(tgt, set()).add(src)
    return column


def decoded(csr, label_int) -> dict:
    nodes = csr.interner.nodes
    return {
        nodes[target]: {nodes[bit] for bit in range(csr.num_nodes) if mask >> bit & 1}
        for target, mask in csr.label_column(label_int).items()
    }


def swept(compiled, graph, sources=None, budget=None):
    stats = EngineStats()
    relation = kernel.evaluate_sweep(
        compiled, graph, sources, stats=stats, budget=budget
    )
    return relation, stats


class TestLabelColumns:
    @settings(max_examples=100, deadline=None)
    @given(
        graph=graphs(max_nodes=6, max_edges=14),
        extra=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7), st.sampled_from("abd")),
            min_size=1, max_size=4,
        ),
    )
    def test_columns_equal_a_brute_force_count_across_writes(self, graph, extra):
        csr = get_csr(graph)
        for label_int, label in enumerate(csr.interner.labels):
            assert decoded(csr, label_int) == brute_force_column(graph, label)
        for number, (src, tgt, label) in enumerate(extra):
            graph.add_edge(f"x{number}", f"v{src}", f"v{tgt}", label)
        caught = get_csr(graph)
        assert caught is not csr
        for label_int, label in enumerate(caught.interner.labels):
            assert decoded(caught, label_int) == brute_force_column(graph, label)

    def test_a_write_replaces_the_columns_and_keeps_the_old_ones(self):
        graph = EdgeLabeledGraph()
        graph.add_edge("e0", "u", "w", "a")
        compiled = kernel.compile_query("a", graph)
        assert kernel.evaluate_sweep(compiled, graph) == {("u", "w")}
        before = get_csr(graph)
        held = dict(before.label_column(0))
        graph.add_edge("e1", "v", "w", "a")
        assert kernel.evaluate_sweep(compiled, graph) == {("u", "w"), ("v", "w")}
        assert before.label_column(0) == held


class TestAgainstTheReference:
    @settings(max_examples=200, deadline=None)
    @given(graph=cyclic_graphs(), regex=nested_stars())
    def test_relation_and_counters(self, graph, regex):
        compiled = kernel.compile_query(regex, graph)
        relation, stats = swept(compiled, graph)
        assert relation == reference.rpq_pairs(regex, graph)
        # The same relation seeded code by code: bit i is node i again.
        nodes = list(get_csr(graph).interner.nodes)
        by_code, code_stats = swept(compiled, graph, nodes)
        assert relation._masks == by_code._masks
        for counter in ("nodes_expanded", "edges_relaxed", "answers"):
            assert stats.get(counter) == code_stats.get(counter), counter

    @settings(max_examples=100, deadline=None)
    @given(graph=graphs(max_nodes=6, max_edges=14), regex=regexes())
    def test_wildcards_and_epsilon(self, graph, regex):
        relation, _stats = swept(kernel.compile_query(regex, graph), graph)
        assert relation == reference.rpq_pairs(regex, graph)

    @settings(max_examples=80, deadline=None)
    @given(
        graph=cyclic_graphs(),
        transitions=st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from(LABELS), st.integers(0, 3)),
            max_size=10,
        ),
        initial=st.sets(st.integers(0, 3), min_size=1),
        finals=st.sets(st.integers(0, 3)),
    )
    def test_an_nfa_with_any_initial_states(self, graph, transitions, initial, finals):
        nfa = NFA(range(4), LABELS, transitions, initial, finals)
        compiled = CompiledQuery.from_nfa(nfa)
        relation, stats = swept(compiled, graph)
        assert relation == reference.rpq_pairs(nfa, graph)
        nodes = list(get_csr(graph).interner.nodes)
        by_code, code_stats = swept(compiled, graph, nodes)
        assert relation._masks == by_code._masks
        assert stats.get("nodes_expanded") == code_stats.get("nodes_expanded")


class TestBudgets:
    @settings(max_examples=120, deadline=None)
    @given(
        graph=cyclic_graphs(),
        regex=st.sampled_from(
            [A, Star(A), Concat((A, B)), Union((A, B)), Star(Union((A, B)))]
        ),
        limit=st.integers(0, 12),
    )
    def test_max_rows_trip_carries_k_rows_of_the_answer(self, graph, regex, limit):
        compiled = kernel.compile_query(regex, graph)
        full = reference.rpq_pairs(regex, graph)
        try:
            relation, _stats = swept(
                compiled, graph, budget=QueryBudget(max_rows=limit)
            )
        except BudgetExceeded as exc:
            assert exc.limit == "max_rows"
            assert len(full) > limit
            assert len(exc.partial) == limit
            assert set(exc.partial) <= full
        else:
            assert len(full) <= limit
            assert relation == full

    @settings(max_examples=120, deadline=None)
    @given(graph=cyclic_graphs(), regex=nested_stars(), states=st.integers(1, 30))
    def test_max_states_partial_is_a_subset(self, graph, regex, states):
        compiled = kernel.compile_query(regex, graph)
        full = reference.rpq_pairs(regex, graph)
        budget = QueryBudget(max_states=states, stride=1)
        try:
            relation, _stats = swept(compiled, graph, budget=budget)
        except BudgetExceeded as exc:
            assert exc.limit == "max_states"
            assert set(exc.partial) <= full
        else:
            assert relation == full

    def test_a_nullable_trip_counts_like_the_seeds(self):
        """One tick per seed code and the row ceiling per identity answer:
        ``a*`` under ``max_rows=0`` trips at the first node, having
        visited one state, as the code-by-code seeding did."""
        graph = EdgeLabeledGraph()
        for index in range(5):
            graph.add_edge(f"e{index}", f"v{index}", f"v{(index + 1) % 5}", "a")
        compiled = kernel.compile_query("a*", graph)
        try:
            kernel.evaluate_sweep(compiled, graph, budget=QueryBudget(max_rows=0))
        except BudgetExceeded as exc:
            assert exc.states_visited == 1
            assert len(exc.partial) == 0
        else:
            raise AssertionError("a max_rows=0 sweep of a nullable query must trip")
