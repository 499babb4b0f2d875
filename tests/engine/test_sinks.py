"""First-step sinks: an all-sources sweep answers them from the label columns.

A *first-step sink* (``IntPlan.first_sinks``) is a successor of the
column-stepped initial state that is final, has no lowered rows and is
entered from that state only: the state after ``q0`` in ``a``, ``a + b``,
``_`` and ``!{a}``.  Where every later state is one, their codes would be
expanded only to OR their masks into the answers, so the sweep takes the
labels' columns as its answers and never builds a code.  Held here to

* ``repro.reference``, on single labels, unions of labels, wildcards,
  ``ε + a``, and shapes that stay off the shortcut (``a.b``; ``a*.b`` and
  ``(a.b)*.c``, whose last state has a second predecessor; ``a + b.c``
  and ``(a.b)* + c``, a sink beside states that are not; an initial sink
  of a ``from_nfa`` automaton);
* the code-by-code sweep over the node list: the same masks and the same
  ``nodes_expanded`` / ``edges_relaxed`` / ``answers``;
* the same sweep with the plan's sink marks cleared, which walks every
  sink code through its layer's bucket: the same masks in the same order,
  the same counters, and under ``max_states`` or ``max_rows`` the same
  trip with the same partial;
* the budget contract: a ``max_states=j`` trip matches the code-by-code
  run's count and partial wherever every sink is entered by one label (a
  sink entered by several labels holds its codes label by label, the
  code-by-code bucket node by node, so a trip inside it can cut a
  different set: ``_`` over ``v0 -b-> v5, v1 -a-> v6`` at ``max_states=5``
  keeps ``(v1, v6)`` here and ``(v0, v5)`` code by code, with or without
  the shortcut); a ``max_rows=k`` partial holds ``k`` rows of the answer,
  and where the answer is one sink's column they are the first ``k`` rows
  of the unbudgeted relation's decode (elsewhere a later layer can add
  rows to a target already decoded);
* the snapshot: a relation never merges into the CSR's own column.
"""

from contextlib import contextmanager

import pytest
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
from repro.regex.ast import Concat, Epsilon, Star, Union
from tests.engine.test_differential import ANY, NOT_A, A, B, C
from tests.engine.test_sweep_layers import cyclic_graphs

#: (query, how many first-step sinks its plan marks over labels a, b, c)
SHAPES = [
    (A, 1),
    (B, 1),
    (Union((A, B)), 2),
    (Union((A, B, C)), 3),
    (ANY, 1),
    (NOT_A, 1),
    (Union((Epsilon(), A)), 1),
    (Concat((A, B)), 0),
    (Concat((Star(A), B)), 0),
    # A sink beside states that are not: the whole plan stays unmarked.
    (Union((A, Concat((B, C)))), 0),
    (Concat((Star(Concat((A, B))), C)), 0),
    (Union((A, B, Concat((C, A)))), 0),
    (Union((Concat((A, C)), B, Concat((C, A)))), 0),
    (Union((Star(Concat((A, B))), C)), 0),
]
#: ``from_nfa`` automata: an initial state that is a final sink; a sink
#: that is also initial (off the shortcut); two labels into one sink.
INITIAL_SINK = CompiledQuery.from_nfa(NFA([0], "abc", [], [0], [0]))
INITIAL_SUCCESSOR = CompiledQuery.from_nfa(
    NFA([0, 1], "abc", [(0, "a", 1)], [0, 1], [1])
)
TWO_LABELS = CompiledQuery.from_nfa(
    NFA([0, 1], "abc", [(0, "a", 1), (0, "c", 1)], [0], [1])
)
QUERIES = [query for query, _marks in SHAPES] + [
    INITIAL_SINK, INITIAL_SUCCESSOR, TWO_LABELS,
]
#: Sinks entered by several labels, whose bucket order is not node order.
MULTI_LABEL = {ANY, NOT_A, TWO_LABELS}
#: Queries whose whole answer is one sink's column.
ONE_COLUMN = {A, B, ANY, NOT_A, TWO_LABELS}


def compiled_for(query, graph):
    if isinstance(query, CompiledQuery):
        return query
    return kernel.compile_query(query, graph)


@contextmanager
def sink_marks(compiled, graph, marks):
    """With ``marks=False`` the plan's sink marks are cleared inside the
    block: every sink code goes through its bucket."""
    plan = compiled.int_plan(get_csr(graph).interner)
    held = plan.first_sinks
    if not marks:
        plan.first_sinks = 0
    try:
        yield
    finally:
        plan.first_sinks = held


def run(compiled, graph, sources=None, budget=None, marks=True):
    """``(rows in decode order, counters, trip)`` of one sweep; ``trip`` is
    ``None`` or ``(limit, states visited)``, and the rows are the partial's
    then."""
    stats = EngineStats()
    with sink_marks(compiled, graph, marks):
        try:
            relation = kernel.evaluate_sweep(
                compiled, graph, sources, stats=stats, budget=budget
            )
            trip = None
        except BudgetExceeded as exc:
            relation = exc.partial
            trip = (exc.limit, exc.states_visited)
    counters = {
        name: stats.get(name)
        for name in ("nodes_expanded", "edges_relaxed", "answers")
    }
    return list(relation), counters, trip


def masks(compiled, graph, sources=None, marks=True):
    with sink_marks(compiled, graph, marks):
        return kernel.evaluate_sweep(compiled, graph, sources)._masks


def a_b_c_graph() -> EdgeLabeledGraph:
    graph = EdgeLabeledGraph()
    for index, label in enumerate("abcabc"):
        graph.add_edge(f"e{index}", f"v{index % 4}", f"v{(index + 1) % 4}", label)
    return graph


class TestMarks:
    @pytest.mark.parametrize(
        "query,marked", SHAPES, ids=[repr(query) for query, _ in SHAPES]
    )
    def test_which_states_are_first_step_sinks(self, query, marked):
        graph = a_b_c_graph()
        plan = kernel.compile_query(query, graph).int_plan(get_csr(graph).interner)
        assert plan.first_sinks.bit_count() == marked

    def test_sinks_of_an_nfa(self):
        interner = get_csr(a_b_c_graph()).interner
        assert INITIAL_SINK.int_plan(interner).first_sinks == 0
        assert INITIAL_SUCCESSOR.int_plan(interner).first_sinks == 0
        assert TWO_LABELS.int_plan(interner).first_sinks.bit_count() == 1


class TestSinkDifferential:
    @settings(max_examples=150, deadline=None)
    @given(graph=cyclic_graphs(), index=st.integers(0, len(QUERIES) - 1))
    def test_reference_code_by_code_and_unmarked(self, graph, index):
        query = QUERIES[index]
        compiled = compiled_for(query, graph)
        rows, counters, _trip = run(compiled, graph)
        assert set(rows) == reference.rpq_pairs(
            query.nfa if isinstance(query, CompiledQuery) else query, graph
        )
        nodes = list(get_csr(graph).interner.nodes)
        assert masks(compiled, graph) == masks(compiled, graph, nodes)
        assert run(compiled, graph, nodes)[1] == counters
        unmarked_rows, unmarked_counters, _ = run(compiled, graph, marks=False)
        assert rows == unmarked_rows
        assert list(masks(compiled, graph).items()) == list(
            masks(compiled, graph, marks=False).items()
        )
        assert counters == unmarked_counters

    @settings(max_examples=150, deadline=None)
    @given(
        graph=cyclic_graphs(),
        index=st.integers(0, len(QUERIES) - 1),
        states=st.integers(1, 24),
    )
    def test_max_states_trips_where_the_buckets_trip(self, graph, index, states):
        query = QUERIES[index]
        compiled = compiled_for(query, graph)

        def budgeted(**options):
            return run(
                compiled, graph, budget=QueryBudget(max_states=states, stride=1),
                **options,
            )

        rows, _counters, trip = budgeted()
        unmarked, _counters, unmarked_trip = budgeted(marks=False)
        assert (rows, trip) == (unmarked, unmarked_trip)
        if query not in MULTI_LABEL:
            nodes = list(get_csr(graph).interner.nodes)
            by_code, _counters, by_code_trip = budgeted(sources=nodes)
            assert trip == by_code_trip
            assert set(rows) == set(by_code)

    @settings(max_examples=150, deadline=None)
    @given(
        graph=cyclic_graphs(),
        index=st.integers(0, len(QUERIES) - 1),
        limit=st.integers(0, 16),
    )
    def test_max_rows_partial_is_k_rows_of_the_decode(self, graph, index, limit):
        query = QUERIES[index]
        compiled = compiled_for(query, graph)
        full, _counters, _trip = run(compiled, graph)
        rows, _counters, trip = run(
            compiled, graph, budget=QueryBudget(max_rows=limit)
        )
        if len(full) > limit:
            assert trip is not None and trip[0] == "max_rows"
            assert len(rows) == limit and set(rows) <= set(full)
            if query in ONE_COLUMN:
                assert set(rows) == set(full[:limit])
        else:
            assert trip is None and rows == full
        unmarked, _counters, unmarked_trip = run(
            compiled, graph, budget=QueryBudget(max_rows=limit), marks=False
        )
        assert set(rows) == set(unmarked) and trip == unmarked_trip


def test_a_relation_never_merges_into_the_snapshots_column():
    """``a + b`` and ``_`` OR several columns, then ``a`` and ``b`` answer
    alone; the CSR's columns hold what they held before all four."""
    graph = a_b_c_graph()
    graph.add_edge("x", "v0", "v2", "a")
    csr = get_csr(graph)
    label_ids = csr.interner._label_ids
    held = {
        label: dict(csr.label_column(label_ids[label])) for label in "abc"
    }
    for text in ("a + b", "_", "a", "b"):
        relation = kernel.evaluate_sweep(kernel.compile_query(text, graph), graph)
        assert relation == reference.rpq_pairs(text, graph)
    for label, column in held.items():
        assert csr.label_column(label_ids[label]) == column
    assert get_csr(graph) is csr
