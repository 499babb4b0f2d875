"""Relation queries run on the CSR snapshot and on nothing else.

What the default path does now that the dict kernel, the reversed-graph
copy and the index-backed planner statistics are gone:

* one RPQ, one ``rpq_holds`` and a CRPQ whose plan has a forward, a
  backward and a full atom build exactly one structure, the CSR;
* a backward atom after a write rides the O(edit) catch-up (a patch, not a
  build) and leaves the earlier snapshot's reversed rows untouched;
* ``rpq_holds`` is the single-source BFS with a target to stop at — exact
  against the seed evaluator, budgeted, and early to exit;
* :class:`~repro.engine.cardinality.CardinalityModel` reads its per-label
  counts off the CSR rows, once per snapshot.

Each test here fails at the commit before that change.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crpq.ast import parse_crpq
from repro.crpq.evaluation import evaluate_crpq
from repro.crpq.planning import cost_plan
from repro.engine import kernel
from repro.engine.cardinality import CardinalityModel
from repro.engine.csr import get_csr
from repro.engine.limits import BudgetExceeded, QueryBudget
from repro.engine.stats import EngineStats
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.graph.generators import label_path
from repro.rpq.evaluation import evaluate_rpq, rpq_holds

from tests.engine.test_differential import graphs, regexes


def ring_with_tail() -> EdgeLabeledGraph:
    """``u0 -a-> u1 -a-> u2 -a-> u0`` plus ``u2 -b-> t``."""
    graph = EdgeLabeledGraph()
    for index in range(3):
        graph.add_edge(f"r{index}", f"u{index}", f"u{(index + 1) % 3}", "a")
    graph.add_edge("tail", "u2", "t", "b")
    return graph


# ----------------------------------------------------------------------
# one plane
# ----------------------------------------------------------------------
def test_relation_queries_build_the_csr_and_nothing_else():
    graph = ring_with_tail()
    stats = EngineStats()
    assert len(evaluate_rpq("a*", graph, stats=stats)) == 10
    assert rpq_holds("a.a", graph, "u0", "u2", stats=stats)
    # forward from the constant, full relation, backward into the constant
    query = parse_crpq(
        'q(x, y, z) :- a("u0", x), (a.b)(y, z), (a*)(x, "u2")'
    )
    answers = evaluate_crpq(query, graph, plan=list(query.atoms), stats=stats)
    assert answers == evaluate_crpq(query, graph, use_index=False)
    assert answers == {("u1", "u1", "t")}
    # and once more through the cost planner, which reads the statistics
    assert evaluate_crpq(query, graph, stats=stats) == answers
    assert stats.get("csr_builds") == 1
    assert graph._engine_csr._edge_rows is None  # no edge ids were packed


# ----------------------------------------------------------------------
# a backward atom after a write
# ----------------------------------------------------------------------
def test_backward_atom_after_writes_rides_the_catch_up():
    graph = ring_with_tail()
    query = parse_crpq('q(x) :- (a*.b)(x, "t")')
    stats = EngineStats()
    assert evaluate_crpq(query, graph, stats=stats) == {("u0",), ("u1",), ("u2",)}
    before = get_csr(graph)
    frozen = [
        (offsets.tobytes(), sources.tobytes()) for offsets, sources in before.in_rows
    ]
    held = list(before.in_rows)

    # a new answer through the backward atom
    graph.add_edge("w0", "fresh", "u0", "a")
    assert evaluate_crpq(query, graph, stats=stats) == evaluate_crpq(
        query, graph, use_index=False
    )
    assert ("fresh",) in evaluate_crpq(query, graph, stats=stats)
    assert stats.get("csr_patches") == 1

    # a new node *and* a new label, on the way into the constant
    graph.add_edge("w1", "far", "fresh", "c")
    wider = parse_crpq('q(x) :- (c.a*.b)(x, "t")')
    assert evaluate_crpq(wider, graph, stats=stats) == {("far",)}
    assert evaluate_crpq(wider, graph, use_index=False) == {("far",)}
    assert stats.get("csr_patches") == 2
    assert stats.get("csr_builds") == 1

    # copy on write: the first snapshot's reversed rows were never touched
    assert before.in_rows == held
    assert [
        (offsets.tobytes(), sources.tobytes()) for offsets, sources in before.in_rows
    ] == frozen
    assert get_csr(graph) is not before


# ----------------------------------------------------------------------
# rpq_holds on the CSR
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    graph=graphs(), regex=regexes(),
    source=st.integers(0, 5), target=st.integers(0, 5),
)
def test_holds_on_the_csr_equals_the_seed_evaluator(graph, regex, source, target):
    src, tgt = f"v{source}", f"v{target}"
    stats = EngineStats()
    assert rpq_holds(regex, graph, src, tgt, stats=stats) == rpq_holds(
        regex, graph, src, tgt, use_index=False
    )
    if graph.has_node(src) and graph.has_node(tgt):
        assert stats.get("csr_builds") + stats.get("csr_reuses") == 1


def test_holds_stops_at_the_target():
    graph = label_path(1999)
    stats = EngineStats()
    assert rpq_holds("a*", graph, "v0", "v1", stats=stats)
    assert stats.get("nodes_expanded") <= 2
    assert stats.get("csr_builds") == 1
    # the answer on the start node itself costs no expansion at all
    stats = EngineStats()
    assert rpq_holds("a*", graph, "v5", "v5", stats=stats)
    assert stats.get("nodes_expanded") == 0
    # no witness: the search runs to its fixpoint, as reachable does
    stats, full = EngineStats(), EngineStats()
    assert not rpq_holds("a*", graph, "v1990", "v0", stats=stats)
    compiled = kernel.compile_query("a*", graph)
    kernel.reachable(compiled, graph, "v1990", stats=full)
    assert stats.get("nodes_expanded") == full.get("nodes_expanded") == 10


def test_holds_trips_max_states_as_a_typed_error():
    graph = label_path(199)
    stats = EngineStats()
    with pytest.raises(BudgetExceeded) as caught:
        rpq_holds(
            "a*", graph, "v0", "v199", stats=stats,
            budget=QueryBudget(max_states=20, stride=1),
        )
    assert caught.value.limit == "max_states"
    # accounted like every other kernel loop: counted, and what was reached
    # before the trip rides along
    assert stats.get("budget_exceeded") == 1
    assert stats.get("nodes_expanded") == 21
    assert caught.value.partial == {f"v{index}" for index in range(21)}
    # the row ceiling is about answer rows; one boolean is not a row
    assert rpq_holds("a*", graph, "v0", "v199", budget=QueryBudget(max_rows=1))


# ----------------------------------------------------------------------
# planner statistics from the CSR
# ----------------------------------------------------------------------
def brute_force_statistics(graph):
    counts, sources, targets = {}, {}, {}
    for _edge, src, tgt, label in graph.iter_edge_records():
        counts[label] = counts.get(label, 0) + 1
        sources.setdefault(label, set()).add(src)
        targets.setdefault(label, set()).add(tgt)
    return (
        counts,
        {label: len(nodes) for label, nodes in sources.items()},
        {label: len(nodes) for label, nodes in targets.items()},
    )


def assert_model_matches(graph):
    model = CardinalityModel(graph)
    assert (
        model.label_counts, model.distinct_sources, model.distinct_targets
    ) == brute_force_statistics(graph)
    assert graph._engine_csr._edge_rows is None  # no edge ids were packed


@settings(max_examples=100, deadline=None)
@given(
    graph=graphs(max_nodes=6, max_edges=12),
    extra=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.sampled_from("abcd")),
        min_size=1, max_size=4,
    ),
)
def test_cardinality_model_from_the_csr_equals_a_brute_force_count(graph, extra):
    assert_model_matches(graph)
    # a catch-up that may add nodes and the label "d" the snapshot never saw
    for number, (src, tgt, label) in enumerate(extra):
        graph.add_edge(f"x{number}", f"v{src}", f"v{tgt}", label)
    assert_model_matches(graph)


def test_statistics_are_computed_once_per_snapshot():
    graph = ring_with_tail()
    query = parse_crpq("q(x, z) :- a(x, y), b(y, z)")
    cost_plan(query, graph)
    first = CardinalityModel(graph)
    cost_plan(query, graph)
    second = CardinalityModel(graph)
    for name in ("label_counts", "distinct_sources", "distinct_targets"):
        assert getattr(first, name) is getattr(second, name)
    assert get_csr(graph).label_statistics[0] is first.label_counts
    graph.add_edge("more", "t", "u0", "b")
    third = CardinalityModel(graph)
    assert third.label_counts is not first.label_counts
    assert third.label_counts["b"] == first.label_counts["b"] + 1
