"""Budget property tests: governance must never change *what* is computed.

Two laws, checked on randomized graphs and expressions:

1. a budget generous enough to never trip is invisible — the answers are
   identical to the unbudgeted run (and ``make_budget`` with no limits is
   literally the unbudgeted run);
2. ``max_rows=k`` on a query with more than ``k`` answers trips with a
   partial result that is *exactly* a k-subset of the full answer set —
   never a wrong row, never more than k, and never fewer when k rows
   exist.

The RPQ laws run on three layouts: the library's ``evaluate_rpq``, and
``ShardCoordinator.evaluate_rpq`` over a graph partitioned across, or
replicated to, two in-process shards (fewer examples there: every
evaluation uploads its graph under a fresh name, so no answer comes from
the coordinator's cache).

3. a warm answer cache keeps the row ceiling: after an unbudgeted query
   filled it, the same query under ``max_rows=k`` on the same graph name
   obeys law 2 — in-process ``QueryService.execute`` and both fleet
   layouts, for RPQs and CRPQs.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crpq.evaluation import evaluate_crpq
from repro.distributed import ShardCoordinator
from repro.engine.limits import BudgetExceeded, QueryBudget
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.regex.ast import Concat, Epsilon, Regex, Star, Symbol, Union, to_string
from repro.rpq.evaluation import evaluate_rpq
from repro.server.app import ServerThread
from repro.server.protocol import OP_TABLE, Request
from repro.server.service import QueryService

A, B = Symbol("a"), Symbol("b")

#: Hypothesis examples per RPQ layout.
LAYOUTS = {"library": 120, "partitioned": 30, "replicated": 30}

_fresh_names = itertools.count()


@pytest.fixture(scope="module")
def fleet():
    servers = [ServerThread().start() for _ in range(2)]
    coordinator = ShardCoordinator([server.address for server in servers])
    yield coordinator
    coordinator.close()
    for server in servers:
        server.stop()


def rpq_evaluator(layout: str, request):
    """``evaluate(regex, graph, budget=None)`` on ``layout``."""
    if layout == "library":
        return evaluate_rpq
    coordinator = request.getfixturevalue("fleet")
    distribute = (
        coordinator.partition_graph if layout == "partitioned"
        else coordinator.replicate_graph
    )

    def evaluate(regex, graph, budget=None):
        name = f"budget{next(_fresh_names)}"
        distribute(name, graph)
        return coordinator.evaluate_rpq(name, to_string(regex), budget=budget)

    return evaluate


def cached_evaluator(layout: str, kind: str, request):
    """``(load, evaluate)`` on ``layout``, through its answer cache:
    ``load(name, graph)`` puts ``graph`` under ``name``, and
    ``evaluate(name, text, budget=None)`` answers the ``kind`` query
    ``text`` there as a set of tuples."""
    if layout == "service":
        service = QueryService()

        def evaluate(name, text, budget=None):
            served = Request(kind, params={"graph": name, "query": text})
            result = service.execute(served, budget)
            return {tuple(row) for row in result[OP_TABLE[kind].answer]}

        return service.catalog.register, evaluate
    coordinator = request.getfixturevalue("fleet")
    load = (
        coordinator.partition_graph if layout == "partitioned"
        else coordinator.replicate_graph
    )
    evaluate_kind = (
        coordinator.evaluate_rpq if kind == "rpq" else coordinator.evaluate_crpq
    )

    def evaluate(name, text, budget=None):
        return set(evaluate_kind(name, text, budget=budget))

    return load, evaluate


def regexes(max_leaves: int = 6) -> st.SearchStrategy[Regex]:
    leaves = st.sampled_from([A, B, Epsilon()])

    def extend(children):
        return st.one_of(
            st.builds(lambda x, y: Union((x, y)), children, children),
            st.builds(lambda x, y: Concat((x, y)), children, children),
            st.builds(Star, children),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def small_graphs() -> st.SearchStrategy[EdgeLabeledGraph]:
    @st.composite
    def build(draw):
        num_nodes = draw(st.integers(min_value=1, max_value=4))
        edges = draw(
            st.lists(
                st.tuples(
                    st.integers(0, num_nodes - 1),
                    st.integers(0, num_nodes - 1),
                    st.sampled_from("ab"),
                ),
                max_size=6,
            )
        )
        graph = EdgeLabeledGraph()
        for index in range(num_nodes):
            graph.add_node(f"n{index}")
        for number, (src, tgt, label) in enumerate(edges):
            graph.add_edge(f"e{number}", f"n{src}", f"n{tgt}", label)
        return graph

    return build()


def generous_budget(stride: int) -> QueryBudget:
    """Limits far beyond anything a <=4-node graph can reach."""
    return QueryBudget(
        timeout=300.0, max_rows=10**9, max_states=10**9, stride=stride
    )


class TestGenerousBudgetIsInvisible:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_rpq_answers_identical(self, layout, request):
        evaluate = rpq_evaluator(layout, request)

        @settings(max_examples=LAYOUTS[layout], deadline=None)
        @given(regex=regexes(), graph=small_graphs(), stride=st.sampled_from([1, 3, 256]))
        def law(regex, graph, stride):
            unbudgeted = evaluate(regex, graph)
            budgeted = evaluate(regex, graph, budget=generous_budget(stride))
            assert budgeted == unbudgeted

        law()

    @settings(max_examples=40, deadline=None)
    @given(graph=small_graphs(), stride=st.sampled_from([1, 256]))
    def test_crpq_answers_identical(self, graph, stride):
        query = "Ans(x, y) :- a(x, z), b(z, y)"
        unbudgeted = evaluate_crpq(query, graph)
        budgeted = evaluate_crpq(query, graph, budget=generous_budget(stride))
        assert budgeted == unbudgeted


class TestMaxRowsIsAnExactSubset:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_rpq_partial_is_k_subset(self, layout, request):
        evaluate = rpq_evaluator(layout, request)

        @settings(max_examples=LAYOUTS[layout], deadline=None)
        @given(
            regex=regexes(),
            graph=small_graphs(),
            k=st.integers(min_value=0, max_value=5),
        )
        def law(regex, graph, k):
            full = evaluate(regex, graph)
            budget = QueryBudget(max_rows=k, stride=1)
            if len(full) <= k:
                assert evaluate(regex, graph, budget=budget) == full
                return
            with pytest.raises(BudgetExceeded) as excinfo:
                evaluate(regex, graph, budget=budget)
            exc = excinfo.value
            assert exc.limit == "max_rows"
            partial = set(exc.partial)
            assert len(partial) == k
            assert partial <= full

        law()

    @settings(max_examples=40, deadline=None)
    @given(graph=small_graphs(), k=st.integers(min_value=0, max_value=3))
    def test_crpq_partial_is_k_subset(self, graph, k):
        query = "Ans(x, y) :- a(x, y)"
        full = evaluate_crpq(query, graph)
        budget = QueryBudget(max_rows=k, stride=1)
        if len(full) <= k:
            assert evaluate_crpq(query, graph, budget=budget) == full
            return
        with pytest.raises(BudgetExceeded) as excinfo:
            evaluate_crpq(query, graph, budget=budget)
        exc = excinfo.value
        assert exc.limit == "max_rows"
        partial = set(exc.partial)
        assert len(partial) == k
        assert partial <= full


class TestWarmCacheKeepsTheRowCeiling:
    @pytest.mark.parametrize("kind", ["rpq", "crpq"])
    @pytest.mark.parametrize("layout", ["service", "partitioned", "replicated"])
    def test_hit_partial_is_k_subset(self, layout, kind, request):
        load, evaluate = cached_evaluator(layout, kind, request)

        @settings(max_examples=60 if layout == "service" else 30, deadline=None)
        @given(
            regex=regexes(max_leaves=4),
            graph=small_graphs(),
            k=st.integers(min_value=0, max_value=5),
        )
        def law(regex, graph, k):
            name = f"warm{next(_fresh_names)}"
            load(name, graph)
            text = to_string(regex)
            if kind == "crpq":
                text = f"Ans(x, y) :- ({text})(x, z), (a + b)(z, y)"
            full = evaluate(name, text)  # fills the cache
            budget = QueryBudget(max_rows=k, stride=1)
            if len(full) <= k:
                assert evaluate(name, text, budget) == full
                return
            with pytest.raises(BudgetExceeded) as excinfo:
                evaluate(name, text, budget)
            exc = excinfo.value
            assert exc.limit == "max_rows"
            partial = {tuple(row) for row in exc.partial}
            assert len(partial) == len(exc.partial) == k
            assert partial <= full

        law()


class TestTinyStateCeilingTripsOnRealWork:
    @settings(max_examples=60, deadline=None)
    @given(graph=small_graphs())
    def test_max_states_partial_is_subset(self, graph):
        """With stride=1 and a 1-state ceiling, any graph with edges trips;
        whatever partial survives must still be a subset of the truth."""
        regex = Star(Union((A, B)))
        full = evaluate_rpq(regex, graph)
        budget = QueryBudget(max_states=1, stride=1)
        try:
            answers = evaluate_rpq(regex, graph, budget=budget)
        except BudgetExceeded as exc:
            assert exc.limit == "max_states"
            assert exc.states_visited > 1
            assert set(exc.partial or ()) <= full
        else:
            assert answers == full
