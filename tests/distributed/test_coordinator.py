"""Coordinator differential tests: sharded evaluation must be *exact*.

The central acceptance property: ``ShardCoordinator.evaluate_rpq`` over a
partitioned graph equals single-node ``evaluate_rpq`` equals the naive
dict oracle (``use_index=False``) — on fixed graphs, on generated
graph/regex pairs (Hypothesis), for both partitioning strategies, for
full and source-restricted evaluation, and through the CRPQ join.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crpq.evaluation import evaluate_crpq
from repro.distributed import ShardCoordinator
from repro.engine.limits import BudgetExceeded, make_budget
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.graph.generators import random_graph
from repro.regex.ast import Concat, Epsilon, Star, Symbol, Union, to_string
from repro.rpq.evaluation import evaluate_rpq
from repro.server.app import ServerThread

NUM_SHARDS = 3

A, B = Symbol("a"), Symbol("b")

_unique_names = itertools.count()


@pytest.fixture(scope="module")
def cluster():
    servers = [ServerThread().start() for _ in range(NUM_SHARDS)]
    coordinator = ShardCoordinator([server.address for server in servers])
    yield coordinator
    coordinator.close()
    for server in servers:
        server.stop()


def fresh_name(prefix="g"):
    return f"{prefix}{next(_unique_names)}"


def regexes(max_leaves=6):
    leaves = st.sampled_from([A, B, Epsilon()])

    def extend(children):
        return st.one_of(
            st.builds(lambda x, y: Union((x, y)), children, children),
            st.builds(lambda x, y: Concat((x, y)), children, children),
            st.builds(Star, children),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


@st.composite
def graphs(draw):
    num_nodes = draw(st.integers(min_value=1, max_value=6))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1),
                st.integers(0, num_nodes - 1),
                st.sampled_from("ab"),
            ),
            max_size=10,
        )
    )
    graph = EdgeLabeledGraph()
    for index in range(num_nodes):
        graph.add_node(f"n{index}")
    for number, (src, tgt, label) in enumerate(edges):
        graph.add_edge(f"e{number}", f"n{src}", f"n{tgt}", label)
    return graph


class TestDifferential:
    @pytest.mark.parametrize("strategy", ["hash", "edge-cut"])
    @pytest.mark.parametrize(
        "query", ["a", "a b", "(a + b)*", "a (a + b)* b", "a* b a*"]
    )
    def test_sharded_equals_single_node(self, cluster, strategy, query):
        graph = random_graph(40, 120, labels=("a", "b"), seed=13)
        name = fresh_name()
        cluster.partition_graph(name, graph, strategy=strategy)
        assert cluster.evaluate_rpq(name, query) == evaluate_rpq(query, graph)

    def test_sourced_evaluation(self, cluster):
        graph = random_graph(30, 90, labels=("a", "b"), seed=21)
        name = fresh_name()
        cluster.partition_graph(name, graph)
        sources = ["v0", "v7", "v19"]
        assert cluster.evaluate_rpq(
            name, "a (a + b)*", sources=sources
        ) == evaluate_rpq("a (a + b)*", graph, sources=sources)

    def test_unknown_source_contributes_nothing(self, cluster):
        graph = random_graph(10, 20, labels=("a",), seed=2)
        name = fresh_name()
        cluster.partition_graph(name, graph)
        assert cluster.evaluate_rpq(
            name, "a*", sources=["v0", "ghost"]
        ) == evaluate_rpq("a*", graph, sources=["v0"])

    def test_crpq_joins_match(self, cluster):
        graph = random_graph(25, 75, labels=("a", "b"), seed=5)
        name = fresh_name()
        cluster.partition_graph(name, graph)
        query = "q(x, y) :- a b*(x, y), b(y, z)"
        assert cluster.evaluate_crpq(name, query) == evaluate_crpq(
            query, graph
        )

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(graph=graphs(), regex=regexes())
    def test_generated_graphs_and_regexes(self, cluster, graph, regex):
        query = to_string(regex)
        name = fresh_name("h")
        cluster.partition_graph(name, graph)
        sharded = cluster.evaluate_rpq(name, query)
        single = evaluate_rpq(query, graph)
        oracle = evaluate_rpq(query, graph, use_index=False)
        assert sharded == single == oracle


class TestReplicas:
    def test_replicated_routing_matches(self, cluster):
        graph = random_graph(20, 60, labels=("a", "b"), seed=8)
        name = fresh_name("r")
        info = cluster.replicate_graph(name, graph, factor=2)
        assert len(info["replicas"]) == 2
        result = cluster.rpq(name, "a b*")
        assert {tuple(pair) for pair in result["pairs"]} == evaluate_rpq(
            "a b*", graph
        )

    def test_replicated_evaluate_rpq_filters_sources(self, cluster):
        graph = random_graph(15, 40, labels=("a",), seed=9)
        name = fresh_name("r")
        cluster.replicate_graph(name, graph)
        assert cluster.evaluate_rpq(
            name, "a a*", sources=["v1", "v2"]
        ) == evaluate_rpq("a a*", graph, sources=["v1", "v2"])

    def test_partitioned_graph_rejects_whole_query_routing(self, cluster):
        from repro.server.protocol import BadRequestError

        graph = random_graph(6, 10, seed=0)
        name = fresh_name()
        cluster.partition_graph(name, graph)
        with pytest.raises(BadRequestError):
            cluster.rpq(name, "a")


class TestBudgetsAndCache:
    def test_deadline_trips_as_budget_exceeded(self, cluster):
        graph = random_graph(30, 90, labels=("a", "b"), seed=3)
        name = fresh_name()
        cluster.partition_graph(name, graph)
        with pytest.raises(BudgetExceeded) as excinfo:
            cluster.evaluate_rpq(
                name, "(a + b)*", budget=make_budget(timeout=1e-9)
            )
        assert excinfo.value.limit == "timeout"

    def test_max_rows_trips_with_partial(self, cluster):
        graph = random_graph(30, 90, labels=("a", "b"), seed=3)
        name = fresh_name()
        cluster.partition_graph(name, graph)
        full = cluster.evaluate_rpq(name, "(a + b) (a + b)")
        assert len(full) > 5
        with pytest.raises(BudgetExceeded) as excinfo:
            cluster.evaluate_rpq(
                name, "(a + b) (a + b)", budget=make_budget(max_rows=5)
            )
        exc = excinfo.value
        assert exc.limit == "max_rows"
        assert exc.partial is not None and set(exc.partial) <= full

    def test_cached_answers_still_honor_max_rows(self, cluster):
        graph = random_graph(20, 60, labels=("a", "b"), seed=6)
        name = fresh_name()
        cluster.partition_graph(name, graph)
        full = cluster.evaluate_rpq(name, "a (a + b)")  # populates the cache
        assert len(full) > 1
        with pytest.raises(BudgetExceeded) as excinfo:
            cluster.evaluate_rpq(
                name, "a (a + b)", budget=make_budget(max_rows=1)
            )
        assert excinfo.value.limit == "max_rows"
        assert len(excinfo.value.partial) == 1

    def test_repeat_query_hits_the_coordinator_cache(self, cluster):
        graph = random_graph(15, 45, labels=("a", "b"), seed=7)
        name = fresh_name()
        cluster.partition_graph(name, graph)
        first = cluster.evaluate_rpq(name, "b a*")
        hits_before = cluster.answer_cache.hits
        assert cluster.evaluate_rpq(name, "b a*") == first
        assert cluster.answer_cache.hits == hits_before + 1

    def test_reupload_invalidates_cached_answers(self, cluster):
        graph = random_graph(10, 30, labels=("a",), seed=1)
        name = fresh_name()
        cluster.partition_graph(name, graph)
        assert cluster.evaluate_rpq(name, "a") == evaluate_rpq("a", graph)
        bigger = random_graph(10, 60, labels=("a",), seed=2)
        cluster.partition_graph(name, bigger)
        assert cluster.evaluate_rpq(name, "a") == evaluate_rpq("a", bigger)

    def test_unknown_graph_raises(self, cluster):
        from repro.server.protocol import GraphNotFoundError

        with pytest.raises(GraphNotFoundError):
            cluster.evaluate_rpq("never-distributed", "a")


class TestSources:
    """Origin bit ``i`` is the ``i``-th distinct source that is a node: the
    iterable is read once, and what is left of it keys the cache."""

    QUERY = "a (a + b)*"

    @pytest.fixture(scope="class")
    def partitioned(self, cluster):
        graph = random_graph(50, 150, labels=("a", "b"), seed=17)
        name = fresh_name("s")
        cluster.partition_graph(name, graph)
        return name, graph

    def test_repeats_and_non_nodes_are_dropped(self, cluster, partitioned):
        name, graph = partitioned
        sources = ["v9", "v9", "nope", "v3"]
        assert cluster.evaluate_rpq(
            name, self.QUERY, sources=sources
        ) == evaluate_rpq(self.QUERY, graph, sources=["v9", "v3"])

    def test_one_shot_iterable_is_read_once_and_cached_by_content(
        self, cluster, partitioned
    ):
        name, graph = partitioned
        sources = ["v1", "v20", "v41"]
        expected = evaluate_rpq(self.QUERY, graph, sources=sources)
        assert expected
        assert cluster.evaluate_rpq(
            name, self.QUERY, sources=(source for source in sources)
        ) == expected
        hits_before = cluster.answer_cache.hits
        assert cluster.evaluate_rpq(name, self.QUERY, sources=sources) == expected
        assert cluster.answer_cache.hits == hits_before + 1

    def test_more_sources_than_a_machine_word(self, cluster, partitioned):
        name, graph = partitioned
        sources = [f"v{index}" for index in range(49, 9, -1)]
        assert cluster.evaluate_rpq(
            name, self.QUERY, sources=sources
        ) == evaluate_rpq(self.QUERY, graph, sources=sources)

    def test_no_sources_means_every_node(self, cluster, partitioned):
        name, graph = partitioned
        assert cluster.evaluate_rpq(name, self.QUERY, sources=None) == (
            evaluate_rpq(self.QUERY, graph)
        )


class TestOwnershipDisagreement:
    def test_bounced_codes_raise_instead_of_shortening_the_answer(self, cluster):
        # A shard that is told it owns nothing bounces every code it is
        # sent.  The coordinator already knows those bits, so re-routing
        # them is a no-op: it must fail typed, and cache nothing.
        from repro.server.protocol import ShardUnavailableError

        graph = random_graph(30, 90, labels=("a", "b"), seed=21)
        name = fresh_name()
        cluster.partition_graph(name, graph)
        entry = cluster._entry(name)
        honest = entry.owned_hex[0]
        entry.owned_hex[0] = "0"
        with pytest.raises(ShardUnavailableError) as excinfo:
            cluster.evaluate_rpq(name, "(a + b)*")
        assert "desynchronized mid-round" in str(excinfo.value)
        details = excinfo.value.details
        assert details["shard"] == 0
        assert details["round"] == 1
        assert details["bounced"] > 0
        entry.owned_hex[0] = honest
        hits_before = cluster.answer_cache.hits
        assert cluster.evaluate_rpq(name, "(a + b)*") == evaluate_rpq(
            "(a + b)*", graph
        )
        assert cluster.answer_cache.hits == hits_before
