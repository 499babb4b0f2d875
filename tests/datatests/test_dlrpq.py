"""Tests for dl-RPQ evaluation: Example 21, Section 6.3 data filters."""

import pytest

from repro.datatests.dlrpq import dlrpq_pairs, evaluate_dlrpq
from repro.errors import InfiniteResultError
from repro.graph.generators import dated_path, label_path
from repro.graph.property_graph import PropertyGraph

#: Example 21's three expressions (ASCII carets instead of superscripts).
INCREASING_NODE_DATES = "(a^z)(x := date) ( [_](a^z)(date > x)(x := date) )*"
INCREASING_EDGE_DATES = "[a^z][x := date] ( (_)[a^z][date > x][x := date] )*"
INCREASING_EDGE_DATES_N2N = (
    "(_) [a^z][x := date] ( (_)[a^z][date > x][x := date] )* (_)"
)


class TestExample21Nodes:
    def test_increasing_node_dates_accepts(self):
        g = dated_path([1, 2, 3, 4], on="nodes")
        results = list(
            evaluate_dlrpq(INCREASING_NODE_DATES, g, "v0", "v3", mode="all")
        )
        assert len(results) == 1
        (binding,) = results
        assert binding.mu["z"] == ("v0", "v1", "v2", "v3")
        assert binding.path.objects == ("v0", "e0", "v1", "e1", "v2", "e2", "v3")

    def test_increasing_node_dates_rejects(self):
        g = dated_path([3, 4, 1, 2], on="nodes")
        assert (
            list(evaluate_dlrpq(INCREASING_NODE_DATES, g, "v0", "v3", mode="all"))
            == []
        )

    def test_node_label_must_match(self):
        g = dated_path([1, 2], on="nodes", label="a")
        # nodes carry label 'a'; a 'b' atom cannot match them
        results = list(evaluate_dlrpq("(b^z)", g, "v0", "v0", mode="all"))
        assert results == []
        results = list(evaluate_dlrpq("(a^z)", g, "v0", "v0", mode="all"))
        assert len(results) == 1
        assert results[0].path.objects == ("v0",)


class TestExample21Edges:
    def test_increasing_edge_dates_accepts(self):
        g = dated_path([1, 2, 3, 4], on="edges")
        results = list(
            evaluate_dlrpq(INCREASING_EDGE_DATES, g, "v0", "v4", mode="all")
        )
        assert len(results) == 1
        (binding,) = results
        assert binding.mu["z"] == ("e0", "e1", "e2", "e3")
        # edge-to-edge path: starts and ends with an edge
        assert binding.path.starts_with_edge and binding.path.ends_with_edge

    def test_example3_witness_rejected(self):
        """The date sequence 03-01, 04-01, 01-01, 02-01 that fools the naive
        GQL pattern (Example 3) is correctly rejected by the dl-RPQ."""
        g = dated_path(
            ["2025-01-03", "2025-01-04", "2025-01-01", "2025-01-02"], on="edges"
        )
        assert (
            list(evaluate_dlrpq(INCREASING_EDGE_DATES, g, "v0", "v4", mode="all"))
            == []
        )
        # ... but its increasing prefix of length 2 matches
        results = list(
            evaluate_dlrpq(INCREASING_EDGE_DATES, g, "v0", "v2", mode="all")
        )
        assert len(results) == 1

    def test_node_to_node_variant(self):
        g = dated_path([1, 2, 3], on="edges")
        results = list(
            evaluate_dlrpq(INCREASING_EDGE_DATES_N2N, g, "v0", "v3", mode="all")
        )
        assert len(results) == 1
        (binding,) = results
        assert not binding.path.starts_with_edge
        assert not binding.path.ends_with_edge

    def test_symmetry_of_design(self):
        """The node and edge versions are the same expression modulo
        swapping () and [] — the symmetry GQL lacks (Example 3)."""
        node_graph = dated_path([5, 1, 2], on="nodes")
        edge_graph = dated_path([5, 1, 2], on="edges")
        assert (
            list(
                evaluate_dlrpq(INCREASING_NODE_DATES, node_graph, "v0", "v2", mode="all")
            )
            == []
        )
        assert (
            list(
                evaluate_dlrpq(INCREASING_EDGE_DATES, edge_graph, "v0", "v3", mode="all")
            )
            == []
        )


class TestDataFilters63:
    """Section 6.3: shortest + data filters must look beyond shortest paths."""

    QUERY_ONE_CHEAP = (
        "(_) ([Transfer](_))* [Transfer][amount < 4500000](_) ([Transfer](_))*"
    )

    def test_direct_path_invalid(self, fig3):
        """path(a3, t7, a5) has no transfer under 4.5M."""
        assert fig3.get_property("t7", "amount") >= 4_500_000

    def test_shortest_valid_path_is_length_three(self, fig3):
        results = list(
            evaluate_dlrpq(self.QUERY_ONE_CHEAP, fig3, "a3", "a5", mode="shortest")
        )
        assert results
        lengths = {len(binding.path) for binding in results}
        assert lengths == {3}
        paths = {binding.path.edges() for binding in results}
        assert ("t6", "t9", "t10") in paths

    def test_two_cheap_transfers_require_cycle(self, fig3):
        two_cheap = (
            "(_) ([Transfer](_))* [Transfer][amount < 4500000](_) ([Transfer](_))* "
            "[Transfer][amount < 4500000](_) ([Transfer](_))*"
        )
        results = list(
            evaluate_dlrpq(two_cheap, fig3, "a3", "a5", mode="shortest")
        )
        assert results
        assert all(not binding.path.is_simple() for binding in results)


class TestEngineMechanics:
    def test_stay_transitions_on_one_node(self):
        g = PropertyGraph()
        g.add_node("u", label="a", properties={"p": 5})
        results = list(
            evaluate_dlrpq("(a^z)(p = 5)(x := p)(p = x)", g, "u", "u", mode="all")
        )
        assert len(results) == 1
        assert results[0].path.objects == ("u",)
        assert results[0].mu["z"] == ("u",)

    def test_double_capture_same_object(self):
        g = PropertyGraph()
        g.add_node("u", label="a")
        results = list(evaluate_dlrpq("(a^z)(a^z)", g, "u", "u", mode="all"))
        assert len(results) == 1
        assert results[0].mu["z"] == ("u", "u")

    def test_capturing_stay_cycle_is_infinite(self):
        g = PropertyGraph()
        g.add_node("u", label="a")
        with pytest.raises(InfiniteResultError):
            list(evaluate_dlrpq("((a^z))*(a)", g, "u", "u", mode="all"))
        limited = list(
            evaluate_dlrpq("((a^z))*(a)", g, "u", "u", mode="all", limit=3)
        )
        assert len(limited) == 3
        assert {binding.mu["z"] for binding in limited} == {(), ("u",), ("u", "u")}

    def test_undefined_property_fails_test(self):
        g = PropertyGraph()
        g.add_node("u", label="a")
        assert list(evaluate_dlrpq("(p = 1)", g, "u", "u", mode="all")) == []
        assert list(evaluate_dlrpq("(x := p)", g, "u", "u", mode="all")) == []

    def test_unbound_variable_fails_test(self):
        g = PropertyGraph()
        g.add_node("u", label="a", properties={"p": 1})
        assert list(evaluate_dlrpq("(p = x)", g, "u", "u", mode="all")) == []

    def test_mixed_type_comparison_fails_quietly(self):
        g = PropertyGraph()
        g.add_node("u", label="a", properties={"p": "text"})
        assert list(evaluate_dlrpq("(p < 3)", g, "u", "u", mode="all")) == []

    def test_assignment_overwrites(self):
        """(a^z)(date < x)(x := date): the paper's re-assignment pattern."""
        g = dated_path([1, 5], on="nodes", label="a")
        query = "(a^z)(x := date)[a](a^z)(date > x)(x := date)"
        results = list(evaluate_dlrpq(query, g, "v0", "v1", mode="all"))
        assert len(results) == 1

    def test_pairs_terminate_on_cycles(self, fig3):
        """dlrpq_pairs decides on the finite configuration graph even though
        the matching path set is infinite."""
        pairs = dlrpq_pairs("(_) ([Transfer](_))+", fig3)
        accounts = {f"a{i}" for i in range(1, 7)}
        assert pairs == {(u, v) for u in accounts for v in accounts}

    def test_pairs_with_sources(self, fig3):
        pairs = dlrpq_pairs("(_)[Transfer](_)", fig3, sources=["a3"])
        assert pairs == {("a3", "a2"), ("a3", "a4"), ("a3", "a5")}

    def test_simple_and_trail_modes(self, fig3):
        walk = "(_) ([Transfer](_))+"
        simple = list(evaluate_dlrpq(walk, fig3, "a3", "a5", mode="simple"))
        assert simple and all(b.path.is_simple() for b in simple)
        trail = list(evaluate_dlrpq(walk, fig3, "a3", "a3", mode="trail"))
        assert trail and all(b.path.is_trail() for b in trail)

    def test_unknown_endpoints(self, fig3):
        assert list(evaluate_dlrpq("(_)", fig3, "zz", "a1")) == []

    def test_empty_path_excluded(self):
        """A nullable dl-RPQ does not produce the empty path as a result —
        path() has no endpoints to select on."""
        g = PropertyGraph()
        g.add_node("u", label="a")
        assert list(evaluate_dlrpq("((a))*", g, "u", "u", mode="all")) == [
            b for b in evaluate_dlrpq("(a)", g, "u", "u", mode="all")
        ]


class TestShortestInfinityPrecision:
    def test_capturing_cycle_on_geodesic_raises(self):
        """A capturing stay-cycle at the minimal length makes even shortest
        infinite (mu pumps without lengthening the path)."""
        g = PropertyGraph()
        g.add_node("u", label="n")
        with pytest.raises(InfiniteResultError):
            list(evaluate_dlrpq("((n^z))*(n)", g, "u", "u", mode="shortest"))
        limited = list(
            evaluate_dlrpq("((n^z))*(n)", g, "u", "u", mode="shortest", limit=2)
        )
        assert len(limited) == 2
        assert all(binding.path.objects == ("u",) for binding in limited)

    def test_dead_capturing_branch_does_not_raise(self):
        """The infinity check runs on the useful, geodesic-restricted part:
        a capturing cycle inside an unsatisfiable union branch is ignored."""
        g = PropertyGraph()
        g.add_node("u", label="n")
        g.add_node("v", label="n")
        g.add_edge("e", "u", "v", "x")
        query = "(_)[x](_) + ((n^z))*(n)[x](_)[x](_)"
        results = list(evaluate_dlrpq(query, g, "u", "v", mode="shortest"))
        assert len(results) == 1
        assert results[0].path.edges() == ("e",)


class TestAmbiguity:
    def test_ambiguous_expression_is_linear_in_the_limit(self):
        """Section 6.1: ``(a + a.a)*`` gives the loop walked k times
        Fibonacci(k) runs.  Equal queue entries have equal futures, so the
        breadth-first queue keeps one of them: 40 results cost thousands of
        steps, not 10^8."""
        from repro.engine.limits import QueryBudget

        g = PropertyGraph()
        g.add_edge("e", "n0", "n0", "a")
        results = list(
            evaluate_dlrpq(
                "(_) ( [a](_) + [a](_)[a](_) )*", g, "n0", "n0",
                mode="all", limit=40, budget=QueryBudget(max_states=10_000),
            )
        )
        assert [len(binding.path) for binding in results] == list(range(40))


class TestLimit:
    @pytest.mark.parametrize("mode", ["all", "shortest", "simple", "trail"])
    def test_limit_zero_yields_nothing(self, fig3, mode):
        def bindings(limit):
            query = TestDataFilters63.QUERY_ONE_CHEAP
            return list(evaluate_dlrpq(query, fig3, "a3", "a5", mode, limit))

        assert bindings(0) == []
        assert len(bindings(1)) == 1

    def test_negative_limit_is_a_value_error(self, fig3):
        query = TestDataFilters63.QUERY_ONE_CHEAP
        with pytest.raises(ValueError):
            list(evaluate_dlrpq(query, fig3, "a3", "a5", mode="all", limit=-1))



class TestBudget:
    """A deadline stops the configuration-graph build, not only the
    enumeration after it: unbudgeted, this query spends half a second
    building before its first answer."""

    QUERY = "(_) [Transfer][x := date] ( (_)[Transfer][date > x][x := date] )* (_)"

    @pytest.fixture(scope="class")
    def transfers(self):
        from repro.graph.generators import random_transfer_network

        return random_transfer_network(2000, 20000, seed=1)

    @staticmethod
    def trips_in_time(run):
        """Run ``run`` and assert it raises a timeout within 0.2 s.

        The collector is paused for the timed call: a pass over what
        earlier tests left behind is not the evaluator's time."""
        import gc
        import time

        from repro.engine.limits import BudgetExceeded

        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            with pytest.raises(BudgetExceeded) as excinfo:
                run()
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        assert excinfo.value.limit == "timeout"
        assert elapsed < 0.2

    def test_deadline_stops_the_library_evaluation(self, transfers):
        from repro.engine.limits import QueryBudget

        self.trips_in_time(
            lambda: list(
                evaluate_dlrpq(
                    self.QUERY, transfers, "a0", "a1", mode="shortest", limit=5,
                    budget=QueryBudget(timeout=0.05),
                )
            )
        )

    def test_deadline_stops_the_served_query(self, transfers):
        from repro.engine.limits import QueryBudget
        from repro.server.protocol import Request
        from repro.server.service import QueryService

        service = QueryService()
        service.catalog.register("transfers", transfers)
        request = Request(
            op="dlrpq",
            params={
                "graph": "transfers", "query": self.QUERY, "source": "a0",
                "target": "a1", "mode": "shortest", "limit": 5,
            },
        )
        self.trips_in_time(
            lambda: service.execute(request, QueryBudget(timeout=0.05))
        )
        assert len(service.answer_cache) == 0


class TestServedOrder:
    """A served ``dlrpq`` with a ``limit`` answers alike on every catalog.

    Configurations extend in ``repr`` order of the out-edges, as path
    searches do, not in the order a graph inserted them: a lazy label view
    inserts its edges label by label, so on a durable catalog ``e2`` (label
    ``a``) came before ``e1`` (label ``b``) and ``limit=1`` picked it."""

    @staticmethod
    def two_edges():
        graph = PropertyGraph()
        graph.add_node("n0")
        graph.add_node("n1")
        graph.add_edge("e1", "n0", "n1", "b")
        graph.add_edge("e2", "n0", "n1", "a")
        return graph

    def test_memory_durable_and_mutated_catalogs_agree(self, tmp_path):
        from repro.server.protocol import Request
        from repro.server.service import GraphCatalog, QueryService

        request = Request(
            op="dlrpq",
            params={
                "graph": "g", "query": "(_)[_](_)", "source": "n0",
                "target": "n1", "mode": "all", "limit": 1,
            },
        )

        def paths(service):
            return [b["path"] for b in service.execute(request)["bindings"]]

        memory = QueryService()
        memory.catalog.register("g", self.two_edges())
        data_dir = str(tmp_path / "data")
        seeded = GraphCatalog(data_dir)
        seeded.register("g", self.two_edges())
        seeded.close()
        durable = QueryService(GraphCatalog(data_dir))
        try:
            assert paths(memory) == [["n0", "e1", "n1"]]
            assert paths(durable) == paths(memory)
            durable.execute(
                Request(
                    op="graphs.mutate",
                    params={"graph": "g", "edits": [{"kind": "add_node", "id": "n2"}]},
                )
            )
            assert paths(durable) == paths(memory)
        finally:
            durable.catalog.close()
