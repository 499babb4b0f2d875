"""Service-level chaos: the answer cache only ever holds complete answers.

Satellite invariant: a query stopped by its budget (or felled by an
injected fault) must leave *nothing* in the answer cache — the next
full-budget run recomputes and returns the complete answer set.
"""

import pytest

from repro.engine.faults import FaultError
from repro.engine.limits import BudgetExceeded, QueryBudget
from repro.server.protocol import Request
from repro.server.service import QueryService


def rpq_request(graph="fig2", query="Transfer*", **extra):
    return Request(op="rpq", params={"graph": graph, "query": query, **extra})


def counters(service):
    return service.metrics.as_dict()["counters"]


class TestBudgetsNeverPoisonTheCache:
    def test_tripped_budget_then_full_rerun_is_complete(self):
        service = QueryService()
        with pytest.raises(BudgetExceeded) as excinfo:
            service.execute(rpq_request(), QueryBudget(max_rows=1, stride=1))
        assert excinfo.value.limit == "max_rows"
        assert len(excinfo.value.partial) == 1
        assert len(service.answer_cache) == 0, "partial result must not be cached"
        full = service.execute(rpq_request())
        assert full["count"] == len(full["pairs"]) > 1
        # the partial the trip salvaged is a genuine subset of the truth
        pairs = {tuple(pair) for pair in full["pairs"]}
        assert set(excinfo.value.partial) <= pairs
        # and the cache now holds the *complete* answer: a warm hit matches
        warm = service.execute(rpq_request())
        assert warm == full
        assert service.answer_cache.info()["hits"] == 1

    def test_timeout_trip_then_rerun(self):
        service = QueryService()
        with pytest.raises(BudgetExceeded) as excinfo:
            service.execute(rpq_request(), QueryBudget(timeout=1e-6, stride=1))
        assert excinfo.value.limit == "timeout"
        assert len(service.answer_cache) == 0
        assert service.execute(rpq_request())["count"] > 1

    def test_budget_metrics_name_the_limit(self):
        service = QueryService()
        with pytest.raises(BudgetExceeded):
            service.execute(rpq_request(), QueryBudget(max_rows=0, stride=1))
        metrics = counters(service)
        assert metrics["server_budget_exceeded"] == 1
        assert metrics["server_budget_exceeded_max_rows"] == 1


class TestInjectedFaultsNeverPoisonTheCache:
    def test_execute_fault_leaves_no_entry(self, faults):
        service = QueryService()
        faults.arm("service.execute")
        with pytest.raises(FaultError):
            service.execute(rpq_request())
        assert len(service.answer_cache) == 0
        assert service.execute(rpq_request())["count"] > 1

    def test_cache_put_fault_degrades_to_uncached_answer(self, faults):
        service = QueryService()
        faults.arm("service.cache_put")
        first = service.execute(rpq_request())
        assert first["count"] > 1, "the answer itself must survive the fault"
        assert len(service.answer_cache) == 0, "the failed put stored nothing"
        assert counters(service)["server_cache_put_failures"] == 1
        # next identical query recomputes, answers identically, and caches
        second = service.execute(rpq_request())
        assert second == first
        assert len(service.answer_cache) == 1
        assert service.execute(rpq_request()) == first
        assert service.answer_cache.info()["hits"] == 1


class TestPathsOp:
    def test_paths_budget_trips_with_partial(self):
        service = QueryService()
        request = Request(
            op="paths",
            params={
                "graph": "fig2",
                "query": "Transfer+",
                "source": "a4",
                "target": "a4",
                "mode": "all",
                "limit": 10**3,
            },
        )
        with pytest.raises(BudgetExceeded) as excinfo:
            service.execute(request, QueryBudget(max_rows=1, stride=1))
        assert excinfo.value.limit == "max_rows"
        assert len(excinfo.value.partial) == 1
        assert len(service.answer_cache) == 0
        full = service.execute(request)
        assert full["count"] > 1
        assert excinfo.value.partial[0] in full["paths"]

    @staticmethod
    def paths_request(graph, query, source, target, mode):
        return Request(
            op="paths",
            params={
                "graph": graph, "query": query, "source": source,
                "target": target, "mode": mode, "limit": 10,
            },
        )

    def test_paths_longer_than_the_interpreter_stack(self):
        """No path search recurses: a 1500-edge geodesic is an answer, not
        an ``internal`` RecursionError."""
        from repro.graph.generators import label_path

        service = QueryService()
        service.catalog.register("chain", label_path(1500))
        for mode in ("shortest", "simple", "trail"):
            result = service.execute(
                self.paths_request("chain", "a*", "v0", "v1500", mode)
            )
            assert result["count"] == 1
            assert len(result["paths"][0]) == 2 * 1500 + 1

    def test_simple_paths_on_a_large_graph_trip_the_budget(self):
        """The NP-hard search dives thousands of edges deep before its first
        answer; what stops it is the budget — a typed error, never the
        interpreter's stack."""
        from repro.graph.generators import random_graph

        service = QueryService()
        service.catalog.register(
            "random", random_graph(2000, 16000, labels=("a", "b", "c", "d"), seed=1)
        )
        request = self.paths_request("random", "(a+b)*.c", "v0", "v1", "simple")
        with pytest.raises(BudgetExceeded) as excinfo:
            service.execute(request, QueryBudget(max_states=20000))
        assert excinfo.value.limit == "max_states"
        assert len(service.answer_cache) == 0
