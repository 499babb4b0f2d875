"""Tests for the workload batch executor (``repro.engine.batch``)."""

import pytest

from repro.engine.batch import BatchExecutor
from repro.engine.stats import EngineStats
from repro.graph.generators import random_graph
from repro.regex.parser import parse_regex
from repro.rpq.evaluation import evaluate_rpq, reachable_by_rpq
from repro.workloads.querylog import generate_query_log
from repro.workloads.runner import run_query_log, run_query_log_sequential

LABELS = ("a", "b", "c")


@pytest.fixture(scope="module")
def graph():
    return random_graph(40, 160, labels=LABELS, seed=13)


@pytest.fixture(scope="module")
def workload():
    log = generate_query_log(30, labels=LABELS, seed=2)
    return [regex for _shape, regex in log]


class TestBatchResults:
    def test_matches_per_query_oracle(self, graph, workload):
        batch = BatchExecutor().run(graph, workload)
        for regex, result in zip(workload, batch.results):
            assert result == evaluate_rpq(regex, graph, use_index=False)

    def test_string_queries_and_source_pairs(self, graph):
        queries = [
            "a.b",
            ("a.b", "v0"),
            (parse_regex("(a+b)*"), "v1"),
            "c",
        ]
        batch = BatchExecutor().run(graph, queries)
        assert batch.results[0] == evaluate_rpq("a.b", graph, use_index=False)
        assert batch.results[1] == reachable_by_rpq(
            "a.b", graph, "v0", use_index=False
        )
        assert batch.results[2] == reachable_by_rpq(
            "(a+b)*", graph, "v1", use_index=False
        )

    def test_unknown_source_yields_empty(self, graph):
        batch = BatchExecutor().run(graph, [("a", "nope")])
        assert batch.results == [set()]

    def test_empty_workload(self, graph):
        batch = BatchExecutor().run(graph, [])
        assert batch.results == []
        assert batch.num_queries == 0
        assert batch.dedup_ratio == 1.0


class TestDeduplication:
    def test_structural_duplicates_collapse(self, graph):
        queries = ["a.b", parse_regex("a.b"), "a.b", "c"]
        batch = BatchExecutor().run(graph, queries)
        assert batch.num_queries == 4
        assert batch.num_unique == 2
        assert batch.results[0] is batch.results[1] is batch.results[2]

    def test_same_expression_different_source_distinct(self, graph):
        batch = BatchExecutor().run(graph, [("a", "v0"), ("a", "v1")])
        assert batch.num_unique == 2

    def test_counters(self, graph):
        stats = EngineStats()
        BatchExecutor().run(graph, ["a", "a", "b"], stats=stats)
        assert stats.get("batch_queries") == 3
        assert stats.get("batch_unique_queries") == 2


class TestTelemetry:
    def test_latency_histogram_counts_unique_queries(self, graph, workload):
        batch = BatchExecutor().run(graph, workload)
        assert batch.latency_histogram is not None
        assert batch.latency_histogram.count == batch.num_unique
        assert batch.latency_histogram.total >= 0
        digest = batch.summary()
        assert digest["query_latency"]["count"] == batch.num_unique

    def test_timings_without_tracer_have_no_traces(self, graph):
        batch = BatchExecutor().run(graph, ["a.b", "c*"])
        assert [entry["trace"] for entry in batch.timings] == [None, None]
        assert all(entry["seconds"] >= 0 for entry in batch.timings)

    def test_slow_log_keeps_worst_queries(self, graph, workload):
        batch = BatchExecutor(slow_log=3).run(graph, workload)
        assert len(batch.slow_queries) == 3
        seconds = [entry["seconds"] for entry in batch.slow_queries]
        assert seconds == sorted(seconds, reverse=True)
        assert seconds[0] == max(entry["seconds"] for entry in batch.timings)
        digest = batch.summary()
        assert [entry["query"] for entry in digest["slow_queries"]] == [
            entry["query"] for entry in batch.slow_queries
        ]

    def test_slow_log_disabled_by_default(self, graph, workload):
        batch = BatchExecutor().run(graph, workload[:4])
        assert batch.slow_queries == []
        assert "slow_queries" not in batch.summary()

    def test_negative_slow_log_rejected(self):
        with pytest.raises(ValueError):
            BatchExecutor(slow_log=-1)

    def test_metrics_export(self, graph, workload):
        stats = EngineStats()
        batch = BatchExecutor().run(graph, workload[:6], stats=stats)
        registry = batch.metrics()
        assert registry.counters["engine_batch_queries"] == 6
        latency = registry.histograms["query_latency_seconds"]
        assert latency.count == batch.num_unique
        text = registry.render_prometheus()
        assert "repro_query_latency_seconds_count" in text


class TestRunner:
    def test_runner_matches_sequential(self, graph):
        log = generate_query_log(20, labels=LABELS, seed=9)
        batch = run_query_log(graph, log)
        seed = run_query_log_sequential(graph, log)
        assert batch.results == seed.results
        assert batch.mode == "batch"
        assert seed.mode == "sequential-seed"
        digest = batch.summary()
        assert digest["num_queries"] == 20
        assert digest["total_answers"] == batch.total_answers

class TestInterrupt:
    """Ctrl-C mid-workload keeps partial results and flags the batch."""

    def _interrupting_executor(self, monkeypatch, allow):
        """An executor whose evaluation raises KeyboardInterrupt after
        ``allow`` successful work items."""
        executor = BatchExecutor()
        original = BatchExecutor._evaluate_one
        calls = {"n": 0}

        def flaky(self, graph, compiled_query, source, stats):
            calls["n"] += 1
            if calls["n"] > allow:
                raise KeyboardInterrupt
            return original(self, graph, compiled_query, source, stats)

        monkeypatch.setattr(BatchExecutor, "_evaluate_one", flaky)
        return executor

    def test_inline_interrupt_keeps_partial_results(self, graph, monkeypatch):
        queries = ["a", "b", "c", "a b", "b c", "a*"]
        clean = BatchExecutor().run(graph, queries)  # before patching
        executor = self._interrupting_executor(monkeypatch, allow=3)
        batch = executor.run(graph, queries)
        assert batch.interrupted
        assert batch.num_completed == 3
        assert batch.results[:3] == clean.results[:3]
        assert all(result is None for result in batch.results[3:])
        # telemetry covers exactly the completed work
        assert batch.latency_histogram.count == 3
        assert len(batch.timings) == 3
        digest = batch.summary()
        assert digest["interrupted"] is True
        assert digest["num_completed"] == 3

    def test_uninterrupted_batch_not_flagged(self, graph):
        batch = BatchExecutor().run(graph, ["a", "b"])
        assert not batch.interrupted
        assert "interrupted" not in batch.summary()
