"""Tests for the workload batch executor (``repro.engine.batch``)."""

import pytest

from repro.engine.batch import BatchExecutor, default_jobs
from repro.engine.stats import EngineStats
from repro.graph.generators import label_path, random_graph
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
        batch = BatchExecutor(jobs=1).run(graph, workload)
        for regex, result in zip(workload, batch.results):
            assert result == evaluate_rpq(regex, graph, use_index=False)

    def test_thread_pool_matches_inline(self, graph, workload):
        inline = BatchExecutor(jobs=1).run(graph, workload)
        pooled = BatchExecutor(jobs=3).run(graph, workload)
        assert inline.results == pooled.results

    def test_string_queries_and_source_pairs(self, graph):
        queries = [
            "a.b",
            ("a.b", "v0"),
            (parse_regex("(a+b)*"), "v1"),
            "c",
        ]
        batch = BatchExecutor(jobs=1).run(graph, queries)
        assert batch.results[0] == evaluate_rpq("a.b", graph, use_index=False)
        assert batch.results[1] == reachable_by_rpq(
            "a.b", graph, "v0", use_index=False
        )
        assert batch.results[2] == reachable_by_rpq(
            "(a+b)*", graph, "v1", use_index=False
        )

    def test_unknown_source_yields_empty(self, graph):
        batch = BatchExecutor(jobs=1).run(graph, [("a", "nope")])
        assert batch.results == [set()]

    def test_empty_workload(self, graph):
        batch = BatchExecutor(jobs=1).run(graph, [])
        assert batch.results == []
        assert batch.num_queries == 0
        assert batch.dedup_ratio == 1.0


class TestDeduplication:
    def test_structural_duplicates_collapse(self, graph):
        queries = ["a.b", parse_regex("a.b"), "a.b", "c"]
        batch = BatchExecutor(jobs=1).run(graph, queries)
        assert batch.num_queries == 4
        assert batch.num_unique == 2
        assert batch.results[0] is batch.results[1] is batch.results[2]

    def test_same_expression_different_source_distinct(self, graph):
        batch = BatchExecutor(jobs=1).run(graph, [("a", "v0"), ("a", "v1")])
        assert batch.num_unique == 2

    def test_counters(self, graph):
        stats = EngineStats()
        BatchExecutor(jobs=1).run(graph, ["a", "a", "b"], stats=stats)
        assert stats.get("batch_queries") == 3
        assert stats.get("batch_unique_queries") == 2


class TestGrouping:
    def test_run_grouped_shares_index_per_graph(self):
        left = label_path(4, label="a")
        right = label_path(6, label="b")
        stats = EngineStats()
        results = BatchExecutor(jobs=1).run_grouped(
            [(left, "a*"), (right, "b*"), (left, "a")],
            stats=stats,
        )
        assert results[0] == evaluate_rpq("a*", left, use_index=False)
        assert results[1] == evaluate_rpq("b*", right, use_index=False)
        assert results[2] == evaluate_rpq("a", left, use_index=False)
        # one adjacency build (the CSR snapshot, on the default data
        # plane) per distinct graph, no matter how many queries
        assert stats.get("csr_builds") == 2
        assert stats.get("index_builds") == 0


class TestProcessPool:
    def test_fork_matches_threads(self, graph, workload):
        try:
            forked = BatchExecutor(jobs=2, fork=True).run(graph, workload[:8])
        except (OSError, PermissionError) as error:  # pragma: no cover
            pytest.skip(f"process pools unavailable here: {error}")
        inline = BatchExecutor(jobs=1).run(graph, workload[:8])
        assert forked.results == inline.results

    def test_fork_merges_worker_timers(self, graph, workload):
        """Regression: fork workers must ship timers back, not just counters.

        Workers used to return a rounded ``as_dict()`` snapshot, which could
        zero out sub-microsecond phase timers; they now return the raw
        counter/timer dicts and the parent merges both.
        """
        stats = EngineStats()
        try:
            BatchExecutor(jobs=2, fork=True).run(graph, workload[:8], stats=stats)
        except (OSError, PermissionError) as error:  # pragma: no cover
            pytest.skip(f"process pools unavailable here: {error}")
        assert stats.get("nodes_expanded") > 0  # worker counters merged
        assert "bfs" in stats.timers  # worker timers merged
        assert stats.timers["bfs"] > 0.0
        assert "compile" in stats.timers

    def test_fork_traces_travel_back_as_dicts(self, graph, workload):
        from repro.engine.tracing import Tracer, use_tracer

        try:
            with use_tracer(Tracer()):
                batch = BatchExecutor(jobs=2, fork=True).run(graph, workload[:6])
        except (OSError, PermissionError) as error:  # pragma: no cover
            pytest.skip(f"process pools unavailable here: {error}")
        assert len(batch.timings) == batch.num_unique
        for entry in batch.timings:
            assert entry["trace"]["name"] == "batch.query"
            assert entry["trace"]["attributes"]["query"] == entry["query"]


class TestTelemetry:
    def test_latency_histogram_counts_unique_queries(self, graph, workload):
        batch = BatchExecutor(jobs=2).run(graph, workload)
        assert batch.latency_histogram is not None
        assert batch.latency_histogram.count == batch.num_unique
        assert batch.latency_histogram.total >= 0
        digest = batch.summary()
        assert digest["query_latency"]["count"] == batch.num_unique

    def test_timings_without_tracer_have_no_traces(self, graph):
        batch = BatchExecutor(jobs=1).run(graph, ["a.b", "c*"])
        assert [entry["trace"] for entry in batch.timings] == [None, None]
        assert all(entry["seconds"] >= 0 for entry in batch.timings)

    def test_slow_log_keeps_worst_queries(self, graph, workload):
        batch = BatchExecutor(jobs=1, slow_log=3).run(graph, workload)
        assert len(batch.slow_queries) == 3
        seconds = [entry["seconds"] for entry in batch.slow_queries]
        assert seconds == sorted(seconds, reverse=True)
        assert seconds[0] == max(entry["seconds"] for entry in batch.timings)
        digest = batch.summary()
        assert [entry["query"] for entry in digest["slow_queries"]] == [
            entry["query"] for entry in batch.slow_queries
        ]

    def test_slow_log_disabled_by_default(self, graph, workload):
        batch = BatchExecutor(jobs=1).run(graph, workload[:4])
        assert batch.slow_queries == []
        assert "slow_queries" not in batch.summary()

    def test_negative_slow_log_rejected(self):
        with pytest.raises(ValueError):
            BatchExecutor(slow_log=-1)

    def test_metrics_export(self, graph, workload):
        stats = EngineStats()
        batch = BatchExecutor(jobs=1).run(graph, workload[:6], stats=stats)
        registry = batch.metrics()
        assert registry.counters["engine_batch_queries"] == 6
        latency = registry.histograms["query_latency_seconds"]
        assert latency.count == batch.num_unique
        text = registry.render_prometheus()
        assert "repro_query_latency_seconds_count" in text


class TestRunner:
    def test_runner_matches_sequential(self, graph):
        log = generate_query_log(20, labels=LABELS, seed=9)
        batch = run_query_log(graph, log, jobs=2)
        seed = run_query_log_sequential(graph, log)
        assert batch.results == seed.results
        assert batch.mode == "batch"
        assert seed.mode == "sequential-seed"
        digest = batch.summary()
        assert digest["num_queries"] == 20
        assert digest["total_answers"] == batch.total_answers

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            BatchExecutor(jobs=0)

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestInterrupt:
    """Ctrl-C mid-workload keeps partial results and flags the batch."""

    def _interrupting_executor(self, monkeypatch, jobs, allow):
        """An executor whose evaluation raises KeyboardInterrupt after
        ``allow`` successful work items."""
        import threading

        executor = BatchExecutor(jobs=jobs)
        original = BatchExecutor._evaluate_one
        lock = threading.Lock()
        calls = {"n": 0}

        def flaky(self, graph, compiled_query, source, stats):
            with lock:
                calls["n"] += 1
                if calls["n"] > allow:
                    raise KeyboardInterrupt
            return original(self, graph, compiled_query, source, stats)

        monkeypatch.setattr(BatchExecutor, "_evaluate_one", flaky)
        return executor

    def test_inline_interrupt_keeps_partial_results(self, graph, monkeypatch):
        queries = ["a", "b", "c", "a b", "b c", "a*"]
        clean = BatchExecutor(jobs=1).run(graph, queries)  # before patching
        executor = self._interrupting_executor(monkeypatch, jobs=1, allow=3)
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

    def test_pool_interrupt_keeps_partial_results(self, graph, monkeypatch):
        queries = ["a", "b", "c", "a b", "b c", "a*", "b*", "c*"]
        clean = BatchExecutor(jobs=1).run(graph, queries)  # before patching
        executor = self._interrupting_executor(monkeypatch, jobs=4, allow=2)
        batch = executor.run(graph, queries)
        assert batch.interrupted
        assert 0 < batch.num_completed < len(queries)
        # every completed answer matches the uninterrupted evaluation
        for result, expected in zip(batch.results, clean.results):
            assert result is None or result == expected
        assert batch.latency_histogram.count == batch.num_completed

    def test_uninterrupted_batch_not_flagged(self, graph):
        batch = BatchExecutor(jobs=2).run(graph, ["a", "b"])
        assert not batch.interrupted
        assert "interrupted" not in batch.summary()
