"""Engine-level chaos: injected crashes degrade to typed, recoverable errors.

The invariants: an injected fault never corrupts a cache (no partial
entries, no stale answers), never takes sibling work items down with it,
and the very next attempt succeeds cleanly.
"""

import pytest

from repro.engine.batch import BatchExecutor
from repro.engine.cache import CompilationCache
from repro.engine.faults import FaultError
from repro.engine.limits import BudgetExceeded, QueryBudget
from repro.engine.stats import EngineStats
from repro.graph.generators import label_cycle
from repro.rpq.evaluation import evaluate_rpq


@pytest.fixture()
def cycle():
    return label_cycle(4)


class TestKernelFault:
    def test_crash_is_typed_and_next_call_succeeds(self, faults, cycle):
        faults.arm("kernel.evaluate")
        with pytest.raises(FaultError) as excinfo:
            evaluate_rpq("a+", cycle)
        assert excinfo.value.site == "kernel.evaluate"
        answers = evaluate_rpq("a+", cycle)
        assert answers  # a 4-cycle of 'a' edges: everything reaches everything


class TestKernelStepFault:
    """The mid-traversal site: fires per product-pair expansion in both of
    the kernel's loops, so chaos coverage reaches *inside* them."""

    def test_csr_and_dict_planes_raise_the_same_typed_fault(self, faults, cycle):
        # (named for the dict kernel that once carried the site too)
        faults.arm("kernel.step")
        with pytest.raises(FaultError) as excinfo:
            evaluate_rpq("a+", cycle)
        assert excinfo.value.site == "kernel.step"
        # a clean rerun recovers and agrees with the seed evaluator exactly
        fast = evaluate_rpq("a+", cycle)
        assert fast == evaluate_rpq("a+", cycle, use_index=False) and fast

    def test_single_source_paths_also_carry_the_site(self, faults, cycle):
        from repro.engine import kernel
        from repro.rpq.evaluation import reachable_by_rpq, rpq_holds

        node = next(iter(cycle.iter_nodes()))
        compiled = kernel.compile_query("a+", cycle)
        for search in (
            lambda: reachable_by_rpq("a+", cycle, node),
            lambda: kernel.reachable(compiled, cycle, node, backward=True),
            lambda: rpq_holds("a+", cycle, node, node),
        ):
            faults.arm("kernel.step")
            with pytest.raises(FaultError) as excinfo:
                search()
            assert excinfo.value.site == "kernel.step"
        assert reachable_by_rpq("a+", cycle, node) == \
            reachable_by_rpq("a+", cycle, node, use_index=False)
        assert rpq_holds("a+", cycle, node, node)

    def test_repeated_faults_leave_no_stale_state(self, faults, cycle):
        """Three consecutive mid-sweep crashes must not poison the cached
        CSR snapshot or the compiled plan: the fourth run is exact."""
        baseline = evaluate_rpq("a*", cycle)
        faults.arm("kernel.step", times=3)
        for _ in range(3):
            with pytest.raises(FaultError):
                evaluate_rpq("a*", cycle)
        assert evaluate_rpq("a*", cycle) == baseline


class TestCompileCacheFault:
    def test_failed_fill_leaves_no_partial_entry(self, faults, cycle):
        cache = CompilationCache()
        faults.arm("cache.compile")
        with pytest.raises(FaultError):
            cache.compile("a a", cycle.labels)
        assert len(cache) == 0, "a failed fill must not leave a cache entry"
        compiled = cache.compile("a a", cycle.labels)
        assert compiled is cache.compile("a a", cycle.labels)  # real hit now
        assert cache.hits == 1 and cache.misses == 1


class TestBatchWorkerFault:
    def test_crashed_items_fail_alone(self, faults, cycle):
        queries = ["a", "a a", "a+", "a*"]
        stats = EngineStats()
        executor = BatchExecutor()  # serial loop: firing order is fixed
        faults.arm("batch.worker", times=2)
        batch = executor.run(cycle, queries, stats=stats)
        assert batch.num_failed == 2
        failed = [error for error in batch.errors if error is not None]
        assert all(error["error"] == "fault" for error in failed)
        assert all(error["site"] == "batch.worker" for error in failed)
        # the sibling items still produced full answers
        survivors = [
            result
            for result, error in zip(batch.results, batch.errors)
            if error is None
        ]
        assert len(survivors) == 2 and all(survivors)
        assert stats.counters["batch_worker_faults"] == 2
        digest = batch.summary()
        assert digest["num_failed"] == 2
        assert {entry["error"] for entry in digest["errors"]} == {"fault"}

    def test_rerun_after_faults_is_clean(self, faults, cycle):
        executor = BatchExecutor()
        faults.arm("batch.worker")
        first = executor.run(cycle, ["a", "a a"])
        assert first.num_failed == 1
        second = executor.run(cycle, ["a", "a a"])
        assert second.num_failed == 0
        assert all(result is not None for result in second.results)


class TestBatchBudget:
    def test_expired_deadline_fails_every_item_structurally(self, cycle):
        executor = BatchExecutor()
        budget = QueryBudget(timeout=1e-6)
        batch = executor.run(cycle, ["a", "a a", "a+"], budget=budget)
        assert batch.num_failed == 3
        for error in batch.errors:
            assert error["error"] == "budget_exceeded"
            assert error["limit"] == "timeout"

    def test_generous_budget_matches_unbudgeted(self, cycle):
        executor = BatchExecutor()
        queries = ["a", "a a", "a+", "a*"]
        plain = executor.run(cycle, queries)
        budgeted = executor.run(
            cycle, queries, budget=QueryBudget(timeout=300.0, max_states=10**9)
        )
        assert budgeted.results == plain.results
        assert budgeted.num_failed == 0


class TestMidQueryCancellation:
    def test_cancel_unwinds_within_a_stride(self, cycle):
        from repro.engine.limits import CancellationToken

        token = CancellationToken()
        budget = QueryBudget(cancellation=token, stride=1)
        token.cancel("operator abort")
        with pytest.raises(BudgetExceeded) as excinfo:
            evaluate_rpq("a+", cycle, budget=budget)
        assert excinfo.value.limit == "cancelled"
