"""Distributed chaos: shard loss is typed, stragglers cannot stall a query.

The non-negotiable law: a query over a degraded fleet either raises the
typed :class:`ShardUnavailableError`, or trips its budget with a *typed*
partial — it must never return a silently-short answer set as if it were
complete.
"""

import time

import pytest

from repro.distributed import ShardCoordinator
from repro.engine.limits import BudgetExceeded, make_budget
from repro.graph.generators import random_graph
from repro.rpq.evaluation import evaluate_rpq
from repro.server.app import ServerThread
from repro.server.protocol import ShardUnavailableError

#: Coordinator-side wall-clock budget for the straggler tests (seconds).
SHORT_TIMEOUT = 0.6

#: How long the armed straggler shard sleeps — several times the budget,
#: so only deadline propagation can explain a fast trip.
STRAGGLER_DELAY = 2.5


@pytest.fixture()
def cluster():
    servers = [ServerThread().start() for _ in range(3)]
    coordinator = ShardCoordinator([server.address for server in servers])
    graph = random_graph(30, 90, labels=("a", "b"), seed=17)
    coordinator.partition_graph("chaos", graph)
    yield coordinator, servers, graph
    coordinator.close()
    for server in servers:
        server.stop()


class TestShardLoss:
    def test_shard_error_mid_round_is_typed(self, cluster, faults):
        coordinator, _servers, _graph = cluster
        # The armed site fires inside whichever shard reaches its
        # frontier_step first; the shard answers with a typed 'internal'
        # envelope and the coordinator wraps it as shard_unavailable.
        faults.arm("shard.frontier_step", times=1)
        with pytest.raises(ShardUnavailableError) as excinfo:
            coordinator.evaluate_rpq("chaos", "(a + b)*")
        assert excinfo.value.code == "shard_unavailable"
        assert "round" in excinfo.value.details
        # The fleet recovers once the fault is spent: same query, exact
        # answer (and the failed attempt must not have poisoned the cache).
        assert coordinator.evaluate_rpq("chaos", "(a + b)*") == evaluate_rpq(
            "(a + b)*", _graph
        )

    def test_dead_shard_process_is_typed(self, cluster):
        coordinator, servers, _graph = cluster
        servers[1].stop()
        with pytest.raises(ShardUnavailableError):
            coordinator.evaluate_rpq("chaos", "a (a + b)*")

    def test_failed_query_never_caches_a_partial_answer(self, cluster, faults):
        coordinator, _servers, graph = cluster
        faults.arm("shard.frontier_step", times=1)
        with pytest.raises(ShardUnavailableError):
            coordinator.evaluate_rpq("chaos", "a b a*")
        # A second, healthy run must recompute — not serve anything the
        # broken round left behind.
        assert coordinator.evaluate_rpq("chaos", "a b a*") == evaluate_rpq(
            "a b a*", graph
        )


class TestStragglers:
    def test_straggler_trips_the_distributed_deadline(self, cluster, faults):
        coordinator, _servers, _graph = cluster
        # delay + drop = a pure straggler: the shard sleeps through most of
        # the budget, then would continue normally.  The coordinator ships
        # (deadline - DEFAULT_RTT_SLACK) as the shard-side round timeout, so the
        # *shard* trips and answers with a typed timeout envelope — the
        # coordinator never waits out the full sleep.
        faults.arm(
            "shard.frontier_step", delay=STRAGGLER_DELAY, drop=True, times=1
        )
        started = time.monotonic()
        with pytest.raises(BudgetExceeded) as excinfo:
            coordinator.evaluate_rpq(
                "chaos", "(a + b)*", budget=make_budget(timeout=SHORT_TIMEOUT)
            )
        elapsed = time.monotonic() - started
        assert excinfo.value.limit == "timeout"
        # Tripped within roughly one round of the budget, well before the
        # straggler would have woken up.
        assert elapsed < STRAGGLER_DELAY - 0.5

    def test_exhausted_deadline_trips_between_rounds(self, cluster):
        coordinator, _servers, _graph = cluster
        budget = make_budget(timeout=1e-9)
        with pytest.raises(BudgetExceeded) as excinfo:
            coordinator.evaluate_rpq("chaos", "a*", budget=budget)
        assert excinfo.value.limit == "timeout"
