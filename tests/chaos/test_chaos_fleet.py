"""Resilience chaos: breakers trip and heal, hedging beats stragglers,
degraded reads are marked and never cached.

In-process counterpart of ``tests/distributed/test_fleet.py``: shard death
is *simulated* at the coordinator-side ``shard.crash`` fault site (armed
with :class:`ConnectionLost`, exactly what a torn transport raises), so the
breaker and fallback paths run deterministically without killing real
processes.  The laws:

* repeated shard death trips the shard's breaker; further requests fail
  **fast** with a typed ``shard_unavailable`` carrying ``retry_after``;
* after the cooldown the breaker half-opens, admits one probe, and a
  healthy shard closes it — reads are exact again;
* with ``allow_degraded``, an all-replicas-down read answers from the
  coordinator's retained copy, marked ``degraded: true``, and the marker
  **never** enters the answer cache under the full-result token key;
* a hedged read returns in ~hedge_after when one replica is slow, and the
  slow replica's late answer is discarded safely.
"""

import time

import pytest

from repro.distributed import ShardCoordinator
from repro.distributed.breaker import OPEN
from repro.engine.limits import BudgetExceeded
from repro.graph.generators import random_graph
from repro.rpq.evaluation import evaluate_rpq
from repro.server.app import QueryServer, ServerThread
from repro.server.client import ConnectionLost
from repro.server.protocol import Request, ShardUnavailableError
from repro.server.service import QueryService

#: How long the injected slow replica holds each rpq (seconds).
SLOW = 1.2

#: Hedge delay for the racing tests — far below SLOW, far above a healthy
#: in-process replica's service time.
HEDGE = 0.15


def make_cluster(num_shards: int = 3, slow_shard: "int | None" = None):
    servers = []
    for shard in range(num_shards):
        if shard == slow_shard:
            service = SlowService(SLOW)
            servers.append(ServerThread(QueryServer(service)).start())
        else:
            servers.append(ServerThread().start())
    return servers


class SlowService(QueryService):
    """A QueryService whose query ops sleep first — one wedged-but-alive
    replica, without touching the process-global fault registry."""

    def __init__(self, delay: float, **kwargs):
        super().__init__(**kwargs)
        self.delay = delay
        self.queries = 0

    def execute(self, request: Request, budget=None, **options):
        # Only a computing call on a pool worker sleeps: the server's
        # attempt on its event loop answers a hit at once and spills a
        # computation at its first budget check, so the wedge never
        # stalls the loop.
        if request.op in ("rpq", "crpq"):
            if options.get("on_loop"):
                budget = budget.spill_after(0)
            else:
                self.queries += 1
                time.sleep(self.delay)
        return super().execute(request, budget, **options)


@pytest.fixture()
def cluster():
    servers = make_cluster(3)
    yield servers
    for server in servers:
        server.stop()


@pytest.fixture()
def graph():
    return random_graph(24, 70, labels=("a", "b"), seed=23)


class TestBreakerLifecycle:
    def test_trips_fast_fails_then_half_opens_and_closes(
        self, cluster, graph, faults
    ):
        """The full breaker arc against one replica: repeated injected
        deaths trip it, refusals are instant and typed, the cooldown
        half-opens it, and one healthy probe closes it again."""
        with ShardCoordinator(
            [server.address for server in cluster],
            breaker_threshold=2,
            breaker_cooldown=0.4,
        ) as coordinator:
            coordinator.replicate_graph("chaos", graph, factor=1)
            (replica,) = coordinator._catalog["chaos"].replicas
            expected = evaluate_rpq("(a + b)*", graph)

            # Two consecutive injected deaths trip the replica's breaker.
            faults.arm(
                "shard.crash",
                error=ConnectionLost("injected shard death"),
                times=2,
            )
            with pytest.raises(ShardUnavailableError):
                coordinator.rpq("chaos", "(a + b)*")
            with pytest.raises(ShardUnavailableError):
                coordinator.rpq("chaos", "(a + b)*")
            assert coordinator.breakers[replica].state == OPEN

            # Open = fail fast: the refusal never touches the network, so
            # it resolves in microseconds and names the remaining cooldown.
            started = time.perf_counter()
            with pytest.raises(ShardUnavailableError) as excinfo:
                coordinator.rpq("chaos", "(a + b)*")
            assert time.perf_counter() - started < 0.1
            assert excinfo.value.details["retry_after"] > 0
            assert coordinator.breakers[replica].fast_failures >= 1

            # Cooldown elapses; the half-open probe finds a healthy shard
            # (the fault was spent) and the answer is exact again.
            time.sleep(0.45)
            result = coordinator.rpq("chaos", "(a + b)*")
            assert {tuple(pair) for pair in result["pairs"]} == expected
            assert coordinator.breakers[replica].state == "closed"

    def test_scatter_gather_fails_fast_on_open_breaker(
        self, cluster, graph, faults
    ):
        """The partitioned path shares the breakers: once a shard's breaker
        is open, a frontier round is refused instantly with retry_after —
        not after a transport timeout."""
        with ShardCoordinator(
            [server.address for server in cluster],
            breaker_threshold=1,
            breaker_cooldown=5.0,
        ) as coordinator:
            coordinator.partition_graph("chaos", graph)
            faults.arm(
                "shard.crash",
                error=ConnectionLost("injected shard death"),
                times=1,
            )
            with pytest.raises(ShardUnavailableError):
                coordinator.evaluate_rpq("chaos", "(a + b)*")
            started = time.perf_counter()
            with pytest.raises(ShardUnavailableError) as excinfo:
                coordinator.evaluate_rpq("chaos", "a (a + b)*")
            assert time.perf_counter() - started < 0.5
            assert excinfo.value.details.get("retry_after", 0) > 0

    def test_exactness_survives_failover(self, cluster, graph, faults):
        """One injected death with surviving replicas: the read fails over
        and the answer is exact — never short, never marked."""
        with ShardCoordinator(
            [server.address for server in cluster],
            breaker_threshold=3,
        ) as coordinator:
            coordinator.replicate_graph("chaos", graph)
            faults.arm(
                "shard.crash",
                error=ConnectionLost("injected shard death"),
                times=1,
            )
            result = coordinator.rpq("chaos", "(a + b)*")
            assert "degraded" not in result
            assert {tuple(pair) for pair in result["pairs"]} == evaluate_rpq(
                "(a + b)*", graph
            )


class TestDegradedReads:
    def arm_all_down(self, faults, times: int = 16) -> None:
        faults.arm(
            "shard.crash",
            error=ConnectionLost("injected shard death"),
            times=times,
        )

    def test_all_down_without_flag_is_typed_with_retry_after(
        self, cluster, graph, faults
    ):
        with ShardCoordinator(
            [server.address for server in cluster],
            breaker_threshold=1,
            breaker_cooldown=2.0,
        ) as coordinator:
            coordinator.replicate_graph("chaos", graph)
            self.arm_all_down(faults)
            with pytest.raises(ShardUnavailableError) as excinfo:
                coordinator.rpq("chaos", "(a + b)*")
            # Second ask: every breaker is now open, so the refusal is
            # instant and carries the soonest half-open admission time.
            with pytest.raises(ShardUnavailableError) as excinfo:
                coordinator.rpq("chaos", "(a + b)*")
            assert excinfo.value.details["retry_after"] > 0

    def test_degraded_read_is_marked_and_exact_shape(
        self, cluster, graph, faults
    ):
        with ShardCoordinator(
            [server.address for server in cluster],
            breaker_threshold=1,
            allow_degraded=True,
        ) as coordinator:
            coordinator.replicate_graph("chaos", graph)
            self.arm_all_down(faults)
            result = coordinator.rpq("chaos", "(a + b)*")
            assert result["degraded"] is True
            # Served from the coordinator's retained copy — which here is
            # exactly what the replicas were seeded with.
            assert {tuple(pair) for pair in result["pairs"]} == evaluate_rpq(
                "(a + b)*", graph
            )
            assert result["count"] == len(result["pairs"])

    def test_degraded_result_never_enters_the_answer_cache(
        self, cluster, graph, faults
    ):
        """The satellite-6 law: the coordinator's answer cache must never
        store a ``degraded: true`` result under the full-result token key.
        After the fleet heals, the same query must be served exact — a
        cached degraded answer would alias it forever."""
        with ShardCoordinator(
            [server.address for server in cluster],
            breaker_threshold=1,
            breaker_cooldown=0.2,
            allow_degraded=True,
        ) as coordinator:
            coordinator.replicate_graph("chaos", graph)
            # Exactly one injected death per replica: the first read consumes
            # them all, so the post-cooldown probes find healthy shards.
            self.arm_all_down(faults, times=3)
            degraded = coordinator.rpq("chaos", "(a + b)*")
            assert degraded["degraded"] is True
            # Nothing cached: the cache has no entry for this query at all.
            info = coordinator.answer_cache.info()
            assert info["size"] == 0
            # Same query, immediately: still degraded (recomputed), not a
            # cache hit of the marked result.
            again = coordinator.rpq("chaos", "(a + b)*")
            assert again["degraded"] is True
            # Heal the fleet (faults are spent; wait out the cooldown) and
            # the same key now yields the exact, unmarked answer.
            time.sleep(0.25)
            healed = coordinator.rpq("chaos", "(a + b)*")
            assert "degraded" not in healed
            # And *that* one was cached.
            assert coordinator.answer_cache.info()["size"] == 1
            cached = coordinator.rpq("chaos", "(a + b)*")
            assert "degraded" not in cached

    def test_degraded_read_keeps_the_read_budget(self, faults):
        """The fallback answers under the read's budget: a ``max_states``
        read trips on the retained copy as it trips on a live replica,
        instead of answering every pair of a large closure."""
        servers = make_cluster(2)
        try:
            with ShardCoordinator(
                [server.address for server in servers],
                breaker_threshold=1,
                allow_degraded=True,
            ) as coordinator:
                coordinator.replicate_graph(
                    "wide", random_graph(400, 1200, seed=5)
                )
                with pytest.raises(BudgetExceeded) as live:
                    coordinator.rpq("wide", "(a + b)*", max_states=10)
                assert live.value.limit == "max_states"
                self.arm_all_down(faults)
                with pytest.raises(BudgetExceeded) as degraded:
                    coordinator.rpq("wide", "(a + b)*", max_states=10)
                assert degraded.value.limit == "max_states"
        finally:
            for server in servers:
                server.stop()

    def test_degraded_refused_on_set_returning_paths(
        self, cluster, graph, faults
    ):
        """evaluate_rpq has no channel for the marker, so the degraded
        fallback must not leak through it — typed error instead."""
        with ShardCoordinator(
            [server.address for server in cluster],
            breaker_threshold=1,
            allow_degraded=True,
        ) as coordinator:
            coordinator.replicate_graph("chaos", graph)
            self.arm_all_down(faults)
            with pytest.raises(ShardUnavailableError) as excinfo:
                coordinator.evaluate_rpq("chaos", "(a + b)*")
            assert excinfo.value.details.get("degraded") is True


def query_routed_to(replicas, shard: int) -> str:
    """An RPQ whose rendezvous routing puts ``shard`` first — so the slow
    replica is the primary, the worst case for an unhedged read."""
    from repro.distributed.coordinator import rendezvous

    candidates = ["(a + b)*"] + [
        "(a + b)* + (b" + " b" * extra + ")" for extra in range(40)
    ]
    for candidate in candidates:
        key = f"chaos|rpq|{candidate}|None"
        if rendezvous(key, replicas)[0] == shard:
            return candidate
    raise AssertionError(f"no candidate query routed to shard {shard}")


class TestHedgedReads:
    def slow_cluster(self):
        """Three replicas; shard 0 sleeps SLOW seconds per query."""
        slow_service = SlowService(SLOW)
        servers = [ServerThread(QueryServer(slow_service)).start()]
        servers += [ServerThread().start() for _ in range(2)]
        return servers, slow_service

    def test_hedge_beats_a_slow_replica(self, graph):
        """The hedge fires after HEDGE and the healthy replica's answer
        returns in ~HEDGE + service time, not ~SLOW — and it is exact."""
        servers, slow_service = self.slow_cluster()
        try:
            with ShardCoordinator(
                [server.address for server in servers],
                hedge_after=HEDGE,
            ) as coordinator:
                coordinator.replicate_graph("chaos", graph)
                replicas = coordinator._catalog["chaos"].replicas
                query = query_routed_to(replicas, 0)
                started = time.perf_counter()
                result = coordinator.rpq("chaos", query)
                elapsed = time.perf_counter() - started
                assert {tuple(pair) for pair in result["pairs"]} == evaluate_rpq(
                    query, graph
                )
                assert "degraded" not in result
                # Much faster than waiting out the slow primary — and the
                # primary really was asked first (it counted the query).
                assert elapsed < SLOW * 0.75
                assert slow_service.queries >= 1
                counters = coordinator.metrics.as_dict()["counters"]
                assert counters["coordinator_hedged_requests_total"] >= 1
                assert counters["coordinator_hedge_wins_total"] >= 1
        finally:
            for server in servers:
                server.stop()

    def test_unhedged_read_waits_out_the_slow_primary(self, graph):
        """Control arm: the same routing without hedging waits ~SLOW."""
        servers, _slow_service = self.slow_cluster()
        try:
            with ShardCoordinator(
                [server.address for server in servers],
            ) as coordinator:
                coordinator.replicate_graph("chaos", graph)
                replicas = coordinator._catalog["chaos"].replicas
                query = query_routed_to(replicas, 0)
                started = time.perf_counter()
                coordinator.rpq("chaos", query)
                assert time.perf_counter() - started >= SLOW * 0.9
        finally:
            for server in servers:
                server.stop()

    def test_late_loser_answer_cannot_poison_the_next_read(self, graph):
        """After a hedged win, the loser's response is still in flight;
        subsequent reads through the coordinator must stay exact (the
        losing attempt's connection is private and discarded)."""
        servers, _slow_service = self.slow_cluster()
        try:
            with ShardCoordinator(
                [server.address for server in servers],
                hedge_after=HEDGE,
            ) as coordinator:
                coordinator.replicate_graph("chaos", graph)
                replicas = coordinator._catalog["chaos"].replicas
                query = query_routed_to(replicas, 0)
                coordinator.rpq("chaos", query)
                # Immediately issue different queries while the loser's
                # answer is still pending server-side; every result must
                # match single-node evaluation.
                for probe_query in ("a (a + b)*", "b* a", "(b + a a)*"):
                    result = coordinator.rpq("chaos", probe_query)
                    assert {
                        tuple(pair) for pair in result["pairs"]
                    } == evaluate_rpq(probe_query, graph)
        finally:
            for server in servers:
                server.stop()


class TestProbeFaultSite:
    def test_fleet_probe_site_registered(self, faults):
        """``fleet.probe`` is armable (the supervisor tests drive it via
        probe misses; here we only pin the registry contract)."""
        faults.arm("fleet.probe", times=1)
        assert "fleet.probe" in faults.armed_sites()
