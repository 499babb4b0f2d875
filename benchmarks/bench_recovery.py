"""Self-healing fleet: time-to-recovery and hedged tail latency.

Two claims, two benchmarks (DESIGN.md §14):

1. **A SIGKILLed worker is back — restarted, re-seeded, serving exact
   answers — within the launcher's startup timeout.**  A supervised
   2-worker replicated fleet runs a read workload; we kill one worker and
   clock the interval from the kill to the supervisor reporting the whole
   fleet healthy *and* the reborn worker answering an exact read on a
   fresh direct connection.  Throughout, every coordinator answer must be
   exact, a typed ``shard_unavailable``, or (never here — the flag is
   off) marked degraded: **zero** silently-wrong answers, gated even in
   smoke mode.

2. **Hedged reads cut the tail a slow replica creates.**  Three replicas,
   one wedged-but-alive (every query sleeps ``SLOW`` seconds); the same
   cache-busting workload runs unhedged and hedged.  Unhedged, every query
   rendezvous-routed to the slow primary pays ~``SLOW``; hedged, the race
   resolves in ~``HEDGE_AFTER`` + service time.  The gate compares p99.

Set ``REPRO_BENCH_SMOKE=1`` to shrink sizes and relax the latency gate to
a sanity check (CI smoke); the recovery-deadline and zero-wrong-answer
gates always apply.  Records land in ``BENCH_recovery.json``.
"""

import os
import signal
import threading
import time

from repro.distributed import (
    FleetSupervisor,
    ShardCoordinator,
    ShardLauncher,
)
from repro.graph.generators import random_graph
from repro.rpq.evaluation import evaluate_rpq
from repro.server.app import QueryServer, ServerThread
from repro.server.client import ConnectionLost, ServerClient, ServerError
from repro.server.protocol import Request, ShardUnavailableError
from repro.server.service import QueryService

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

STARTUP_TIMEOUT = 60.0

#: Recovery arm sizing.
RECOV_NODES = 40 if SMOKE else 200
RECOV_EDGES = 160 if SMOKE else 900

#: How long the injected slow replica holds each query, and the hedge.
SLOW = 0.4 if SMOKE else 0.8
HEDGE_AFTER = 0.05

#: Distinct queries per latency pass (cache-busting: each query is asked
#: exactly once per pass, so every sample pays real routing + evaluation).
TAIL_QUERIES = 12 if SMOKE else 60

LABELS = ("a", "b")

#: Query pool for the recovery workload readers.
POOL = (
    "(a + b)*",
    "a (a + b)*",
    "b* a",
    "(a b)*",
    "(b + a a)*",
    "a* b*",
)


def _graph(nodes, edges, seed=1307):
    return random_graph(nodes, edges, labels=LABELS, seed=seed)


class SlowService(QueryService):
    """One wedged-but-alive replica: query ops sleep ``delay`` first."""

    def __init__(self, delay: float, **kwargs):
        super().__init__(**kwargs)
        self.delay = delay

    def execute(self, request: Request, budget=None, **options):
        # Only a computing call on a pool worker sleeps: the server's
        # attempt on its event loop answers a hit at once and spills a
        # computation at its first budget check, so the wedge never
        # stalls the loop.
        if request.op in ("rpq", "crpq"):
            if options.get("on_loop"):
                budget = budget.spill_after(0)
            else:
                time.sleep(self.delay)
        return super().execute(request, budget, **options)


def _percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(len(ordered) * fraction))
    return ordered[index]


class TestKillRecovery:
    def test_worker_death_heals_within_the_startup_timeout(
        self, recovery_records
    ):
        graph = _graph(RECOV_NODES, RECOV_EDGES)
        expected = {
            query: evaluate_rpq(query, graph) for query in POOL
        }
        launcher = ShardLauncher(2, startup_timeout=STARTUP_TIMEOUT)
        supervisor = FleetSupervisor(
            launcher,
            heartbeat_interval=0.2,
            miss_threshold=2,
            backoff_base=0.05,
        )
        addresses = supervisor.start()  # real prober thread
        outcomes = {"exact": 0, "typed_error": 0, "degraded": 0, "wrong": 0}
        stop_readers = threading.Event()

        try:
            with ShardCoordinator(
                addresses, supervisor=supervisor, breaker_cooldown=0.3
            ) as coordinator:
                supervisor.on_restart = coordinator.notify_restart
                coordinator.replicate_graph("recov", graph)

                def reader():
                    position = 0
                    while not stop_readers.is_set():
                        query = POOL[position % len(POOL)]
                        position += 1
                        try:
                            result = coordinator.rpq("recov", query)
                        except (
                            ShardUnavailableError, ServerError,
                            ConnectionLost, OSError,
                        ):
                            outcomes["typed_error"] += 1
                            continue
                        if result.get("degraded"):
                            outcomes["degraded"] += 1
                        elif {
                            tuple(pair) for pair in result["pairs"]
                        } == expected[query]:
                            outcomes["exact"] += 1
                        else:
                            outcomes["wrong"] += 1

                reader_thread = threading.Thread(target=reader, daemon=True)
                reader_thread.start()
                time.sleep(0.5)  # steady-state reads before the kill

                victim = launcher._procs[0]
                killed_at = time.monotonic()
                os.kill(victim.pid, signal.SIGKILL)
                victim.wait(timeout=10.0)

                # "Healthy" only counts after the supervisor has actually
                # seen the death and restarted the worker — immediately
                # after the kill the states are still stale-HEALTHY.
                deadline = time.monotonic() + STARTUP_TIMEOUT
                healed = False
                while time.monotonic() < deadline:
                    restarted = any(
                        event["event"] == "restarted"
                        and event["shard"] == 0
                        for event in supervisor.events
                    )
                    if restarted and supervisor.healthy():
                        healed = True
                        break
                    time.sleep(0.05)
                # Healthy is not enough — the reborn worker must answer an
                # exact read on a fresh connection, not via any cache.
                with ServerClient(*launcher.addresses[0]) as direct:
                    reborn = direct.rpq("recov", "(a + b)*")
                recovery_seconds = time.monotonic() - killed_at

                stop_readers.set()
                reader_thread.join(timeout=10.0)
                reborn_pairs = {tuple(pair) for pair in reborn["pairs"]}

                restarted_events = [
                    event for event in supervisor.events
                    if event["event"] == "restarted"
                ]
        finally:
            stop_readers.set()
            supervisor.stop()

        recovery_records.append(
            {
                "bench": "fleet_kill_recovery",
                "smoke": SMOKE,
                "workers": 2,
                "graph_nodes": RECOV_NODES,
                "graph_edges": RECOV_EDGES,
                "recovery_seconds": round(recovery_seconds, 3),
                "gate_seconds": STARTUP_TIMEOUT,
                "healed": healed,
                "restart_events": len(restarted_events),
                "reads": outcomes,
            }
        )

        assert healed, f"fleet never healed; events: {supervisor.events}"
        assert recovery_seconds <= STARTUP_TIMEOUT
        assert restarted_events, supervisor.events
        assert reborn_pairs == expected["(a + b)*"]
        assert outcomes["wrong"] == 0, outcomes
        assert outcomes["exact"] > 0, outcomes


class TestHedgedTail:
    #: One cheap sourced query per sample — the route key includes the
    #: source, so distinct sources spread across the replicas (and bust
    #: every cache) while the evaluation cost stays uniform and small.
    TAIL_QUERY = "(a + b)*"

    def _latency_pass(self, servers, sources, primaries, slow_shard,
                      hedge_after):
        """One cache-busting scan of the distinct-source workload.

        Samples are paced: after a read whose primary is the slow shard,
        wait for the slow replica to finish its (lost) attempt before the
        next sample, so each sample measures one read's latency — not the
        pile-up of abandoned losers on the coordinator's thread pool and
        the slow worker's admission slots.
        """
        samples = []
        with ShardCoordinator(
            [server.address for server in servers],
            hedge_after=hedge_after,
        ) as coordinator:
            coordinator.attach_replicas("tail", factor=len(servers))
            for source, primary in zip(sources, primaries):
                started = time.perf_counter()
                result = coordinator.rpq(
                    "tail", self.TAIL_QUERY, source=source
                )
                elapsed = time.perf_counter() - started
                samples.append(elapsed)
                assert "degraded" not in result
                assert result["count"] == len(result["pairs"])
                if primary == slow_shard and elapsed < SLOW:
                    time.sleep(SLOW - elapsed + 0.05)
        return samples

    def test_hedging_cuts_p99_under_one_slow_replica(self, recovery_records):
        from repro.distributed.coordinator import rendezvous

        graph = _graph(RECOV_NODES, RECOV_EDGES, seed=23)
        sources = sorted(graph.nodes, key=repr)[:TAIL_QUERIES]
        # Rendezvous routing is name+query+source keyed, so primaries are
        # known before any server exists: wedge the shard that is primary
        # most often — the worst realistic placement for a slow replica.
        replicas = tuple(rendezvous("tail", range(3))[:3])
        primaries = [
            rendezvous(
                f"tail|rpq|{self.TAIL_QUERY}|{source!r}", replicas
            )[0]
            for source in sources
        ]
        slow_shard = max(set(primaries), key=primaries.count)
        slow_hits = primaries.count(slow_shard)
        slow_service = SlowService(SLOW)
        servers = [
            ServerThread(QueryServer(slow_service)).start()
            if shard == slow_shard else ServerThread().start()
            for shard in range(3)
        ]
        try:
            with ShardCoordinator(
                [server.address for server in servers]
            ) as seeder:
                seeder.replicate_graph("tail", graph)
            unhedged = self._latency_pass(
                servers, sources, primaries, slow_shard, None
            )
            hedged = self._latency_pass(
                servers, sources, primaries, slow_shard, HEDGE_AFTER
            )
        finally:
            for server in servers:
                server.stop()

        unhedged_p99 = _percentile(unhedged, 0.99)
        hedged_p99 = _percentile(hedged, 0.99)

        recovery_records.append(
            {
                "bench": "hedged_tail_latency",
                "smoke": SMOKE,
                "replicas": 3,
                "slow_seconds": SLOW,
                "hedge_after": HEDGE_AFTER,
                "queries": TAIL_QUERIES,
                "slow_primary_queries": slow_hits,
                "unhedged_p50": round(_percentile(unhedged, 0.50), 4),
                "unhedged_p99": round(unhedged_p99, 4),
                "hedged_p50": round(_percentile(hedged, 0.50), 4),
                "hedged_p99": round(hedged_p99, 4),
            }
        )

        # ~1/3 of queries route to the slow primary, so the unhedged tail
        # must contain ~SLOW samples; the hedged tail must not.
        assert unhedged_p99 >= SLOW * 0.9
        if not SMOKE:
            assert hedged_p99 < unhedged_p99 * 0.5, (
                f"hedged p99 {hedged_p99:.3f}s vs unhedged "
                f"{unhedged_p99:.3f}s — hedging did not cut the tail"
            )
