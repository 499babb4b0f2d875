"""The scatter-gather coordinator: shard workers, rounds, replicas.

DESIGN.md §11.  A :class:`ShardCoordinator` owns one
:class:`~repro.server.client.ServerClient` per shard worker (any ``repro
serve`` process) and evaluates RPQs over a graph partitioned by
:mod:`repro.engine.partition`:

1. **Seed** — every requested source node becomes ``(source, q0)`` product
   codes with a one-bit origin mask (bit ``i`` for the ``i``-th distinct
   source, so a k-source query exchanges k-bit masks), routed to the shard
   owning the source.
2. **Scatter** — each shard with a non-empty frontier gets one
   ``frontier_step`` request (in parallel: all but one on a thread pool,
   the last on the calling thread); the shard advances the frontier to a
   *local* fixpoint and returns answers plus cross-shard pairs.
3. **Gather** — the coordinator merges answers, filters cross pairs
   against the global ``known`` mask map (only *novel* origin bits travel
   again), and routes the novel bits to their owners as the next round's
   frontiers.  Masks grow monotonically, so the exchange reaches a
   fixpoint in at most ``diameter(product graph)`` rounds.

**Deadlines** propagate by budget forking: the coordinator's
:class:`~repro.engine.limits.QueryBudget` deadline, minus an RTT slack, is
shipped per round as each ``frontier_step``'s ``timeout`` param, so a
straggler shard trips *inside* the round instead of the coordinator
waiting out the stragglers.  **Fault handling**: a dead shard (connection
loss or a shard-side ``internal``/``shutting_down`` envelope) raises the
typed :class:`~repro.server.protocol.ShardUnavailableError`, and so does a
shard that bounces codes back as not its own (its ownership and the
coordinator's disagree) — a partial distributed answer is only ever
surfaced as a *typed* budget trip, never as a silently-short result set.

**Replicas**: :meth:`ShardCoordinator.replicate_graph` uploads full copies
to a rendezvous-hashed subset of shards; :meth:`rpq`/:meth:`crpq` route
whole queries to a replica (with failover down the preference list) — the
read-throughput path ``benchmarks/bench_shard.py`` gates.

**One answer-cache path**: routed reads, :meth:`evaluate_rpq` and
:meth:`evaluate_crpq` all memoize through the service's
:meth:`~repro.server.service.AnswerCache.lookup` under the service's
:func:`~repro.server.service.answer_key`, keyed on the upload token, so the
rule of what may be cached (complete answers only) is the service's.

**Resilience** (DESIGN.md §14): a per-shard
:class:`~repro.distributed.breaker.CircuitBreaker` turns repeated shard
deaths into instant typed refusals carrying a ``retry_after`` hint — one
rule, :meth:`ShardCoordinator._settle`, classifies every shard call's
outcome for it; ``hedge_after`` races slow replicated reads at the next
rendezvous replica (first answer wins); ``allow_degraded`` answers
replicated reads with the service's own handler on the coordinator's
retained copy — marked ``degraded: true`` and never cached — when every
replica is down.  Pair with a
:class:`~repro.distributed.fleet.FleetSupervisor` (``supervisor=``) and
dead workers are restarted and re-seeded behind the scenes.

A coordinator, like the underlying clients, is **not thread-safe**: drive
concurrency with one coordinator per thread (they can share one shard
fleet).
"""

from __future__ import annotations

import json
import logging
import os
import statistics
import subprocess
import sys
import threading
import time
from collections.abc import Set
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from contextlib import nullcontext
from functools import partial
from itertools import islice

from repro.distributed.breaker import BreakerOpenError, CircuitBreaker
from repro.engine.faults import fault_point
from repro.engine.limits import BudgetExceeded
from repro.engine.metrics import MetricsRegistry
from repro.engine.partition import (
    ShardMap,
    make_shard_map,
    partition_graph,
    stable_hash,
)
from repro.engine.relation import PairRelation
from repro.engine.stats import EngineStats
from repro.engine.tracing import get_tracer
from repro.distributed.frontier import (
    automaton_plan,
    encode_mask,
    encode_pairs,
    decode_pairs,
    node_order,
)
from repro.errors import ReproError
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.regex.ast import symbols, to_string
from repro.server.client import ConnectionLost, ServerClient, ServerError
from repro.server.protocol import (
    BadRequestError,
    GraphNotFoundError,
    Request,
    ShardUnavailableError,
)
from repro.server.service import AnswerCache, QueryService, answer_key

#: Seconds of network slack subtracted from the coordinator's remaining
#: deadline before it is shipped as a shard-side round timeout, so the
#: shard's own (partial-result-carrying) trip beats the transport timeout.
DEFAULT_RTT_SLACK = 0.05

#: Shard-side error codes the coordinator treats as "this shard is gone".
_SHARD_DOWN_CODES = frozenset(
    {"internal", "shutting_down", "graph_not_found", "shard_unavailable"}
)

#: The slow-round log (one ``logging`` record per round slower than the
#: coordinator's ``slow_round_ms``, message = a JSON object).
logger = logging.getLogger("repro.distributed.coordinator")

#: Sentinel for "no replica produced an answer" (a result of ``None`` must
#: stay distinguishable from exhaustion).
_NO_ANSWER = object()


def rendezvous(key: str, candidates) -> list[int]:
    """Candidates by descending rendezvous (highest-random-weight) score.

    Consistent hashing without a ring: each (key, candidate) pair gets a
    process-stable score, and removing a candidate only moves the keys it
    owned.  Used for replica *placement* (key = graph name) and replica
    *routing* (key = graph|op|query), so hot graphs spread reads across
    their replicas deterministically.
    """
    return sorted(
        candidates,
        key=lambda candidate: (stable_hash(f"{key}|{candidate}"), candidate),
        reverse=True,
    )


class ShardStartupError(ReproError):
    """A shard worker process failed to come up (bind failure, crash)."""

    def __init__(self, shard: int, message: str):
        super().__init__(f"shard {shard}: {message}")
        self.shard = shard


class ShardLauncher:
    """Spawn and supervise N ``repro serve`` worker processes.

    Each worker announces its bound address as a JSON line on stdout; a
    worker that exits instead (e.g. its port is already bound — the serve
    CLI turns that ``OSError`` into a one-line error and a nonzero exit)
    surfaces as :class:`ShardStartupError` naming the shard and relaying
    the worker's error line.
    """

    def __init__(
        self,
        num_shards: int,
        *,
        host: str = "127.0.0.1",
        ports: "list[int] | None" = None,
        query_timeout: "float | None" = None,
        max_concurrency: "int | None" = None,
        startup_timeout: float = 20.0,
        extra_args: tuple = (),
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if ports is not None and len(ports) != num_shards:
            raise ValueError("need exactly one port per shard")
        self.num_shards = num_shards
        self.host = host
        self.ports = list(ports) if ports is not None else [0] * num_shards
        self.query_timeout = query_timeout
        self.max_concurrency = max_concurrency
        self.startup_timeout = startup_timeout
        self.extra_args = tuple(extra_args)
        self.addresses: list[tuple[str, int]] = []
        self._procs: list[subprocess.Popen] = []

    def _command(self, port: int) -> list[str]:
        command = [
            sys.executable, "-m", "repro", "serve",
            "--host", self.host, "--port", str(port),
        ]
        if self.query_timeout is not None:
            command += ["--query-timeout", str(self.query_timeout)]
        if self.max_concurrency is not None:
            command += ["--max-concurrency", str(self.max_concurrency)]
        command += list(self.extra_args)
        return command

    def _environment(self) -> dict:
        import repro

        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root + os.pathsep + existing if existing else package_root
        )
        return env

    def start(self) -> list[tuple[str, int]]:
        """Spawn every worker and wait for its listening announcement."""
        if self._procs:
            return self.addresses
        env = self._environment()
        try:
            for shard, port in enumerate(self.ports):
                proc = subprocess.Popen(
                    self._command(port),
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                    env=env,
                )
                self._procs.append(proc)
                self.addresses.append(self._await_announce(shard, proc))
        except BaseException:
            self.stop()
            raise
        return self.addresses

    def _await_announce(
        self, shard: int, proc: subprocess.Popen
    ) -> tuple[str, int]:
        announced: dict = {}

        def read() -> None:
            for line in proc.stdout:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if payload.get("event") == "listening":
                    announced.update(payload)
                    return

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(self.startup_timeout)
        if announced:
            return (announced["host"], int(announced["port"]))
        # The reader sees stdout EOF a beat before the process is reapable;
        # give the exit a moment so a bind failure reports as one.
        try:
            status = proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            status = None
        if status is not None:
            stderr = (proc.stderr.read() or "").strip()
            reason = stderr.splitlines()[0] if stderr else "no error output"
            raise ShardStartupError(
                shard, f"worker exited with status {status}: {reason}"
            )
        proc.kill()
        raise ShardStartupError(
            shard, f"worker did not announce within {self.startup_timeout}s"
        )

    def poll(self, shard: int) -> "int | None":
        """The worker's exit status (``None`` while it is still running)."""
        if not self._procs:
            raise RuntimeError("launcher is not started")
        return self._procs[shard].poll()

    def respawn(self, shard: int) -> tuple[str, int]:
        """Kill (if needed) and relaunch one worker on its announced port.

        The originally-announced port is pinned so coordinator address
        lists and replica preference orders stay valid across the restart;
        SIGKILL (not SIGTERM) clears a wedged process, because respawn is
        only reached once the supervisor has already declared it dead —
        there is nothing left worth draining.  Raises
        :class:`ShardStartupError` when the replacement fails to announce
        (e.g. the pinned port is still held by a half-dead predecessor).
        """
        if not self._procs:
            raise RuntimeError("launcher is not started")
        old = self._procs[shard]
        if old.poll() is None:
            old.kill()
            old.wait()
        for stream in (old.stdout, old.stderr):
            if stream is not None:
                stream.close()
        host, port = self.addresses[shard]
        proc = subprocess.Popen(
            self._command(port),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=self._environment(),
        )
        self._procs[shard] = proc
        address = self._await_announce(shard, proc)
        self.addresses[shard] = address
        return address

    def stop(self, timeout: float = 15.0) -> None:
        """SIGTERM every worker (graceful drain) and reap it."""
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:  # pragma: no cover - watchdog
                proc.kill()
                proc.wait()
            for stream in (proc.stdout, proc.stderr):
                if stream is not None:
                    stream.close()
        self._procs = []
        self.addresses = []

    def __enter__(self) -> "ShardLauncher":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class _GraphEntry:
    """Coordinator-side state for one distributed graph."""

    __slots__ = (
        "name", "graph", "shard_map", "order", "order_index", "owned_hex",
        "labels", "replicas", "token",
    )

    def __init__(self, name: str, token: int):
        self.name = name
        self.token = token
        self.graph: "EdgeLabeledGraph | None" = None
        self.shard_map: "ShardMap | None" = None
        self.order: list = []
        self.order_index: dict = {}
        self.owned_hex: list[str] = []
        self.labels: frozenset = frozenset()
        self.replicas: tuple[int, ...] = ()


class ShardCoordinator:
    """Distributed query evaluation over a fleet of shard workers."""

    def __init__(
        self,
        addresses,
        *,
        retry=None,
        timeout: float = 60.0,
        answer_cache_size: int = 256,
        rtt_slack: float = DEFAULT_RTT_SLACK,
        telemetry: bool = True,
        slow_round_ms: "float | None" = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 1.0,
        hedge_after: "float | None" = None,
        allow_degraded: bool = False,
        supervisor=None,
    ):
        self.addresses = [tuple(address) for address in addresses]
        if not self.addresses:
            raise ValueError("need at least one shard address")
        if hedge_after is not None and hedge_after <= 0:
            raise ValueError("hedge_after must be positive (or None)")
        self.rtt_slack = rtt_slack
        self.timeout = timeout
        #: seconds to wait for a replica before racing the same read at the
        #: next rendezvous replica (``None`` disables hedging).
        self.hedge_after = hedge_after
        #: when every replica is down, serve replicated reads from the
        #: coordinator's retained copy with a ``degraded: true`` marker
        #: instead of raising ``shard_unavailable`` (opt-in; DESIGN.md §14).
        self.allow_degraded = allow_degraded
        #: an optional :class:`~repro.distributed.fleet.FleetSupervisor`;
        #: when present, partition/replica documents are recorded with it
        #: so a restarted worker can be re-seeded.
        self.supervisor = supervisor
        #: the coordinator's own registry (round counts, frontier sizes,
        #: wire bytes, straggler gaps); ``telemetry=False`` skips all of it
        #: — the bare baseline the disabled-overhead bench arm compares to.
        self.metrics = MetricsRegistry() if telemetry else None
        self.slow_round_ms = slow_round_ms
        self.answer_cache = AnswerCache(answer_cache_size)
        self._clients = [
            ServerClient(host, port, timeout=timeout, retry=retry)
            for host, port in self.addresses
        ]
        #: one breaker per shard, shared by the replica-routing and
        #: scatter-gather paths: a shard declared dead on one path fails
        #: fast on the other too.
        self.breakers = [
            CircuitBreaker(
                failure_threshold=breaker_threshold,
                cooldown=breaker_cooldown,
                shard=shard,
            )
            for shard in range(len(self._clients))
        ]
        # A few workers beyond one-per-shard: hedged reads may strand a
        # losing attempt on a pool thread until its server answers, and a
        # scatter-gather round still needs one free worker per shard.
        self._pool = ThreadPoolExecutor(
            max_workers=len(self._clients) + 4,
            thread_name_prefix="repro-shard",
        )
        self._catalog: dict[str, _GraphEntry] = {}
        self._token = 0
        self.rounds_total = 0
        self.frontier_calls = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._clients)

    def close(self) -> None:
        for client in self._clients:
            client.close()
        self._pool.shutdown(wait=False)

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def ping(self) -> list[dict]:
        return [client.ping() for client in self._clients]

    def notify_restart(self, shard: int, address=None) -> None:
        """The supervisor restarted ``shard``: adopt the reborn worker.

        Force-closes the shard's breaker (the supervisor just verified the
        worker with a post-re-seed health check, so the next request must
        not be gated behind a half-open probe) and retires the old client
        connection — it points at a process that no longer exists, and
        marking it broken makes the next request reconnect to the pinned
        port.  Wired as the :class:`FleetSupervisor`'s ``on_restart``
        callback; safe to call from the prober thread (both effects are
        single atomic writes).
        """
        self.breakers[shard].reset()
        self._clients[shard].abandon()

    def stats(self) -> dict:
        return {
            "shards": self.num_shards,
            "rounds_total": self.rounds_total,
            "frontier_calls": self.frontier_calls,
            "answer_cache": self.answer_cache.info(),
            "breakers": [breaker.state for breaker in self.breakers],
            "graphs": sorted(self._catalog),
            "metrics": self.metrics.as_dict() if self.metrics is not None else None,
        }

    def cluster_metrics(self, *, include_coordinator: bool = True) -> MetricsRegistry:
        """Every reachable shard's registry merged exactly into one.

        Each shard answers the ``cluster_metrics`` op with its registry in
        lossless dump form (raw bucket counts); merging is plain addition,
        so every cumulative ``le`` count of the merged histograms equals
        the sum of the per-shard counts.  Unreachable or malformed shards
        are skipped and counted under ``cluster_shards_unreachable``; the
        coordinator's own registry folds in unless ``include_coordinator``
        is off.
        """
        merged = MetricsRegistry()
        unreachable = 0
        for shard, client in enumerate(self._clients):
            try:
                payload = client.cluster_metrics()
                # Validate into a scratch registry first so a malformed
                # shard cannot half-merge into the fleet totals.
                scratch = MetricsRegistry().merge_dump(payload)
            except (ConnectionLost, OSError, ServerError,
                    ValueError, KeyError, TypeError):
                unreachable += 1
                continue
            merged.merge_dump(scratch.dump())
        if include_coordinator and self.metrics is not None:
            merged.merge_dump(self.metrics.dump())
        merged.inc("cluster_shards_total", self.num_shards)
        if unreachable:
            merged.inc("cluster_shards_unreachable", unreachable)
        return merged

    # ------------------------------------------------------------------
    # catalog management
    # ------------------------------------------------------------------
    def _register(self, name: str, graph: EdgeLabeledGraph) -> _GraphEntry:
        self._token += 1
        entry = _GraphEntry(name, self._token)
        entry.graph = graph
        entry.labels = frozenset(graph.labels) if graph is not None else frozenset()
        self._catalog[name] = entry
        self.answer_cache.invalidate_graph(name)
        return entry

    def _entry(self, name: str) -> _GraphEntry:
        entry = self._catalog.get(name)
        if entry is None:
            raise GraphNotFoundError(
                f"coordinator has no distributed graph named {name!r}",
                graph=name,
            )
        return entry

    def partition_graph(
        self, name: str, graph: EdgeLabeledGraph, *, strategy: str = "hash"
    ) -> dict:
        """Partition ``graph`` across every shard and upload the pieces.

        Each shard receives all nodes plus the edges whose source it owns
        (see :mod:`repro.engine.partition`); RPQs on the name then run via
        :meth:`evaluate_rpq`'s scatter-gather rounds.
        """
        shard_map = make_shard_map(graph, self.num_shards, strategy)
        parts = partition_graph(graph, shard_map)
        for shard, (client, part) in enumerate(zip(self._clients, parts)):
            if self.supervisor is not None:
                from repro.graph.serialize import graph_to_dict

                document = graph_to_dict(part)
                self.supervisor.record_seed(shard, name, document)
                client.upload_graph(name, document)
            else:
                client.upload_graph(name, part)
        entry = self._register(name, graph)
        entry.shard_map = shard_map
        entry.order = node_order(graph)
        entry.order_index = {
            node: position for position, node in enumerate(entry.order)
        }
        entry.owned_hex = [
            encode_mask(shard_map.owned_mask(shard, entry.order))
            for shard in range(self.num_shards)
        ]
        return {
            "name": name,
            "mode": "partitioned",
            "strategy": strategy,
            "shards": self.num_shards,
            "nodes_per_shard": shard_map.counts(),
            "edges_per_shard": [part.num_edges for part in parts],
        }

    def replicate_graph(
        self, name: str, graph: EdgeLabeledGraph, *, factor: "int | None" = None
    ) -> dict:
        """Upload full copies of ``graph`` to ``factor`` rendezvous-chosen
        shards (default: all of them) for replica-routed read throughput."""
        factor = self.num_shards if factor is None else factor
        if not 1 <= factor <= self.num_shards:
            raise ValueError("replication factor must be in 1..num_shards")
        replicas = tuple(rendezvous(name, range(self.num_shards))[:factor])
        document = None
        for shard in replicas:
            if document is None:
                from repro.graph.serialize import graph_to_dict

                document = graph_to_dict(graph)
            if self.supervisor is not None:
                self.supervisor.record_seed(shard, name, document)
            self._clients[shard].upload_graph(name, document)
        entry = self._register(name, graph)
        entry.replicas = replicas
        return {
            "name": name,
            "mode": "replicated",
            "factor": factor,
            "replicas": list(replicas),
        }

    def attach_replicas(
        self, name: str, *, factor: "int | None" = None
    ) -> None:
        """Adopt an already-uploaded replicated graph (no upload, no local
        copy) — lets sibling coordinators share one fleet's catalog."""
        factor = self.num_shards if factor is None else factor
        entry = self._register(name, None)
        entry.graph = None
        entry.replicas = tuple(rendezvous(name, range(self.num_shards))[:factor])

    # ------------------------------------------------------------------
    # replica-routed whole queries (the throughput path)
    # ------------------------------------------------------------------
    def _route(self, op: str, name: str, route_key: str, params: dict) -> dict:
        entry = self._entry(name)
        if not entry.replicas:
            raise BadRequestError(
                f"graph {name!r} is partitioned, not replicated; "
                "use evaluate_rpq/evaluate_crpq"
            )
        result, _hit = self.answer_cache.lookup(
            answer_key(name, entry.token, op, params),
            partial(self._read_replicas, op, entry, route_key, params),
        )
        return result

    def _read_replicas(self, op, entry, route_key, params) -> dict:
        """One routed read: the first replica answer down the rendezvous
        preference (hedged or failing over), else the degraded local
        answer, else a typed ``shard_unavailable``."""
        preference = rendezvous(f"{entry.name}|{route_key}", entry.replicas)
        if self.hedge_after is not None and len(preference) > 1:
            result, last_failure = self._route_hedged(op, entry.name, preference, params)
        else:
            result, last_failure = self._route_failover(op, entry.name, preference, params)
        if result is not _NO_ANSWER:
            return result
        if self.allow_degraded and entry.graph is not None:
            # Every replica is down: the service's own handler answers on
            # the copy the replicas were seeded from.  That copy may trail
            # worker-side mutations, so the answer is marked — and the
            # marker keeps it out of the answer cache.
            if self.metrics is not None:
                self.metrics.inc("coordinator_degraded_reads_total")
            request = Request(op, params={"graph": entry.name, **params})
            return {**QueryService.evaluate(request, entry.graph), "degraded": True}
        waits = [self.breakers[shard].retry_after() for shard in preference]
        raise ShardUnavailableError(
            f"every replica of {entry.name!r} failed; "
            f"last error: {last_failure}",
            graph=entry.name,
            replicas=list(entry.replicas),
            retry_after=round(min((wait for wait in waits if wait > 0), default=0.0), 3),
        )

    def _settle(self, shard: int, call):
        """``(call(), None)``, or ``(None, failure)`` when the shard is down.

        The one breaker-outcome rule: a lost transport or a shard-down error
        code records a failure on the shard's breaker; any other outcome —
        an answer, a typed query error, a budget trip — records a success,
        because the shard answered (a straggler is not a corpse), and a
        typed error is re-raised to the caller.
        """
        breaker = self.breakers[shard]
        try:
            answer = call()
        except (ConnectionLost, OSError) as exc:
            breaker.record_failure()
            return None, exc
        except ServerError as exc:
            if exc.code not in _SHARD_DOWN_CODES:
                breaker.record_success()
                raise
            breaker.record_failure()
            return None, exc
        breaker.record_success()
        return answer, None

    def _route_failover(self, op, name, preference, params):
        """Walk the preference list on the persistent clients, one at a
        time, skipping shards whose breaker refuses; ``(result, None)`` on
        success, ``(_NO_ANSWER, last failure)`` when every replica failed.
        """
        last_failure: "Exception | None" = None
        for shard in preference:
            breaker = self.breakers[shard]
            if not breaker.allow():
                last_failure = BreakerOpenError(shard, breaker.retry_after())
                continue
            result, failure = self._settle(
                shard,
                partial(self._replica_call, self._clients[shard], op, name, params),
            )
            if failure is None:
                return result, None
            last_failure = failure
        return _NO_ANSWER, last_failure

    def _route_hedged(self, op, name, preference, params):
        """Race the read across replicas: primary first, the next
        rendezvous replica after each ``hedge_after`` without an answer,
        first answer wins.  A losing attempt keeps running on its own
        fresh connection until its server finishes; only its transport is
        discarded (the ops routed here are idempotent reads).
        """
        inflight: dict = {}   # future -> shard
        order: dict = {}      # future -> launch index (0 = primary)
        state = {"position": 0, "launched": 0, "last_failure": None}

        def launch() -> bool:
            while state["position"] < len(preference):
                shard = preference[state["position"]]
                state["position"] += 1
                breaker = self.breakers[shard]
                if not breaker.allow():
                    state["last_failure"] = BreakerOpenError(
                        shard, breaker.retry_after()
                    )
                    continue
                future = self._pool.submit(
                    self._replica_attempt, shard, op, name, params
                )
                inflight[future] = shard
                order[future] = state["launched"]
                state["launched"] += 1
                return True
            return False

        launch()
        while inflight:
            exhausted = state["position"] >= len(preference)
            done, _ = futures_wait(
                set(inflight),
                timeout=None if exhausted else self.hedge_after,
                return_when=FIRST_COMPLETED,
            )
            if not done:
                # The hedge timer expired with no answer: fire the next
                # replica and keep both attempts in the race.
                if launch() and self.metrics is not None:
                    self.metrics.inc("coordinator_hedged_requests_total")
                continue
            for future in done:
                result, failure = self._settle(inflight.pop(future), future.result)
                if failure is not None:
                    state["last_failure"] = failure
                    launch()  # failover immediately, don't wait the timer
                    continue
                if order[future] > 0 and self.metrics is not None:
                    self.metrics.inc("coordinator_hedge_wins_total")
                return result, None
        return _NO_ANSWER, state["last_failure"]

    @staticmethod
    def _replica_call(client, op, name, params):
        if fault_point("shard.crash"):
            raise ConnectionLost("injected shard death (dropped)")
        return client.request(op, graph=name, **params)

    def _replica_attempt(self, shard, op, name, params):
        """One hedged replica attempt, on its own fresh connection.

        Fresh per attempt because the losing attempt holds its connection
        until the server finishes; sharing the coordinator's long-lived
        client would hand one socket to two threads.  The loser's
        server-side work runs to completion and is discarded with its
        connection — a connect handshake is noise next to the query.
        """
        host, port = self.addresses[shard]
        with ServerClient(host, port, timeout=self.timeout) as client:
            return self._replica_call(client, op, name, params)

    def rpq(self, name: str, query: str, source=None, **limits) -> dict:
        """Route one whole RPQ to a replica (result dict, like the client)."""
        params = {"query": query, **{k: v for k, v in limits.items() if v is not None}}
        if source is not None:
            params["source"] = source
        return self._route("rpq", name, f"rpq|{query}|{source!r}", params)

    def crpq(self, name: str, query: str, planner=None, **limits) -> dict:
        params = {"query": query, **{k: v for k, v in limits.items() if v is not None}}
        if planner is not None:
            params["planner"] = planner
        return self._route("crpq", name, f"crpq|{query}", params)

    # ------------------------------------------------------------------
    # scatter-gather RPQ evaluation (the partitioned path)
    # ------------------------------------------------------------------
    def evaluate_rpq(
        self, name: str, query: str, sources=None, *, budget=None
    ) -> Set[tuple]:
        """``[[R]]_G`` over the partitioned graph ``name``.

        Answers are exactly :func:`repro.rpq.evaluation.evaluate_rpq` on
        the unpartitioned graph (the differential suites prove it); a
        budget bounds the whole exchange, its deadline propagating into
        every shard round.  The partitioned gather hands back its origin
        masks as a read-only :class:`~repro.engine.relation.PairRelation`
        (decoded only when iterated); treat the result as immutable.
        """
        entry = self._entry(name)
        if entry.shard_map is None:
            return self._replicated_pairs(entry, query, sources, budget)
        if sources is not None:
            # Read once, here: the distinct graph nodes in first-seen order
            # are both the cache key and the origin-bit numbering.
            order_index = entry.order_index
            sources = list(
                dict.fromkeys(s for s in sources if s in order_index)
            )
        source_key = None if sources is None else repr(sorted(sources, key=repr))
        # Immutable, so the cache and every caller share the one relation.
        pairs, hit = self.answer_cache.lookup(
            answer_key(
                name, entry.token, "rpq:pairs",
                {"query": query, "sources": source_key},
            ),
            partial(self._scatter_gather, entry, query, sources, budget),
        )
        # A cache hit trivially beats any deadline, but the row ceiling is
        # about answer *size*, not effort — enforce it either way.
        if (
            hit
            and budget is not None
            and budget.max_rows is not None
            and len(pairs) > budget.max_rows
        ):
            raise BudgetExceeded(
                f"evaluation produced more than {budget.max_rows} answer rows",
                limit="max_rows",
                rows_so_far=len(pairs),
            ).attach_partial(set(islice(pairs, budget.max_rows)))
        return pairs

    def _replicated_pairs(self, entry, query, sources, budget) -> set[tuple]:
        """RPQ pairs for a replicated (unpartitioned) graph via routing."""
        limits = {}
        if budget is not None and budget.deadline is not None:
            limits["timeout"] = max(budget.deadline.remaining(), 0.001)
        sources = None if sources is None else list(sources)
        single = sources is not None and len(sources) == 1
        result = self.rpq(
            entry.name, query, source=sources[0] if single else None, **limits
        )
        self._require_exact(entry, result)
        pairs = {tuple(pair) for pair in result["pairs"]}
        if sources is None or single:
            return pairs
        keep = set(sources)
        return {pair for pair in pairs if pair[0] in keep}

    @staticmethod
    def _require_exact(entry, result) -> None:
        """Refuse a degraded result on a set-returning evaluation path.

        ``evaluate_rpq``/``evaluate_crpq`` return bare answer sets — there
        is no channel to carry the ``degraded`` marker, and the exactness
        contract (answers identical to single-node evaluation, or a typed
        error) would be silently violated.  Only the result-dict
        ``rpq``/``crpq`` API, where callers can see the marker, may serve
        degraded answers.
        """
        if isinstance(result, dict) and result.get("degraded"):
            raise ShardUnavailableError(
                f"replicated evaluation of {entry.name!r} needs an exact "
                "replica answer; the degraded local fallback only serves "
                "the result-dict rpq/crpq API where the marker is visible",
                graph=entry.name,
                degraded=True,
            )

    def _scatter_gather(self, entry, query, sources, budget) -> PairRelation:
        stats = EngineStats()
        # The global alphabet every shard must compile over: graph labels
        # plus the query's own symbols (a symbol absent from the graph still
        # shapes the trimmed automaton identically everywhere).
        alphabet = sorted(entry.labels | symbols(_parse(query)), key=repr)
        plan = automaton_plan(query, alphabet, stats=stats)
        bits = plan.state_bits
        order = entry.order
        order_index = entry.order_index
        shard_of = entry.shard_map.shard_of

        # Seed: (source, q0) codes, owner-routed.  Origin bit i stands for
        # the i-th seed node (``sources`` arrives distinct, see
        # ``evaluate_rpq``), so a k-source query ships k-bit masks however
        # large the graph is; with no sources bit == node position.
        known: dict[int, int] = {}
        pending: list[dict[int, int]] = [{} for _ in range(self.num_shards)]
        seed_nodes = order if sources is None else sources
        bit = 1
        for source in seed_nodes:
            base = order_index[source] << bits
            shard_pending = pending[shard_of(source)]
            for initial_state in plan.initial:
                shard_pending[base | initial_state] = bit
                known[base | initial_state] = bit
            bit <<= 1

        answer_masks: dict[int, int] = {}
        pair_count = 0
        # Coordinator-side merge work runs under a fork of the caller's
        # budget: same deadline and cancellation, fresh counters for this
        # traversal's own ticks.
        merge_budget = budget.fork() if budget is not None else None
        tick = merge_budget.tick if merge_budget is not None else None
        tracer = get_tracer()
        rounds = 0
        query_started = time.perf_counter()
        root_cm = (
            tracer.span("coordinator.rpq", graph=entry.name, query=query)
            if tracer.enabled
            else nullcontext()
        )
        try:
            with root_cm:
                while any(pending):
                    rounds += 1
                    if merge_budget is not None:
                        merge_budget.check()  # barrier between rounds
                    round_timeout = self._round_timeout(budget)
                    calls = [
                        (shard, frontier)
                        for shard, frontier in enumerate(pending)
                        if frontier
                    ]
                    pending = [{} for _ in range(self.num_shards)]
                    round_started = time.perf_counter()
                    round_cm = (
                        tracer.span("coordinator.round", round=rounds)
                        if tracer.enabled
                        else nullcontext()
                    )
                    with round_cm as round_span:
                        # Captured on *this* thread: the pool threads the
                        # frontier calls run on have empty span stacks, so
                        # the round span's context must ride in explicitly.
                        trace_ctx = tracer.trace_context()
                        step = partial(
                            self._frontier_call, entry, query, alphabet, bits,
                            round_timeout, rounds, trace_ctx,
                        )
                        # Every call but the last goes to the pool; the last
                        # runs here, first, while the pool works — a round
                        # with one call (any single-source query's first)
                        # pays no thread hand-off.
                        *pooled, last = calls
                        fetches = [(last, partial(step, *last))]
                        fetches += [
                            (call, self._pool.submit(step, *call).result)
                            for call in pooled
                        ]
                        frontier_codes = sum(len(f) for _, f in calls)
                        novel_bits = sum(
                            mask.bit_count()
                            for _, frontier in calls
                            for mask in frontier.values()
                        )
                        latencies: list[float] = []
                        bytes_sent = bytes_received = 0
                        for (shard, frontier), fetch in fetches:
                            envelope = fetch()
                            result = envelope["result"]
                            latencies.append(envelope["elapsed"])
                            bytes_sent += envelope["sent_bytes"]
                            bytes_received += envelope["received_bytes"]
                            if result.get("bounced"):
                                # The shard was sent codes it does not own:
                                # its ownership and ours disagree.  The
                                # bounced bits are already in ``known`` and
                                # would be dropped below, for a short answer.
                                if self.metrics is not None:
                                    self.metrics.inc(
                                        "coordinator_bounced_codes",
                                        result["bounced"],
                                    )
                                raise ShardUnavailableError(
                                    f"shard {shard} desynchronized mid-round: "
                                    f"it bounced {result['bounced']} codes of "
                                    f"frontier round {rounds} as not its own",
                                    shard=shard,
                                    round=rounds,
                                    bounced=result["bounced"],
                                )
                            if round_span is not None:
                                self._graft_shard_trees(
                                    round_span, result, shard, rounds,
                                    len(frontier), envelope,
                                )
                            for position, mask in decode_pairs(
                                result["answers"]
                            ).items():
                                if tick is not None:
                                    tick()
                                recorded = answer_masks.get(position, 0)
                                novel = mask & ~recorded
                                if novel:
                                    answer_masks[position] = recorded | novel
                                    pair_count += novel.bit_count()
                            if budget is not None:
                                budget.check_rows(pair_count)
                            for code, mask in decode_pairs(
                                result["cross"]
                            ).items():
                                if tick is not None:
                                    tick()
                                seen = known.get(code, 0)
                                novel = mask & ~seen
                                if not novel:
                                    continue
                                known[code] = seen | novel
                                owner = shard_of(order[code >> bits])
                                shard_pending = pending[owner]
                                shard_pending[code] = (
                                    shard_pending.get(code, 0) | novel
                                )
                        self._record_round(
                            round_span, rounds, entry.name, len(calls),
                            frontier_codes, novel_bits,
                            bytes_sent, bytes_received, latencies,
                            time.perf_counter() - round_started,
                        )
        except BudgetExceeded as exc:
            raise exc.attach_partial(
                PairRelation(seed_nodes, order, answer_masks, pair_count)
            )
        finally:
            self.rounds_total += rounds
            if self.metrics is not None:
                self.metrics.inc("coordinator_queries_total")
                self.metrics.observe(
                    "coordinator_query_seconds",
                    time.perf_counter() - query_started,
                )
        return PairRelation(seed_nodes, order, answer_masks, pair_count)

    def _graft_shard_trees(
        self, round_span, result, shard, round_number, frontier_size, envelope,
    ) -> None:
        """Attach a shard's returned span subtree under the round span.

        The subtree root is the shard's ``server.request`` (already a
        remote child of the round span by trace context); the coordinator
        stamps it with what only it knows — which shard answered, which
        round, and the wire cost of the exchange.
        """
        trees = result.get("trace_spans")
        if not isinstance(trees, list):
            return
        for tree in trees:
            if not isinstance(tree, dict):
                continue
            attributes = tree.setdefault("attributes", {})
            attributes["shard"] = shard
            attributes["round"] = round_number
            attributes["frontier"] = frontier_size
            attributes["wire_bytes_sent"] = envelope["sent_bytes"]
            attributes["wire_bytes_received"] = envelope["received_bytes"]
            attributes["latency_ms"] = round(envelope["elapsed"] * 1000, 3)
            round_span.graft(tree)

    def _record_round(
        self, round_span, round_number, graph, shard_count,
        frontier_codes, novel_bits,
        bytes_sent, bytes_received, latencies, elapsed,
    ) -> None:
        """Per-round telemetry: span attributes, registry, slow-round log."""
        gap = (
            max(latencies) - statistics.median(latencies)
            if len(latencies) > 1
            else 0.0
        )
        if round_span is not None:
            round_span.set(
                shards=shard_count,
                frontier=frontier_codes,
                novel_bits=novel_bits,
                wire_bytes_sent=bytes_sent,
                wire_bytes_received=bytes_received,
                straggler_gap_ms=round(gap * 1000, 3),
            )
        metrics = self.metrics
        if metrics is not None:
            metrics.inc("coordinator_rounds_total")
            metrics.inc("coordinator_frontier_codes", frontier_codes)
            metrics.inc("coordinator_novel_bits_routed", novel_bits)
            metrics.inc("coordinator_wire_bytes_sent", bytes_sent)
            metrics.inc("coordinator_wire_bytes_received", bytes_received)
            metrics.observe("coordinator_round_seconds", elapsed)
            for latency in latencies:
                metrics.observe("coordinator_shard_round_seconds", latency)
            if len(latencies) > 1:
                metrics.observe("coordinator_straggler_gap_seconds", gap)
        if self.slow_round_ms is not None and elapsed * 1000.0 >= self.slow_round_ms:
            logger.warning(
                "%s",
                json.dumps(
                    {
                        "event": "slow_round",
                        "graph": graph,
                        "round": round_number,
                        "elapsed_ms": round(elapsed * 1000, 3),
                        "threshold_ms": self.slow_round_ms,
                        "shards": shard_count,
                        "frontier": frontier_codes,
                        "straggler_gap_ms": round(gap * 1000, 3),
                    },
                    sort_keys=True,
                ),
            )

    def _round_timeout(self, budget) -> "float | None":
        if budget is None or budget.deadline is None:
            return None
        remaining = budget.deadline.remaining()
        if remaining <= self.rtt_slack:
            # Out of time before the round even starts: trip here with the
            # partial answer rather than shipping an unmeetable timeout.
            budget.check()  # raises if the deadline backing this is gone
            raise BudgetExceeded(
                "distributed evaluation exhausted its deadline between "
                "frontier rounds",
                limit="timeout",
                elapsed=budget.deadline.elapsed(),
            )
        return max(remaining - self.rtt_slack, 0.001)

    def _frontier_call(
        self, entry, query, alphabet, bits, round_timeout, round_number,
        trace, shard, frontier,
    ) -> dict:
        """One shard's round, on a pool thread or the caller's.

        Returns an envelope ``{result, elapsed, sent_bytes,
        received_bytes}`` — the latency is clocked here (around the RPC
        alone) and *recorded* on the coordinator thread, because the
        registry is not thread-safe.  The byte counts are the lengths of
        the request line the client wrote and the response line it read,
        envelope included.  Failures come out typed: a refused, lost or
        dead shard as :class:`ShardUnavailableError` naming the shard and
        round, a shard-side budget trip as :class:`BudgetExceeded`.
        """
        self.frontier_calls += 1
        host, port = self.addresses[shard]
        try:
            # Fail fast on a shard already declared dead: the refusal costs
            # microseconds instead of a transport timeout per round.
            self.breakers[shard].check()
        except BreakerOpenError as exc:
            raise ShardUnavailableError(
                f"shard {shard} ({host}:{port}) refused by its open "
                f"circuit breaker during frontier round {round_number}",
                shard=shard,
                round=round_number,
                retry_after=round(exc.retry_after, 3),
            ) from exc
        client = self._clients[shard]

        def step() -> dict:
            if fault_point("shard.crash"):
                raise ConnectionLost("injected shard death (dropped)")
            return client.frontier_step(
                entry.name,
                query,
                frontier=encode_pairs(frontier),
                owned=entry.owned_hex[shard],
                state_bits=bits,
                alphabet=alphabet,
                round=round_number,
                trace=trace,
                timeout=round_timeout,
            )

        started = time.perf_counter()
        try:
            result, failure = self._settle(shard, step)
        except ServerError as exc:
            if exc.code not in ("timeout", "budget_exceeded"):
                raise
            limit = exc.details.get("limit", "timeout")
            raise BudgetExceeded(
                f"shard {shard} tripped its round budget: {exc.message}",
                limit=limit if limit in ("timeout", "cancelled", "max_states")
                else "timeout",
            ) from exc
        if isinstance(failure, ServerError):
            raise ShardUnavailableError(
                f"shard {shard} ({host}:{port}) failed frontier round "
                f"{round_number}: [{failure.code}] {failure.message}",
                shard=shard,
                round=round_number,
                shard_code=failure.code,
            ) from failure
        if failure is not None:
            raise ShardUnavailableError(
                f"shard {shard} ({host}:{port}) lost during frontier round "
                f"{round_number}: {failure}",
                shard=shard,
                round=round_number,
            ) from failure
        return {
            "result": result,
            "elapsed": time.perf_counter() - started,
            "sent_bytes": client.last_request_bytes,
            "received_bytes": client.last_response_bytes,
        }

    # ------------------------------------------------------------------
    # CRPQ: atom-at-a-time joins over distributed RPQ relations
    # ------------------------------------------------------------------
    def evaluate_crpq(
        self, name: str, query: str, *, planner=None, budget=None
    ) -> set[tuple]:
        """``q(G)`` with every atom relation computed by the shard fleet.

        The *plan* still comes from the engine's cost planner running over
        the coordinator's retained copy of the graph (label statistics are
        a coordinator-local concern); each atom's relation comes from
        :meth:`evaluate_rpq` through the join's
        :class:`~repro.crpq.evaluation.PairsAccess` — bound atoms scatter
        from their bound node, unbound atoms run the full broadcast sweep
        (or one shard-local replica query when the graph is replicated),
        and a backward atom groups the full relation: shards hold only
        forward-partitioned edges, so there is no reversed walk here.
        """
        from repro.crpq.evaluation import PairsAccess, evaluate_crpq

        entry = self._entry(name)
        if entry.graph is None:
            raise BadRequestError(
                f"graph {name!r} was attached without a local copy; "
                "CRPQ planning needs the coordinator-side graph"
            )

        def pairs(regex, sources, atom_budget):
            return self.evaluate_rpq(
                name, to_string(regex), sources, budget=atom_budget
            )

        rows, _hit = self.answer_cache.lookup(
            answer_key(
                name, entry.token, "crpq:rows",
                {"query": query, "planner": planner},
            ),
            lambda: frozenset(evaluate_crpq(
                query, entry.graph, planner=planner, budget=budget,
                access=PairsAccess(pairs, budget),
            )),
        )
        return set(rows)


def _parse(query: str):
    from repro.engine.cache import DEFAULT_CACHE

    return DEFAULT_CACHE.parse(query)
