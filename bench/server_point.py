"""Workload ``server_point``: Zipf point reads against one real server.

One ``repro serve`` subprocess (default admission, default 512-entry
answer cache), the graph uploaded once, and two closed-loop clients — the
callers of this service are RPC clients that wait for each reply — issuing
single-source ``rpq`` requests over a Zipf(1.0)-popular set of distinct
``(query, source)`` pairs eight times the answer cache, so the cache both
hits and evicts.  Answers are small and the per-source BFS is ~0.1 ms, so
``server.protocol``, ``server.app`` and ``server.service`` carry the
latency and the kernel carries little.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass

from repro.rpq.evaluation import evaluate_rpq
from repro.server.service import GraphCatalog, QueryService

from bench import inputs, measure, probes, served
from bench.served import GRAPH
from bench.spans import SpanRecorder

CLIENTS = 2
SAMPLE_STRIDE = 20
#: The untraced run is cut into windows of this length; it reports the
#: median window (see :func:`bench.measure.unit_metrics`).
WINDOW_SECONDS = 2.0


@dataclass(frozen=True)
class Sizes:
    nodes: int = 2000
    pairs: int = 4096
    #: operations of the traced run's counted pass, over both clients
    counted_ops: int = 8000


TINY = Sizes(nodes=80, pairs=160, counted_ops=1200)


def first_check(pairs, expected):
    """The set-up's checked answer: the most popular single-label pair."""
    index = next(i for i, (query, _s) in enumerate(pairs) if inputs.is_single_label(query))
    return pairs[index], expected[index]


def oracle_counts(graph, pairs) -> list[int]:
    """Expected answer count of every pair, by the single-node library."""
    return [len(evaluate_rpq(query, graph, sources=[source])) for query, source in pairs]


def _start(seed: int, sizes: Sizes, servers: served.Servers, check) -> float:
    """Timed set-up: graph generation, spawn, upload, first checked answer."""
    started = time.perf_counter()
    graph = inputs.graph_for(seed, sizes.nodes)
    servers.start()
    with servers.client() as client:
        client.upload_graph(GRAPH, graph)
        (query, source), want = check
        if client.rpq(GRAPH, query, source=source)["count"] != want:
            raise RuntimeError("set-up answer differs from the oracle")
    return time.perf_counter() - started


def _one_server() -> served.Servers:
    return served.Servers(1)


class _Client(threading.Thread):
    """One closed-loop client: next request only after the last reply."""

    def __init__(self, servers, pairs, expected, stream, deadline=None, limit=None):
        super().__init__(daemon=True)
        self.client = servers.client()
        self.pairs, self.expected, self.stream = pairs, expected, stream
        self.deadline, self.limit = deadline, limit
        self.latencies: list[float] = []
        self.finished: list[float] = []
        self.indices: list[int] = []
        self.failed = 0
        self.cpu = 0.0

    def run(self) -> None:
        cpu_started = time.thread_time()
        try:
            for index in self.stream:
                if self.limit is not None and len(self.indices) >= self.limit:
                    break
                started = time.perf_counter()
                if self.deadline is not None and started >= self.deadline:
                    break
                query, source = self.pairs[index]
                try:
                    count = self.client.rpq(GRAPH, query, source=source)["count"]
                except Exception:  # noqa: BLE001 - any failure is a failed op
                    count = -1
                now = time.perf_counter()
                self.latencies.append(now - started)
                self.finished.append(now)
                self.indices.append(index)
                self.failed += count != self.expected[index]
        finally:
            self.cpu = time.thread_time() - cpu_started
            self.client.close()


def _drive(servers, pairs, expected, seed, seconds=None, per_client=None):
    """Run the clients to a deadline or an operation count; join them."""
    clients = [
        _Client(
            servers, pairs, expected,
            inputs.zipf_stream(f"{seed}-{number}", len(pairs)),
            limit=per_client,
        )
        for number in range(CLIENTS)
    ]
    started = time.perf_counter()
    for client in clients:
        client.deadline = started + seconds if seconds is not None else None
        client.start()
    for client in clients:
        client.join()
    return clients, started, time.perf_counter() - started


def _windows(clients, started: float, wall: float) -> list:
    """Whole ``WINDOW_SECONDS`` windows as ``unit_metrics`` units."""
    count = max(int(wall // WINDOW_SECONDS), 1)
    length = WINDOW_SECONDS if wall >= WINDOW_SECONDS else wall
    reads = [[] for _ in range(count)]
    for client in clients:
        for finished, latency in zip(client.finished, client.latencies):
            window = int((finished - started) // length)
            if window < count:
                reads[window].append(latency)
    return [(length, len(window), window) for window in reads]


def run_untraced(seed: int, seconds: float, sizes: Sizes = Sizes()) -> dict:
    pairs = inputs.point_pairs(seed, sizes.nodes, sizes.pairs)
    expected = oracle_counts(inputs.graph_for(seed, sizes.nodes), pairs)
    check = first_check(pairs, expected)

    def start(servers):
        return _start(seed, sizes, servers, check)

    setups = served.throwaway_setups(_one_server, start, served.SETUPS_BEFORE)
    servers, spent = served.set_up(_one_server, start)
    setups.append(spent)
    try:
        clients, started, wall = _drive(servers, pairs, expected, seed, seconds=seconds)
        peak_rss = servers.peak_rss_mb()
    finally:
        servers.stop()
    setups += served.throwaway_setups(_one_server, start, served.SETUPS_AFTER)
    units = _windows(clients, started, wall)
    metrics = measure.unit_metrics(units)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss
    attempted = sum(len(client.latencies) for client in clients)
    return {
        "attempted": attempted,
        "failed": sum(client.failed for client in clients),
        "samples": {
            "windows": len(units), "reads": attempted,
            "window_ops_per_s": measure.unit_rates(units),
        },
        "metrics": metrics,
    }


def run_traced(seed: int, sizes: Sizes = Sizes()) -> dict:
    pairs = inputs.point_pairs(seed, sizes.nodes, sizes.pairs)
    graph = inputs.graph_for(seed, sizes.nodes)
    expected = oracle_counts(graph, pairs)
    per_client = sizes.counted_ops // CLIENTS
    check = first_check(pairs, expected)
    servers, _ = served.set_up(
        _one_server, lambda servers: _start(seed, sizes, servers, check)
    )
    try:
        with servers.client() as control:
            ping_us = served.ping_rtt_us(control)
            before = control.stats()
            clients, _started, wall = _drive(
                servers, pairs, expected, seed, per_client=per_client
            )
            after = control.stats()
    finally:
        servers.stop()

    # The same operations in-process, in the order two alternating clients
    # would issue them, so the replay's answer cache hits where the served
    # one did; every SAMPLE_STRIDE-th one is spanned.
    service = QueryService(GraphCatalog())
    service.catalog.register(GRAPH, graph)
    replay = served.ServiceReplay(service)
    recorder = SpanRecorder()
    remainder = 0.0
    spanned = 0
    replay_started = time.perf_counter()
    position = 0
    for turn in range(per_client):
        for client in clients:
            if turn >= len(client.indices):
                continue
            query, source = pairs[client.indices[turn]]
            if position % SAMPLE_STRIDE == 0:
                spanned += 1
                with recorder.span("op.point", "bench", op_id=position) as root:
                    replay.request(recorder, "rpq", graph=GRAPH, query=query, source=source)
                remainder += max(client.latencies[turn] - root.duration, 0.0)
            else:
                replay.request(None, "rpq", graph=GRAPH, query=query, source=source)
            position += 1
    replay_wall = time.perf_counter() - replay_started

    latencies = [value for client in clients for value in client.latencies]
    failed = sum(client.failed for client in clients)
    metrics = served.service_stats_metrics(before, after)
    metrics.update(replay.protocol_metrics(recorder, spanned))
    metrics.update(replay.kernel_metrics(len(latencies)))
    metrics.update(probes.compile_probe(graph, [query for query, _source in pairs]))
    metrics.update(probes.csr_probe(graph))
    metrics.update(probes.serialize_probe(graph))
    metrics.update(
        {
            "engine.kernel.busy_share": (
                served.counter_delta(before, after, "engine_bfs_seconds") / wall
            ),
            "server.app.ping_rtt_us_p50": ping_us,
            "server.app.overhead_ms_mean": (
                measure.ms(measure.mean(latencies))
                - metrics["server.service.request_ms_mean"]
            ),
            "server.client.retries": sum(c.client.reconnects for c in clients),
            "client.read_p95_ms": measure.ms(
                measure.percentile_or_max(latencies, 0.95, "client.read_p95_ms")
            ),
            "client.read_p99_ms": measure.ms(
                measure.percentile_or_max(latencies, 0.99, "client.read_p99_ms")
            ),
            "client.failed_share": failed / max(len(latencies), 1),
            "client.generator_busy_share": sum(c.cpu for c in clients) / CLIENTS / wall,
        }
    )
    return {
        "attempted": len(latencies),
        "failed": failed,
        "recorder": recorder,
        "replay_wall": replay_wall,
        "remainders": {"server.app": remainder},
        "exact": {
            "ops": len(latencies),
            "answer_rows": sum(
                expected[index] for client in clients for index in client.indices
            ),
            "edges_relaxed": replay.counter("engine_edges_relaxed"),
            "nodes_expanded": replay.counter("engine_nodes_expanded"),
        },
        "metrics": metrics,
    }
