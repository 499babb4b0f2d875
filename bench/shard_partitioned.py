"""Workload ``shard_partitioned``: scatter-gather RPQs over two shards.

Two ``repro serve`` shard subprocesses and one ``ShardCoordinator`` in the
benchmark process, the graph hash-partitioned; one caller, closed loop;
``evaluate_rpq(name, query, sources)`` operations, four in five with one
source and every fifth with 32.  The coordinator's answer cache is
deliberately defeated (one entry, and a pass never repeats an operation):
this workload measures scatter-gather, not caching.
``distributed.frontier.local_frontier_step``, the delta+hex codec and the
per-round wire do most of the work.

The seeded operation list is long enough that a run seldom repeats an
operation: whether a starred query floods the giant component is a coin
toss per (query, source), and a run's throughput is steadier the more of
those tosses it averages over.  The run is cut into units of
:data:`UNIT_OPS` consecutive operations and reports the median unit (see
:func:`bench.measure.unit_metrics`).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from repro.distributed.coordinator import ShardCoordinator
from repro.distributed.frontier import (
    automaton_plan,
    decode_mask,
    decode_pairs,
    encode_pairs,
    local_frontier_step,
)
from repro.engine.partition import make_shard_map, partition_graph
from repro.rpq.evaluation import evaluate_rpq
from repro.server.client import ServerClient
from repro.server.protocol import (
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    ok_response,
)

from bench import inputs, measure, probes, served
from bench.served import GRAPH
from bench.spans import SpanRecorder

SHARDS = 2
STRATEGY = "hash"
BATCH_SOURCES = 32
#: Every tenth counted op is replayed decomposed: a 1-in-20 sample leaves
#: too few frontier steps for a 95th percentile of the step time.
SAMPLE_STRIDE = 10


@dataclass(frozen=True)
class Sizes:
    nodes: int = 2000
    #: operations in the seeded list (~18 s of work)
    pool: int = 2048
    #: operations in one unit
    unit_ops: int = 256
    #: units of the traced run's counted part
    counted_units: int = 4


TINY = Sizes(nodes=80, pool=120, unit_ops=30, counted_units=6)


def first_check(ops, expected):
    """The set-up's checked answer: a single-source single-label op."""
    index = next(
        i for i, (query, sources) in enumerate(ops)
        if inputs.is_single_label(query) and len(sources) == 1
    )
    return ops[index], expected[index]


def oracle(graph, ops):
    """Per pool op: expected answer count and single-node seconds."""
    counts, seconds = [], []
    evaluate_rpq(ops[0][0], graph, sources=ops[0][1])  # build the CSR untimed
    for query, sources in ops:
        started = time.perf_counter()
        counts.append(len(evaluate_rpq(query, graph, sources=sources)))
        seconds.append(time.perf_counter() - started)
    return counts, seconds


class Fleet:
    """Shard processes plus the coordinator holding the partitioned graph."""

    def __init__(self):
        self.servers = served.Servers(SHARDS)
        self.coordinator = None

    def start(self, seed: int, sizes: Sizes, check) -> float:
        """Timed set-up: graph generation, spawns, partition + upload,
        first checked answer."""
        started = time.perf_counter()
        graph = inputs.graph_for(seed, sizes.nodes)
        self.servers.start()
        self.coordinator = ShardCoordinator(
            self.servers.addresses, answer_cache_size=1, timeout=served.OP_TIMEOUT
        )
        self.coordinator.partition_graph(GRAPH, graph, strategy=STRATEGY)
        (query, sources), want = check
        if len(self.coordinator.evaluate_rpq(GRAPH, query, sources)) != want:
            raise RuntimeError("set-up answer differs from the oracle")
        return time.perf_counter() - started

    def stop(self) -> None:
        try:
            if self.coordinator is not None:
                self.coordinator.close()
        finally:
            self.servers.stop()


def _drive(coordinator, sizes, ops, expected, seconds=None, units=None, on_op=None) -> dict:
    """``on_op()`` runs ahead of every operation (the traced run numbers
    them with it)."""
    chunks = [
        (ops[first:first + sizes.unit_ops], expected[first:first + sizes.unit_ops])
        for first in range(0, len(ops), sizes.unit_ops)
    ]

    def call(op):
        if on_op is not None:
            on_op()
        return len(coordinator.evaluate_rpq(GRAPH, op[0], op[1]))

    cpu_started = time.thread_time()
    started = time.perf_counter()
    done, failed = measure.run_units(call, chunks, seconds=seconds, units=units)
    return {
        "units": done,
        "latencies": [value for _, _, reads in done for value in reads],
        "failed": failed,
        "wall": time.perf_counter() - started,
        "cpu": time.thread_time() - cpu_started,
    }


def run_untraced(seed: int, seconds: float, sizes: Sizes = Sizes()) -> dict:
    graph = inputs.graph_for(seed, sizes.nodes)
    ops = inputs.shard_ops(seed, sizes.nodes, sizes.pool, BATCH_SOURCES)
    expected, _ = oracle(graph, ops)
    check = first_check(ops, expected)

    def start(fleet):
        return fleet.start(seed, sizes, check)

    setups = served.throwaway_setups(Fleet, start, served.SETUPS_BEFORE)
    fleet, spent = served.set_up(Fleet, start)
    setups.append(spent)
    try:
        run = _drive(fleet.coordinator, sizes, ops, expected, seconds=seconds)
        peak_rss = fleet.servers.peak_rss_mb()
    finally:
        fleet.stop()
    setups += served.throwaway_setups(Fleet, start, served.SETUPS_AFTER)
    metrics = measure.unit_metrics(run["units"])
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss
    return {
        "attempted": len(run["latencies"]),
        "failed": run["failed"],
        "samples": {
            "units": len(run["units"]), "reads_per_unit": sizes.unit_ops,
            "unit_ops_per_s": measure.unit_rates(run["units"]),
        },
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
class RecordedSteps:
    """Wraps ``ServerClient.frontier_step`` while the real coordinator
    runs, keeping the request, the reply and the round-trip seconds of
    every call a sampled operation makes.

    The coordinator calls it from its pool threads while the one caller
    waits inside ``evaluate_rpq``, so ``op`` (set by that caller between
    operations) is stable during a call.
    """

    def __init__(self, stride: int):
        self.stride = stride
        self.op = -1
        self.calls: list[dict] = []

    def next_op(self) -> None:
        self.op += 1

    def __enter__(self) -> "RecordedSteps":
        original = self._original = ServerClient.frontier_step
        recorded = self

        def frontier_step(client, graph, query, **params):
            if recorded.op % recorded.stride:
                return original(client, graph, query, **params)
            started = time.perf_counter()
            result = original(client, graph, query, **params)
            recorded.calls.append(
                {
                    "op": recorded.op,
                    "address": (client.host, client.port),
                    "query": query,
                    "params": params,
                    "result": result,
                    "seconds": time.perf_counter() - started,
                }
            )
            return result

        ServerClient.frontier_step = frontier_step
        return self

    def __exit__(self, *exc_info) -> None:
        ServerClient.frontier_step = self._original

    def blocking_calls(self) -> dict[int, list[dict]]:
        """Per sampled operation, each round's slower call in round order:
        with parallel parts the slowest sets the round's time."""
        slowest: dict[tuple[int, int], dict] = {}
        for call in self.calls:
            key = (call["op"], call["params"]["round"])
            if key not in slowest or call["seconds"] > slowest[key]["seconds"]:
                slowest[key] = call
        by_op: dict[int, list[dict]] = {}
        for (op, _round), call in sorted(slowest.items()):
            by_op.setdefault(op, []).append(call)
        return by_op


class StepReplay:
    """Recorded ``frontier_step`` exchanges re-run in-process through the
    public functions of each layer they cross, one span per crossing, on
    the shard subgraphs the same partitioning functions give."""

    def __init__(self, graph, addresses):
        self.parts = partition_graph(graph, make_shard_map(graph, SHARDS, STRATEGY))
        self.shard_of_address = {tuple(a): shard for shard, a in enumerate(addresses)}
        self.codes = 0
        self.requests = 0
        self.request_bytes = 0
        self.response_bytes = 0
        self.diverged = 0

    def replay(self, recorder: SpanRecorder, call: dict) -> tuple[float, float]:
        """Returns the seconds the replay spent on the coordinator's side of
        the exchange (the codec) and on the shard's (protocol, decoding, the
        step itself)."""
        span = recorder.span
        params, reply = call["params"], call["result"]
        part = self.parts[self.shard_of_address[call["address"]]]
        frontier = decode_pairs(params["frontier"])
        wire_params = {key: value for key, value in params.items() if value is not None}
        self.requests += 1
        self.codes += 2 * len(frontier) + len(reply["answers"]) + len(reply["cross"])

        started = time.perf_counter()
        with span("distributed.frontier.encode_pairs", "distributed.frontier"):
            encode_pairs(frontier)
        coordinator_seconds = time.perf_counter() - started

        started = time.perf_counter()
        with span("server.protocol.encode_request", "server.protocol"):
            line = encode_request(
                "frontier_step", id=self.requests, graph=GRAPH, query=call["query"],
                **wire_params,
            )
        with span("server.protocol.decode_request", "server.protocol"):
            request = decode_request(line, served.MAX_REQUEST_BYTES)
        with span("distributed.frontier.decode_pairs", "distributed.frontier"):
            owned = decode_mask(request.params["owned"])
            received = decode_pairs(request.params["frontier"])
        with span("distributed.frontier.local_frontier_step", "distributed.frontier"):
            result = local_frontier_step(
                part, call["query"], request.params["alphabet"],
                request.params["state_bits"], owned, received,
            )
        with span("server.protocol.encode_response", "server.protocol"):
            line_back = encode_response(ok_response(request.id, reply))
        with span("server.protocol.decode_response", "server.protocol"):
            decode_response(line_back)
        shard_seconds = time.perf_counter() - started

        started = time.perf_counter()
        with span("distributed.frontier.decode_pairs", "distributed.frontier"):
            answers = decode_pairs(reply["answers"])
            cross = decode_pairs(reply["cross"])
        coordinator_seconds += time.perf_counter() - started

        # the benchmark's partition must give what the real shard returned
        self.diverged += (
            decode_pairs(result["answers"]) != answers
            or decode_pairs(result["cross"]) != cross
        )
        self.request_bytes += len(line)
        self.response_bytes += len(line_back)
        return coordinator_seconds, shard_seconds


def _registry(metrics: dict) -> dict:
    """Shape a registry dict like a ``stats`` result for ``served``'s
    delta helpers."""
    return {"metrics": metrics}


def run_traced(seed: int, sizes: Sizes = Sizes()) -> dict:
    graph = inputs.graph_for(seed, sizes.nodes)
    ops = inputs.shard_ops(seed, sizes.nodes, sizes.pool, BATCH_SOURCES)
    expected, single_node_seconds = oracle(graph, ops)
    check = first_check(ops, expected)
    recorded = RecordedSteps(SAMPLE_STRIDE)
    fleet, _ = served.set_up(Fleet, lambda fleet: fleet.start(seed, sizes, check))
    try:
        coordinator = fleet.coordinator
        addresses = list(fleet.servers.addresses)
        with fleet.servers.client() as control:
            ping_us = served.ping_rtt_us(control)
        before = _registry(coordinator.stats()["metrics"])
        shards_before = _registry(
            coordinator.cluster_metrics(include_coordinator=False).as_dict()
        )
        with recorded:
            run = _drive(
                coordinator, sizes, ops, expected,
                units=sizes.counted_units, on_op=recorded.next_op,
            )
        after = _registry(coordinator.stats()["metrics"])
        shards_after = _registry(
            coordinator.cluster_metrics(include_coordinator=False).as_dict()
        )
    finally:
        fleet.stop()

    # Per sampled operation: the plan, then every round's blocking exchange.
    # What the client waited beyond the replayed work is booked to the layer
    # that spent it: inside a round trip to ``server.app`` (socket, event
    # loop, admission, worker hop), outside to ``distributed.coordinator``
    # (pool hand-off, merging, byte counting).
    replay = StepReplay(graph, addresses)
    recorder = SpanRecorder()
    remainders = {"server.app": 0.0, "distributed.coordinator": 0.0}
    replay_started = time.perf_counter()
    for position, calls in recorded.blocking_calls().items():
        with recorder.span("op.partitioned", "bench", op_id=position):
            with recorder.span(
                "distributed.frontier.automaton_plan", "distributed.frontier"
            ) as plan:
                automaton_plan(calls[0]["query"], calls[0]["params"]["alphabet"])
            outside_round_trips = run["latencies"][position] - plan.duration
            for call in calls:
                coordinator_seconds, shard_seconds = replay.replay(recorder, call)
                remainders["server.app"] += max(call["seconds"] - shard_seconds, 0.0)
                outside_round_trips -= call["seconds"] + coordinator_seconds
        remainders["distributed.coordinator"] += max(outside_round_trips, 0.0)
    replay_wall = time.perf_counter() - replay_started

    latencies = run["latencies"]
    queries = len(latencies)
    failed = run["failed"] + replay.diverged

    def delta(name: str) -> float:
        return served.counter_delta(before, after, name)

    steps = served.counter_delta(shards_before, shards_after, "engine_frontier_steps")
    query_ms = served.histogram_mean_ms(before, after, "coordinator_query_seconds")
    round_ms = served.histogram_mean_ms(before, after, "coordinator_round_seconds")
    rounds = delta("coordinator_rounds_total")
    step_seconds = recorder.durations("distributed.frontier.local_frontier_step")
    codec_seconds = sum(
        recorder.durations("distributed.frontier.encode_pairs")
        + recorder.durations("distributed.frontier.decode_pairs")
    )
    read_p50 = measure.ms(statistics.median(latencies))

    def median_us(name: str) -> float:
        return measure.us(measure.median(recorder.durations(name)))

    metrics = {
        "distributed.frontier.step_ms_p50": measure.ms(measure.median(step_seconds)),
        "distributed.frontier.step_ms_p95": measure.ms(
            measure.percentile_or_max(step_seconds, 0.95, "frontier step p95")
        ),
        "distributed.frontier.plan_us": median_us("distributed.frontier.automaton_plan"),
        "distributed.frontier.codec_us_per_kcode": (
            measure.us(codec_seconds) * 1000 / max(replay.codes, 1)
        ),
        "distributed.frontier.expanded_per_step": (
            served.counter_delta(shards_before, shards_after, "engine_frontier_expanded")
            / max(steps, 1)
        ),
        "distributed.frontier.relaxed_per_step": (
            served.counter_delta(shards_before, shards_after, "engine_frontier_relaxed")
            / max(steps, 1)
        ),
        "distributed.coordinator.rounds_per_query": rounds / queries,
        "distributed.coordinator.frontier_codes_per_query": (
            delta("coordinator_frontier_codes") / queries
        ),
        "distributed.coordinator.wire_bytes_per_query": (
            delta("coordinator_wire_bytes_sent")
            + delta("coordinator_wire_bytes_received")
        ) / queries,
        "distributed.coordinator.round_ms_mean": round_ms,
        "distributed.coordinator.shard_round_ms_mean": served.histogram_mean_ms(
            before, after, "coordinator_shard_round_seconds"
        ),
        "distributed.coordinator.straggler_gap_ms_mean": served.histogram_mean_ms(
            before, after, "coordinator_straggler_gap_seconds"
        ),
        "distributed.coordinator.self_ms_per_query": (
            query_ms - round_ms * rounds / queries
        ),
        "distributed.coordinator.single_node_ratio": read_p50 / measure.ms(
            statistics.median(single_node_seconds[:queries])
        ),
        "server.app.ping_rtt_us_p50": ping_us,
        "client.read_p95_ms": measure.ms(
            measure.percentile_or_max(latencies, 0.95, "client.read_p95_ms")
        ),
        "client.read_p99_ms": measure.ms(
            measure.percentile_or_max(latencies, 0.99, "client.read_p99_ms")
        ),
        "client.failed_share": failed / max(queries, 1),
        "client.generator_busy_share": run["cpu"] / run["wall"],
    }
    metrics.update(
        served.protocol_metrics(
            recorder, replay.request_bytes, replay.response_bytes, replay.requests
        )
    )
    metrics.update(probes.compile_probe(graph, [query for query, _sources in ops]))
    metrics.update(probes.serialize_probe(graph))
    metrics.update(probes.partition_probe(graph, SHARDS, STRATEGY))
    return {
        "attempted": queries,
        "failed": failed,
        "recorder": recorder,
        "replay_wall": replay_wall,
        "remainders": remainders,
        "exact": {
            "ops": queries,
            "answer_rows": sum(expected[:queries]),
            "rounds": rounds,
            "frontier_steps": steps,
        },
        "metrics": metrics,
    }
