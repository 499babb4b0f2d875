"""The benchmark's declared surface: workloads and metrics, by name.

``BENCHMARK.json`` at the repository root is this module rendered
(:func:`benchmark_json`) with the bounds of ``bench/bounds.json``;
``bench/test_bench.py`` checks the two agree and that every run emits
exactly these names.
"""

from __future__ import annotations

import json
import os

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
BOUNDS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bounds.json")

#: Seconds one untraced run measures.  The driver makes 4 + 22 runs per
#: workload, 114 in all, inside 3420 s with their set-up: 30 s a run all
#: in.  15 s of measuring plus five timed set-ups and the answer checks
#: stays under 24 s.
RUN_SECONDS = 15

#: The widest bound ``BENCHMARK.json`` may state.
BOUND_CAP = 0.25

WORKLOADS = [
    (
        "lib_relation",
        "in-process full-relation RPQs + CRPQs: engine.kernel/csr do the "
        "work, server/distributed/storage do none",
    ),
    (
        "server_point",
        "one repro serve, 2 closed-loop clients, Zipf point reads over 8x "
        "the answer cache: protocol/app/service carry the latency",
    ),
    (
        "shard_partitioned",
        "2 shard processes + coordinator with its cache defeated: "
        "frontier step, codec and per-round wire dominate",
    ),
    (
        "store_mutate_read",
        "durable serve, 10 reads then one 8-edit write, repeated: the CSR "
        "rebuild after each write and store compaction dominate",
    ),
    (
        "store_write_burst",
        "durable serve, 1 read then eight 1-edit writes, repeated: store "
        "flush, compaction and the write round trip set ops_per_s",
    ),
]

#: (name, unit, better, stated bound).  The stated bound is the issue's
#: tenth; set-up time gets the widest.  The
#: bound in force for a (workload, metric) pair is in ``bench/bounds.json``:
#: the larger of this and twice the pair's measured ten-seed quartile spread
#: (``run.py --repeat 10 --write-bounds``).
END_TO_END = [
    ("setup_s", "s", "lower", BOUND_CAP),
    ("ops_per_s", "1/s", "higher", 0.10),
    ("read_p50_ms", "ms", "lower", 0.10),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

LAYERS = [
    "regex",
    "automata",
    "engine.cache",
    "engine.csr",
    "engine.kernel",
    "crpq.planning",
    "crpq.evaluation",
    "graph.serialize",
    "server.protocol",
    "server.service",
    "server.app",
    "engine.partition",
    "distributed.frontier",
    "distributed.coordinator",
    "storage.store",
    "storage.lazy",
]

#: (name, unit, better).  A workload that never enters a layer reports 0
#: for that layer's metrics: "bypassed" is itself the prediction to check.
PER_LAYER = [
    # regex / automata / engine.cache
    ("regex.parse_us", "us", "lower"),
    ("automata.glushkov_us", "us", "lower"),
    ("engine.cache.int_plan_us", "us", "lower"),
    ("engine.cache.compile_hit_share", "ratio", "higher"),
    # engine.intern / engine.csr
    ("engine.intern.build_ms", "ms", "lower"),
    ("engine.csr.build_ms", "ms", "lower"),
    ("engine.csr.builds", "count", "lower"),
    ("engine.csr.bytes_per_edge", "B", "lower"),
    # engine.kernel
    ("engine.kernel.sweep_ms_p50", "ms", "lower"),
    ("engine.kernel.sweep_ms_p95", "ms", "lower"),
    ("engine.kernel.edges_relaxed_per_op", "count", "lower"),
    ("engine.kernel.nodes_expanded_per_op", "count", "lower"),
    ("engine.kernel.answers_per_op", "count", "higher"),
    ("engine.kernel.ns_per_edge_relaxed", "ns", "lower"),
    ("engine.kernel.busy_share", "ratio", "lower"),
    # crpq
    ("crpq.planning.plan_us", "us", "lower"),
    ("crpq.evaluation.join_ms_p50", "ms", "lower"),
    ("crpq.evaluation.rows_per_answer", "ratio", "lower"),
    # graph.serialize
    ("graph.serialize.to_dict_ms", "ms", "lower"),
    ("graph.serialize.from_dict_ms", "ms", "lower"),
    # server.protocol
    ("server.protocol.encode_request_us", "us", "lower"),
    ("server.protocol.decode_request_us", "us", "lower"),
    ("server.protocol.encode_response_us", "us", "lower"),
    ("server.protocol.decode_response_us", "us", "lower"),
    ("server.protocol.request_bytes_per_op", "B", "lower"),
    ("server.protocol.response_bytes_per_op", "B", "lower"),
    # server.service
    ("server.service.execute_ms_p50", "ms", "lower"),
    ("server.service.cache_hit_share", "ratio", "higher"),
    ("server.service.cache_evictions", "count", "lower"),
    ("server.service.cache_invalidations", "count", "lower"),
    ("server.service.hit_ms_mean", "ms", "lower"),
    ("server.service.miss_ms_mean", "ms", "lower"),
    ("server.service.request_ms_mean", "ms", "lower"),
    # server.admission
    ("server.admission.admitted", "count", "higher"),
    ("server.admission.rejected", "count", "lower"),
    # server.app / server.client
    ("server.app.ping_rtt_us_p50", "us", "lower"),
    ("server.app.overhead_ms_mean", "ms", "lower"),
    ("server.client.retries", "count", "lower"),
    # engine.partition
    ("engine.partition.partition_ms", "ms", "lower"),
    ("engine.partition.edge_balance", "ratio", "lower"),
    ("engine.partition.cut_share", "ratio", "lower"),
    # distributed.frontier
    ("distributed.frontier.step_ms_p50", "ms", "lower"),
    ("distributed.frontier.step_ms_p95", "ms", "lower"),
    ("distributed.frontier.plan_us", "us", "lower"),
    ("distributed.frontier.codec_us_per_kcode", "us", "lower"),
    ("distributed.frontier.expanded_per_step", "count", "lower"),
    ("distributed.frontier.relaxed_per_step", "count", "lower"),
    # distributed.coordinator
    ("distributed.coordinator.rounds_per_query", "count", "lower"),
    ("distributed.coordinator.frontier_codes_per_query", "count", "lower"),
    ("distributed.coordinator.wire_bytes_per_query", "B", "lower"),
    ("distributed.coordinator.round_ms_mean", "ms", "lower"),
    ("distributed.coordinator.shard_round_ms_mean", "ms", "lower"),
    ("distributed.coordinator.straggler_gap_ms_mean", "ms", "lower"),
    ("distributed.coordinator.self_ms_per_query", "ms", "lower"),
    ("distributed.coordinator.single_node_ratio", "ratio", "lower"),
    # storage.store
    ("storage.store.put_graph_ms", "ms", "lower"),
    ("storage.store.flush_ms_p50", "ms", "lower"),
    ("storage.store.flushes", "count", "lower"),
    ("storage.store.compactions", "count", "lower"),
    ("storage.store.journal_rows", "count", "lower"),
    ("storage.store.compact_ms", "ms", "lower"),
    ("storage.store.bytes_written_per_edit", "B", "lower"),
    ("storage.store.load_graph_ms", "ms", "lower"),
    ("storage.store.read_segment_ms", "ms", "lower"),
    ("storage.store.cold_first_answer_ms", "ms", "lower"),
    ("storage.store.stored_bytes_per_edge", "B", "lower"),
    ("storage.store.acked_writes_lost", "count", "lower"),
    # storage.lazy
    ("storage.lazy.view_ms", "ms", "lower"),
    ("storage.lazy.segments_faulted", "count", "lower"),
    ("storage.lazy.resident_edges", "count", "lower"),
    # client / the benchmark itself
    ("client.read_p95_ms", "ms", "lower"),
    ("client.read_p99_ms", "ms", "lower"),
    ("client.write_p50_ms", "ms", "lower"),
    ("client.write_p95_ms", "ms", "lower"),
    ("client.failed_share", "ratio", "lower"),
    ("client.generator_busy_share", "ratio", "lower"),
    ("bench.trace_overhead_share", "ratio", "lower"),
] + [(f"self_share.{layer}", "ratio", "lower") for layer in LAYERS]

END_TO_END_UNITS = {name: unit for name, unit, _better, _bound in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _better in PER_LAYER}


def pair_bound(stated: float, spread: float) -> dict:
    """The bound of one (workload, metric) pair from its measured spread.

    A pair whose spread needs a bound wider than :data:`BOUND_CAP` cannot
    be gated: it keeps the cap and is marked *unresolved*, and a comparison
    reports it as such instead of as unchanged.
    """
    wanted = max(stated, round(2 * spread, 3))
    pair = {"spread": round(spread, 4), "bound": min(wanted, BOUND_CAP)}
    if wanted > BOUND_CAP:
        pair["unresolved"] = True
    return pair


def load_bounds() -> dict:
    """``{workload: {metric: {"spread", "bound"[, "unresolved"]}}}``."""
    with open(BOUNDS_PATH, encoding="utf-8") as handle:
        return json.load(handle)["pairs"]


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document.  Its schema has one bound per
    metric, so each gets the widest of its pairs' bounds."""
    pairs = load_bounds()
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {
                "name": name,
                "unit": unit,
                "better": better,
                "bound": max(pairs[workload][name]["bound"] for workload, _why in WORKLOADS),
            }
            for name, unit, better, _stated in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
