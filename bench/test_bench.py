"""Self-test of the benchmark (``python -m pytest bench -q``; tiny sizes;
not part of the tier-1 suite)."""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench import (  # noqa: E402
    catalog,
    durable,
    inputs,
    lib_relation,
    measure,
    run,
    server_point,
    shard_partitioned,
)
from bench.spans import SpanRecorder  # noqa: E402

TINY = {
    "lib_relation": lib_relation.TINY,
    "server_point": server_point.TINY,
    "shard_partitioned": shard_partitioned.TINY,
    "store_mutate_read": durable.TINY_MUTATE_READ,
    "store_write_burst": durable.TINY_WRITE_BURST,
}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def _all_inputs(seed):
    blocks = inputs.store_blocks(seed, 80, 10, 1, 8)
    zipf = inputs.zipf_stream(seed, 160)
    return {
        "lib": inputs.lib_ops(seed, 40, 1),
        "pairs": inputs.point_pairs(seed, 80, 160),
        "zipf": [next(zipf) for _ in range(500)],
        "shard": inputs.shard_ops(seed, 80, 50, 32),
        "blocks": [next(blocks) for _ in range(5)],
        "edges": sorted(inputs.graph_for(seed, 80).iter_edge_records()),
    }


def test_same_seed_gives_identical_inputs():
    assert _all_inputs(7) == _all_inputs(7)


def test_another_seed_gives_other_inputs():
    first, second = _all_inputs(7), _all_inputs(8)
    for name in first:
        assert first[name] != second[name], name


def test_shape_mix_is_the_same_for_every_seed():
    """The seed draws the instance; the shape mix belongs to the workload."""
    def shapes(seed):
        blank = {label: "L" for label in inputs.LABELS}
        texts = inputs.query_log(seed, 300)
        for label in inputs.LABELS:
            texts = [text.replace(label, blank[label]) for text in texts]
        return sorted(texts)

    assert shapes(1) == shapes(2)


def test_every_fifth_partitioned_op_has_32_sources():
    widths = sorted(len(sources) for _query, sources in inputs.shard_ops(5, 80, 50, 32))
    assert widths == [1] * 40 + [32] * 10


# ----------------------------------------------------------------------
# measurement helpers
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1, 201))
    assert measure.percentile(samples, 0.95) == 190
    assert measure.percentile(samples, 0.5) == 100
    with pytest.raises(ValueError):
        measure.percentile(samples[:199], 0.95)
    with pytest.raises(ValueError):
        measure.percentile(samples, 0.99)


def test_span_self_times_sum_to_the_root():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    with recorder.span("root", "bench", op_id=1) as root:
        with recorder.span("a", "layer.a"):
            with recorder.span("a.inner", "layer.b"):
                pass
        with recorder.span("b", "layer.b"):
            recorder.attribute("timer", "layer.c", 0.5)
    own = recorder.self_times()
    assert sum(own.values()) == pytest.approx(root.duration)
    assert all(value >= 0 for value in own.values())
    assert sum(recorder.layer_self_seconds().values()) == pytest.approx(root.duration)
    assert {span.op_id for span in recorder.spans} == {1}


# ----------------------------------------------------------------------
# the declared surface
# ----------------------------------------------------------------------
def test_benchmark_json_is_the_catalog_rendered():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        committed = json.load(handle)
    assert committed == catalog.benchmark_json()
    assert all(0 < entry["bound"] <= 0.25 for entry in committed["end_to_end"])
    names = [entry["name"] for entry in committed["end_to_end"] + committed["per_layer"]]
    assert len(names) == len(set(names)) and len(committed["per_layer"]) <= 128
    assert "setup_s" in names


def test_every_pair_has_a_bound_no_tighter_than_stated():
    pairs = catalog.load_bounds()
    for workload, _why in catalog.WORKLOADS:
        for name, _unit, _better, stated in catalog.END_TO_END:
            assert stated <= pairs[workload][name]["bound"] <= catalog.BOUND_CAP


def test_pair_bound_is_twice_the_spread_between_stated_and_cap():
    assert catalog.pair_bound(0.10, 0.03) == {"spread": 0.03, "bound": 0.10}
    assert catalog.pair_bound(0.10, 0.08) == {"spread": 0.08, "bound": 0.16}
    assert catalog.pair_bound(0.10, 0.2) == {
        "spread": 0.2, "bound": 0.25, "unresolved": True,
    }


ISSUE_PER_LAYER = """
regex.parse_us automata.glushkov_us engine.cache.int_plan_us
engine.cache.compile_hit_share engine.intern.build_ms engine.csr.build_ms
engine.csr.builds engine.csr.bytes_per_edge engine.kernel.sweep_ms_p50
engine.kernel.sweep_ms_p95 engine.kernel.edges_relaxed_per_op
engine.kernel.nodes_expanded_per_op engine.kernel.answers_per_op
engine.kernel.ns_per_edge_relaxed engine.kernel.busy_share
crpq.planning.plan_us crpq.evaluation.join_ms_p50
crpq.evaluation.rows_per_answer graph.serialize.to_dict_ms
graph.serialize.from_dict_ms server.protocol.encode_request_us
server.protocol.decode_request_us server.protocol.encode_response_us
server.protocol.decode_response_us server.protocol.request_bytes_per_op
server.protocol.response_bytes_per_op server.service.execute_ms_p50
server.service.cache_hit_share server.service.cache_evictions
server.service.cache_invalidations server.service.hit_ms_mean
server.service.miss_ms_mean server.service.request_ms_mean
server.admission.admitted server.admission.rejected
server.app.ping_rtt_us_p50 server.client.retries
engine.partition.partition_ms engine.partition.edge_balance
engine.partition.cut_share distributed.frontier.step_ms_p50
distributed.frontier.step_ms_p95 distributed.frontier.plan_us
distributed.frontier.codec_us_per_kcode distributed.frontier.expanded_per_step
distributed.frontier.relaxed_per_step distributed.coordinator.rounds_per_query
distributed.coordinator.frontier_codes_per_query
distributed.coordinator.wire_bytes_per_query
distributed.coordinator.round_ms_mean
distributed.coordinator.shard_round_ms_mean
distributed.coordinator.straggler_gap_ms_mean
distributed.coordinator.self_ms_per_query
distributed.coordinator.single_node_ratio storage.store.put_graph_ms
storage.store.flush_ms_p50 storage.store.flushes storage.store.compactions
storage.store.journal_rows storage.store.compact_ms
storage.store.bytes_written_per_edit storage.store.load_graph_ms
storage.store.read_segment_ms storage.lazy.view_ms
storage.lazy.segments_faulted storage.lazy.resident_edges client.read_p99_ms
client.generator_busy_share bench.trace_overhead_share
""".split()

#: The issue's end-to-end metrics, and where those went that the driver's
#: schema cannot carry as such (0 on the baseline, or defined on one
#: workload only) or that were demoted for spread (``read_p95_ms``).
ISSUE_END_TO_END = {
    "setup_s": "setup_s",
    "ops_per_s": "ops_per_s",
    "read_p50_ms": "read_p50_ms",
    "read_p95_ms": "client.read_p95_ms",
    "peak_rss_mb": "peak_rss_mb",
    "write_p50_ms": "client.write_p50_ms",
    "write_p95_ms": "client.write_p95_ms",
    "failed_share": "client.failed_share",
    "cold_first_answer_ms": "storage.store.cold_first_answer_ms",
    "acked_writes_lost": "storage.store.acked_writes_lost",
    "stored_bytes_per_edge": "storage.store.stored_bytes_per_edge",
}


def test_every_metric_the_issue_names_is_declared():
    declared = set(catalog.END_TO_END_UNITS) | set(catalog.PER_LAYER_UNITS)
    assert set(ISSUE_PER_LAYER) <= declared
    assert set(ISSUE_END_TO_END.values()) <= declared
    # renamed: client p50 minus a server *mean* is no p50
    assert "server.app.overhead_ms_mean" in declared


# ----------------------------------------------------------------------
# the five workloads, tiny
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("bench-out"))


@pytest.mark.parametrize("workload", list(TINY))
def test_untraced_run_emits_every_end_to_end_metric(workload, out_dir):
    result = run.run_one(workload, 3, 1.0, 0, sizes=TINY[workload], out_dir=out_dir)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(catalog.END_TO_END_UNITS)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == catalog.END_TO_END_UNITS[name]
        assert entry["value"] > 0, name
    json.dumps(result["metrics"])


@pytest.mark.parametrize("workload", list(TINY))
def test_traced_run_emits_every_per_layer_metric_and_repeats_exactly(workload, out_dir):
    first = run.run_one(workload, 3, 1.0, 1, sizes=TINY[workload], out_dir=out_dir)
    second = run.run_one(workload, 3, 1.0, 1, sizes=TINY[workload], out_dir=out_dir)
    other = run.run_one(workload, 4, 1.0, 1, sizes=TINY[workload], out_dir=out_dir)
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == set(catalog.PER_LAYER_UNITS)
    for name, entry in first["metrics"].items():
        assert entry["unit"] == catalog.PER_LAYER_UNITS[name]
    assert first["exact"] == second["exact"]
    assert first["exact"] != other["exact"]
    shares = [
        entry["value"] for name, entry in first["metrics"].items()
        if name.startswith("self_share.")
    ]
    assert sum(shares) == pytest.approx(1.0)
    with open(os.path.join(out_dir, f"trace-{workload}.jsonl"), encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    assert spans and all(
        set(span) == {"id", "name", "layer", "start", "end", "parent", "op_id"}
        for span in spans
    )


def test_a_workload_that_cannot_start_is_all_failed_not_a_crash(monkeypatch):
    def broken(*args, **kwargs):
        raise OSError("cannot spawn")

    monkeypatch.setattr(server_point, "run_untraced", broken)
    result = run._guarded("server_point", 0, 1.0, 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
