"""Execution-kernel benchmark: seed-style naive evaluation vs the shared kernel.

The workload is the increasing-edges family: uniform random multigraphs over
an 8-letter alphabet with a fixed node count and a doubling edge count, probed
by single-source ``reachable_by_rpq``.  The naive path (``use_index=False``,
the seed code kept as the differential oracle) re-parses and re-compiles the
regex on every call and scans every edge of every node during the product BFS;
the kernel path hits the warm compilation cache and the CSR snapshot, so it
touches only the matching label's row.  Per size we record median wall
times, the speedup, and the kernel's EngineStats counters into
``BENCH_engine.json`` via the ``engine_records`` fixture.
"""

import os
import statistics
import time

import pytest

from repro.engine.stats import EngineStats
from repro.graph.generators import random_graph
from repro.rpq.evaluation import reachable_by_rpq

LABELS = tuple("abcdefgh")
QUERY = "a.(b+c)*.d"
NUM_NODES = 150
REPEATS = 5
SIZES = (800, 1600, 3200)

#: Smoke mode (CI): fewer samples and a looser bound to absorb
#: shared-runner noise.  Full runs gate at < 5% overhead.
SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
OVERHEAD_SAMPLES = 5 if SMOKE else 9
OVERHEAD_CALLS = 20 if SMOKE else 60
OVERHEAD_LIMIT = 0.25 if SMOKE else 0.05

_SPEEDUPS: dict[int, float] = {}


def _median_seconds(func) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        func()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


@pytest.mark.parametrize("num_edges", SIZES)
def test_kernel_vs_naive_increasing_edges(engine_records, num_edges):
    graph = random_graph(NUM_NODES, num_edges, labels=LABELS, seed=11)
    source = "v0"

    oracle = reachable_by_rpq(QUERY, graph, source, use_index=False)
    # Warm the compilation cache and the CSR snapshot before timing the kernel.
    assert reachable_by_rpq(QUERY, graph, source, use_index=True) == oracle

    naive_s = _median_seconds(
        lambda: reachable_by_rpq(QUERY, graph, source, use_index=False)
    )
    kernel_s = _median_seconds(
        lambda: reachable_by_rpq(QUERY, graph, source, use_index=True)
    )

    stats = EngineStats()
    assert reachable_by_rpq(QUERY, graph, source, stats=stats) == oracle

    speedup = naive_s / kernel_s if kernel_s > 0 else float("inf")
    _SPEEDUPS[num_edges] = speedup
    engine_records.append(
        {
            "workload": "increasing_edges",
            "query": QUERY,
            "num_nodes": NUM_NODES,
            "num_edges": num_edges,
            "repeats": REPEATS,
            "naive_median_s": naive_s,
            "kernel_median_s": kernel_s,
            "speedup": speedup,
            "engine_stats": stats.as_dict(),
        }
    )


def test_kernel_speedup_at_least_2x(engine_records):
    """Acceptance gate: warm kernel beats the seed path by >= 2x at scale."""
    assert SIZES[-1] in _SPEEDUPS, "size benchmarks must run first"
    largest = _SPEEDUPS[max(_SPEEDUPS)]
    engine_records.append(
        {"workload": "speedup_gate", "largest_size_speedup": largest}
    )
    assert largest >= 2.0, f"expected >=2x speedup, got {largest:.2f}x"


def test_tracing_disabled_overhead(engine_records):
    """Observability gate: disabled tracing costs < 5% kernel throughput.

    The public kernel entry points now guard a span wrapper on
    ``tracer.enabled``; with the default :data:`NULL_TRACER` installed the
    extra work per call is one module-global read, one attribute check and
    one function call into the uninstrumented body.  This test times the
    guarded path against the bare body (``kernel._reachable``) on the
    largest benchmark graph, interleaving samples so clock drift hits both
    equally, and also records the *enabled* cost for reference.
    """
    from repro.engine import kernel
    from repro.engine.tracing import Tracer, use_tracer

    graph = random_graph(NUM_NODES, SIZES[-1], labels=LABELS, seed=11)
    source = "v0"
    compiled = kernel.compile_query(QUERY, graph)
    oracle = kernel.reachable(compiled, graph, source)  # warm the snapshot
    assert kernel._reachable(compiled, graph, source) == oracle

    def time_calls(func) -> float:
        start = time.perf_counter()
        for _ in range(OVERHEAD_CALLS):
            func()
        return time.perf_counter() - start

    guarded_samples, baseline_samples = [], []
    for _ in range(OVERHEAD_SAMPLES):
        baseline_samples.append(
            time_calls(lambda: kernel._reachable(compiled, graph, source))
        )
        guarded_samples.append(
            time_calls(lambda: kernel.reachable(compiled, graph, source))
        )
    baseline_s = statistics.median(baseline_samples)
    disabled_s = statistics.median(guarded_samples)

    tracer = Tracer()
    with use_tracer(tracer):
        enabled_s = time_calls(lambda: kernel.reachable(compiled, graph, source))

    overhead = disabled_s / baseline_s - 1.0
    engine_records.append(
        {
            "workload": "tracing_overhead",
            "calls_per_sample": OVERHEAD_CALLS,
            "samples": OVERHEAD_SAMPLES,
            "baseline_median_s": baseline_s,
            "disabled_median_s": disabled_s,
            "enabled_total_s": enabled_s,
            "disabled_overhead_ratio": overhead,
            "limit": OVERHEAD_LIMIT,
            "smoke": SMOKE,
        }
    )
    assert len(tracer.roots) == OVERHEAD_CALLS
    assert overhead < OVERHEAD_LIMIT, (
        f"disabled tracing costs {overhead:.1%} (limit {OVERHEAD_LIMIT:.0%})"
    )
