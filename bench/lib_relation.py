"""Workload ``lib_relation``: in-process full-relation RPQs and CRPQs.

One caller, closed loop, no server: ``evaluate_rpq(query, graph)`` for a
query log whose repeats fit the 256-entry compile cache, plus cost-planned
CRPQs.  ``engine.kernel`` and ``engine.csr`` do almost all the work, so a
kernel gain shows here at full size and a request-pipeline or wire change
must not move it.

The unit of work is one *pass* over the seeded operation list.  The
untraced run repeats whole passes until ``--seconds`` have gone by and
reports the median pass (see :func:`bench.measure.unit_metrics`).
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass

from repro.crpq.ast import parse_crpq
from repro.crpq.evaluation import evaluate_crpq, evaluate_crpq_bindings
from repro.crpq.planning import make_plan
from repro.engine import kernel
from repro.engine.cache import DEFAULT_CACHE, alphabet_for, compile_uncached
from repro.engine.csr import get_csr
from repro.engine.stats import EngineStats
from repro.regex.parser import parse_regex
from repro.rpq.evaluation import evaluate_rpq

from bench import inputs, measure, probes
from bench.spans import SpanRecorder

#: Every ``SAMPLE_STRIDE``-th operation is checked against the naive
#: evaluator (a 5 % sample).
SAMPLE_STRIDE = 20
#: The traced run replays *every* operation decomposed: costs span three
#: orders of magnitude (a single label against a starred disjunction), so a
#: 1-in-20 sample of a 320-operation pass swings the flame table from 44 %
#: to 87 % kernel depending on which heavy operations it happens to hit.
REPLAY_STRIDE = 1
#: Sources per sampled RPQ the naive evaluator answers (it is per-source).
ORACLE_SOURCES = 8
#: Set-ups timed ahead of every pass (a set-up here is ~10 ms).
SETUPS_PER_PASS = 3


@dataclass(frozen=True)
class Sizes:
    nodes: int = 500
    rpq_count: int = 300
    crpq_rotations: int = 6
    #: passes of the traced run's counted part (enough reads for a p99)
    counted_passes: int = 4


TINY = Sizes(nodes=60, rpq_count=40, crpq_rotations=1, counted_passes=2)


def _evaluate(op, graph, stats=None) -> int:
    """One operation through the library's public path; the answer count."""
    kind, text = op
    if kind == "rpq":
        return len(evaluate_rpq(text, graph, stats=stats))
    return len(evaluate_crpq(text, graph, planner="cost", stats=stats))


def _oracle_sources(graph, position: int) -> list[str]:
    nodes = graph.num_nodes
    step = max(nodes // ORACLE_SOURCES, 1)
    return [f"v{(position + k * step) % nodes}" for k in range(ORACLE_SOURCES)]


def naive_check(graph, ops) -> int:
    """Sampled operations whose indexed answer differs from the naive
    evaluator's (``use_index=False``: fresh parse, linear edge scans)."""
    wrong = 0
    for position in range(0, len(ops), SAMPLE_STRIDE):
        kind, text = ops[position]
        if kind == "rpq":
            sources = _oracle_sources(graph, position)
            fast = evaluate_rpq(text, graph, sources=sources)
            slow = evaluate_rpq(text, graph, sources=sources, use_index=False)
        else:
            fast = evaluate_crpq(text, graph, planner="cost")
            slow = evaluate_crpq(text, graph, use_index=False)
        wrong += fast != slow
    return wrong


def _timed_setup(seed: int, sizes: Sizes, first_op, first_count: int) -> float:
    """Graph generation until the first checked answer (which builds the
    interner and the CSR and compiles the first query)."""
    started = time.perf_counter()
    graph = inputs.graph_for(seed, sizes.nodes)
    if _evaluate(first_op, graph) != first_count:
        raise RuntimeError("set-up answer differs from the reference pass")
    return time.perf_counter() - started


def run_untraced(seed: int, seconds: float, sizes: Sizes = Sizes()) -> dict:
    ops = inputs.lib_ops(seed, sizes.rpq_count, sizes.crpq_rotations)
    graph = inputs.graph_for(seed, sizes.nodes)
    failed = naive_check(graph, ops)
    expected = [_evaluate(op, graph) for op in ops]
    first = next(i for i, (_kind, text) in enumerate(ops) if inputs.is_single_label(text))
    # Set-ups ahead of every pass: the samples span the whole run, so a
    # burst of interference that lasts seconds cannot move their median.
    setups = []

    def set_up():
        for _ in range(SETUPS_PER_PASS):
            setups.append(_timed_setup(seed, sizes, ops[first], expected[first]))

    units, wrong = measure.run_units(
        lambda op: _evaluate(op, graph), [(ops, expected)], seconds=seconds,
        before_unit=set_up,
    )
    metrics = measure.unit_metrics(units)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = measure.peak_rss_mb([os.getpid()])
    return {
        "attempted": len(ops) * len(units),
        "failed": failed + wrong,
        "answer_rows": sum(expected),
        "samples": {
            "passes": len(units), "reads_per_pass": len(ops),
            "pass_ops_per_s": measure.unit_rates(units),
        },
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _replay_rpq(recorder: SpanRecorder, graph, text: str, op_id: int) -> None:
    """One RPQ decomposed through the public function of each layer."""
    with recorder.span("op.rpq", "bench", op_id=op_id):
        with recorder.span("regex.parse_regex", "regex"):
            regex = parse_regex(text)
        with recorder.span("engine.cache.compile_uncached", "automata"):
            compiled = compile_uncached(regex, alphabet_for(regex, graph))
        with recorder.span("engine.csr.get_csr", "engine.csr"):
            csr = get_csr(graph)
        with recorder.span("engine.cache.int_plan", "engine.cache"):
            compiled.int_plan(csr.interner)
        with recorder.span("engine.kernel.evaluate_sweep", "engine.kernel"):
            kernel.evaluate_sweep(compiled, graph)


def _replay_crpq(recorder: SpanRecorder, graph, text: str, op_id: int) -> dict:
    """One CRPQ decomposed: parse, plan, join (kernel time attributed)."""
    stats = EngineStats()
    with recorder.span("op.crpq", "bench", op_id=op_id):
        with recorder.span("crpq.ast.parse_crpq", "crpq.evaluation"):
            query = parse_crpq(text)
        with recorder.span("crpq.planning.make_plan", "crpq.planning"):
            plan = make_plan(query, graph, "cost")
        with recorder.span(
            "crpq.evaluation.evaluate_crpq_bindings", "crpq.evaluation"
        ) as join:
            bindings = evaluate_crpq_bindings(query, graph, plan=plan, stats=stats)
            answers = {tuple(b[var] for var in query.head) for b in bindings}
            recorder.attribute(
                "engine.kernel.bfs", "engine.kernel", stats.timers.get("bfs", 0.0)
            )
            recorder.attribute(
                "engine.cache.compile", "engine.cache",
                stats.timers.get("compile", 0.0),
            )
    kernel_seconds = stats.timers.get("bfs", 0.0) + stats.timers.get("compile", 0.0)
    return {
        "join_seconds": max(join.duration - kernel_seconds, 0.0),
        "bindings": len(bindings),
        "answers": len(answers),
    }


def run_traced(seed: int, sizes: Sizes = Sizes()) -> dict:
    """The counted pass (real path, program counters on) plus the
    decomposed replay."""
    ops = inputs.lib_ops(seed, sizes.rpq_count, sizes.crpq_rotations)
    graph = inputs.graph_for(seed, sizes.nodes)
    failed = naive_check(graph, ops)
    _evaluate(ops[0], graph)  # CSR built before the counted pass, as in the timed run

    cache_before = DEFAULT_CACHE.info()
    stats = EngineStats()
    kernel_seconds = []
    counts, latencies = [], []
    busy_started = time.thread_time()
    started = time.perf_counter()
    for op in ops * sizes.counted_passes:
        bfs_before = stats.timers.get("bfs", 0.0)
        op_started = time.perf_counter()
        counts.append(_evaluate(op, graph, stats))
        latencies.append(time.perf_counter() - op_started)
        kernel_seconds.append(stats.timers.get("bfs", 0.0) - bfs_before)
    wall = time.perf_counter() - started
    busy = time.thread_time() - busy_started
    cache_after = DEFAULT_CACHE.info()

    recorder = SpanRecorder()
    crpq_parts = []
    replay_started = time.perf_counter()
    for position in range(0, len(ops), REPLAY_STRIDE):
        kind, text = ops[position]
        if kind == "crpq":
            crpq_parts.append(_replay_crpq(recorder, graph, text, position))
        else:
            _replay_rpq(recorder, graph, text, position)
    replay_wall = time.perf_counter() - replay_started

    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    relaxed = stats.get("edges_relaxed")
    bfs = stats.timers.get("bfs", 0.0)
    metrics = {
        "engine.cache.compile_hit_share": hits / max(hits + misses, 1),
        "engine.csr.builds": stats.get("csr_builds"),
        "engine.kernel.sweep_ms_p50": measure.ms(statistics.median(kernel_seconds)),
        "engine.kernel.sweep_ms_p95": measure.ms(
            measure.percentile_or_max(kernel_seconds, 0.95, "kernel sweep p95")
        ),
        "engine.kernel.edges_relaxed_per_op": relaxed / len(counts),
        "engine.kernel.nodes_expanded_per_op": stats.get("nodes_expanded") / len(counts),
        "engine.kernel.answers_per_op": sum(counts) / len(counts),
        "engine.kernel.ns_per_edge_relaxed": bfs * 1e9 / max(relaxed, 1),
        "engine.kernel.busy_share": bfs / wall,
        "crpq.planning.plan_us": measure.us(
            measure.median(recorder.durations("crpq.planning.make_plan"))
        ),
        "crpq.evaluation.join_ms_p50": measure.ms(
            measure.median(part["join_seconds"] for part in crpq_parts)
        ),
        "crpq.evaluation.rows_per_answer": (
            sum(part["bindings"] for part in crpq_parts)
            / max(sum(part["answers"] for part in crpq_parts), 1)
        ),
        "client.read_p95_ms": measure.ms(
            measure.percentile_or_max(latencies, 0.95, "client.read_p95_ms")
        ),
        "client.read_p99_ms": measure.ms(
            measure.percentile_or_max(latencies, 0.99, "client.read_p99_ms")
        ),
        "client.failed_share": failed / len(counts),
        "client.generator_busy_share": busy / wall,
    }
    metrics.update(
        probes.compile_probe(graph, [text for kind, text in ops if kind == "rpq"])
    )
    metrics.update(probes.csr_probe(graph))
    return {
        "attempted": len(counts),
        "failed": failed,
        "recorder": recorder,
        "replay_wall": replay_wall,
        "remainders": {},
        "exact": {
            "ops": len(counts),
            "answer_rows": sum(counts) // sizes.counted_passes,
            "edges_relaxed": relaxed,
            "nodes_expanded": stats.get("nodes_expanded"),
        },
        "metrics": metrics,
    }
