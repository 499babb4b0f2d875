"""Drive a query log through the batch executor (or the seed path).

This is the glue between :mod:`repro.workloads.querylog` — the synthetic
stand-in for the paper's 150M-query SPARQL-log corpus — and the engine's
:class:`~repro.engine.batch.BatchExecutor`.  Two drivers share one report
shape so benchmarks and the CLI can compare them directly:

* :func:`run_query_log` — the batch path: deduplicate, pre-warm, share the
  CSR snapshot, evaluate each unique query once;
* :func:`run_query_log_sequential` — the seed path: one independent
  evaluation per query, re-parsing and re-compiling every time
  (:func:`repro.reference.rpq_pairs`), exactly what the repo did before
  the engine existed.  This is the baseline the ``BENCH_workload.json`` speedup gate
  measures against, and the oracle the batch results are checked against.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.engine.batch import BatchExecutor
from repro.engine.stats import EngineStats
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.regex.ast import Regex

#: A workload is what :func:`~repro.workloads.querylog.generate_query_log`
#: produces: ``(shape, expression)`` pairs.  Bare expressions also work.
LogEntry = "tuple[str, Regex] | Regex | str"


@dataclass
class WorkloadReport:
    """One workload run: per-query answer sets plus aggregate accounting."""

    mode: str
    results: list
    wall_seconds: float
    num_queries: int
    num_unique: "int | None" = None
    stats: "EngineStats | None" = None
    phase_seconds: dict = field(default_factory=dict)
    #: the batch executor's merged per-query latency histogram
    latency_histogram: "object | None" = None
    #: per-unique-item ``{"query", "source", "seconds", "trace"}`` records
    timings: list = field(default_factory=list)
    #: the N worst items (slowest-first), traces attached when traced
    slow_queries: list = field(default_factory=list)
    #: True when the batch evaluation was cut short by a KeyboardInterrupt
    interrupted: bool = False
    #: aligned with ``results``: structured per-query error dicts from the
    #: batch executor (budget trips, injected faults); empty when clean
    errors: list = field(default_factory=list)

    @property
    def total_answers(self) -> int:
        return sum(len(result) for result in self.results if result is not None)

    @property
    def queries_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return float("inf")
        return self.num_queries / self.wall_seconds

    def summary(self) -> dict:
        """A JSON-ready digest for benchmarks and the CLI."""
        digest = {
            "mode": self.mode,
            "num_queries": self.num_queries,
            "total_answers": self.total_answers,
            "wall_seconds": round(self.wall_seconds, 6),
            "queries_per_second": round(self.queries_per_second, 2),
        }
        if self.num_unique is not None:
            digest["num_unique"] = self.num_unique
        if self.phase_seconds:
            digest["phase_seconds"] = {
                name: round(value, 6) for name, value in self.phase_seconds.items()
            }
        if self.stats is not None:
            digest["engine_stats"] = self.stats.as_dict()
        if self.latency_histogram is not None and self.latency_histogram.count:
            digest["query_latency"] = self.latency_histogram.as_dict()
        if self.interrupted:
            digest["interrupted"] = True
            digest["num_completed"] = sum(
                1 for result in self.results if result is not None
            )
        failed = [error for error in self.errors if error is not None]
        if failed:
            digest["num_failed"] = len(failed)
            digest["errors"] = [
                dict(error, position=position)
                for position, error in enumerate(self.errors)
                if error is not None
            ]
        if self.slow_queries:
            digest["slow_queries"] = [
                {
                    "query": entry["query"],
                    "source": entry["source"],
                    "seconds": round(entry["seconds"], 6),
                }
                for entry in self.slow_queries
            ]
        return digest


def _expressions(log: Sequence[LogEntry]) -> list:
    """Strip query-log shape tags; accept bare expressions too."""
    expressions = []
    for entry in log:
        if isinstance(entry, tuple) and len(entry) == 2 and isinstance(entry[0], str):
            expressions.append(entry[1])
        else:
            expressions.append(entry)
    return expressions


def run_query_log(
    graph: EdgeLabeledGraph,
    log: Sequence[LogEntry],
    *,
    stats: "EngineStats | None" = None,
    slow_log: int = 0,
    budget=None,
) -> WorkloadReport:
    """Evaluate every log expression's full relation via the batch executor.

    A ``budget`` applies batch-wide: one shared deadline, per-item forked
    counters (see :meth:`BatchExecutor.run`).
    """
    expressions = _expressions(log)
    executor = BatchExecutor(slow_log=slow_log)
    stats = stats if stats is not None else EngineStats()
    batch = executor.run(graph, expressions, stats=stats, budget=budget)
    return WorkloadReport(
        mode="batch",
        results=batch.results,
        wall_seconds=batch.wall_seconds,
        num_queries=batch.num_queries,
        num_unique=batch.num_unique,
        stats=stats,
        phase_seconds=batch.phase_seconds,
        latency_histogram=batch.latency_histogram,
        timings=batch.timings,
        slow_queries=batch.slow_queries,
        interrupted=batch.interrupted,
        errors=batch.errors,
    )


def run_query_log_sequential(
    graph: EdgeLabeledGraph, log: Sequence[LogEntry]
) -> WorkloadReport:
    """The per-query seed path: no sharing between queries whatsoever.

    Each query re-parses, re-runs Glushkov, and BFSes per source with
    linear edge scans — the exact pre-engine pipeline.
    """
    from repro.reference import rpq_pairs

    expressions = _expressions(log)
    started = time.perf_counter()
    results = [
        rpq_pairs(expression, graph)
        for expression in expressions
    ]
    wall = time.perf_counter() - started
    return WorkloadReport(
        mode="sequential-seed",
        results=results,
        wall_seconds=wall,
        num_queries=len(expressions),
    )
