"""Workload-scale batch execution: amortize work *across* queries.

The single-query kernel already amortizes work within one evaluation (CSR
snapshot, compile cache, multi-source sweep).  Real deployments — the 150M+
SPARQL-log study the paper cites in Section 6.2 — evaluate huge batches of
mostly-similar queries over one graph, and the dominant savings live
*between* queries:

* **deduplication** — query logs are heavily repetitive (Zipf-distributed
  labels, a handful of shapes), so structurally-equal expressions are
  evaluated once and their answers fanned back out to every occurrence;
* **shared compilation** — the unique expressions are pre-compiled through
  the engine's LRU cache once, before any evaluation starts;
* **shared snapshot** — the CSR snapshot is forced once, up front, and
  every work item reads it.

The deduplicated items are then evaluated one after another on the calling
thread.  Each one is a pure-Python reachability over G×A, so under
CPython's GIL a worker pool only adds hand-off cost: thread and process
pools both measured slower than this loop.

One :class:`~repro.engine.stats.EngineStats` per item is merged into one
aggregate, so counters and phase timers describe the whole batch.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.engine import kernel
from repro.engine.cache import DEFAULT_CACHE, CompilationCache
from repro.engine.csr import get_csr
from repro.engine.faults import FaultError, fault_point
from repro.engine.limits import BudgetExceeded
from repro.engine.metrics import Histogram, MetricsRegistry
from repro.engine.stats import EngineStats
from repro.engine.tracing import get_tracer
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.regex.ast import Regex

#: A workload entry: a bare expression (full ``[[R]]_G``) or an
#: ``(expression, source)`` pair (single-source reachability).
BatchQuery = "Regex | str | tuple"


@dataclass
class BatchResult:
    """Results and accounting for one :meth:`BatchExecutor.run` call.

    ``results`` is aligned with the input workload: entry *i* is the answer
    to query *i* — a set of ``(source, target)`` pairs for full-relation
    queries, a set of target nodes for ``(expression, source)`` queries.
    """

    results: list
    stats: EngineStats
    num_queries: int
    num_unique: int
    wall_seconds: float
    phase_seconds: dict = field(default_factory=dict)
    #: one latency observation per executed (unique) work item
    latency_histogram: "Histogram | None" = None
    #: per-item ``{"query", "source", "seconds", "trace"}`` records;
    #: ``trace`` is a span-tree dict when tracing was enabled, else None
    timings: list = field(default_factory=list)
    #: the ``slow_log`` worst timings, sorted slowest-first
    slow_queries: list = field(default_factory=list)
    #: True when a KeyboardInterrupt cut the evaluation short; results of
    #: never-evaluated queries stay ``None`` and the telemetry (histogram,
    #: timings, stats) covers only the work that actually ran.
    interrupted: bool = False
    #: aligned with ``results``: entry *i* is ``None`` on success, else a
    #: structured error dict — ``{"error": "budget_exceeded", "limit": ...,
    #: "rows_so_far": ...}`` for a tripped budget (the partial answer, when
    #: any, sits in ``results[i]``), or ``{"error": "fault", ...}`` for an
    #: injected item crash.  Empty list when every item succeeded.
    errors: list = field(default_factory=list)

    @property
    def dedup_ratio(self) -> float:
        """Unique work items per input query (1.0 means nothing shared)."""
        if not self.num_queries:
            return 1.0
        return self.num_unique / self.num_queries

    @property
    def total_answers(self) -> int:
        return sum(len(result) for result in self.results if result is not None)

    @property
    def num_completed(self) -> int:
        """Input queries whose answers were computed before any interrupt."""
        return sum(1 for result in self.results if result is not None)

    @property
    def num_failed(self) -> int:
        """Input queries that ended in a structured error (budget/fault)."""
        if not self.errors:
            return 0
        return sum(1 for error in self.errors if error is not None)

    def summary(self) -> dict:
        """A JSON-ready digest (what the CLI and benchmarks report)."""
        digest = {
            "num_queries": self.num_queries,
            "num_unique": self.num_unique,
            "dedup_ratio": round(self.dedup_ratio, 4),
            "total_answers": self.total_answers,
            "wall_seconds": round(self.wall_seconds, 6),
            "phase_seconds": {
                name: round(value, 6) for name, value in self.phase_seconds.items()
            },
            "engine_stats": self.stats.as_dict(),
        }
        if self.interrupted:
            digest["interrupted"] = True
            digest["num_completed"] = self.num_completed
        if self.num_failed:
            digest["num_failed"] = self.num_failed
            digest["errors"] = [
                dict(error, position=position)
                for position, error in enumerate(self.errors)
                if error is not None
            ]
        if self.latency_histogram is not None and self.latency_histogram.count:
            digest["query_latency"] = self.latency_histogram.as_dict()
        if self.slow_queries:
            # Traces can be large; the digest keeps the compact view and the
            # full span trees stay on ``slow_queries``/``timings``.
            digest["slow_queries"] = [
                {
                    "query": entry["query"],
                    "source": entry["source"],
                    "seconds": round(entry["seconds"], 6),
                }
                for entry in self.slow_queries
            ]
        return digest

    def metrics(self, namespace: str = "repro") -> MetricsRegistry:
        """The batch as a :class:`MetricsRegistry` (Prometheus/JSON export)."""
        registry = MetricsRegistry(namespace)
        registry.fold_stats(self.stats)
        if self.latency_histogram is not None:
            registry.histogram(
                "query_latency_seconds", self.latency_histogram.bounds
            ).merge(self.latency_histogram)
        return registry


def _normalize(query) -> tuple:
    """``(expression, source)`` with ``source=None`` meaning full relation."""
    if isinstance(query, tuple):
        expression, source = query
        return expression, source
    return query, None


class BatchExecutor:
    """Evaluate a workload of RPQs over a graph with cross-query amortization.

    Parameters
    ----------
    cache:
        the compilation cache to pre-warm (default: the engine-wide LRU).
    slow_log:
        keep the N slowest work items (with their full span trees when the
        active tracer is enabled) on :attr:`BatchResult.slow_queries`.
    """

    def __init__(
        self,
        *,
        cache: "CompilationCache | None" = None,
        slow_log: int = 0,
    ):
        if slow_log < 0:
            raise ValueError("slow_log must be >= 0")
        self.cache = cache if cache is not None else DEFAULT_CACHE
        self.slow_log = slow_log

    def run(
        self,
        graph: EdgeLabeledGraph,
        queries: Iterable[BatchQuery],
        *,
        stats: "EngineStats | None" = None,
        budget=None,
    ) -> BatchResult:
        """Evaluate every query of the workload against ``graph``.

        ``budget`` (a :class:`~repro.engine.limits.QueryBudget`) governs the
        whole batch: every unique work item runs under ``budget.fork()`` —
        same deadline and cancellation objects, fresh counters — so one
        item blowing its limits produces a structured entry on
        :attr:`BatchResult.errors` (with any partial answer on ``results``)
        instead of killing its siblings.
        """
        started = time.perf_counter()
        stats = stats if stats is not None else EngineStats()
        phases: dict[str, float] = {}

        # 1. parse + deduplicate structurally-equal work items.
        t0 = time.perf_counter()
        workload: list[tuple] = []
        for query in queries:
            expression, source = _normalize(query)
            if isinstance(expression, str):
                expression = self.cache.parse(expression, stats)
            workload.append((expression, source))
        groups: dict[tuple, list[int]] = {}
        for position, item in enumerate(workload):
            groups.setdefault(item, []).append(position)
        unique = list(groups)
        phases["dedup"] = time.perf_counter() - t0
        stats.count("batch_queries", len(workload))
        stats.count("batch_unique_queries", len(unique))

        # 2. compile each unique expression once, through the shared cache.
        t0 = time.perf_counter()
        compiled = {}
        for regex in {item[0] for item in unique}:
            compiled[regex] = kernel.compile_query(
                regex, graph, cache=self.cache, stats=stats
            )
        phases["compile"] = time.perf_counter() - t0

        # 3. force the adjacency structure exactly once, up front: the CSR
        #    snapshot (which embeds the interner).
        t0 = time.perf_counter()
        get_csr(graph, stats)
        phases["index"] = time.perf_counter() - t0

        # 4. evaluate the unique items in order.  A KeyboardInterrupt (Ctrl-C
        #    mid-workload) stops the loop but keeps everything already
        #    computed: partial answers, partial latencies and merged stats
        #    survive into the BatchResult so the CLI can flush telemetry
        #    before exiting 130.
        t0 = time.perf_counter()
        answers, raw_timings, interrupted, item_errors = self._evaluate_unique(
            graph, unique, compiled, stats, budget
        )
        phases["evaluate"] = time.perf_counter() - t0

        # 5. merge per-item latencies into the workload histogram and keep
        #    the slow-query log (the N worst items, traces attached).
        histogram = Histogram()
        timings: list[dict] = []
        for (regex, source), seconds, trace in raw_timings:
            histogram.observe(seconds)
            timings.append(
                {
                    "query": kernel.query_text(regex),
                    "source": str(source) if source is not None else None,
                    "seconds": seconds,
                    "trace": trace,
                }
            )
        slow_queries = sorted(
            timings, key=lambda entry: entry["seconds"], reverse=True
        )[: self.slow_log]

        # 6. fan answers (and structured errors) back out to every duplicate
        #    occurrence (items the interrupt cut off have no answer and stay
        #    None).
        results: list = [None] * len(workload)
        errors: list = [None] * len(workload) if item_errors else []
        for item, positions in groups.items():
            error = item_errors.get(item)
            if item not in answers and error is None:
                continue
            answer = answers.get(item)
            for position in positions:
                results[position] = answer
                if error is not None:
                    errors[position] = error

        wall = time.perf_counter() - started
        stats.add_time("batch", wall)
        return BatchResult(
            results=results,
            stats=stats,
            num_queries=len(workload),
            num_unique=len(unique),
            wall_seconds=wall,
            phase_seconds=phases,
            latency_histogram=histogram,
            timings=timings,
            slow_queries=slow_queries,
            interrupted=interrupted,
            errors=errors,
        )

    def _evaluate_one(self, graph, compiled_query, source, stats, budget=None):
        compiled = kernel.compile_query(compiled_query, graph, stats=stats)
        if source is None:
            return kernel.evaluate_sweep(compiled, graph, stats=stats, budget=budget)
        return kernel.reachable(compiled, graph, source, stats=stats, budget=budget)

    def _evaluate_unique(self, graph, unique, compiled, stats, budget=None):
        """Evaluate each unique item in turn; per-query spans land on the
        active tracer, one ``batch.query`` span per item."""
        tracer = get_tracer()
        answers: dict[tuple, set] = {}
        timings: list[tuple] = []
        item_errors: dict[tuple, dict] = {}
        interrupted = False
        try:
            for item in unique:
                regex, source = item
                local = EngineStats()
                started = time.perf_counter()
                answer = None
                trace = None
                item_budget = budget.fork() if budget is not None else None
                # The positional call shape without a budget stays exactly
                # the seed's (tests monkeypatch _evaluate_one with it).
                args = (graph, compiled[regex], source, local)
                if item_budget is not None:
                    args += (item_budget,)
                try:
                    fault_point("batch.worker")
                    if tracer.enabled:
                        with tracer.span(
                            "batch.query",
                            query=kernel.query_text(regex),
                            source=str(source) if source is not None else None,
                        ) as span:
                            answer = self._evaluate_one(*args)
                            span.set(answers=len(answer))
                        trace = span.as_dict()
                    else:
                        answer = self._evaluate_one(*args)
                except BudgetExceeded as exc:
                    local.count("batch_budget_exceeded")
                    answer = exc.partial
                    item_errors[item] = {"error": "budget_exceeded", **exc.details()}
                except FaultError as exc:
                    local.count("batch_worker_faults")
                    item_errors[item] = {
                        "error": "fault",
                        "site": exc.site,
                        "message": str(exc),
                    }
                if answer is not None:
                    answers[item] = answer
                stats.merge(local)
                timings.append((item, time.perf_counter() - started, trace))
        except KeyboardInterrupt:
            interrupted = True
        return answers, timings, interrupted, item_errors
