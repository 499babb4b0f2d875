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
  the engine's LRU cache before any evaluation starts, so workers never
  touch the (unsynchronized) cache concurrently;
* **shared snapshot** — queries are grouped per graph and the CSR snapshot
  is forced once, up front, instead of being built lazily by whichever
  worker gets there first;
* **parallel fan-out** — evaluation of the deduplicated work items runs on
  a ``concurrent.futures`` pool: threads by default (safe everywhere, and
  free on no-GIL builds), or a process pool (``fork=True``) that ships the
  graph to each worker once via an initializer.

Per-worker :class:`~repro.engine.stats.EngineStats` are merged into one
aggregate, so counters and phase timers describe the whole batch.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterable
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field

from repro.engine import kernel
from repro.engine.cache import DEFAULT_CACHE, CompilationCache
from repro.engine.csr import get_csr
from repro.engine.faults import FaultError, fault_point
from repro.engine.limits import BudgetExceeded, make_budget
from repro.engine.metrics import Histogram, MetricsRegistry
from repro.engine.stats import EngineStats
from repro.engine.tracing import Tracer, get_tracer, use_tracer
from repro.graph.edge_labeled import EdgeLabeledGraph, ObjectId
from repro.regex.ast import Regex

#: A workload entry: a bare expression (full ``[[R]]_G``) or an
#: ``(expression, source)`` pair (single-source reachability).
BatchQuery = "Regex | str | tuple"


def default_jobs() -> int:
    """Worker count when none is given: one per CPU, capped at 8."""
    return max(1, min(os.cpu_count() or 1, 8))


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
    jobs: int
    fork: bool
    wall_seconds: float
    phase_seconds: dict = field(default_factory=dict)
    #: one latency observation per executed (unique) work item
    latency_histogram: "Histogram | None" = None
    #: per-item ``{"query", "source", "seconds", "trace"}`` records;
    #: ``trace`` is a span-tree dict when tracing was enabled, else None
    timings: list = field(default_factory=list)
    #: the ``slow_log`` worst timings, sorted slowest-first
    slow_queries: list = field(default_factory=list)
    #: True when a KeyboardInterrupt cut the fan-out short; results of
    #: never-evaluated queries stay ``None`` and the telemetry (histogram,
    #: timings, stats) covers only the work that actually ran.
    interrupted: bool = False
    #: aligned with ``results``: entry *i* is ``None`` on success, else a
    #: structured error dict — ``{"error": "budget_exceeded", "limit": ...,
    #: "rows_so_far": ...}`` for a tripped budget (the partial answer, when
    #: any, sits in ``results[i]``), or ``{"error": "fault", ...}`` for an
    #: injected worker crash.  Empty list when every item succeeded.
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
            "jobs": self.jobs,
            "fork": self.fork,
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


# ----------------------------------------------------------------------
# process-pool plumbing (module-level so it pickles under spawn and fork)
# ----------------------------------------------------------------------
_WORKER_GRAPH: "EdgeLabeledGraph | None" = None


def _process_worker_init(graph_json: str) -> None:
    global _WORKER_GRAPH
    from repro.graph.serialize import loads

    _WORKER_GRAPH = loads(graph_json)


def _process_worker_run(payload):
    """Evaluate a chunk of unique work items against the worker's graph.

    Returns ``(records, counters, timers)`` — the *raw* per-worker stats
    dicts, not a rounded :meth:`EngineStats.as_dict` snapshot, so the parent
    merge loses neither sub-microsecond timers nor any phase key (regression
    test: ``tests/engine/test_batch.py::TestProcessPool``).  When ``trace``
    is set each item runs under a worker-local tracer and its span tree
    travels back as a plain dict.
    """
    trace, limits, items = payload
    graph = _WORKER_GRAPH
    stats = EngineStats()
    tracer = Tracer() if trace else None
    records = []
    for position, regex, source in items:
        started = time.perf_counter()
        trace_dict = None
        answer = None
        error = None
        budget = None
        if limits is not None:
            timeout = limits["timeout"]
            if timeout is not None:
                # A deadline that expired in transit still builds a (tiny)
                # valid budget, so the item fails fast with the typed error.
                timeout = max(timeout, 1e-6)
            budget = make_budget(
                timeout=timeout,
                max_rows=limits["max_rows"],
                max_states=limits["max_states"],
                stride=limits["stride"],
            )
        try:
            fault_point("batch.worker")
            if tracer is not None:
                with use_tracer(tracer):
                    with tracer.span(
                        "batch.query",
                        query=kernel.query_text(regex),
                        source=str(source) if source is not None else None,
                    ) as span:
                        answer = _evaluate_item(
                            graph, regex, source, stats, budget
                        )
                        span.set(answers=len(answer))
                trace_dict = span.as_dict()
            else:
                answer = _evaluate_item(graph, regex, source, stats, budget)
        except BudgetExceeded as exc:
            stats.count("batch_budget_exceeded")
            answer = exc.partial
            error = {"error": "budget_exceeded", **exc.details()}
        except FaultError as exc:
            stats.count("batch_worker_faults")
            error = {"error": "fault", "site": exc.site, "message": str(exc)}
        seconds = time.perf_counter() - started
        records.append((position, answer, seconds, trace_dict, error))
    return records, stats.counters, stats.timers


def _evaluate_item(graph, regex, source, stats, budget=None):
    compiled = kernel.compile_query(regex, graph, stats=stats)
    if source is None:
        return kernel.evaluate_sweep(compiled, graph, stats=stats, budget=budget)
    return kernel.reachable(compiled, graph, source, stats=stats, budget=budget)


class BatchExecutor:
    """Evaluate a workload of RPQs over a graph with cross-query amortization.

    Parameters
    ----------
    jobs:
        worker count (default :func:`default_jobs`); ``jobs=1`` runs inline
        with zero pool overhead.
    fork:
        use a process pool instead of threads.  The graph is serialized
        once per worker via the pool initializer (node/edge ids must be
        JSON-serializable, as in :mod:`repro.graph.serialize`); workers
        recompile the unique expressions into their own process cache.
    cache:
        the compilation cache to pre-warm (default: the engine-wide LRU).
    slow_log:
        keep the N slowest work items (with their full span trees when the
        active tracer is enabled) on :attr:`BatchResult.slow_queries`.
    """

    def __init__(
        self,
        *,
        jobs: "int | None" = None,
        fork: bool = False,
        cache: "CompilationCache | None" = None,
        slow_log: int = 0,
    ):
        self.jobs = jobs if jobs is not None else default_jobs()
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if slow_log < 0:
            raise ValueError("slow_log must be >= 0")
        self.fork = fork
        self.cache = cache if cache is not None else DEFAULT_CACHE
        self.slow_log = slow_log

    # ------------------------------------------------------------------
    # the driver
    # ------------------------------------------------------------------
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
        instead of killing its siblings.  With ``fork=True`` the limits are
        shipped to the worker processes as plain numbers (remaining
        timeout, row/state ceilings); cross-process *cancellation* is not
        supported.
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

        # 2. pre-warm the compile cache once, serially, so workers share
        #    ready-made CompiledQuery objects and never mutate the cache.
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

        # 4. fan evaluation of the unique items out over the pool.  A
        #    KeyboardInterrupt (Ctrl-C mid-workload) stops the fan-out but
        #    keeps everything already computed: partial answers, partial
        #    latencies and merged stats survive into the BatchResult so the
        #    CLI can flush telemetry before exiting 130.
        t0 = time.perf_counter()
        if self.fork:
            answers, raw_timings, interrupted, item_errors = self._run_processes(
                graph, unique, stats, budget
            )
        else:
            answers, raw_timings, interrupted, item_errors = self._run_threads(
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
            jobs=self.jobs,
            fork=self.fork,
            wall_seconds=wall,
            phase_seconds=phases,
            latency_histogram=histogram,
            timings=timings,
            slow_queries=slow_queries,
            interrupted=interrupted,
            errors=errors,
        )

    def run_grouped(
        self,
        items: Iterable[tuple[EdgeLabeledGraph, BatchQuery]],
        *,
        stats: "EngineStats | None" = None,
    ) -> list:
        """Evaluate ``(graph, query)`` pairs, grouping work per graph.

        Queries over the same graph object are batched into one :meth:`run`
        call — the CSR snapshot and compiled automata are shared within each
        group — and results come back in input order.
        """
        stats = stats if stats is not None else EngineStats()
        ordered = list(items)
        by_graph: dict[int, tuple[EdgeLabeledGraph, list[int]]] = {}
        for position, (graph, _query) in enumerate(ordered):
            by_graph.setdefault(id(graph), (graph, []))[1].append(position)
        results: list = [None] * len(ordered)
        for graph, positions in by_graph.values():
            batch = self.run(
                graph, [ordered[p][1] for p in positions], stats=stats
            )
            for local, position in enumerate(positions):
                results[position] = batch.results[local]
        return results

    # ------------------------------------------------------------------
    # pools
    # ------------------------------------------------------------------
    def _evaluate_one(self, graph, compiled_query, source, stats, budget=None):
        return _evaluate_item(graph, compiled_query, source, stats, budget)

    def _run_threads(self, graph, unique, compiled, stats, budget=None):
        """Thread-pool fan-out; per-query spans land on the active tracer.

        Each work item runs in its own pool thread, so with tracing enabled
        its ``batch.query`` span opens on that thread's empty span stack and
        becomes a root — per-query trees never interleave across workers
        (the tracer's current-span stack is thread-local).
        """

        def work(item):
            regex, source = item
            local = EngineStats()
            tracer = get_tracer()
            started = time.perf_counter()
            answer = None
            trace = None
            error = None
            item_budget = budget.fork() if budget is not None else None

            def run_item():
                # The positional call shape without a budget stays exactly
                # the seed's (tests monkeypatch _evaluate_one with it).
                if item_budget is None:
                    return self._evaluate_one(graph, compiled[regex], source, local)
                return self._evaluate_one(
                    graph, compiled[regex], source, local, item_budget
                )

            try:
                fault_point("batch.worker")
                if tracer.enabled:
                    with tracer.span(
                        "batch.query",
                        query=kernel.query_text(regex),
                        source=str(source) if source is not None else None,
                    ) as span:
                        answer = run_item()
                        span.set(answers=len(answer))
                    trace = span.as_dict()
                else:
                    answer = run_item()
            except BudgetExceeded as exc:
                local.count("batch_budget_exceeded")
                answer = exc.partial
                error = {"error": "budget_exceeded", **exc.details()}
            except FaultError as exc:
                local.count("batch_worker_faults")
                error = {"error": "fault", "site": exc.site, "message": str(exc)}
            seconds = time.perf_counter() - started
            return item, answer, local, seconds, trace, error

        answers: dict[tuple, set] = {}
        timings: list[tuple] = []
        item_errors: dict[tuple, dict] = {}
        interrupted = False

        def collect(output) -> None:
            item, answer, local, seconds, trace, error = output
            if answer is not None:
                answers[item] = answer
            if error is not None:
                item_errors[item] = error
            stats.merge(local)
            timings.append((item, seconds, trace))

        if self.jobs == 1 or len(unique) <= 1:
            try:
                for item in unique:
                    collect(work(item))
            except KeyboardInterrupt:
                interrupted = True
            return answers, timings, interrupted, item_errors

        # submit + wait (not pool.map): completed futures are harvested even
        # when an interrupt lands, so partial work is never thrown away.
        pool = ThreadPoolExecutor(max_workers=self.jobs)
        done: set = set()
        pending: set = set()
        try:
            pending = {pool.submit(work, item) for item in unique}
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                while done:
                    collect(done.pop().result())
        except KeyboardInterrupt:
            interrupted = True
            pool.shutdown(wait=False, cancel_futures=True)
            # Harvest whatever finished besides the interrupt: futures still
            # in the last ``done`` batch (popped-before-collected ones are
            # gone already, the rest remain) plus any that completed between
            # the interrupt and the shutdown.
            for future in done | pending:
                if future.done() and not future.cancelled():
                    try:
                        collect(future.result())
                    except KeyboardInterrupt:
                        pass
        else:
            pool.shutdown()
        return answers, timings, interrupted, item_errors

    def _run_processes(self, graph, unique, stats, budget=None):
        from repro.graph.serialize import dumps

        trace = get_tracer().enabled
        graph_json = dumps(graph)
        # Budgets don't pickle (thread events, monotonic deadlines); ship
        # the limits as plain numbers and let each worker rebuild a local
        # budget per item.  The remaining timeout is measured at submit
        # time, so the cross-process deadline is conservative-but-close.
        limits = None
        if budget is not None:
            limits = {
                "timeout": (
                    budget.deadline.remaining() if budget.deadline else None
                ),
                "max_rows": budget.max_rows,
                "max_states": budget.max_states,
                "stride": budget.stride,
            }
        chunks: list[list] = [[] for _ in range(min(self.jobs * 4, len(unique)) or 1)]
        for position, (regex, source) in enumerate(unique):
            chunks[position % len(chunks)].append((position, regex, source))
        answers: dict[tuple, set] = {}
        timings: list[tuple] = []
        item_errors: dict[tuple, dict] = {}
        interrupted = False

        def collect(payload_result) -> None:
            records, counters, timers = payload_result
            for position, answer, seconds, trace_dict, error in records:
                if answer is not None:
                    answers[unique[position]] = answer
                if error is not None:
                    item_errors[unique[position]] = error
                timings.append((unique[position], seconds, trace_dict))
            for name, value in counters.items():
                stats.count(name, value)
            for name, value in timers.items():
                stats.add_time(name, value)

        pool = ProcessPoolExecutor(
            max_workers=self.jobs,
            initializer=_process_worker_init,
            initargs=(graph_json,),
        )
        done: set = set()
        pending: set = set()
        try:
            payloads = [(trace, limits, chunk) for chunk in chunks if chunk]
            pending = {pool.submit(_process_worker_run, p) for p in payloads}
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                while done:
                    collect(done.pop().result())
        except KeyboardInterrupt:
            interrupted = True
            pool.shutdown(wait=False, cancel_futures=True)
            for future in done | pending:
                if future.done() and not future.cancelled():
                    try:
                        collect(future.result())
                    except KeyboardInterrupt:
                        pass
        else:
            pool.shutdown()
        return answers, timings, interrupted, item_errors
