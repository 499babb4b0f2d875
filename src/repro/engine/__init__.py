"""The shared query-execution kernel (CSR data plane + cache + stats).

One optimization layer under every language frontend in the library:

* :mod:`repro.engine.intern` / :mod:`repro.engine.csr` — the flat
  int-encoded data plane: dense node/label interning and label-partitioned
  CSR adjacency in ``array('i')`` rows, forward and reversed, kept current
  across writes, with a lazily packed edge-id column for the evaluators
  whose answers name edges (product-graph paths, GQL patterns); the one
  adjacency structure of every op;
* :mod:`repro.engine.cache` — LRU compilation cache keyed on
  ``(regex AST, alphabet)`` so repeated queries skip parsing and Glushkov;
* :mod:`repro.engine.stats` — ``EngineStats`` counters/timers threaded
  through the evaluators and surfaced via the CLI's ``--stats``;
* :mod:`repro.engine.kernel` — the cached-compile + product-BFS entry
  points the frontends delegate to: one start node's answers (forward or
  backward, or one pair with early exit) and the one-sweep multi-source
  evaluation of a full ``[[R]]_G`` relation;
* :mod:`repro.engine.relation` — ``PairRelation``, the read-only set of
  pairs that sweep returns: its origin masks, decoded only when iterated;
* :mod:`repro.engine.cardinality` — per-label statistics (read off the
  CSR rows, once per snapshot) plus first/last-label automaton selectivity,
  feeding the cost-based CRPQ planner;
* :mod:`repro.engine.batch` — the workload driver: deduplicate
  structurally-equal queries, pre-warm the cache, share the snapshot,
  evaluate the unique items in one serial loop;
* :mod:`repro.engine.tracing` — hierarchical span tracer (thread-local
  current-span stacks, zero-cost no-op singleton when disabled) behind
  ``repro profile`` and workload trace files;
* :mod:`repro.engine.metrics` — log-scale latency histograms and a
  counter/histogram registry with Prometheus text and JSON exposition;
* :mod:`repro.engine.explain` — EXPLAIN/PROFILE reports for the CLI.

The frontends' original naive implementations live in
:mod:`repro.reference`, the one reference the differential tests compare
the engine against.
"""

from repro.engine.batch import BatchExecutor, BatchResult
from repro.engine.cache import (
    DEFAULT_CACHE,
    CompilationCache,
    CompiledQuery,
    alphabet_for,
    compile_uncached,
    default_cache,
)
from repro.engine.cache import IntPlan
from repro.engine.cardinality import CardinalityModel
from repro.engine.csr import CSRGraph, get_csr
from repro.engine.intern import Interner, get_interner
from repro.engine.kernel import (
    compile_query,
    evaluate_sweep,
    holds,
    reachable,
)
from repro.engine.metrics import Histogram, MetricsRegistry
from repro.engine.relation import PairRelation
from repro.engine.stats import EngineStats
from repro.engine.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    render_span_dict,
    span_tree_dict,
    use_thread_tracer,
    use_tracer,
)

__all__ = [
    "BatchExecutor",
    "BatchResult",
    "CardinalityModel",
    "CompilationCache",
    "CompiledQuery",
    "CSRGraph",
    "DEFAULT_CACHE",
    "EngineStats",
    "Histogram",
    "IntPlan",
    "Interner",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PairRelation",
    "Span",
    "Tracer",
    "alphabet_for",
    "compile_query",
    "compile_uncached",
    "default_cache",
    "evaluate_sweep",
    "get_csr",
    "get_interner",
    "get_tracer",
    "holds",
    "reachable",
    "render_span_dict",
    "span_tree_dict",
    "use_thread_tracer",
    "use_tracer",
]
