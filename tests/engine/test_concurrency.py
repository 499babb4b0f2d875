"""Shared-state concurrency tests: the engine under a worker pool.

The query service executes requests on a thread pool against process-wide
state — the compile cache, the per-graph CSR snapshot, the kernel.  These
tests hammer that state from many threads and assert (a) no exceptions or
corruption and (b) answers identical to single-threaded evaluation.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.engine.batch import BatchExecutor
from repro.engine.cache import CompilationCache
from repro.engine.csr import get_csr
from repro.engine.kernel import compile_query, evaluate_sweep
from repro.graph.datasets import figure2_graph
from repro.graph.generators import random_graph

QUERIES = [
    "Transfer",
    "Transfer*",
    "Transfer+",
    "owner",
    "Transfer Transfer",
    "(Transfer | owner)*",
    "isBlocked",
    "type",
]


class TestCompilationCacheThreadSafety:
    def test_concurrent_compiles_tiny_cache(self):
        """A maxsize-2 cache forces constant eviction: the historic
        ``move_to_end`` vs ``popitem`` race corrupts an unlocked
        OrderedDict.  64 threads x 8 queries must neither raise nor
        miscount."""
        graph = figure2_graph()
        cache = CompilationCache(maxsize=2)
        errors = []

        def worker(seed):
            try:
                for offset in range(len(QUERIES)):
                    query = QUERIES[(seed + offset) % len(QUERIES)]
                    compiled = cache.compile(query, graph.labels)
                    assert compiled.nfa is not None
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(64)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        info = cache.info()
        assert info["size"] <= 2
        assert info["hits"] + info["misses"] == 64 * len(QUERIES)

    def test_concurrent_results_match_sequential(self):
        graph = figure2_graph()
        cache = CompilationCache()
        expected = {
            query: evaluate_sweep(compile_query(query, graph, cache=cache), graph)
            for query in QUERIES
        }

        def worker(query):
            compiled = compile_query(query, graph, cache=cache)
            return query, evaluate_sweep(compiled, graph)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(worker, QUERIES * 8))
        for query, pairs in results:
            assert pairs == expected[query]


class TestIndexThreadSafety:
    def test_concurrent_index_access_single_version(self):
        """Many threads racing to pack the edge column of one unmutated
        snapshot all see the same version, the full edge list and equal
        ordinal rows."""
        graph = random_graph(200, 2000, labels=("a", "b", "c"), seed=5)
        csr = get_csr(graph)
        seen = []
        lock = threading.Lock()
        start = threading.Barrier(16, timeout=30)

        def worker():
            start.wait()
            edges, ordinals = get_csr(graph).edge_rows(graph)
            with lock:
                seen.append(
                    (tuple(edges), tuple(row.tobytes() for row in ordinals))
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=16) as pool:
                futures = [pool.submit(worker) for _ in range(16)]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == 16 and len(set(seen)) == 1
        edges, ordinals = seen[0]
        assert get_csr(graph) is csr and csr.version == graph.version
        assert edges == tuple(graph.iter_edges())
        assert len(ordinals) == len(graph.labels)


class TestBatchExecutorConcurrency:
    def test_two_executors_share_default_cache(self):
        """Two batches running simultaneously against the process-wide cache
        must not corrupt it or each other's answers."""
        graph = figure2_graph()
        expected = BatchExecutor(cache=CompilationCache()).run(
            graph, QUERIES
        )
        outcomes = {}

        def run_batch(tag):
            result = BatchExecutor().run(graph, QUERIES * 3)
            outcomes[tag] = result.results[: len(QUERIES)]

        threads = [
            threading.Thread(target=run_batch, args=(tag,)) for tag in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes["a"] == expected.results
        assert outcomes["b"] == expected.results
