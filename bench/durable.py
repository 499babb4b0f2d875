"""Workloads ``store_mutate_read`` and ``store_write_burst``: reads beside
durable writes, in two mixes.

One durable ``repro serve --data-dir`` subprocess with the store flush
policy as shipped (WAL, ``synchronous=NORMAL``, flush before every reply,
``compact_every=64``); one closed-loop client repeating a block of
single-source ``rpq`` reads then ``graphs.mutate`` writes of fresh
``add_edge`` edits on the same graph.  Every write bumps the version,
empties the answer cache and invalidates the CSR.

* ``store_mutate_read``: ten reads, then one write of eight edits.  The
  ``engine.csr`` rebuild the first read after a write pays and
  ``storage.store`` compaction dominate; rebuild-reads are a tenth of reads.
* ``store_write_burst``: one read, then eight writes of one edit each (an
  application inserting edges one at a time and looking now and then).
  Writes are eight ninths of the operations and ``storage.store`` (flush,
  and the compaction every 64th write) is half of the wall time, so
  ``ops_per_s`` here is the bound on flush, compaction and the write round
  trip, which the read-heavy mix hides behind its reads; every read follows
  a write, so ``read_p50_ms`` here is the rebuild read.

After the run the server is SIGKILLed and the store is reopened: every
acknowledged edge must be there.  (A killed process leaves the operating
system's cache intact, so this is process-crash durability, not power
loss; the sandbox cannot cut power.)
"""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import tempfile
import time
from dataclasses import dataclass
from itertools import islice

from repro.engine.csr import get_csr
from repro.rpq.evaluation import evaluate_rpq
from repro.server.service import GraphCatalog, QueryService
from repro.storage.lazy import LazyGraphHandle
from repro.storage.store import GraphStore

from bench import inputs, measure, probes, served
from bench.served import GRAPH
from bench.spans import SpanRecorder

COLD_RESTARTS = 5


@dataclass(frozen=True)
class Sizes:
    nodes: int = 2000
    reads_per_block: int = 10
    writes_per_block: int = 1
    edits_per_write: int = 8
    #: The untraced run is cut into units of this many blocks; it reports
    #: the median unit (see :func:`bench.measure.unit_metrics`).
    unit_blocks: int = 60
    #: blocks of the traced run's counted pass (>= 3 compaction cycles)
    counted_blocks: int = 220

    @property
    def ops_per_block(self) -> int:
        return self.reads_per_block + self.writes_per_block

    def blocks(self, seed: int):
        return inputs.store_blocks(
            seed, self.nodes, self.reads_per_block, self.writes_per_block,
            self.edits_per_write,
        )


#: ~2 s units.
MUTATE_READ = Sizes()
#: A unit is 64 writes: exactly one compaction, wherever the unit starts.
WRITE_BURST = Sizes(
    reads_per_block=1, writes_per_block=8, edits_per_write=1,
    unit_blocks=8, counted_blocks=64,
)
TINY_MUTATE_READ = Sizes(nodes=80, counted_blocks=70)
TINY_WRITE_BURST = Sizes(
    nodes=80, reads_per_block=1, writes_per_block=8, edits_per_write=1,
    unit_blocks=8, counted_blocks=24,
)


def _apply(graph, batch) -> None:
    for edit in batch:
        graph.add_edge(edit["id"], edit["src"], edit["tgt"], edit["label"])


def _first_check(reads):
    """The set-up's checked read: a single label if the first block has
    one (it nearly always does), else its first read."""
    return next((read for read in reads if inputs.is_single_label(read[0])), reads[0])


def _checked_reads(block: int, reads_per_block: int) -> tuple[int, ...]:
    """The reads of a block whose answers are verified exactly: the first
    after the writes (it rebuilds the CSR) and one other."""
    if reads_per_block == 1:
        return (0,)
    return 0, 1 + block % (reads_per_block - 1)


class Store:
    """The durable server, its data directory and the acknowledged state."""

    def __init__(self, out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        self.data_dir = tempfile.mkdtemp(prefix="store-", dir=out_dir)
        self.servers = served.Servers(1, ("--data-dir", self.data_dir))
        self.client = None
        self.version = None

    def start(self, seed: int, sizes: Sizes, check) -> float:
        """Timed set-up: graph generation, spawn, upload (= store import),
        first checked answer."""
        started = time.perf_counter()
        graph = inputs.graph_for(seed, sizes.nodes)
        self.servers.start()
        self.client = self.servers.client()
        self.version = self.client.upload_graph(GRAPH, graph)["version"]
        (query, source), want = check
        if self.client.rpq(GRAPH, query, source=source)["count"] != want:
            raise RuntimeError("set-up answer differs from the oracle")
        return time.perf_counter() - started

    def kill(self) -> None:
        """SIGKILL the server and wait until it is gone."""
        if self.client is not None:
            pid = self.client.health()["pid"]
            self.client.close()
            self.client = None
            os.kill(pid, signal.SIGKILL)
        deadline = time.perf_counter() + served.DRAIN_TIMEOUT
        while self.servers.launcher.poll(0) is None:
            if time.perf_counter() > deadline:
                raise RuntimeError("server survived SIGKILL")
            time.sleep(0.005)

    def restart(self) -> None:
        self.servers.launcher.respawn(0)
        self.client = self.servers.client()

    def stop(self) -> None:
        try:
            if self.client is not None:
                self.client.close()
        finally:
            try:
                self.servers.stop()
            finally:
                shutil.rmtree(self.data_dir, ignore_errors=True)


def _drive(store: Store, sizes: Sizes, blocks, seconds=None) -> dict:
    """Run whole blocks until ``seconds`` have passed or ``blocks`` ends."""
    client = store.client
    reads, writes, block_seconds = [], [], []
    done = []  # the blocks actually issued
    observed = []  # per block: the counts of its checked reads
    acked = []
    failed = 0
    cpu_started = time.thread_time()
    started = time.perf_counter()
    for number, (block_reads, batches) in enumerate(blocks):
        block_started = time.perf_counter()
        if seconds is not None and block_started - started >= seconds:
            break
        done.append((block_reads, batches))
        checked = _checked_reads(number, sizes.reads_per_block)
        counts = []
        for position, (query, source) in enumerate(block_reads):
            op_started = time.perf_counter()
            try:
                result = client.rpq(GRAPH, query, source=source)
                ok = result["graph_version"] == store.version
                count = result["count"]
            except Exception:  # noqa: BLE001 - any failure is a failed op
                ok, count = False, -1
            reads.append(time.perf_counter() - op_started)
            failed += not ok
            if position in checked:
                counts.append(count)
        for batch in batches:
            op_started = time.perf_counter()
            try:
                result = client.mutate(GRAPH, batch)
                ok = result["applied"] == len(batch)
                store.version = result["version"]
            except Exception:  # noqa: BLE001
                ok = False
            writes.append(time.perf_counter() - op_started)
            if ok:
                acked.append(batch)
            else:
                failed += 1
        observed.append(counts)
        block_seconds.append(time.perf_counter() - block_started)
    return {
        "blocks": done,
        "reads": reads,
        "writes": writes,
        "block_seconds": block_seconds,
        "observed": observed,
        "acked": acked,
        "failed": failed,
        "wall": time.perf_counter() - started,
        "cpu": time.thread_time() - cpu_started,
    }


def _verify(seed: int, sizes: Sizes, run: dict, data_dir: str):
    """Check the run against an in-process mirror of the acknowledged state.

    Returns ``(wrong reads, acknowledged edges lost, mirror graph)``.  The
    checked reads of every block are re-answered by the naive evaluator on
    the mirror as it stood before that block's writes; then the killed
    server's store is reopened and must hold every acknowledged edge.
    """
    mirror = inputs.graph_for(seed, sizes.nodes)
    wrong = 0
    for number, ((block_reads, batches), counts) in enumerate(
        zip(run["blocks"], run["observed"])
    ):
        for position, count in zip(_checked_reads(number, sizes.reads_per_block), counts):
            query, source = block_reads[position]
            want = len(evaluate_rpq(query, mirror, sources=[source], use_index=False))
            wrong += count != want
        for batch in batches:
            _apply(mirror, batch)
    with GraphStore(data_dir) as reopened:
        durable = set(reopened.load_graph(GRAPH).iter_edge_records())
    lost = sum(
        (edit["id"], edit["src"], edit["tgt"], edit["label"]) not in durable
        for batch in run["acked"]
        for edit in batch
    )
    return wrong, lost, mirror


def _units(run: dict, sizes: Sizes) -> list:
    """Whole ``unit_blocks``-block units as ``unit_metrics`` units (one
    shorter unit when the run has fewer blocks than that)."""
    seconds, reads = run["block_seconds"], run["reads"]
    size = min(sizes.unit_blocks, len(seconds))
    per_block = sizes.reads_per_block
    return [
        (
            sum(seconds[first:first + size]),
            size * sizes.ops_per_block,
            reads[first * per_block:(first + size) * per_block],
        )
        for first in range(0, len(seconds) - size + 1, size)
    ]


def _check_for(seed: int, sizes: Sizes, first_block_reads):
    """The set-up's checked read and its expected count."""
    pair = _first_check(first_block_reads)
    graph = inputs.graph_for(seed, sizes.nodes)
    return pair, len(evaluate_rpq(pair[0], graph, sources=[pair[1]]))


def run_untraced(seed: int, seconds: float, sizes: Sizes, out_dir: str) -> dict:
    check = _check_for(seed, sizes, next(sizes.blocks(seed))[0])

    def make():
        return Store(out_dir)

    def start(store):
        return store.start(seed, sizes, check)

    setups = served.throwaway_setups(make, start, served.SETUPS_BEFORE)
    store, spent = served.set_up(make, start)
    setups.append(spent)
    try:
        run = _drive(store, sizes, sizes.blocks(seed), seconds=seconds)
        peak_rss = store.servers.peak_rss_mb()
        store.kill()
        wrong, lost, _mirror = _verify(seed, sizes, run, store.data_dir)
    finally:
        store.stop()
    setups += served.throwaway_setups(make, start, served.SETUPS_AFTER)
    attempted = len(run["reads"]) + len(run["writes"])
    units = _units(run, sizes)
    metrics = measure.unit_metrics(units)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss
    return {
        "attempted": attempted,
        "failed": run["failed"] + wrong,
        "acked_writes_lost": lost,
        "samples": {
            "units": len(units), "reads": len(run["reads"]), "writes": len(run["writes"]),
            "unit_ops_per_s": measure.unit_rates(units),
        },
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _cold_restarts(store: Store, check, want: int) -> tuple[list[float], int]:
    """Kill, respawn on the stored graph, time spawn -> first correct answer."""
    seconds, wrong = [], 0
    (query, source) = check
    for _ in range(COLD_RESTARTS):
        started = time.perf_counter()
        store.restart()
        count = store.client.rpq(GRAPH, query, source=source)["count"]
        seconds.append(time.perf_counter() - started)
        wrong += count != want
        store.kill()
    return seconds, wrong


def _dir_bytes(data_dir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(data_dir, name)) for name in os.listdir(data_dir)
    )


class StoreReplay:
    """The workload's blocks through an in-process durable ``QueryService``
    (the server's own request handlers, no socket), with spans around the
    store's ``flush`` and ``compact`` so that ``storage.store`` is told
    apart from ``server.service``, and ``get_csr`` called ahead of a
    block's first read so that the rebuild the read would pay is told apart
    from ``engine.kernel``."""

    def __init__(self, recorder: SpanRecorder, graph, data_dir: str):
        self.recorder = recorder
        self.data_dir = data_dir
        self.service = QueryService(GraphCatalog(data_dir))
        self.put_seconds, _ = probes.timed(self.service.catalog.register, GRAPH, graph)
        self.graph = graph
        self.store = self.service.catalog.store
        self.store.flush = recorder.wrap(
            "storage.store.flush", "storage.store", self.store.flush
        )
        self.store.compact = recorder.wrap(
            "storage.store.compact", "storage.store", self.store.compact
        )
        self.requests = served.ServiceReplay(self.service)
        self.bytes_after_put = _dir_bytes(data_dir)
        self.edits = 0

    def block(self, number: int, reads, batches) -> float:
        recorder = self.recorder
        with recorder.span("op.block", "bench", op_id=number) as root:
            with recorder.span("engine.csr.get_csr", "engine.csr"):
                get_csr(self.graph)  # cold: the previous write invalidated it
            for query, source in reads:
                self.requests.request(recorder, "rpq", graph=GRAPH, query=query, source=source)
            for batch in batches:
                self.requests.request(recorder, "graphs.mutate", graph=GRAPH, edits=batch)
                self.edits += len(batch)
        return root.duration

    def storage_metrics(self) -> dict:
        """What the program's own flush and compact calls cost and how many
        it made, then probes of the store's read side."""
        spans = self.recorder.spans
        own = self.recorder.self_times()
        compacts = [span for span in spans if span.name == "storage.store.compact"]
        inside_compact = {span.id for span in compacts}
        # compact() flushes again itself; count the service's own calls
        flushes = [
            span for span in spans
            if span.name == "storage.store.flush" and span.parent not in inside_compact
        ]
        store = self.store
        journal_rows = store.journal_rows(GRAPH)
        written = _dir_bytes(self.data_dir) - self.bytes_after_put
        compact_seconds = [span.duration for span in compacts] or [
            probes.timed(store.compact, GRAPH)[0]
        ]
        load_seconds, _ = probes.timed(store.load_graph, GRAPH)
        label = sorted(store.labels(GRAPH))[0]
        segment_seconds, _ = probes.timed(store.read_segment, GRAPH, label)
        handle = LazyGraphHandle(store, GRAPH)
        view_seconds, _ = probes.timed(handle.view, [label])
        return {
            "storage.store.put_graph_ms": measure.ms(self.put_seconds),
            "storage.store.flush_ms_p50": measure.ms(
                measure.median(own[span.id] for span in flushes)
            ),
            "storage.store.flushes": len(flushes),
            "storage.store.compactions": len(compacts),
            "storage.store.journal_rows": journal_rows,
            "storage.store.compact_ms": measure.ms(measure.median(compact_seconds)),
            "storage.store.bytes_written_per_edit": written / max(self.edits, 1),
            "storage.store.load_graph_ms": measure.ms(load_seconds),
            "storage.store.read_segment_ms": measure.ms(segment_seconds),
            "storage.lazy.view_ms": measure.ms(view_seconds),
            "storage.lazy.segments_faulted": handle.view_builds,
            "storage.lazy.resident_edges": handle.info()["resident_edges"],
        }

    def close(self) -> None:
        self.graph.detach_journal()
        self.service.close()


def run_traced(seed: int, sizes: Sizes, out_dir: str) -> dict:
    blocks = list(islice(sizes.blocks(seed), sizes.counted_blocks))
    check_pair, want = check = _check_for(seed, sizes, blocks[0][0])
    graph = inputs.graph_for(seed, sizes.nodes)
    store, _ = served.set_up(
        lambda: Store(out_dir), lambda store: store.start(seed, sizes, check)
    )
    try:
        ping_us = served.ping_rtt_us(store.client)
        before = store.client.stats()
        run = _drive(store, sizes, blocks)
        after = store.client.stats()
        store.kill()
        wrong, lost, mirror = _verify(seed, sizes, run, store.data_dir)
        final_want = len(evaluate_rpq(check_pair[0], mirror, sources=[check_pair[1]]))
        cold_seconds, cold_wrong = _cold_restarts(store, check_pair, final_want)
        store.restart()
        store.client.close()
        store.client = None
        store.servers.stop()  # graceful drain: the journal is flushed
        stored_bytes = _dir_bytes(store.data_dir)
    finally:
        store.stop()

    replay_dir = tempfile.mkdtemp(prefix="replay-", dir=out_dir)
    recorder = SpanRecorder()
    remainder = 0.0
    try:
        replay = StoreReplay(recorder, graph, replay_dir)
        try:
            replay_started = time.perf_counter()
            for number, (reads, batches) in enumerate(blocks):
                seconds = replay.block(number, reads, batches)
                remainder += max(run["block_seconds"][number] - seconds, 0.0)
            replay_wall = time.perf_counter() - replay_started
            metrics = replay.storage_metrics()
        finally:
            replay.close()
    finally:
        shutil.rmtree(replay_dir, ignore_errors=True)

    reads = len(run["reads"])
    attempted = reads + len(run["writes"])
    failed = run["failed"] + wrong + cold_wrong
    metrics.update(served.service_stats_metrics(before, after))
    metrics.update(replay.requests.protocol_metrics(recorder, attempted))
    metrics.update(replay.requests.kernel_metrics(reads))
    metrics.update(probes.compile_probe(graph, [q for rs, _b in blocks for q, _s in rs]))
    metrics.update(probes.csr_probe(mirror))
    metrics.update(probes.serialize_probe(mirror))
    metrics.update(
        {
            "engine.kernel.busy_share": (
                served.counter_delta(before, after, "engine_bfs_seconds") / run["wall"]
            ),
            "server.app.ping_rtt_us_p50": ping_us,
            "server.app.overhead_ms_mean": (
                measure.ms(measure.mean(run["reads"] + run["writes"]))
                - metrics["server.service.request_ms_mean"]
            ),
            "storage.store.cold_first_answer_ms": measure.ms(
                statistics.median(cold_seconds)
            ),
            "storage.store.stored_bytes_per_edge": stored_bytes / mirror.num_edges,
            "storage.store.acked_writes_lost": lost,
            "client.read_p95_ms": measure.ms(
                measure.percentile_or_max(run["reads"], 0.95, "client.read_p95_ms")
            ),
            "client.read_p99_ms": measure.ms(
                measure.percentile_or_max(run["reads"], 0.99, "client.read_p99_ms")
            ),
            "client.write_p50_ms": measure.ms(statistics.median(run["writes"])),
            "client.write_p95_ms": measure.ms(
                measure.percentile_or_max(run["writes"], 0.95, "client.write_p95_ms")
            ),
            "client.failed_share": failed / attempted,
            "client.generator_busy_share": run["cpu"] / run["wall"],
        }
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "acked_writes_lost": lost,
        "recorder": recorder,
        "replay_wall": replay_wall,
        "remainders": {"server.app": remainder},
        "exact": {
            "ops": attempted,
            "answer_rows": sum(count for counts in run["observed"] for count in counts),
            "edges_relaxed": replay.requests.counter("engine_edges_relaxed"),
            "nodes_expanded": replay.requests.counter("engine_nodes_expanded"),
            "flushes": metrics["storage.store.flushes"],
            "compactions": metrics["storage.store.compactions"],
            "cache_invalidations": metrics["server.service.cache_invalidations"],
        },
        "metrics": metrics,
    }
