"""What the four subprocess workloads share: spawning real ``repro serve``
processes, reading their exported counters, and replaying a request
in-process through the public functions of ``server.protocol`` and
``server.service`` with spans around each."""

from __future__ import annotations

import time

from repro.distributed.coordinator import ShardLauncher
from repro.server.client import ServerClient
from repro.server.protocol import (
    Request,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    ok_response,
)

from bench import measure
from bench.spans import SpanRecorder

#: Client-side wall-clock cap per operation; a timeout is a failed
#: operation, never a hang.
OP_TIMEOUT = 30.0
STARTUP_TIMEOUT = 60.0
#: Seconds a server gets to drain on SIGTERM before it is killed.
DRAIN_TIMEOUT = 10.0
#: The graph upload of a 16 000-edge graph is ~1 MB of JSON, right at the
#: server's default 1 MiB request limit; admission is otherwise default.
MAX_REQUEST_BYTES = 64 << 20
GRAPH = "bench"


class Servers:
    """``count`` real ``repro serve`` subprocesses, torn down on exit."""

    def __init__(self, count: int, extra_args: tuple = ()):
        self.launcher = ShardLauncher(
            count,
            startup_timeout=STARTUP_TIMEOUT,
            extra_args=("--max-request-bytes", str(MAX_REQUEST_BYTES), *extra_args),
        )
        self.addresses: list[tuple[str, int]] = []

    def start(self) -> "Servers":
        self.addresses = list(self.launcher.start())
        return self

    def stop(self) -> None:
        """SIGTERM, wait ``DRAIN_TIMEOUT`` for the drain, then SIGKILL."""
        self.launcher.stop(timeout=DRAIN_TIMEOUT)

    def client(self, index: int = 0) -> ServerClient:
        host, port = self.addresses[index]
        return ServerClient(host, port, timeout=OP_TIMEOUT)

    def pids(self) -> list[int]:
        found = []
        for index in range(len(self.addresses)):
            with self.client(index) as client:
                found.append(client.health()["pid"])
        return found

    def peak_rss_mb(self) -> float:
        return measure.peak_rss_mb(self.pids())


#: Throw-away set-ups timed ahead of and after the measured run, beside the
#: one that serves it: five samples spread over the whole run, so a burst of
#: interference that lasts seconds cannot move their median.
SETUPS_BEFORE = 2
SETUPS_AFTER = 2


def set_up(factory, start):
    """One set-up: ``factory()`` makes an object with a ``stop()``,
    ``start(instance)`` brings it to its first checked answer and returns
    the seconds that took.  Returns ``(instance, seconds)``; the caller must
    ``stop()`` it.  A set-up that fails stops what it started."""
    instance = factory()
    try:
        return instance, start(instance)
    except BaseException:
        instance.stop()
        raise


def throwaway_setups(factory, start, repeats: int) -> list[float]:
    """``repeats`` set-ups, each stopped again; the seconds each took."""
    seconds = []
    for _ in range(repeats):
        instance, spent = set_up(factory, start)
        instance.stop()
        seconds.append(spent)
    return seconds


def protocol_metrics(recorder: SpanRecorder, request_bytes: int, response_bytes: int, requests: int) -> dict:
    """The ``server.protocol`` metrics of the replayed requests."""

    def median_us(name: str) -> float:
        return measure.us(measure.median(recorder.durations(name)))

    return {
        "server.protocol.encode_request_us": median_us("server.protocol.encode_request"),
        "server.protocol.decode_request_us": median_us("server.protocol.decode_request"),
        "server.protocol.encode_response_us": median_us("server.protocol.encode_response"),
        "server.protocol.decode_response_us": median_us("server.protocol.decode_response"),
        "server.protocol.request_bytes_per_op": request_bytes / max(requests, 1),
        "server.protocol.response_bytes_per_op": response_bytes / max(requests, 1),
    }


def counter_delta(before: dict, after: dict, name: str) -> float:
    """Growth of one server counter between two ``stats`` results."""
    return (
        after["metrics"]["counters"].get(name, 0)
        - before["metrics"]["counters"].get(name, 0)
    )


def histogram_mean_ms(before: dict, after: dict, name: str) -> float:
    """Mean, in ms, of what a server histogram observed between two
    ``stats`` results."""
    empty = {"count": 0, "sum": 0.0}
    old = before["metrics"]["histograms"].get(name, empty)
    new = after["metrics"]["histograms"].get(name, empty)
    count = new["count"] - old["count"]
    return measure.ms((new["sum"] - old["sum"]) / count) if count else 0.0


def ping_rtt_us(client: ServerClient, count: int = 200) -> float:
    """Median ``ping`` round trip: framing + asyncio + socket, no query."""
    samples = []
    for _ in range(count):
        started = time.perf_counter()
        client.ping()
        samples.append(time.perf_counter() - started)
    return measure.us(measure.median(samples))


def service_stats_metrics(before: dict, after: dict) -> dict:
    """The ``server.*`` metrics a real server's ``stats`` op yields."""
    cache_old, cache_new = before["answer_cache"], after["answer_cache"]
    hits = cache_new["hits"] - cache_old["hits"]
    misses = cache_new["misses"] - cache_old["misses"]
    compile_old, compile_new = before["compile_cache"], after["compile_cache"]
    compile_hits = compile_new["hits"] - compile_old["hits"]
    compile_misses = compile_new["misses"] - compile_old["misses"]
    admission_old, admission_new = before["admission"], after["admission"]
    return {
        "server.service.cache_hit_share": hits / max(hits + misses, 1),
        "server.service.cache_evictions": cache_new["evictions"] - cache_old["evictions"],
        "server.service.cache_invalidations": (
            cache_new["invalidations"] - cache_old["invalidations"]
        ),
        "server.service.hit_ms_mean": histogram_mean_ms(
            before, after, "server_cache_hit_seconds"
        ),
        "server.service.miss_ms_mean": histogram_mean_ms(
            before, after, "server_cache_miss_seconds"
        ),
        "server.service.request_ms_mean": histogram_mean_ms(
            before, after, "server_request_seconds"
        ),
        "server.admission.admitted": admission_new["admitted"] - admission_old["admitted"],
        "server.admission.rejected": sum(
            admission_new[key] - admission_old[key]
            for key in ("rejected_queue_full", "rejected_queue_timeout")
        ),
        "engine.cache.compile_hit_share": (
            compile_hits / max(compile_hits + compile_misses, 1)
        ),
        "engine.csr.builds": counter_delta(before, after, "engine_csr_builds"),
    }


class ServiceReplay:
    """Replays requests through an in-process ``QueryService``.

    Each request goes encode -> decode -> ``execute`` -> encode -> decode,
    i.e. everything the served path does except the socket, the event loop
    and admission.  Kernel and compile seconds inside ``execute`` are
    attributed from the engine timers the service folds into its registry.
    With ``recorder=None`` the request only runs (it keeps the answer cache
    in step with the served run) and is timed, not spanned.
    """

    def __init__(self, service, max_request_bytes: int = MAX_REQUEST_BYTES):
        self.service = service
        self.max_request_bytes = max_request_bytes
        self.execute_seconds: list[float] = []
        self.kernel_seconds: list[float] = []
        self.request_bytes = 0
        self.response_bytes = 0
        self.requests = 0

    def _timer(self, name: str) -> float:
        return self.service.metrics.counters.get(name, 0.0)

    def counter(self, name: str) -> float:
        return self.service.metrics.counters.get(name, 0)

    def request(
        self, recorder: "SpanRecorder | None", op: str, **params
    ) -> dict:
        self.requests += 1
        if recorder is None:
            bfs_before = self._timer("engine_bfs_seconds")
            started = time.perf_counter()
            result = self.service.execute(Request(op=op, id=self.requests, params=params))
            self.execute_seconds.append(time.perf_counter() - started)
            self._kernel(bfs_before)
            return result
        with recorder.span("server.protocol.encode_request", "server.protocol"):
            line = encode_request(op, id=self.requests, **params)
        with recorder.span("server.protocol.decode_request", "server.protocol"):
            request = decode_request(line, self.max_request_bytes)
        with recorder.span("server.service.execute", "server.service") as span:
            bfs_before = self._timer("engine_bfs_seconds")
            compile_before = self._timer("engine_compile_seconds")
            result = self.service.execute(request)
            recorder.attribute(
                "engine.kernel.bfs", "engine.kernel",
                self._timer("engine_bfs_seconds") - bfs_before,
            )
            recorder.attribute(
                "engine.cache.compile", "engine.cache",
                self._timer("engine_compile_seconds") - compile_before,
            )
        self.execute_seconds.append(span.duration)
        self._kernel(bfs_before)
        with recorder.span("server.protocol.encode_response", "server.protocol"):
            reply = encode_response(ok_response(request.id, result))
        with recorder.span("server.protocol.decode_response", "server.protocol"):
            decode_response(reply)
        self.request_bytes += len(line)
        self.response_bytes += len(reply)
        return result

    def _kernel(self, bfs_before: float) -> None:
        spent = self._timer("engine_bfs_seconds") - bfs_before
        if spent > 0:
            self.kernel_seconds.append(spent)

    def protocol_metrics(self, recorder: SpanRecorder, spanned: int) -> dict:
        return protocol_metrics(recorder, self.request_bytes, self.response_bytes, spanned)

    def kernel_metrics(self, ops: int) -> dict:
        relaxed = self.counter("engine_edges_relaxed")
        bfs = self._timer("engine_bfs_seconds")
        return {
            "engine.kernel.sweep_ms_p50": measure.ms(measure.median(self.kernel_seconds)),
            "engine.kernel.sweep_ms_p95": measure.ms(
                measure.percentile_or_max(self.kernel_seconds, 0.95, "kernel sweep p95")
            ),
            "engine.kernel.edges_relaxed_per_op": relaxed / max(ops, 1),
            "engine.kernel.nodes_expanded_per_op": (
                self.counter("engine_nodes_expanded") / max(ops, 1)
            ),
            "engine.kernel.answers_per_op": self.counter("engine_answers") / max(ops, 1),
            "engine.kernel.ns_per_edge_relaxed": bfs * 1e9 / max(relaxed, 1),
            "server.service.execute_ms_p50": measure.ms(
                measure.median(self.execute_seconds)
            ),
        }
