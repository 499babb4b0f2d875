"""The asyncio server: TCP JSON-lines, an HTTP façade, graceful drain.

One listening socket speaks both transports: the first line of a
connection decides whether it is an HTTP request (``GET /healthz``,
``GET /metrics``, ``GET /stats``, ``POST /query``) or a JSON-lines session
(any number of protocol requests, one per line, answered in order).
Execution always flows through the same path — admission slot, the op
table's parameter check, the budget derived from the checked limits, then
a first attempt on the event loop for a read and, if it spills, the
worker pool's ``run_in_executor`` under the per-query ``wait_for`` — so
both transports share the typed error vocabulary and the metrics.

**Reads on the loop first, spill to the pool.**  Every op the op table
marks ``idempotent`` and not ``control`` (``rpq``, ``crpq``, ``dlrpq``,
``paths``, ``explain``, ``frontier_step``) runs first right on the event
loop, as ``QueryService.execute(request, budget.spill_after(allowance),
on_loop=True)``: a cache hit is one dict lookup, and a miss or a shard's
frontier step that finishes within the spill allowance answers with no
thread hand-off at all.  Past the allowance the read's next budget check
raises :class:`~repro.engine.limits.Spill` (so does a miss on a stored
graph that would fault segments in, and a fault site armed with a delay);
the attempt leaves nothing counted or cached and the request reruns on
the worker pool under the rest of its own deadline.  The caller cannot
tell.  Uploads, mutations and ``sleep`` go to the pool directly.
``_SPILL_ALLOWANCE`` is 2 ms: five or six pool round trips (~0.3-0.4 ms
each on a 2-vCPU host), far above a single-source RPQ or a shard's
frontier step on ``random_graph(2000, 16000)`` (~0.03-0.1 ms), and one
budget stride (3-15 ms for the heaviest reads) bounds how far past it a
spilling read holds the loop.  ``server_answers_on_loop`` counts the
answers produced on the loop, ``server_spills_total`` the reads that moved,
``server_executor_wait_seconds`` and ``server_executor_resume_seconds`` the
two halves of the pool round trip (submit to worker start; worker done to
loop resumed), and ``server_loop_lag_seconds`` how late a periodic loop
callback runs.

**Graceful drain** (SIGTERM/SIGINT, or :meth:`QueryServer.request_drain`):

1. stop accepting — the listening socket closes immediately;
2. finish in-flight — requests already received keep their slots and their
   responses are delivered; requests arriving on still-open connections
   after the signal get the typed ``shutting_down`` error;
3. flush — the metrics registry is written to ``--metrics-out`` (Prometheus
   text) and collected span trees to ``--trace-out`` (JSONL), then every
   remaining connection is closed and the serve loop returns so the CLI
   exits 0.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.engine.faults import FAULTS, FaultError, fault_point
from repro.engine.limits import CancellationToken, Spill, make_budget
from repro.engine.tracing import NULL_TRACER, Tracer, use_tracer
from repro.server.admission import AdmissionController
from repro.server.protocol import (
    OP_TABLE,
    QueryTimeoutError,
    Request,
    RequestTooLargeError,
    ServiceError,
    ShuttingDownError,
    check_request,
    decode_request,
    encode_response,
    error_response,
    http_status_for,
    ok_response,
)
from repro.server.service import QueryService

_HTTP_METHODS = (b"GET ", b"POST ", b"HEAD ", b"PUT ", b"DELETE ", b"OPTIONS ")

#: Extra seconds the hard ``wait_for`` allows past the cooperative deadline,
#: so the worker's own (informative, partial-result-carrying) BudgetExceeded
#: normally wins the race against the bare asyncio timeout.
_WAIT_GRACE = 0.1

#: Seconds a worker whose cancellation token the hard timeout fired gets to
#: reach its next stride check and answer with its own BudgetExceeded; past
#: that the worker counts as wedged and the request gets the bare timeout.
_UNWIND_GRACE = 1.0

#: Seconds a read may run on the event loop before it spills to the worker
#: pool: a few pool round trips (~0.3-0.4 ms each with one client on a
#: 2-vCPU host, ~1.1 ms with two), far above a single-source RPQ or a
#: shard's frontier step (~0.03-0.1 ms).  On ``shard_partitioned``, 0.5,
#: 1, 2 and 5 ms gave the same ``read_p50_ms`` within noise.
_SPILL_ALLOWANCE = 0.002

#: Seconds between the loop-lag probe's wake-ups (``server_loop_lag_seconds``).
_LAG_PERIOD = 0.01


class QueryServer:
    """The resident service: one instance per process, many connections."""

    def __init__(
        self,
        service: "QueryService | None" = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        admission: "AdmissionController | None" = None,
        metrics_out: "str | None" = None,
        trace_out: "str | None" = None,
        announce: bool = False,
    ):
        self.service = service if service is not None else QueryService()
        self.admission = admission if admission is not None else AdmissionController()
        self.host = host
        self.port = port
        self.metrics_out = metrics_out
        self.trace_out = trace_out
        self.announce = announce
        self._server: "asyncio.AbstractServer | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._pool = ThreadPoolExecutor(
            max_workers=self.admission.max_concurrency,
            thread_name_prefix="repro-query",
        )
        self._tracer = Tracer() if trace_out else NULL_TRACER
        self._draining = False
        self._drain_task: "asyncio.Task | None" = None
        self._in_flight = 0
        self._idle: "asyncio.Event | None" = None
        self._done: "asyncio.Event | None" = None
        self._writers: set = set()
        self._lag_probe: "asyncio.TimerHandle | None" = None
        #: set once the listening socket is bound (thread-safe: ServerThread
        #: waits on it from another thread before handing out the address)
        self.started = threading.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid once :attr:`started` is set)."""
        return (self.host, self.port)

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        """Bind the listening socket (idempotent)."""
        if self._server is not None:
            return
        self._loop = asyncio.get_running_loop()
        self._idle = asyncio.Event()
        self._idle.set()
        self._done = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection,
            self.host,
            self.port,
            limit=self.admission.max_request_bytes + 4096,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._probe_loop_lag(self._loop.time())
        self.started.set()
        if self.announce:
            print(
                json.dumps(
                    {"event": "listening", "host": self.host, "port": self.port}
                ),
                flush=True,
            )

    async def serve(self, *, install_signals: bool = True) -> None:
        """Run until drained.  The CLI entry point and ServerThread body."""
        with use_tracer(self._tracer):
            await self.start()
            if install_signals:
                loop = asyncio.get_running_loop()
                for sig in (signal.SIGTERM, signal.SIGINT):
                    try:
                        loop.add_signal_handler(sig, self.request_drain)
                    except NotImplementedError:  # pragma: no cover - windows
                        pass
            await self._done.wait()

    def _probe_loop_lag(self, due: float) -> None:
        """Observe how late this periodic callback runs — the time the loop
        spent on something else (an answer computed inline, a spill's
        first part) — and schedule the next one."""
        now = self._loop.time()
        self.service.observe("server_loop_lag_seconds", now - due)
        self._lag_probe = self._loop.call_at(
            now + _LAG_PERIOD, self._probe_loop_lag, now + _LAG_PERIOD
        )

    def request_drain(self) -> None:
        """Begin graceful shutdown (signal-handler and cross-thread safe)."""
        if self._loop is None or self._drain_task is not None:
            return
        self._drain_task = self._loop.create_task(self._drain())

    def request_drain_threadsafe(self) -> None:
        """Schedule :meth:`request_drain` from any thread (idempotent —
        a loop that already drained and closed is left alone)."""
        if self._loop is None:
            return
        try:
            self._loop.call_soon_threadsafe(self.request_drain)
        except RuntimeError:
            pass  # loop already closed: the drain has happened

    async def _drain(self) -> None:
        self._draining = True
        if self._lag_probe is not None:
            self._lag_probe.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # In-flight requests (received before the signal) run to completion
        # and their responses are written before connections die.
        if self._idle is not None:
            await self._idle.wait()
        self.flush()
        for writer in list(self._writers):
            writer.close()
        self._pool.shutdown(wait=True)
        # After the pool stops no request can mutate a graph: flush the
        # storage journal and close the store so the last acknowledged
        # mutation is on disk before the process exits.
        self.service.close()
        if self._done is not None:
            self._done.set()

    def flush(self) -> None:
        """Write the metrics exposition and pending span trees to disk."""
        if self.metrics_out:
            with open(self.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(self.service.metrics.render_prometheus())
        self._flush_traces()

    def _flush_traces(self) -> None:
        # write_jsonl drains by default, so periodic flushes append each
        # finished root exactly once.
        if self.trace_out:
            self._tracer.write_jsonl(self.trace_out)

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    async def _on_connection(self, reader, writer) -> None:
        self._writers.add(writer)
        try:
            first = await self._read_line(reader, writer)
            if not first:
                return
            if first.startswith(_HTTP_METHODS):
                await self._handle_http(first, reader, writer)
            else:
                await self._handle_jsonl(first, reader, writer)
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        except FaultError:
            # An injected transport fault (chaos tests): treat it exactly
            # like a real connection death — sever, never hang the drain.
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    # JSON-lines transport
    # ------------------------------------------------------------------
    async def _read_line(self, reader, writer) -> bytes:
        """The next line; ``b""`` once the connection is done: at EOF, or
        after an over-long line was answered ``too_large``."""
        try:
            return await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            exc = RequestTooLargeError("request line exceeds the size limit")
            writer.write(encode_response(error_response(None, exc)))
            await writer.drain()
            return b""

    async def _handle_jsonl(self, first: bytes, reader, writer) -> None:
        line = first
        while line:
            if line.strip():
                if fault_point("server.read"):
                    return  # injected torn connection before processing
                response = await self._respond_to_line(line)
                if fault_point("server.write"):
                    return  # injected torn connection: request ran, response lost
                writer.write(encode_response(response))
                await writer.drain()
                self._flush_traces()
            line = await self._read_line(reader, writer)

    async def _respond_to_line(self, line: bytes) -> dict:
        try:
            request = decode_request(line, self.admission.max_request_bytes)
        except ServiceError as exc:
            self.service.record_error(exc.code)
            return error_response(None, exc)
        return await self.handle_request(request)

    # ------------------------------------------------------------------
    # request execution (shared by both transports)
    # ------------------------------------------------------------------
    async def handle_request(self, request: Request) -> dict:
        """The response to one request: a result, or a typed error envelope
        (counted under ``server_errors_<code>``)."""
        if self._draining:
            exc = ShuttingDownError("server is draining; try another replica")
            response = error_response(request.id, exc)
        else:
            self._in_flight += 1
            self._idle.clear()
            try:
                return ok_response(request.id, await self._execute(request))
            except asyncio.TimeoutError:
                exc = QueryTimeoutError(
                    f"query exceeded the {self.admission.query_timeout}s "
                    "wall-clock budget",
                    timeout=self.admission.query_timeout,
                )
                response = error_response(request.id, exc)
            except Exception as exc:  # noqa: BLE001 - typed envelope boundary
                response = error_response(request.id, exc)
            finally:
                self._in_flight -= 1
                if self._in_flight == 0:
                    self._idle.set()
        self.service.record_error(response["error"]["code"])
        return response

    async def _execute(self, request: Request):
        # Control ops answer from memory even when every slot is busy —
        # health checks must not be starved by an overload.
        spec = OP_TABLE.get(request.op)
        if spec is not None and spec.control:
            result = self.service.execute(request)
            if request.op == "stats":
                result["admission"] = self.admission.snapshot()
                result["in_flight"] = self._in_flight
            elif request.op == "health":
                # The service's health body plus what only the app knows:
                # how many requests hold slots and whether a drain started.
                result["in_flight"] = self._in_flight
                if self._draining:
                    result["status"] = "draining"
            return result
        async with self.admission.slot():
            request = check_request(request)
            if request.op == "sleep":
                seconds = request.args["seconds"]
                await asyncio.wait_for(
                    asyncio.sleep(seconds), self.admission.query_timeout
                )
                return {"slept": seconds}
            budget = self._budget_for(request.args)
            if spec.idempotent:
                # A read runs here on the loop first: a hit or a small
                # computation costs less than the two cross-thread wake-ups
                # of the pool.  One that outgrows the spill allowance (or
                # needs I/O) spills, with nothing counted or cached, and
                # reruns on a worker under the rest of its own deadline.
                try:
                    with FAULTS.delays_spill():
                        return self.service.execute(
                            request, budget.spill_after(_SPILL_ALLOWANCE),
                            on_loop=True,
                        )
                except Spill:
                    pass
            return await self._on_pool(request, budget)

    async def _on_pool(self, request: Request, budget):
        """The answer of ``request`` computed on a worker under ``budget``."""
        future = self._loop.run_in_executor(
            self._pool, self._run_on_worker, request, budget,
            time.perf_counter(),
        )
        try:
            result, done_at = await asyncio.wait_for(
                asyncio.shield(future),
                budget.deadline.remaining() + _WAIT_GRACE,
            )
        except asyncio.TimeoutError:
            # The hard asyncio timeout fired before the worker noticed
            # its deadline (it is mid-stride, or wedged).  Cancelling
            # the token makes the worker unwind at its next stride
            # check, so the pool slot this admission slot maps to is
            # actually freed instead of burning until the fixpoint, and
            # its own BudgetExceeded (limit, states visited, partial
            # rows) is the answer.  Only a worker that does not come
            # back within the unwind grace gets the bare timeout.
            budget.cancellation.cancel("timeout")
            result, done_at = await asyncio.wait_for(future, _UNWIND_GRACE)
        self.service.observe(
            "server_executor_resume_seconds", time.perf_counter() - done_at
        )
        return result

    def _run_on_worker(self, request: Request, budget, queued_at: float):
        """Pool body: the answer, and when the worker finished it (the
        other half of the round trip, worker done to loop resumed, is
        ``server_executor_resume_seconds``)."""
        result = self.service.execute(request, budget, queued_at=queued_at)
        return result, time.perf_counter()

    def _budget_for(self, args: dict):
        """The one :class:`QueryBudget` of a checked request's ``args``.

        Per-request limits come from the ``timeout`` / ``max_rows`` /
        ``max_states`` params; the wall-clock budget is always on and is
        clamped by the server-wide ``query_timeout``, and every budget
        carries a fresh cancellation token the timeout handler can fire.
        """
        effective = self.admission.query_timeout
        if args["timeout"] is not None:
            effective = min(float(args["timeout"]), effective)
        return make_budget(
            timeout=effective,
            max_rows=args["max_rows"],
            max_states=args["max_states"],
            cancellation=CancellationToken(),
        )

    # ------------------------------------------------------------------
    # HTTP façade
    # ------------------------------------------------------------------
    async def _handle_http(self, first: bytes, reader, writer) -> None:
        try:
            method, target, _version = first.decode("latin-1").split(None, 2)
        except ValueError:
            await self._write_http(writer, 400, {"error": "malformed request line"})
            return
        headers: dict[str, str] = {}
        total = len(first)
        while True:
            line = await reader.readline()
            total += len(line)
            if total > self.admission.max_request_bytes + 4096:
                await self._write_http(writer, 413, {"error": "headers too large"})
                return
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            await self._write_http(
                writer, 400, {"error": f"malformed Content-Length {declared!r}"}
            )
            return
        if length > self.admission.max_request_bytes:
            await self._write_http(
                writer,
                413,
                {
                    "error": "body exceeds the request size limit",
                    "limit": self.admission.max_request_bytes,
                },
            )
            return
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            await self._write_http(
                writer,
                400,
                {"error": f"body ended after {len(exc.partial)} of "
                          f"{length} Content-Length bytes"},
            )
            return

        path = target.split("?", 1)[0]
        if method == "GET" and path == "/healthz":
            await self._write_http(writer, 200, self._health())
            return
        if method == "GET" and path == "/metrics":
            await self._write_http_text(
                writer, 200, self.service.metrics.render_prometheus()
            )
            return
        if method == "GET" and path == "/stats":
            response = await self.handle_request(Request(op="stats"))
            await self._write_http(writer, 200, response)
            return
        if method == "POST" and path == "/query":
            response = await self._respond_to_line(body)
            status = (
                200 if response.get("ok") else http_status_for(response["error"])
            )
            await self._write_http(writer, status, response)
            self._flush_traces()
            return
        await self._write_http(
            writer, 404, {"error": f"no route for {method} {path}"}
        )

    def _health(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": round(time.time() - self.service.started_at, 3),
            "in_flight": self._in_flight,
            "graphs": len(self.service.catalog),
        }

    async def _write_http(self, writer, status: int, payload: dict) -> None:
        await self._write_http_text(
            writer,
            status,
            json.dumps(payload, default=str) + "\n",
            content_type="application/json",
        )

    async def _write_http_text(
        self, writer, status: int, text: str, content_type: str = "text/plain"
    ) -> None:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   413: "Payload Too Large", 422: "Unprocessable Entity",
                   429: "Too Many Requests", 500: "Internal Server Error",
                   503: "Service Unavailable", 504: "Gateway Timeout"}
        body = text.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}; charset=utf-8\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


class ServerThread:
    """Run a :class:`QueryServer` on a background thread.

    The harness tests, ``benchmarks/bench_server.py`` and
    ``examples/query_service.py`` use this to get a live server inside one
    process::

        with ServerThread() as harness:
            client = ServerClient(*harness.address)

    Exiting the context drains the server (in-flight requests finish) and
    joins the thread.
    """

    def __init__(self, server: "QueryServer | None" = None, **server_kwargs):
        self.server = server if server is not None else QueryServer(**server_kwargs)
        self._thread: "threading.Thread | None" = None

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    def start(self) -> "ServerThread":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.server.serve(install_signals=False)),
            name="repro-server",
            daemon=True,
        )
        self._thread.start()
        if not self.server.started.wait(timeout=10):
            raise RuntimeError("server failed to start within 10s")
        return self

    def stop(self, timeout: float = 30) -> None:
        if self._thread is None:
            return
        self.server.request_drain_threadsafe()
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():  # pragma: no cover - watchdog
            raise RuntimeError("server thread failed to drain in time")
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
