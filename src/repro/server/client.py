"""A small blocking client for the query service.

One socket, JSON lines out, JSON lines in.  This is deliberately the
simplest possible client — synchronous, one request in flight per
connection — because its consumers (tests, ``repro query --connect``, the
``bench_server.py`` load generator, the examples) each drive concurrency by
opening one client per thread.

Typed server errors surface as :class:`ServerError` with the protocol's
error ``code`` intact, so callers can branch on ``overloaded`` vs
``timeout`` vs ``graph_not_found`` without string matching.

**Fault tolerance** (this module's additions for the chaos suite):

* a dead or half-closed connection — EOF where a response line should be,
  a line cut off without its newline, a failed write — raises the typed,
  *retryable* :class:`ConnectionLost` (a ``ConnectionError`` subclass, so
  pre-existing callers keep working);
* an optional :class:`RetryPolicy` retries **idempotent** operations on
  ``ConnectionLost`` (after reconnecting) and on transient server codes
  (``overloaded`` by default), sleeping with capped exponential backoff and
  decorrelated jitter, under a total per-request retry budget.  Mutating
  ops (``graphs.upload``) are never retried automatically.
"""

from __future__ import annotations

import itertools
import random
import socket
import time
from dataclasses import dataclass
from typing import Any

from repro.engine.faults import fault_point
from repro.engine.tracing import get_tracer
from repro.errors import ReproError
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.server.protocol import OP_TABLE, OpSpec, decode_response, encode_request

#: What the client assumes of an op the table does not name: not idempotent,
#: not short.
_UNKNOWN_OP = OpSpec(None)


class ServerError(ReproError):
    """A failed response: carries the typed protocol error."""

    def __init__(self, code: str, message: str, details: "dict | None" = None):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.details = details or {}

    @classmethod
    def from_envelope(cls, error: dict) -> "ServerError":
        return cls(
            error.get("code", "internal"),
            error.get("message", "unknown error"),
            error.get("details"),
        )


class ConnectionLost(ReproError, ConnectionError):
    """The transport died mid-exchange (EOF, truncated line, failed write).

    Typed and retryable: the request may or may not have executed, so the
    automatic retry machinery only fires for ops the protocol's op table
    marks idempotent.
    Subclasses ``ConnectionError`` so callers written against the plain
    exception keep working.
    """


@dataclass
class RetryPolicy:
    """Capped exponential backoff with decorrelated jitter.

    ``delays()`` yields the sleep before each retry: the first is around
    ``base``, later ones are drawn uniformly from ``[base, 3 * previous]``
    and capped at ``cap`` — the decorrelated-jitter scheme, which spreads
    synchronized retry storms.  The generator stops once the cumulative
    sleep would exceed ``retry_budget`` seconds, bounding the total time a
    request may spend retrying regardless of ``max_attempts``.

    A fixed ``seed`` makes the jitter sequence deterministic (the chaos
    tests pin it); the default seeds from the system RNG.
    """

    max_attempts: int = 4
    base: float = 0.05
    cap: float = 2.0
    retry_budget: float = 5.0
    retry_codes: tuple = ("overloaded",)
    seed: "int | None" = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base <= 0 or self.cap < self.base:
            raise ValueError("need 0 < base <= cap")
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")

    def delays(self):
        rng = random.Random(self.seed)
        previous = self.base
        spent = 0.0
        while True:
            delay = min(self.cap, rng.uniform(self.base, previous * 3))
            if spent + delay > self.retry_budget:
                return
            spent += delay
            previous = delay
            yield delay


class ServerClient:
    """A blocking JSON-lines connection to a running query server."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        retry: "RetryPolicy | None" = None,
        control_timeout: "float | None" = 5.0,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        #: wall-clock cap for the ops the op table marks ``short_timeout``
        #: (``None`` disables the override and they share the query
        #: timeout), so a wedged worker stalls a health prober for at most
        #: this long — never for a full query deadline.
        self.control_timeout = control_timeout
        self.retry = retry
        self.reconnects = 0
        #: length of the last request line written and of the last response
        #: line read (a caller that accounts for wire bytes reads them right
        #: after the call, instead of serializing the payloads again).
        self.last_request_bytes = 0
        self.last_response_bytes = 0
        self._generation = -1
        self._connect()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._file = self._sock.makefile("rwb")
        self._broken = False
        # Request ids are scoped to the *connection*: a generation prefix
        # plus a per-connection counter.  Ids from different generations can
        # never collide, so a response buffered by a connection that died
        # mid-exchange can never satisfy (or desync-trip) a request sent on
        # its replacement — the id-mismatch check stays sound across
        # reconnects even when a coordinator pipelines many ops.
        self._generation += 1
        self._ids = itertools.count(1)

    def _next_id(self) -> str:
        return f"c{self._generation}-{next(self._ids)}"

    def _reconnect(self) -> None:
        self.close()
        self._connect()
        self.reconnects += 1

    def request(self, op: str, **params: Any) -> Any:
        """Send one request, wait for its response, return the result.

        Raises :class:`ServerError` for failed responses and
        :class:`ConnectionLost` when the server hangs up mid-exchange.
        With a :class:`RetryPolicy` installed, idempotent ops retry on
        ``ConnectionLost`` (reconnecting first) and on the policy's
        transient server codes; everything else raises immediately.

        When the calling thread is tracing (an enabled tracer with an
        open span), the request automatically carries a ``trace`` field
        naming that span, so the server's ``server.request`` root becomes
        its remote child.  With tracing off — the default — nothing is
        added: the wire stays byte-identical to the untraced protocol.
        """
        if "trace" not in params:
            context = get_tracer().trace_context()
            if context is not None:
                params["trace"] = context
        policy = self.retry
        if policy is None or not OP_TABLE.get(op, _UNKNOWN_OP).idempotent:
            return self._request_once(op, **params)
        delays = policy.delays()
        attempt = 0
        while True:
            attempt += 1
            try:
                return self._request_once(op, **params)
            except ConnectionLost as exc:
                failure = exc
            except ServerError as exc:
                if exc.code not in policy.retry_codes:
                    raise
                failure = exc
            if attempt >= policy.max_attempts:
                raise failure
            delay = next(delays, None)
            if delay is None:  # retry budget exhausted
                raise failure
            time.sleep(delay)
            if isinstance(failure, ConnectionLost):
                try:
                    self._reconnect()
                except OSError as exc:
                    raise ConnectionLost(
                        f"reconnect to {self.host}:{self.port} failed: {exc}"
                    ) from exc

    def _request_once(self, op: str, **params: Any) -> Any:
        # A connection that previously lost sync (a ConnectionLost raised
        # after the request was written) may have a stale response sitting
        # in its buffer — never reuse it.
        if self._broken:
            self._reconnect()
        # Control ops get their own, much shorter wire timeout: a wedged
        # worker must cost a prober ``control_timeout`` seconds, not the
        # full query deadline.  The socket timeout is consulted per
        # recv/send, so flipping it around one exchange is safe.
        wire_timeout = None
        if (
            OP_TABLE.get(op, _UNKNOWN_OP).short_timeout
            and self.control_timeout is not None
            and self.control_timeout < self.timeout
        ):
            wire_timeout = self.control_timeout
        if wire_timeout is not None:
            self._sock.settimeout(wire_timeout)
        try:
            return self._exchange(op, **params)
        finally:
            if wire_timeout is not None and not self._broken:
                self._sock.settimeout(self.timeout)

    def _exchange(self, op: str, **params: Any) -> Any:
        request_id = self._next_id()
        request_line = encode_request(op, id=request_id, **params)
        self.last_request_bytes = len(request_line)
        try:
            self._file.write(request_line)
            self._file.flush()
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise self._lost(f"request write failed: {exc}") from exc
        if fault_point("client.read"):
            raise self._lost("injected torn connection before the response")
        try:
            line = self._file.readline()
        except (ConnectionResetError, socket.timeout, OSError) as exc:
            raise self._lost(f"response read failed: {exc}") from exc
        if not line:
            raise self._lost("server closed the connection")
        if not line.endswith(b"\n"):
            # A half-closed connection: the server died mid-line and the
            # socket returned a prefix of the response.
            raise self._lost("connection lost mid-response (truncated line)")
        self.last_response_bytes = len(line)
        response = decode_response(line)
        if response.get("id") != request_id:
            raise self._lost(
                f"response id {response.get('id')!r} does not match request "
                f"id {request_id!r} (connection desynchronized)"
            )
        if not response.get("ok"):
            raise ServerError.from_envelope(response.get("error", {}))
        return response.get("result")

    def _lost(self, message: str) -> ConnectionLost:
        self._broken = True
        return ConnectionLost(message)

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass
        finally:
            try:
                self._sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def _send(self, op: str, params: dict, **optional: Any) -> dict:
        """``op`` with ``params`` plus each ``optional`` one that is set."""
        params.update(
            (name, value) for name, value in optional.items() if value is not None
        )
        return self.request(op, **params)

    def ping(self) -> dict:
        return self.request("ping")

    def stats(self) -> dict:
        return self.request("stats")

    def health(self) -> dict:
        """The server's cheap liveness body (uptime, catalog versions,
        in-flight count).  Runs under :attr:`control_timeout`."""
        return self.request("health")

    def abandon(self) -> None:
        """Mark the connection desynchronized; the next request reconnects.

        Hedged reads race one request per replica and take the first
        answer; a loser's response is still in flight on its connection,
        so the connection must never be reused as-is — the stale response
        would satisfy (or desync-trip) the next request.  The server-side
        work keeps running to completion; only the transport is retired.
        """
        self._broken = True

    def list_graphs(self) -> list[dict]:
        return self.request("graphs.list")["graphs"]

    def upload_graph(self, name: str, graph: "EdgeLabeledGraph | dict") -> dict:
        """Catalog ``graph`` (a graph object or serialized document)."""
        if isinstance(graph, EdgeLabeledGraph):
            from repro.graph.serialize import graph_to_dict

            graph = graph_to_dict(graph)
        return self.request("graphs.upload", name=name, graph=graph)

    def mutate(self, graph: str, edits: list) -> dict:
        """Apply in-place edits to a cataloged graph.

        ``edits`` is a list of ``{"kind": "add_node" | "add_edge" |
        "set_property", ...}`` objects.  Deliberately *not* idempotent
        (``add_edge`` ids must be fresh), so it never auto-retries — the
        server flushes its journal before acknowledging, and an unacked
        mutation after a connection loss must be re-inspected, not
        blindly resent.
        """
        return self.request("graphs.mutate", graph=graph, edits=edits)

    def rpq(
        self,
        graph: str,
        query: str,
        source: Any = None,
        *,
        timeout: "float | None" = None,
        max_rows: "int | None" = None,
        max_states: "int | None" = None,
    ) -> dict:
        return self._send(
            "rpq", {"graph": graph, "query": query}, source=source,
            timeout=timeout, max_rows=max_rows, max_states=max_states,
        )

    def crpq(
        self,
        graph: str,
        query: str,
        planner: "str | None" = None,
        *,
        timeout: "float | None" = None,
        max_rows: "int | None" = None,
        max_states: "int | None" = None,
    ) -> dict:
        return self._send(
            "crpq", {"graph": graph, "query": query}, planner=planner,
            timeout=timeout, max_rows=max_rows, max_states=max_states,
        )

    def paths(
        self,
        graph: str,
        query: str,
        source: Any,
        target: Any,
        *,
        mode: str = "shortest",
        limit: "int | None" = 1000,
        timeout: "float | None" = None,
        max_rows: "int | None" = None,
        max_states: "int | None" = None,
    ) -> dict:
        return self._send(
            "paths",
            {"graph": graph, "query": query, "source": source,
             "target": target, "mode": mode, "limit": limit},
            timeout=timeout, max_rows=max_rows, max_states=max_states,
        )

    def dlrpq(
        self,
        graph: str,
        query: str,
        source: Any,
        target: Any,
        *,
        mode: str = "shortest",
        limit: "int | None" = 1000,
        timeout: "float | None" = None,
        max_rows: "int | None" = None,
        max_states: "int | None" = None,
    ) -> dict:
        return self._send(
            "dlrpq",
            {"graph": graph, "query": query, "source": source,
             "target": target, "mode": mode, "limit": limit},
            timeout=timeout, max_rows=max_rows, max_states=max_states,
        )

    def frontier_step(
        self,
        graph: str,
        query: str,
        *,
        frontier: dict,
        owned: str,
        state_bits: int,
        alphabet: "list | tuple" = (),
        round: "int | None" = None,
        trace: "dict | None" = None,
        timeout: "float | None" = None,
        max_states: "int | None" = None,
    ) -> dict:
        """One shard-side round of the distributed product BFS.

        ``frontier`` is an encoded code->mask document (see
        :mod:`repro.distributed.frontier`), ``owned`` the shard's hex
        ownership mask, ``alphabet`` the *global* label alphabet the
        automaton must be compiled over.  ``round`` (annotation only) and
        an explicit ``trace`` context let the coordinator attribute the
        shard's spans: the coordinator calls this mostly from pool threads
        whose own span stacks are empty, so auto-injection cannot see the
        round span and the context must ride in explicitly.
        """
        return self._send(
            "frontier_step",
            {"graph": graph, "query": query, "frontier": frontier,
             "owned": owned, "state_bits": state_bits, "alphabet": list(alphabet)},
            round=round, trace=trace, timeout=timeout, max_states=max_states,
        )

    def cluster_metrics(self) -> dict:
        """This server's metrics registry in lossless dump form."""
        return self.request("cluster_metrics")["metrics"]

    def explain(self, graph: str, query: str, planner: str = "cost") -> dict:
        return self.request("explain", graph=graph, query=query, planner=planner)

    def sleep(self, seconds: float) -> dict:
        """Hold an execution slot for ``seconds`` (admission/drain testing)."""
        return self.request("sleep", seconds=seconds)


def http_get(
    host: str, port: int, path: str, timeout: float = 30.0
) -> tuple[int, str]:
    """``(status, body)`` of a GET against the server's HTTP façade."""
    import http.client

    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        connection.close()


def http_post_query(
    host: str, port: int, payload: dict, timeout: float = 30.0
) -> tuple[int, dict]:
    """POST one protocol request to ``/query``; ``(status, response dict)``."""
    import http.client
    import json

    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = json.dumps(payload, default=str)
        connection.request(
            "POST", "/query", body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()
