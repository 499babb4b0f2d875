"""The service's JSON-lines protocol: requests, responses, typed errors.

One request is one JSON object on one line; one response is one JSON object
on one line.  The same envelopes travel over the raw TCP framing and the
HTTP façade (``POST /query`` carries a single request as its body), so every
transport shares one error vocabulary:

=================  ============================================== =====
code               meaning                                         HTTP
=================  ============================================== =====
``bad_request``    malformed JSON, unknown op, missing parameter    400
``parse_error``    the query text failed to parse                   400
``query_error``    well-formed query that cannot be evaluated       422
``graph_not_found`` no cataloged graph under that name              404
``too_large``      request line/body exceeds the size limit         413
``overloaded``     admission queue full or queue-timeout hit        429
``timeout``        per-query wall-clock budget exhausted            504
``budget_exceeded`` a row/state ceiling stopped the evaluation      422
``shutting_down``  server is draining; no new work accepted         503
``shard_unavailable`` a shard worker died mid-query (coordinator)   503
``internal``       anything else (a server bug, by definition)      500
=================  ============================================== =====

``timeout`` and ``budget_exceeded`` responses are *structured partial
results*: their ``details`` name the limit that tripped, how far the
evaluation got (``rows_so_far``, ``states_visited``, ``elapsed_seconds``)
and up to :data:`PARTIAL_ROWS_CAP` of the rows produced before the limit
hit.

Every error class carries its ``code`` so handlers map exceptions to
envelopes (and HTTP statuses) without string matching; clients re-raise
them as :class:`repro.server.client.ServerError` with the same code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.engine.limits import BudgetExceeded
from repro.errors import (
    EvaluationError,
    GraphError,
    ParseError,
    QueryError,
    ReproError,
)

#: Every operation the service understands.  ``sleep`` holds an admission
#: slot in the event loop for a given number of seconds — it exists so
#: overload and drain behavior can be tested deterministically.
OPS = frozenset(
    {
        "ping",
        "stats",
        "health",
        "graphs.list",
        "graphs.upload",
        "graphs.mutate",
        "rpq",
        "crpq",
        "dlrpq",
        "paths",
        "explain",
        "frontier_step",
        "cluster_metrics",
        "sleep",
    }
)

#: How many partial-result rows a timeout/budget_exceeded envelope carries.
PARTIAL_ROWS_CAP = 100

#: Ops that answer from in-memory state without touching the worker pool;
#: they bypass admission control so health checks still answer under load.
CONTROL_OPS = frozenset(
    {"ping", "stats", "health", "graphs.list", "cluster_metrics"}
)


class ServiceError(ReproError):
    """Base class of every typed protocol error."""

    code = "internal"
    http_status = 500

    def __init__(self, message: str, **details: Any):
        super().__init__(message)
        self.message = message
        self.details = details

    def envelope(self) -> dict:
        """The JSON error object carried in a failed response."""
        body: dict = {"code": self.code, "message": self.message}
        if self.details:
            body["details"] = self.details
        return body


class BadRequestError(ServiceError):
    code = "bad_request"
    http_status = 400


class GraphNotFoundError(ServiceError):
    code = "graph_not_found"
    http_status = 404


class RequestTooLargeError(ServiceError):
    code = "too_large"
    http_status = 413


class OverloadedError(ServiceError):
    code = "overloaded"
    http_status = 429


class QueryTimeoutError(ServiceError):
    code = "timeout"
    http_status = 504


def _partial_rows(partial) -> "list | None":
    """Up to :data:`PARTIAL_ROWS_CAP` partial rows, JSON-shaped.

    Rows are sorted by repr so the same partial answer always serializes
    the same way (answer sets are unordered).
    """
    if partial is None:
        return None
    try:
        rows = sorted(partial, key=repr)[:PARTIAL_ROWS_CAP]
    except TypeError:
        return None
    return [list(row) if isinstance(row, tuple) else row for row in rows]


def budget_envelope(exc: BudgetExceeded) -> dict:
    """The typed error object for a tripped query budget.

    Deadline and cancellation trips keep the existing ``timeout`` code (the
    HTTP façade's 504); row/state ceilings get ``budget_exceeded`` (422 —
    the *request* asked for less than the answer needed).  Both carry the
    structured partial-result details.
    """
    details = exc.details()
    rows = _partial_rows(exc.partial)
    if rows is not None:
        details["partial"] = rows
        details["partial_truncated"] = exc.rows_so_far > len(rows)
    code = "timeout" if exc.limit in ("timeout", "cancelled") else "budget_exceeded"
    return {"code": code, "message": str(exc), "details": details}


class ShuttingDownError(ServiceError):
    code = "shutting_down"
    http_status = 503


class ShardUnavailableError(ServiceError):
    """A shard worker died, refused, or desynchronized mid-round.

    Raised by the *coordinator* (shards themselves fail with their own
    typed errors; the coordinator wraps transport loss and shard-side
    ``internal`` envelopes into this, carrying which shard and which
    frontier-exchange round).  503: retrying against a repaired or
    replacement shard set is reasonable.
    """

    code = "shard_unavailable"
    http_status = 503


def error_envelope(exc: BaseException) -> dict:
    """Map any exception to the typed error object of a failed response.

    Library errors keep their diagnostic message; unexpected exceptions are
    reported as ``internal`` with the exception type (not the message — a
    stack-adjacent message may leak paths or internal state).
    """
    if isinstance(exc, ServiceError):
        return exc.envelope()
    if isinstance(exc, BudgetExceeded):
        # Before the EvaluationError branch: a tripped budget is a
        # structured partial result, not a generic query_error.
        return budget_envelope(exc)
    if isinstance(exc, ParseError):
        return {"code": "parse_error", "message": str(exc)}
    if isinstance(exc, (QueryError, EvaluationError, GraphError)):
        return {"code": "query_error", "message": str(exc)}
    return {"code": "internal", "message": f"unexpected {type(exc).__name__}"}


def http_status_for(error: dict) -> int:
    """The HTTP status the façade sends for an error envelope."""
    statuses = {
        "bad_request": 400,
        "parse_error": 400,
        "query_error": 422,
        "graph_not_found": 404,
        "too_large": 413,
        "overloaded": 429,
        "timeout": 504,
        "budget_exceeded": 422,
        "shutting_down": 503,
        "shard_unavailable": 503,
    }
    return statuses.get(error.get("code", "internal"), 500)


@dataclass(frozen=True)
class Request:
    """One decoded protocol request."""

    op: str
    id: "int | str | None" = None
    params: dict = field(default_factory=dict)

    def param(self, name: str, default: Any = None) -> Any:
        return self.params.get(name, default)

    def require(self, name: str) -> Any:
        """The parameter ``name``, or a ``bad_request`` if absent."""
        try:
            return self.params[name]
        except KeyError:
            raise BadRequestError(
                f"op {self.op!r} requires parameter {name!r}", param=name
            ) from None


def encode_request(op: str, id: "int | str | None" = None, **params: Any) -> bytes:
    """One request as a newline-terminated JSON line."""
    payload: dict = {"op": op}
    if id is not None:
        payload["id"] = id
    if params:
        payload["params"] = params
    return json.dumps(payload, default=str).encode("utf-8") + b"\n"


def decode_request(data: "bytes | str", max_bytes: "int | None" = None) -> Request:
    """Decode and validate one request line.

    Raises :class:`RequestTooLargeError` when the line exceeds ``max_bytes``
    and :class:`BadRequestError` for malformed JSON, a non-object payload,
    an unknown op, or a malformed id/params field.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    if max_bytes is not None and len(data) > max_bytes:
        raise RequestTooLargeError(
            f"request of {len(data)} bytes exceeds the {max_bytes}-byte limit",
            size=len(data),
            limit=max_bytes,
        )
    try:
        payload = json.loads(data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequestError(f"request is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise BadRequestError("request must be a JSON object")
    op = payload.get("op")
    if not isinstance(op, str):
        raise BadRequestError("request needs a string 'op' field")
    if op not in OPS:
        raise BadRequestError(f"unknown op {op!r}", known=sorted(OPS))
    request_id = payload.get("id")
    if request_id is not None and not isinstance(request_id, (int, str)):
        raise BadRequestError("request 'id' must be a string or integer")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise BadRequestError("request 'params' must be a JSON object")
    return Request(op=op, id=request_id, params=params)


def ok_response(request_id: "int | str | None", result: Any) -> dict:
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: "int | str | None", exc: BaseException) -> dict:
    return {"id": request_id, "ok": False, "error": error_envelope(exc)}


def encode_response(response: dict) -> bytes:
    """One response as a newline-terminated JSON line.

    ``default=str`` keeps exotic-but-hashable node ids (the graph model
    allows any hashable) from killing the connection; the datasets and
    generators in this library only produce JSON-native ids.
    """
    return json.dumps(response, default=str).encode("utf-8") + b"\n"


def decode_response(data: "bytes | str") -> dict:
    """Decode one response line (client side)."""
    try:
        payload = json.loads(data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequestError(f"response is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or "ok" not in payload:
        raise BadRequestError("response must be a JSON object with an 'ok' field")
    return payload
