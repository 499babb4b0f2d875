"""The service's JSON-lines protocol: the op table, requests, typed errors.

One request is one JSON object on one line; one response is one JSON object
on one line.  The same envelopes travel over the raw TCP framing and the
HTTP façade (``POST /query`` carries a single request as its body), so every
transport shares one error vocabulary, :data:`HTTP_STATUS`.

**What a request may be is data.**  :data:`OP_TABLE` maps each op to its
parameters (shape, required or default, which are budget limits), its
flags (control, short client timeout, cacheable, idempotent), the name
of its :class:`~repro.server.service.QueryService` handler and the result
field holding its answer rows.
:func:`check_request` reads it once per request, before any budget or cache
key is built: a value of the wrong shape is a ``bad_request`` whose
``details.param`` names it.  The app, the service and the client read
their op sets off the table.

``timeout`` and ``budget_exceeded`` responses are *structured partial
results*: their ``details`` name the limit that tripped, how far the
evaluation got (``rows_so_far``, ``states_visited``, ``elapsed_seconds``)
and up to :data:`PARTIAL_ROWS_CAP` of the rows produced before the limit
hit; :func:`budget_trip` turns one back into its ``BudgetExceeded``.

Every error class carries its ``code`` so handlers map exceptions to
envelopes (and HTTP statuses) without string matching; clients re-raise
them as :class:`repro.server.client.ServerError` with the same code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.engine.limits import LIMITS, BudgetExceeded
from repro.errors import (
    EvaluationError,
    GraphError,
    ParseError,
    QueryError,
    ReproError,
)
from repro.graph.serialize import is_json_scalar

#: Every error code, with the HTTP status the façade answers it with.
HTTP_STATUS = {
    "bad_request": 400,        # malformed JSON, unknown op, bad parameter
    "parse_error": 400,        # the query text failed to parse
    "query_error": 422,        # well-formed query that cannot be evaluated
    "graph_not_found": 404,    # no cataloged graph under that name
    "too_large": 413,          # request line/body exceeds the size limit
    "overloaded": 429,         # admission queue full or queue-timeout hit
    "timeout": 504,            # per-query wall-clock budget exhausted
    "budget_exceeded": 422,    # a row/state ceiling stopped the evaluation
    "shutting_down": 503,      # server is draining; no new work accepted
    "shard_unavailable": 503,  # a shard worker died mid-query (coordinator)
    "internal": 500,           # anything else (a server bug, by definition)
}

#: How many partial-result rows a timeout/budget_exceeded envelope carries.
PARTIAL_ROWS_CAP = 100


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _planner(value) -> bool:
    from repro.crpq.planning import PLANNERS

    return isinstance(value, str) and value in PLANNERS


def _trace(value) -> bool:
    return isinstance(value, dict) and all(
        isinstance(value.get(key), str) for key in ("trace_id", "span_id")
    )


#: Parameter shapes: a test, and what a ``bad_request`` says a value must be.
SHAPES = {
    "any": (lambda value: True, "any JSON value"),
    "string": (lambda value: isinstance(value, str), "a string"),
    "scalar": (is_json_scalar, "a JSON scalar"),
    "count": (lambda value: _number(value) and value >= 0 and isinstance(value, int),
              "a non-negative integer"),
    "positive": (lambda value: _number(value) and value > 0, "a positive number"),
    "positive_count": (lambda value: _number(value) and value > 0 and isinstance(value, int),
                       "a positive integer"),
    "seconds": (lambda value: _number(value) and value >= 0, "a non-negative number"),
    "list": (lambda value: isinstance(value, list), "a list"),
    "document": (lambda value: isinstance(value, dict), "a serialized graph document"),
    "edits": (lambda value: isinstance(value, list) and all(isinstance(edit, dict) for edit in value),
              "a list of edit objects"),
    "planner": (_planner, "a known planner name"),
    "trace": (_trace, "an object with string 'trace_id' and 'span_id' fields"),
}


@dataclass(frozen=True)
class Param:
    """One declared request parameter."""

    shape: str
    required: bool = False
    default: Any = None
    nullable: bool = False


@dataclass(frozen=True)
class OpSpec:
    """One op: its parameters, how it is served, and its handler."""

    #: the QueryService method that answers it (``None``: the app does)
    handler: "str | None"
    params: dict = field(default_factory=dict)
    #: answers from memory, so it bypasses admission and answers under load
    control: bool = False
    #: the client waits its short ``control_timeout``, not the query timeout
    short_timeout: bool = False
    #: answers are pure functions of (graph version, query, options)
    cacheable: bool = False
    #: safe for a client to retry
    idempotent: bool = False
    #: the result field holding a cacheable op's answer rows (``None``: none)
    answer: "str | None" = None


#: The budget limits: every op that runs under admission takes them, and the
#: app derives the request's QueryBudget from them.
BUDGET_PARAMS = {
    "timeout": Param("positive", nullable=True),
    "max_rows": Param("count", nullable=True),
    "max_states": Param("positive_count", nullable=True),
}
#: ``trace`` is a remote caller's span context; any op may carry it.
_TRACE = {"trace": Param("trace", nullable=True)}
_GRAPH_QUERY = {"graph": Param("string", required=True), "query": Param("string", required=True)}
_PATH = {
    "source": Param("scalar", required=True, nullable=True),
    "target": Param("scalar", required=True, nullable=True),
    "mode": Param("any", default="shortest"),
    "limit": Param("count", default=1000, nullable=True),
}


def _control(handler: str, short_timeout: bool = False) -> OpSpec:
    return OpSpec(handler, _TRACE, control=True, short_timeout=short_timeout, idempotent=True)


def _query(handler: str, answer: "str | None", **params: Param) -> OpSpec:
    params = {**BUDGET_PARAMS, **_TRACE, **_GRAPH_QUERY, **params}
    return OpSpec(handler, params, cacheable=True, idempotent=True, answer=answer)


#: Every op the service understands.  ``sleep`` holds an admission slot in
#: the event loop for a given number of seconds — it exists so overload and
#: drain behavior can be tested deterministically.
OP_TABLE: dict[str, OpSpec] = {
    "ping": _control("_ping", short_timeout=True),
    "stats": _control("stats"),
    "health": _control("health", short_timeout=True),
    "graphs.list": _control("_list_graphs"),
    "cluster_metrics": _control("_cluster_metrics", short_timeout=True),
    "graphs.upload": OpSpec("_upload", {
        **BUDGET_PARAMS, **_TRACE,
        "name": Param("string", required=True),
        "graph": Param("document", required=True),
    }),
    "graphs.mutate": OpSpec("_mutate", {
        **BUDGET_PARAMS, **_TRACE,
        "graph": Param("string", required=True),
        "edits": Param("edits", required=True),
    }),
    # A pure function of (graph version, query, frontier), but frontiers
    # are unique per round: caching one would only churn the LRU.
    "frontier_step": OpSpec("_frontier_step", {
        **BUDGET_PARAMS, **_TRACE, **_GRAPH_QUERY,
        "alphabet": Param("list", default=()),
        "state_bits": Param("count", required=True),
        "owned": Param("any", required=True),
        "frontier": Param("any", required=True),
        "round": Param("any"),
    }, idempotent=True),
    "rpq": _query("_run_rpq", "pairs", source=Param("scalar", nullable=True)),
    "crpq": _query("_run_crpq", "rows", planner=Param("planner", nullable=True)),
    "dlrpq": _query("_run_dlrpq", "bindings", **_PATH),
    "paths": _query("_run_paths", "paths", **_PATH),
    "explain": _query("_run_explain", None, planner=Param("planner", default="cost")),
    "sleep": OpSpec(None, {**_TRACE, "seconds": Param("seconds", default=0.0)}),
}
OPS = frozenset(OP_TABLE)
CONTROL_OPS = frozenset(op for op, spec in OP_TABLE.items() if spec.control)


class ServiceError(ReproError):
    """Base class of every typed protocol error."""

    code = "internal"

    @property
    def http_status(self) -> int:
        return HTTP_STATUS[self.code]

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


class GraphNotFoundError(ServiceError):
    code = "graph_not_found"


class RequestTooLargeError(ServiceError):
    code = "too_large"


class OverloadedError(ServiceError):
    code = "overloaded"


class QueryTimeoutError(ServiceError):
    code = "timeout"


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


def budget_trip(code: str, message: str, details: dict) -> "BudgetExceeded | None":
    """The inverse of :func:`budget_envelope`: the :class:`BudgetExceeded` a
    ``timeout`` / ``budget_exceeded`` envelope reports, its partial rows as
    tuples (``None`` for any other code).  A bare server timeout, with no
    ``limit``, is a ``timeout`` trip with nothing counted."""
    if code not in ("timeout", "budget_exceeded"):
        return None
    limit = details.get("limit")
    partial = details.get("partial")
    if partial is not None:
        partial = [tuple(row) if isinstance(row, list) else row for row in partial]
    return BudgetExceeded(
        message,
        limit=limit if limit in LIMITS else "timeout",
        rows_so_far=details.get("rows_so_far", 0),
        states_visited=details.get("states_visited", 0),
        elapsed=details.get("elapsed_seconds"),
        partial=partial,
    )


class ShuttingDownError(ServiceError):
    code = "shutting_down"


class ShardUnavailableError(ServiceError):
    """A shard worker died, refused, or desynchronized mid-round.

    Raised by the *coordinator* (shards themselves fail with their own
    typed errors; the coordinator wraps transport loss and shard-side
    ``internal`` envelopes into this, carrying which shard and which
    frontier-exchange round).  503: retrying against a repaired or
    replacement shard set is reasonable.
    """

    code = "shard_unavailable"


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
    return HTTP_STATUS.get(error.get("code"), 500)


@dataclass(frozen=True)
class Request:
    """One decoded protocol request."""

    op: str
    id: "int | str | None" = None
    params: dict = field(default_factory=dict)

    def require(self, name: str) -> Any:
        """The parameter ``name``, or a ``bad_request`` if absent."""
        try:
            return self.params[name]
        except KeyError:
            raise BadRequestError(
                f"op {self.op!r} requires parameter {name!r}", param=name
            ) from None


@dataclass(frozen=True)
class CheckedRequest(Request):
    """A request that passed :func:`check_request`.

    ``args`` holds every parameter its op declares: the request's value, or
    the table's default when absent (answer-cache keys are built from it).
    ``params`` stays as sent.
    """

    args: dict = field(default_factory=dict)


def check_request(request: Request) -> CheckedRequest:
    """Check every parameter ``request``'s op declares, once.

    A missing required parameter or a value of the wrong shape is a
    ``bad_request`` naming the parameter in ``details.param``; parameters
    the op does not declare pass through unchecked.  An already checked
    request is returned as it is, so a caller that checks early (the app,
    before it derives the budget) and :meth:`QueryService.execute` never
    check twice.
    """
    if isinstance(request, CheckedRequest):
        return request
    spec = OP_TABLE.get(request.op)
    if spec is None:
        raise BadRequestError(f"unknown op {request.op!r}", known=sorted(OPS))
    args = {}
    for name, param in spec.params.items():
        if name not in request.params:
            if param.required:
                request.require(name)  # raises the missing-parameter error
            args[name] = param.default
            continue
        value = args[name] = request.params[name]
        test, shape = SHAPES[param.shape]
        if not (test(value) or (value is None and param.nullable)):
            shape += " or null" if param.nullable else ""
            raise BadRequestError(f"parameter {name!r} must be {shape}", param=name)
    return CheckedRequest(request.op, request.id, request.params, args)


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
