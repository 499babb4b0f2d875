"""Resource governance: query budgets, deadlines, cooperative cancellation.

Sections 5-6 of the paper are a catalog of ways evaluation cost explodes —
trail/simple-path modes are NP-hard, and even tractable homomorphism
semantics can produce answer sets quadratic in the graph.  A production
engine survives those worst cases not by avoiding them but by *bounding*
them: every evaluation carries a :class:`QueryBudget` that can stop it —
cooperatively, from inside the hot loop — when a wall-clock deadline
passes, an answer-row ceiling is hit, a product-state ceiling is hit, or a
caller (the server's timeout handler, a Ctrl-C) cancels it.

Design constraints, in order:

1. **The disabled path is free.**  Every budgeted loop hoists the budget
   to a local and guards on ``budget is not None`` — one comparison per
   iteration when no budget is installed (``benchmarks/bench_limits.py``
   gates the overhead at < 5%).
2. **The enabled path is stride-checked.**  :meth:`QueryBudget.tick` only
   decrements a countdown; the actual clock read / cancellation check runs
   once every ``stride`` ticks, so a deadline is noticed at most one
   stride late (``tests/engine/test_limits.py`` asserts the ±1-stride
   accuracy) while the per-iteration cost stays at two integer ops.
3. **Exceeding a budget is an *answer*, not a crash.**  The raised
   :class:`BudgetExceeded` names the limit that tripped and carries the
   rows produced so far, so servers and batch runners report structured
   partial results instead of a bare error string.
4. **Running out of a spill allowance is neither.**  The server runs a
   read on its event loop first under :meth:`QueryBudget.spill_after`;
   past the allowance the next check raises :class:`Spill`, which carries
   nothing, and the server reruns the request on its worker pool under
   the rest of the request's own budget.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.errors import EvaluationError

#: How many ticks pass between expensive checks (clock read, token read).
#: Small enough that a 100 ms deadline on a ~1 µs/iteration loop is seen
#: within a few hundred microseconds; large enough to amortize the check.
DEFAULT_STRIDE = 256

#: The limit names a BudgetExceeded can carry.
LIMITS = ("timeout", "cancelled", "max_rows", "max_states")


class BudgetExceeded(EvaluationError):
    """An evaluation crossed one of its budget's limits.

    ``limit`` is one of :data:`LIMITS`; ``partial`` holds the answers
    produced before the limit tripped (``None`` when the evaluator had
    nothing reportable), and ``rows_so_far``/``states_visited`` quantify
    how far the evaluation got.  The server maps this to the typed
    ``timeout`` / ``budget_exceeded`` envelopes with the same fields.
    """

    def __init__(
        self,
        message: str,
        *,
        limit: str,
        rows_so_far: int = 0,
        states_visited: int = 0,
        elapsed: "float | None" = None,
        partial: Any = None,
    ):
        super().__init__(message)
        self.limit = limit
        self.rows_so_far = rows_so_far
        self.states_visited = states_visited
        self.elapsed = elapsed
        self.partial = partial

    def attach_partial(self, partial) -> "BudgetExceeded":
        """Record the rows produced so far.

        Evaluators call this on the way out at their own boundary — never
        in the hot loop.  Each enclosing evaluator *overwrites* the inner
        attachment as the exception unwinds, so the outermost one (which
        knows the query's real answer shape) wins.
        """
        if partial is not None:
            self.partial = partial
            try:
                self.rows_so_far = len(partial)
            except TypeError:
                pass
        return self

    def details(self) -> dict:
        """A JSON-ready digest (what error envelopes and batch results carry)."""
        body: dict = {
            "limit": self.limit,
            "rows_so_far": self.rows_so_far,
            "states_visited": self.states_visited,
        }
        if self.elapsed is not None:
            body["elapsed_seconds"] = round(self.elapsed, 6)
        return body


class Spill(Exception):
    """An attempt on the event loop outgrew its spill allowance, or reached
    work the loop must not do (I/O): rerun the request on a worker.

    Deliberately not a :class:`BudgetExceeded`: it names no limit of the
    request, carries no partial result, is never counted as a budget trip
    and never reaches a client.
    """


class Deadline:
    """A wall-clock expiry shared by everyone evaluating one query."""

    __slots__ = ("started", "expires_at", "timeout")

    def __init__(self, timeout: float):
        if timeout <= 0:
            raise ValueError("deadline timeout must be positive")
        self.timeout = timeout
        self.started = time.monotonic()
        self.expires_at = self.started + timeout

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def remaining(self) -> float:
        """Seconds left (never negative)."""
        return max(0.0, self.expires_at - time.monotonic())

    def elapsed(self) -> float:
        return time.monotonic() - self.started


class CancellationToken:
    """A thread-safe flag a controller sets to stop a running evaluation.

    The server's timeout handler cancels the token the moment the asyncio
    budget expires; the worker thread notices at its next stride check and
    unwinds with :class:`BudgetExceeded` instead of burning CPU until the
    fixpoint completes.
    """

    __slots__ = ("_event", "reason")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason: "str | None" = None

    def cancel(self, reason: str = "cancelled") -> None:
        self.reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


class QueryBudget:
    """One query's resource envelope, checked cooperatively from hot loops.

    Parameters
    ----------
    timeout:
        wall-clock seconds for the whole evaluation (builds a fresh
        :class:`Deadline`); pass ``deadline`` instead to share one.
    max_rows:
        ceiling on answer rows the evaluation may produce; the row that
        would exceed it raises, with the first ``max_rows`` rows attached.
    max_states:
        ceiling on product-graph states visited *per traversal* (each BFS
        or backtracking search counts its own expansions).
    cancellation:
        a shared :class:`CancellationToken`; checked at every stride.
    stride:
        iterations between expensive checks (default ``256``).
    """

    __slots__ = (
        "deadline",
        "max_rows",
        "max_states",
        "cancellation",
        "stride",
        "states_visited",
        "spill_at",
        "_countdown",
    )

    def __init__(
        self,
        *,
        timeout: "float | None" = None,
        deadline: "Deadline | None" = None,
        max_rows: "int | None" = None,
        max_states: "int | None" = None,
        cancellation: "CancellationToken | None" = None,
        stride: int = DEFAULT_STRIDE,
    ):
        if timeout is not None and deadline is not None:
            raise ValueError("pass either timeout or deadline, not both")
        if max_rows is not None and max_rows < 0:
            raise ValueError("max_rows must be >= 0")
        if max_states is not None and max_states < 1:
            raise ValueError("max_states must be >= 1")
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.deadline = Deadline(timeout) if timeout is not None else deadline
        self.max_rows = max_rows
        self.max_states = max_states
        self.cancellation = cancellation
        self.stride = stride
        self.states_visited = 0
        #: ``time.monotonic()`` past which :meth:`check` raises :class:`Spill`
        #: (``None``: never; set by :meth:`spill_after`)
        self.spill_at: "float | None" = None
        self._countdown = stride

    # ------------------------------------------------------------------
    # the hot-loop protocol
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Count one unit of work; every ``stride`` ticks, run the checks.

        This is the only budget call allowed in a hot loop: two integer
        operations on the fast path, everything expensive behind the
        stride boundary.
        """
        self.states_visited += 1
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = self.stride
            self.check()

    def check(self) -> None:
        """Run every limit check now (used at stride boundaries and at
        natural barriers like "about to start the next atom").

        The request's own limits come first, so when a limit and the spill
        allowance run out at the same check, the limit is the answer."""
        cancellation = self.cancellation
        if cancellation is not None and cancellation.cancelled:
            reason = cancellation.reason or "cancelled"
            limit = "timeout" if reason == "timeout" else "cancelled"
            raise BudgetExceeded(
                f"evaluation cancelled ({reason})",
                limit=limit,
                states_visited=self.states_visited,
                elapsed=self.deadline.elapsed() if self.deadline else None,
            )
        deadline = self.deadline
        if deadline is not None and deadline.expired():
            raise BudgetExceeded(
                f"evaluation exceeded its {deadline.timeout}s wall-clock "
                "deadline",
                limit="timeout",
                states_visited=self.states_visited,
                elapsed=deadline.elapsed(),
            )
        if self.max_states is not None and self.states_visited > self.max_states:
            raise BudgetExceeded(
                f"evaluation visited more than {self.max_states} "
                "product-graph states",
                limit="max_states",
                states_visited=self.states_visited,
                elapsed=deadline.elapsed() if deadline else None,
            )
        if self.spill_at is not None and time.monotonic() >= self.spill_at:
            raise Spill("the spill allowance ran out")

    def spill(self, reason: str) -> None:
        """Raise :class:`Spill` now when this budget has a spill allowance:
        work that must not run on the event loop (faulting a stored graph
        in) calls this first.  A no-op on any other budget."""
        if self.spill_at is not None:
            raise Spill(reason)

    def check_rows(self, rows: int) -> None:
        """Raise when the evaluation has produced more than ``max_rows``.

        Evaluators call this right after growing their answer set, so it
        runs once per *new* answer, not once per iteration.
        """
        if self.max_rows is not None and rows > self.max_rows:
            raise BudgetExceeded(
                f"evaluation produced more than {self.max_rows} answer rows",
                limit="max_rows",
                rows_so_far=rows,
                states_visited=self.states_visited,
                elapsed=self.deadline.elapsed() if self.deadline else None,
            )

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def fork(self) -> "QueryBudget":
        """A budget for a sibling work item: same limits, same deadline and
        cancellation *objects*, fresh counters (the batch executor hands
        one to every work item)."""
        return self._derive(self.max_rows)

    def subquery(self) -> "QueryBudget":
        """A budget for an *intermediate* traversal (a CRPQ atom's RPQ, a
        reversed-graph reachability): shares deadline and cancellation, but
        drops ``max_rows`` — the row ceiling applies to the query's final
        answer, not to intermediate relations."""
        if self.max_rows is None:
            return self
        return self._derive(None)

    def spill_after(self, seconds: float) -> "QueryBudget":
        """A fork whose checks also raise :class:`Spill` from ``seconds``
        on: the budget of a request's first attempt, on the event loop.
        The budget itself stays untouched — same deadline, no counts — for
        the rerun on a worker."""
        budget = self.fork()
        budget.spill_at = time.monotonic() + seconds
        return budget

    def _derive(self, max_rows: "int | None") -> "QueryBudget":
        budget = QueryBudget(
            deadline=self.deadline,
            max_rows=max_rows,
            max_states=self.max_states,
            cancellation=self.cancellation,
            stride=self.stride,
        )
        budget.spill_at = self.spill_at
        return budget

    def snapshot(self) -> dict:
        """A JSON-ready description (for traces and batch digests)."""
        body: dict = {"stride": self.stride, "states_visited": self.states_visited}
        if self.deadline is not None:
            body["timeout"] = self.deadline.timeout
        if self.max_rows is not None:
            body["max_rows"] = self.max_rows
        if self.max_states is not None:
            body["max_states"] = self.max_states
        return body

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<QueryBudget {self.snapshot()!r}>"


def make_budget(
    *,
    timeout: "float | None" = None,
    max_rows: "int | None" = None,
    max_states: "int | None" = None,
    cancellation: "CancellationToken | None" = None,
    stride: int = DEFAULT_STRIDE,
) -> "QueryBudget | None":
    """A :class:`QueryBudget` when any limit is set, else ``None``.

    The CLI and server build budgets through this so that "no limits
    requested" keeps the evaluators on their unguarded fast path.
    """
    if (
        timeout is None
        and max_rows is None
        and max_states is None
        and cancellation is None
    ):
        return None
    return QueryBudget(
        timeout=timeout,
        max_rows=max_rows,
        max_states=max_states,
        cancellation=cancellation,
        stride=stride,
    )
