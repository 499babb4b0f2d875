"""Unit tests for query budgets: stride accuracy, derivation, payloads.

The contract under test (DESIGN.md §9): ``tick()`` is two integer ops on
the fast path and runs the expensive checks every ``stride`` ticks, so any
limit is noticed at most one stride after it trips — never before it
trips.
"""

import time

import pytest

from repro.engine.limits import (
    DEFAULT_STRIDE,
    BudgetExceeded,
    CancellationToken,
    Deadline,
    QueryBudget,
    Spill,
    make_budget,
)
from repro.errors import EvaluationError


class TestDeadline:
    def test_requires_positive_timeout(self):
        with pytest.raises(ValueError):
            Deadline(0)
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_remaining_and_elapsed(self):
        deadline = Deadline(60.0)
        assert not deadline.expired()
        assert 0.0 < deadline.remaining() <= 60.0
        assert deadline.elapsed() >= 0.0

    def test_expires(self):
        deadline = Deadline(0.005)
        time.sleep(0.01)
        assert deadline.expired()
        assert deadline.remaining() == 0.0


class TestCancellationToken:
    def test_cancel_sets_flag_and_reason(self):
        token = CancellationToken()
        assert not token.cancelled and token.reason is None
        token.cancel("timeout")
        assert token.cancelled and token.reason == "timeout"


class TestBudgetValidation:
    def test_timeout_and_deadline_are_exclusive(self):
        with pytest.raises(ValueError):
            QueryBudget(timeout=1.0, deadline=Deadline(1.0))

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            QueryBudget(max_rows=-1)
        with pytest.raises(ValueError):
            QueryBudget(max_states=0)
        with pytest.raises(ValueError):
            QueryBudget(stride=0)

    def test_make_budget_none_when_unlimited(self):
        assert make_budget() is None
        assert isinstance(make_budget(max_rows=5), QueryBudget)
        assert isinstance(make_budget(timeout=1.0), QueryBudget)
        assert isinstance(
            make_budget(cancellation=CancellationToken()), QueryBudget
        )


class TestStrideAccuracy:
    """A tripped limit is noticed within one stride — and never early."""

    def test_max_states_within_one_stride(self):
        stride = 8
        budget = QueryBudget(max_states=10, stride=stride)
        ticks = 0
        with pytest.raises(BudgetExceeded) as excinfo:
            while True:
                budget.tick()
                ticks += 1
                assert ticks <= 10 + stride, "limit noticed more than one stride late"
        assert ticks > 10, "limit must not fire before it actually trips"
        assert excinfo.value.limit == "max_states"
        # the raising tick itself was counted by the budget, not the loop
        assert excinfo.value.states_visited == ticks + 1

    def test_stride_one_is_exact(self):
        budget = QueryBudget(max_states=5, stride=1)
        for _ in range(5):
            budget.tick()
        with pytest.raises(BudgetExceeded):
            budget.tick()

    def test_cancellation_seen_at_next_stride_boundary(self):
        token = CancellationToken()
        budget = QueryBudget(cancellation=token, stride=4)
        token.cancel()
        ticks = 0
        with pytest.raises(BudgetExceeded) as excinfo:
            while True:
                budget.tick()
                ticks += 1
                assert ticks <= 4
        assert excinfo.value.limit == "cancelled"

    def test_expired_deadline_seen_at_next_stride_boundary(self):
        budget = QueryBudget(timeout=0.002, stride=4)
        time.sleep(0.01)
        with pytest.raises(BudgetExceeded) as excinfo:
            for _ in range(4):
                budget.tick()
        assert excinfo.value.limit == "timeout"
        assert excinfo.value.elapsed is not None

    def test_default_stride(self):
        assert QueryBudget(max_states=1).stride == DEFAULT_STRIDE


class TestLimitSemantics:
    def test_check_rows_fires_only_past_the_ceiling(self):
        budget = QueryBudget(max_rows=3)
        budget.check_rows(3)  # exactly at the ceiling is fine
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.check_rows(4)
        assert excinfo.value.limit == "max_rows"
        assert excinfo.value.rows_so_far == 4

    def test_timeout_reason_maps_to_timeout_limit(self):
        token = CancellationToken()
        token.cancel("timeout")
        budget = QueryBudget(cancellation=token)
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.check()
        assert excinfo.value.limit == "timeout"

    def test_budget_exceeded_is_an_evaluation_error(self):
        assert issubclass(BudgetExceeded, EvaluationError)


class TestDerivation:
    def test_fork_shares_objects_fresh_counters(self):
        token = CancellationToken()
        parent = QueryBudget(
            timeout=60.0, max_rows=7, max_states=100, cancellation=token, stride=32
        )
        parent.states_visited = 42
        child = parent.fork()
        assert child.deadline is parent.deadline
        assert child.cancellation is token
        assert child.max_rows == 7 and child.max_states == 100
        assert child.stride == 32
        assert child.states_visited == 0

    def test_subquery_drops_max_rows_only(self):
        parent = QueryBudget(timeout=60.0, max_rows=7, max_states=100)
        sub = parent.subquery()
        assert sub is not parent
        assert sub.max_rows is None
        assert sub.max_states == 100
        assert sub.deadline is parent.deadline

    def test_subquery_is_identity_without_max_rows(self):
        parent = QueryBudget(timeout=60.0)
        assert parent.subquery() is parent


class TestSpillAllowance:
    """``spill_after`` is the budget of a served read's attempt on the event
    loop: past the allowance a check raises :class:`Spill`, which is not a
    limit of the request."""

    def test_spill_is_not_a_budget_trip(self):
        assert not issubclass(Spill, EvaluationError)

    def test_a_check_past_the_allowance_spills(self):
        budget = QueryBudget(timeout=60.0).spill_after(0.0)
        with pytest.raises(Spill):
            budget.check()

    def test_within_the_allowance_nothing_trips(self):
        budget = QueryBudget(timeout=60.0).spill_after(60.0)
        budget.check()
        for _ in range(3 * DEFAULT_STRIDE):
            budget.tick()

    def test_stride_checks_spill(self):
        budget = QueryBudget(timeout=60.0, stride=4).spill_after(0.0)
        for _ in range(3):
            budget.tick()
        with pytest.raises(Spill):
            budget.tick()

    def test_own_limit_wins_at_the_same_check(self):
        expired = QueryBudget(timeout=0.001).spill_after(0.0)
        time.sleep(0.005)
        with pytest.raises(BudgetExceeded) as excinfo:
            expired.check()
        assert excinfo.value.limit == "timeout"
        states = QueryBudget(max_states=1, stride=2).spill_after(0.0)
        states.tick()  # one state: within the limit, and no check yet
        with pytest.raises(BudgetExceeded) as excinfo:
            states.tick()
        assert excinfo.value.limit == "max_states"

    def test_the_budget_itself_keeps_its_deadline_and_no_allowance(self):
        token = CancellationToken()
        budget = QueryBudget(timeout=60.0, max_rows=5, cancellation=token)
        attempt = budget.spill_after(0.0)
        assert attempt.deadline is budget.deadline
        assert attempt.cancellation is token
        assert attempt.max_rows == 5
        assert budget.spill_at is None
        budget.check()

    def test_derived_budgets_keep_the_allowance(self):
        attempt = QueryBudget(timeout=60.0, max_rows=5).spill_after(0.0)
        for derived in (attempt.fork(), attempt.subquery()):
            assert derived.spill_at == attempt.spill_at
            with pytest.raises(Spill):
                derived.check()

    def test_spill_now_only_with_an_allowance(self):
        QueryBudget(timeout=60.0).spill("no allowance: a no-op")
        with pytest.raises(Spill):
            QueryBudget(timeout=60.0).spill_after(60.0).spill("I/O")


class TestBudgetExceededPayload:
    def test_attach_partial_overwrites_and_counts(self):
        exc = BudgetExceeded("x", limit="timeout")
        exc.attach_partial({("a", "b")})
        assert exc.rows_so_far == 1
        exc.attach_partial({("a", "b"), ("a", "c")})  # outer evaluator wins
        assert exc.rows_so_far == 2 and len(exc.partial) == 2
        exc.attach_partial(None)  # a None attachment never clobbers
        assert exc.partial is not None

    def test_details_shape(self):
        exc = BudgetExceeded(
            "x", limit="max_rows", rows_so_far=5, states_visited=9, elapsed=0.25
        )
        assert exc.details() == {
            "limit": "max_rows",
            "rows_so_far": 5,
            "states_visited": 9,
            "elapsed_seconds": 0.25,
        }

    def test_snapshot(self):
        budget = QueryBudget(timeout=2.0, max_rows=3, max_states=10, stride=16)
        snap = budget.snapshot()
        assert snap["timeout"] == 2.0
        assert snap["max_rows"] == 3
        assert snap["max_states"] == 10
        assert snap["stride"] == 16
