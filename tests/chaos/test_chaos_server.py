"""Server chaos: timeouts free their slots, torn wires raise typed errors,
retries recover, drain never hangs.

The satellite regression locked in here: firing N queries that all blow the
wall-clock budget on a ``max_concurrency=1`` server leaves the admission
controller with ``active == 0`` — a leaked slot would wedge the server at
one tenant's third slow query.
"""

import time

import pytest

from repro.graph.generators import label_cycle, random_transfer_network
from repro.server.admission import AdmissionController
from repro.server.app import _UNWIND_GRACE, _WAIT_GRACE, ServerThread
from repro.server.client import (
    ConnectionLost,
    RetryPolicy,
    ServerClient,
    ServerError,
)
from repro.server.service import QueryService

#: Wall-clock budget for the deliberately-slow queries below (seconds).
SHORT_TIMEOUT = 0.25


def slow_server():
    """One worker slot, one queued request, a short query budget."""
    return ServerThread(
        admission=AdmissionController(
            max_concurrency=1, max_queue=1, query_timeout=SHORT_TIMEOUT
        )
    )


def explosive_paths(client, **extra):
    """A path enumeration that cannot finish inside SHORT_TIMEOUT.

    ``mode="all"`` on a cycle matches unboundedly many paths (every extra
    lap is a new path), so with an astronomically large ``limit`` the only
    thing that can stop this query is its budget.
    """
    return client.request(
        "paths",
        graph="cycle",
        query="a+",
        source="v0",
        target="v1",
        mode="all",
        limit=10**9,
        **extra,
    )


def upload_cycle(client):
    client.upload_graph("cycle", label_cycle(9))


def dlrpq_server():
    """:func:`slow_server` over a small transfer network: the dlrpq below
    pops ~1200 configurations, each a pass through ``kernel.step`` and one
    budget tick, so a delay armed there lands inside a stride."""
    service = QueryService()
    service.catalog.register("transfers", random_transfer_network(100, 600, seed=1))
    return ServerThread(
        service=service,
        admission=AdmissionController(
            max_concurrency=1, max_queue=1, query_timeout=SHORT_TIMEOUT
        ),
    )


def slow_dlrpq(client):
    return client.request(
        "dlrpq",
        graph="transfers",
        query="(_) [Transfer][x := date] ( (_)[Transfer][date > x][x := date] )* (_)",
        source="a0",
        target="a1",
        mode="shortest",
        limit=5,
    )


class TestTimeoutsFreeTheirSlots:
    def test_n_timeouts_leave_active_zero(self):
        with slow_server() as harness:
            with ServerClient(*harness.address) as client:
                upload_cycle(client)
                for _ in range(3):
                    with pytest.raises(ServerError) as excinfo:
                        explosive_paths(client)
                    assert excinfo.value.code == "timeout"
                stats = client.stats()
                assert stats["admission"]["active"] == 0, "leaked admission slot"
                assert stats["admission"]["waiting"] == 0
                assert stats["in_flight"] == 1  # just this stats request
                # the single slot is genuinely reusable: a cheap query runs
                assert client.rpq("fig2", "Transfer")["count"] > 0

    def test_timeout_is_a_structured_partial_result(self):
        with slow_server() as harness:
            with ServerClient(*harness.address) as client:
                upload_cycle(client)
                with pytest.raises(ServerError) as excinfo:
                    explosive_paths(client)
                exc = excinfo.value
                assert exc.code == "timeout"
                # the cooperative budget won the race against the hard
                # asyncio timeout, so the envelope says how far it got
                assert exc.details.get("limit") == "timeout"
                assert exc.details.get("states_visited", 0) > 0

    def test_a_stride_outlasting_the_grace_keeps_the_structured_envelope(
        self, faults
    ):
        """The hard ``wait_for`` fires while the worker is mid-stride: the
        first configuration of a dlrpq build sleeps past the deadline plus
        ``_WAIT_GRACE``.  The worker still comes back — at its next stride
        check, its token cancelled — and its own BudgetExceeded is the
        answer, not the bare asyncio timeout."""
        # drop=True makes the site a pure delay: kernel.step has no
        # transport to sever, so it sleeps and carries on.
        faults.arm("kernel.step", delay=SHORT_TIMEOUT + 2 * _WAIT_GRACE, drop=True)
        with dlrpq_server() as harness:
            with ServerClient(*harness.address) as client:
                started = time.perf_counter()
                with pytest.raises(ServerError) as excinfo:
                    slow_dlrpq(client)
                elapsed = time.perf_counter() - started
        exc = excinfo.value
        assert elapsed > SHORT_TIMEOUT + _WAIT_GRACE  # the hard wait fired
        assert exc.code == "timeout"
        assert exc.details.get("limit") == "timeout"
        assert exc.details.get("states_visited", 0) > 0

    def test_a_wedged_worker_gets_the_bare_timeout(self, faults):
        """A worker that does not reach a stride check within the unwind
        grace either is wedged: the request answers the bare ``timeout``
        (no ``limit``, no ``states_visited``) instead of waiting for it."""
        faults.arm(
            "kernel.step",
            delay=SHORT_TIMEOUT + _WAIT_GRACE + _UNWIND_GRACE + 0.3,
            drop=True,
        )
        with dlrpq_server() as harness:
            with ServerClient(*harness.address) as client:
                with pytest.raises(ServerError) as excinfo:
                    slow_dlrpq(client)
        exc = excinfo.value
        assert exc.code == "timeout"
        assert "limit" not in exc.details
        assert "states_visited" not in exc.details

    def test_row_ceiling_maps_to_budget_exceeded(self):
        with slow_server() as harness:
            with ServerClient(*harness.address) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.rpq("fig2", "Transfer*", max_rows=1)
                exc = excinfo.value
                assert exc.code == "budget_exceeded"
                assert exc.details["limit"] == "max_rows"
                assert len(exc.details["partial"]) == 1
                # full-budget rerun of the same query returns everything —
                # nothing partial was cached server-side
                full = client.rpq("fig2", "Transfer*")
                assert full["count"] > 1
                partial_pair = tuple(exc.details["partial"][0])
                assert partial_pair in {tuple(p) for p in full["pairs"]}


class TestPoolEntrySite:
    def test_hits_and_control_ops_never_pass_it(self, faults):
        """``service.execute`` marks the worker-pool entry: a cache hit and
        a ping answer on the event loop, so a delay armed there cannot
        stall them (or the loop)."""
        with ServerThread() as harness:
            with ServerClient(*harness.address) as client:
                cold = client.rpq("fig2", "Transfer")  # the miss enters the pool
                faults.arm("service.execute", delay=5.0, drop=True)
                started = time.perf_counter()
                assert client.rpq("fig2", "Transfer") == cold
                assert client.ping() == {"pong": True}
                assert time.perf_counter() - started < 1.0
                assert faults.armed_sites() == ["service.execute"]  # unfired
                faults.disarm("service.execute")


class TestTornConnections:
    def test_server_read_drop_raises_connection_lost(self, faults):
        with ServerThread() as harness:
            with ServerClient(*harness.address) as client:
                assert client.ping() == {"pong": True}
                faults.arm("server.read", drop=True)
                with pytest.raises(ConnectionLost):
                    client.ping()
            # the server survives the severed connection: fresh clients work
            with ServerClient(*harness.address) as fresh:
                assert fresh.ping() == {"pong": True}

    def test_server_write_drop_raises_connection_lost(self, faults):
        with ServerThread() as harness:
            with ServerClient(*harness.address) as client:
                faults.arm("server.write", drop=True)
                with pytest.raises(ConnectionLost):
                    client.ping()
            with ServerClient(*harness.address) as fresh:
                assert fresh.ping() == {"pong": True}

    def test_drain_completes_after_torn_connections(self, faults):
        # ServerThread.stop() raises if the drain hangs — entering and
        # leaving the context with severed connections IS the assertion.
        with ServerThread() as harness:
            for _ in range(2):
                faults.arm("server.read", drop=True)
                with ServerClient(*harness.address) as client:
                    with pytest.raises(ConnectionLost):
                        client.ping()


class TestClientRetry:
    def fast_policy(self, **overrides):
        defaults = dict(
            max_attempts=3, base=0.001, cap=0.002, retry_budget=1.0, seed=7
        )
        defaults.update(overrides)
        return RetryPolicy(**defaults)

    def test_idempotent_op_retries_through_a_torn_read(self, faults):
        with ServerThread() as harness:
            client = ServerClient(*harness.address, retry=self.fast_policy())
            with client:
                faults.arm("client.read", drop=True, times=1)
                assert client.ping() == {"pong": True}
                assert client.reconnects == 1

    def test_attempts_cap_is_honoured(self, faults):
        with ServerThread() as harness:
            client = ServerClient(
                *harness.address, retry=self.fast_policy(max_attempts=2)
            )
            with client:
                faults.arm("client.read", drop=True, times=5)
                with pytest.raises(ConnectionLost):
                    client.ping()
                # exactly 2 attempts ran: they consumed 2 of the 5 firings
                assert faults.passages["client.read"] == 2
                # once the fault clears, the client recovers on its own
                faults.disarm("client.read")
                assert client.ping() == {"pong": True}

    def test_mutating_op_never_retries(self, faults):
        with ServerThread() as harness:
            client = ServerClient(*harness.address, retry=self.fast_policy())
            with client:
                faults.arm("client.read", drop=True, times=1)
                with pytest.raises(ConnectionLost):
                    client.upload_graph("g", label_cycle(2))
                assert client.reconnects == 0

    def test_without_policy_connection_lost_surfaces(self, faults):
        with ServerThread() as harness:
            with ServerClient(*harness.address) as client:
                faults.arm("client.read", drop=True, times=1)
                with pytest.raises(ConnectionLost):
                    client.ping()


class TestRetryPolicyJitter:
    def test_delays_are_deterministic_and_capped(self):
        policy = RetryPolicy(base=0.05, cap=0.2, retry_budget=1.0, seed=42)
        first = list(policy.delays())
        second = list(policy.delays())
        assert first == second, "a seeded policy must be reproducible"
        assert all(0.05 <= delay <= 0.2 for delay in first)
        assert sum(first) <= 1.0

    def test_budget_bounds_total_sleep(self):
        policy = RetryPolicy(base=0.4, cap=0.5, retry_budget=1.0, seed=1)
        delays = list(policy.delays())
        assert sum(delays) <= 1.0
        assert len(delays) <= 2

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(base=0.5, cap=0.1)
        with pytest.raises(ValueError):
            RetryPolicy(retry_budget=-1.0)
