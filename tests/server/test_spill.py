"""Reads run on the event loop first and spill to the worker pool.

Every op the op table marks ``idempotent`` and not ``control`` is tried on
the server's event loop under a spill allowance (``app._SPILL_ALLOWANCE``).
A read whose work outgrows it spills: it reruns on the worker pool under
the rest of its own budget.  The contract under test: a spill is invisible
to the caller (same answer as the pool's), it stalls the loop for no more
than the allowance plus one stride, and it is counted and cached exactly
like the same request run on the pool — never as a budget trip.
"""

import json
import statistics
import threading
import time

import pytest

from repro.distributed.frontier import (
    automaton_plan,
    encode_mask,
    encode_pairs,
    node_order,
)
from repro.engine.limits import CancellationToken, QueryBudget, Spill
from repro.graph.generators import random_graph, random_transfer_network
from repro.graph.serialize import graph_to_dict
from repro.server import app as app_module
from repro.server.admission import AdmissionController
from repro.server.app import ServerThread
from repro.server.client import ServerClient, ServerError
from repro.server.protocol import Request
from repro.server.service import GraphCatalog, QueryService

#: How long past the allowance a read may hold the loop: up to one budget
#: stride of the heavy reads below (3-15 ms), plus a collector pause or a
#: descheduling on a busy host.  Each of them takes well over 100 ms
#: inline, so one that failed to spill shows up far past this.
EPSILON = 0.05

GRAPH = random_graph(2000, 16000, labels=("p0", "p1", "p2", "p3"), seed=1)
#: dlrpq reads edge properties: the transfer network of the same size.
NETWORK = random_transfer_network(2000, 16000, seed=1)


def _frontier_params() -> dict:
    """A 32-source frontier over the whole graph (one shard owns it all)."""
    query = "((p0+p1)(p0+p1))*"
    alphabet = sorted(set(GRAPH.labels), key=repr)
    plan = automaton_plan(query, alphabet)
    order = node_order(GRAPH)
    frontier: dict = {}
    for bit in range(32):
        base = order.index(f"v{bit}") << plan.state_bits
        for state in plan.initial:
            frontier[base | state] = frontier.get(base | state, 0) | (1 << bit)
    return {
        "graph": "rg",
        "query": query,
        "frontier": encode_pairs(frontier),
        "owned": encode_mask((1 << len(order)) - 1),
        "state_bits": plan.state_bits,
        "alphabet": alphabet,
        "round": 1,
    }


def _wide_crpq(atoms: int) -> str:
    labels = ("p0", "p1", "p2", "p3")
    body = ", ".join(
        f"({labels[i % 4]} {labels[(i + 1) % 4]}{'*' if i % 3 else ''})"
        f"(x{i}, x{i + 1})"
        for i in range(atoms)
    )
    return f"q(x0) :- {body}"


#: One heavy read per loop-eligible op, each with a small answer.
HEAVY = {
    "rpq": {"graph": "rg", "query": "(p0+p1)* zz"},
    "crpq": {
        "graph": "rg",
        "query": "q(x) :- (p0 p1 p2 p3)(x, y), (p3 p2 p1 p0)(y, z), (p0 p0)(z, x)",
    },
    "dlrpq": {
        "graph": "tn",
        "query": "(_) ([Transfer](_))* [Transfer][amount < 100000](_)",
        "source": "a1", "target": "a2", "mode": "shortest", "limit": 5,
    },
    "paths": {
        "graph": "rg", "query": "(p0+p1)*", "source": "v1", "target": "v2",
        "mode": "all", "limit": 10,
    },
    "explain": {"graph": "rg", "query": _wide_crpq(128)},
    "frontier_step": _frontier_params(),
}


def _server(**kwargs) -> ServerThread:
    """A server that accepts the multi-megabyte uploads below."""
    admission = AdmissionController(max_request_bytes=16 << 20)
    return ServerThread(admission=admission, **kwargs)


def _upload_all(client) -> None:
    client.upload_graph("rg", GRAPH)
    client.upload_graph("tn", NETWORK)


def _metrics(address) -> dict:
    with ServerClient(*address) as client:
        return client.stats()["metrics"]


@pytest.fixture(scope="module")
def served():
    with _server() as harness:
        with ServerClient(*harness.address) as client:
            _upload_all(client)
        yield harness


def _in_process() -> QueryService:
    """The served catalog in process: ``QueryService.execute`` without
    ``on_loop`` is exactly what a pool worker runs."""
    service = QueryService()
    for name, graph in (("rg", GRAPH), ("tn", NETWORK)):
        service.execute(Request(
            op="graphs.upload", params={"name": name, "graph": graph_to_dict(graph)},
        ))
    return service


@pytest.fixture(scope="module")
def pool_service():
    return _in_process()


class TestEveryReadHonoursTheAllowance:
    """One heavy read per loop-eligible op: its attempt on the loop spills
    within the allowance plus one stride, pings keep answering meanwhile,
    and the pool's rerun answers exactly what the pool computes.

    The loop's stall is timed at its source, the attempt on the loop.  A
    ping's worst case is not: once the read spilled, the worker computing
    it shares the GIL with the loop, and long C calls and collector pauses
    there delay single pings by tens of ms exactly as they did when every
    read ran on the pool.  The typical ping must stay loop-fast."""

    @pytest.fixture()
    def attempts(self, served, monkeypatch):
        """``(outcome, seconds)`` of every attempt on the event loop."""
        service = served.server.service
        real_execute = service.execute
        recorded = []

        def execute(request, budget=None, **options):
            if not options.get("on_loop"):
                return real_execute(request, budget, **options)
            started = time.perf_counter()
            try:
                result = real_execute(request, budget, **options)
            except Spill:
                recorded.append(("spilled", time.perf_counter() - started))
                raise
            recorded.append(("answered", time.perf_counter() - started))
            return result

        monkeypatch.setattr(service, "execute", execute)
        return recorded

    @pytest.mark.parametrize("op", sorted(HEAVY))
    def test_a_heavy_read_spills_without_stalling_the_loop(
        self, served, pool_service, attempts, op
    ):
        # Computed first, so the loop's attempt does not pay the one-time
        # import of the op's evaluator either.
        expected = pool_service.execute(Request(op=op, params=HEAVY[op]))
        spills = _metrics(served.address)["counters"].get("server_spills_total", 0)
        answer = {}

        def heavy():
            with ServerClient(*served.address) as client:
                answer["result"] = client.request(op, **HEAVY[op])

        worker = threading.Thread(target=heavy)
        delays = []
        with ServerClient(*served.address) as prober:
            prober.ping()  # connected before the heavy read starts
            worker.start()
            while worker.is_alive():
                started = time.perf_counter()
                prober.ping()
                delays.append(time.perf_counter() - started)
        worker.join()
        ((outcome, held),) = attempts
        assert outcome == "spilled"
        assert held <= app_module._SPILL_ALLOWANCE + EPSILON
        assert statistics.median(delays) <= app_module._SPILL_ALLOWANCE + EPSILON
        counters = _metrics(served.address)["counters"]
        assert counters["server_spills_total"] == spills + 1
        assert not any(name.startswith("server_budget_exceeded") for name in counters)
        assert answer["result"] == expected


class TestSpillAccounting:
    QUERY = HEAVY["rpq"]

    def test_a_spilled_read_is_counted_and_cached_like_a_pool_read(self):
        with _server() as harness:
            with ServerClient(*harness.address) as client:
                _upload_all(client)
                spilled = client.request("rpq", **self.QUERY)
                hit = client.request("rpq", **self.QUERY)
                served = client.stats()
        in_process = _in_process()
        computed = in_process.execute(Request(op="rpq", params=self.QUERY))
        cached = in_process.execute(Request(op="rpq", params=self.QUERY))
        assert spilled == hit == computed == cached
        assert served["answer_cache"] == in_process.answer_cache.info()
        counters = served["metrics"]["counters"]
        pool_counters = in_process.metrics.counters
        for name in (
            "server_requests_total", "server_requests_rpq",
            "server_answer_cache_hits", "server_answer_cache_misses",
        ):
            assert counters[name] == pool_counters[name], name
        histograms = served["metrics"]["histograms"]
        for name in (
            "server_request_seconds", "server_cache_hit_seconds",
            "server_cache_miss_seconds",
        ):
            assert histograms[name]["count"] == (
                in_process.metrics.histograms[name].count
            ), name
        assert counters["server_spills_total"] == 1
        assert counters["server_answers_on_loop"] == 1  # the hit
        # the two uploads and the spilled read took the pool
        assert histograms["server_executor_wait_seconds"]["count"] == 3

    def test_no_budget_trip_comes_from_a_spill(self, monkeypatch):
        monkeypatch.setattr(app_module, "_SPILL_ALLOWANCE", 0.0)
        with _server() as harness:
            with ServerClient(*harness.address) as client:
                for query in ("Transfer", "owner", "Transfer+"):
                    client.rpq("fig2", query)
                counters = client.stats()["metrics"]["counters"]
        assert counters["server_spills_total"] == 3
        assert not any(name.startswith("server_budget_exceeded") for name in counters)
        assert "server_errors_total" not in counters

    def test_an_own_limit_tripped_on_the_loop_is_the_answer(self, served):
        before = _metrics(served.address)["counters"]
        with ServerClient(*served.address) as client:
            with pytest.raises(ServerError) as excinfo:
                client.request(
                    "rpq", graph="rg", query="(p0+p1)*", source="v1", max_rows=3
                )
        after = _metrics(served.address)["counters"]
        assert excinfo.value.code == "budget_exceeded"
        assert excinfo.value.details["limit"] == "max_rows"
        assert len(excinfo.value.details["partial"]) == 3
        assert after.get("server_spills_total", 0) == before.get(
            "server_spills_total", 0
        )
        assert after["server_budget_exceeded_max_rows"] == (
            before.get("server_budget_exceeded_max_rows", 0) + 1
        )

    def test_a_traced_spill_keeps_one_root(self, tmp_path, monkeypatch):
        monkeypatch.setattr(app_module, "_SPILL_ALLOWANCE", 0.0)
        trace_out = tmp_path / "spans.jsonl"
        ctx = {"trace_id": "ef" * 16, "span_id": "12" * 8}
        with _server(trace_out=str(trace_out)) as harness:
            with ServerClient(*harness.address) as client:
                result = client.request(
                    "rpq", graph="fig2", query="Transfer+", trace=ctx
                )
        (tree,) = result["trace_spans"]
        assert tree["name"] == "server.request"
        assert tree["parent_span_id"] == ctx["span_id"]
        roots = [
            json.loads(line)
            for line in trace_out.read_text().splitlines()
            if line.strip()
        ]
        requests = [root for root in roots if root["name"] == "server.request"]
        assert len(requests) == 1
        assert requests[0]["attributes"]["cache_hit"] is False


class TestLazyGraphsStayOffTheLoop:
    def test_a_lazy_miss_spills_and_a_hit_answers(self, tmp_path):
        data_dir = str(tmp_path / "store")
        writer = GraphCatalog(data_dir)
        writer.register("rg", GRAPH)
        writer.close()
        service = QueryService(GraphCatalog(data_dir))
        request = Request(op="rpq", params={"graph": "rg", "query": "p0", "source": "v1"})

        def attempt():
            budget = QueryBudget(timeout=30.0, cancellation=CancellationToken())
            return service.execute(request, budget.spill_after(30.0), on_loop=True)

        with pytest.raises(Spill):
            attempt()  # a miss would fault label segments in
        entry = service.catalog.get("rg")
        assert not entry.resident
        assert entry.handle.info()["resident_edges"] == 0
        computed = service.execute(request)  # the pool's rerun
        assert attempt() == computed  # a hit answers on the loop
        counters = service.metrics.counters
        assert counters["server_requests_total"] == 2
        assert counters["server_answer_cache_misses"] == 1
        assert counters["server_answer_cache_hits"] == 1
        assert counters["server_answers_on_loop"] == 1
        assert counters["server_spills_total"] == 1
        service.close()
