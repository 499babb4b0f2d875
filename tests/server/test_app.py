"""End-to-end server tests: both transports, overload, drain, SIGTERM.

Most tests run the server in-process on a background thread
(:class:`ServerThread`); the SIGTERM drain test launches ``repro serve`` as
a real subprocess because signal-driven shutdown is exactly what it checks.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.server.admission import AdmissionController
from repro.server import app as app_module
from repro.server.app import QueryServer, ServerThread
from repro.server.client import (
    ServerClient,
    ServerError,
    http_get,
    http_post_query,
)


@pytest.fixture(scope="module")
def harness():
    with ServerThread() as running:
        yield running


@pytest.fixture()
def client(harness):
    with ServerClient(*harness.address) as connection:
        yield connection


def toy_graph():
    graph = EdgeLabeledGraph()
    graph.add_edge("e1", "x", "y", "a")
    graph.add_edge("e2", "y", "z", "a")
    return graph


class TestJsonLinesTransport:
    def test_ping(self, client):
        assert client.ping() == {"pong": True}

    def test_builtin_graphs_listed(self, client):
        names = {info["name"] for info in client.list_graphs()}
        assert {"fig2", "fig3"} <= names

    def test_rpq_and_answer_cache(self, client):
        cold = client.rpq("fig2", "Transfer*")
        warm = client.rpq("fig2", "Transfer*")
        assert cold == warm
        assert cold["count"] == len(cold["pairs"]) > 0

    def test_crpq(self, client):
        result = client.crpq("fig2", "Ans(x, y) :- Transfer(x, y)")
        assert result["count"] > 0

    def test_dlrpq_on_property_graph(self, client):
        graphs = {info["name"]: info for info in client.list_graphs()}
        assert graphs["fig3"]["kind"] == "property"

    def test_explain(self, client):
        result = client.explain("fig2", "Transfer+")
        assert result["op"] == "explain"

    def test_upload_then_query(self, client):
        info = client.upload_graph("toy", toy_graph())
        assert info["nodes"] == 3 and info["edges"] == 2
        result = client.rpq("toy", "a a")
        assert result["pairs"] == [["x", "z"]]

    def test_upload_replacement_invalidates(self, client):
        client.upload_graph("mut", toy_graph())
        first = client.rpq("mut", "a")
        assert first["count"] == 2
        bigger = toy_graph()
        bigger.add_edge("e3", "z", "w", "a")
        info = client.upload_graph("mut", bigger)
        assert info["cache_entries_dropped"] >= 1
        second = client.rpq("mut", "a")
        assert second["count"] == 3

    def test_unknown_graph_typed_error(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.rpq("no-such-graph", "a")
        assert excinfo.value.code == "graph_not_found"

    def test_bad_query_typed_error(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.rpq("fig2", "((broken")
        assert excinfo.value.code == "parse_error"

    def test_malformed_limit_is_bad_request_on_the_wire(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.request(
                "paths", graph="fig2", query="Transfer+", source="a3",
                target="a5", limit="3",
            )
        assert excinfo.value.code == "bad_request"
        assert "limit" in str(excinfo.value)

    @pytest.mark.parametrize(
        ("op", "params", "bad"),
        [
            ("rpq", {"graph": ["fig2"], "query": "Transfer"}, "graph"),
            ("crpq", {"graph": "fig2", "query": "Ans(x) :- Transfer(x, y)",
                      "planner": "bogus"}, "planner"),
            ("graphs.mutate", {"graph": "fig2", "edits": [
                {"kind": "add_edge", "id": [1], "src": "a1", "tgt": "a2",
                 "label": "Transfer"}]}, "edits"),
        ],
    )
    def test_malformed_param_is_bad_request_on_the_wire(
        self, client, op, params, bad
    ):
        with pytest.raises(ServerError) as excinfo:
            client.request(op, **params)
        assert excinfo.value.code == "bad_request"
        assert excinfo.value.details["param"] == bad

    def test_malformed_line_still_answers(self, harness):
        with ServerClient(*harness.address) as raw:
            raw._file.write(b"this is not json\n")
            raw._file.flush()
            response = json.loads(raw._file.readline())
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            # the connection survives a bad line
            assert raw.ping() == {"pong": True}

    def test_many_requests_one_connection(self, client):
        for _ in range(5):
            assert client.ping() == {"pong": True}

    def test_stats_include_admission(self, client):
        stats = client.stats()
        assert stats["admission"]["max_concurrency"] >= 1
        assert "in_flight" in stats


class TestHttpFacade:
    def test_healthz(self, harness):
        status, body = http_get(*harness.address, "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["graphs"] >= 2

    def test_metrics_exposition(self, harness):
        with ServerClient(*harness.address) as connection:
            connection.rpq("fig2", "Transfer")
        status, body = http_get(*harness.address, "/metrics")
        assert status == 200
        assert "server_requests_total" in body

    def test_stats_route(self, harness):
        status, body = http_get(*harness.address, "/stats")
        assert status == 200
        assert json.loads(body)["ok"] is True

    def test_post_query(self, harness):
        status, response = http_post_query(
            *harness.address,
            {"op": "rpq", "id": 1, "params": {"graph": "fig2", "query": "owner"}},
        )
        assert status == 200
        assert response["ok"] is True
        assert response["result"]["count"] > 0

    def test_post_query_error_status(self, harness):
        status, response = http_post_query(
            *harness.address,
            {"op": "rpq", "params": {"graph": "ghost", "query": "a"}},
        )
        assert status == 404
        assert response["error"]["code"] == "graph_not_found"

    def test_unknown_route_404(self, harness):
        status, body = http_get(*harness.address, "/not-a-route")
        assert status == 404


class TestAnswerCacheHitsOnTheLoop:
    """A read runs on the event loop first: a small one — its first
    computation and every hit after it — never reaches the worker pool,
    and every request is still counted exactly once."""

    N = 6
    CTX = {"trace_id": "ab" * 16, "span_id": "cd" * 8}

    @pytest.fixture()
    def watched(self, monkeypatch):
        """A fresh server whose pool submissions are recorded, and whose
        answer computations record the thread they ran on.  The spill
        allowance is pinned generously, so a busy host cannot push these
        small reads onto the pool."""
        monkeypatch.setattr(app_module, "_SPILL_ALLOWANCE", 5.0)
        submitted, computed = [], []
        with ServerThread() as running:
            pool, service = running.server._pool, running.server.service
            real_submit, real_evaluate = pool.submit, service.evaluate

            def submit(fn, *args, **kwargs):
                submitted.append(fn)
                return real_submit(fn, *args, **kwargs)

            def evaluate(*args, **kwargs):
                computed.append(threading.current_thread().name)
                return real_evaluate(*args, **kwargs)

            monkeypatch.setattr(pool, "submit", submit)
            monkeypatch.setattr(service, "evaluate", evaluate)
            yield running, submitted, computed

    def test_n_identical_reads_compute_once_on_the_loop(self, watched):
        harness, submitted, computed = watched
        with ServerClient(*harness.address) as connection:
            results = [connection.rpq("fig2", "Transfer+") for _ in range(self.N)]
            stats = connection.stats()
        assert submitted == []
        assert computed == ["repro-server"]  # the event loop's thread
        assert stats["answer_cache"]["hits"] == self.N - 1
        assert stats["answer_cache"]["misses"] == 1
        counters = stats["metrics"]["counters"]
        assert counters["server_requests_total"] == self.N
        assert counters["server_answers_on_loop"] == self.N
        assert "server_spills_total" not in counters
        histograms = stats["metrics"]["histograms"]
        assert "server_executor_wait_seconds" not in histograms
        assert histograms["server_request_seconds"]["count"] == self.N
        assert histograms["server_cache_hit_seconds"]["count"] == self.N - 1
        assert histograms["server_cache_miss_seconds"]["count"] == 1
        assert all(result == results[0] for result in results)

    def test_new_names_reach_the_prometheus_exposition(
        self, watched, monkeypatch
    ):
        harness, submitted, _ = watched
        with ServerClient(*harness.address) as connection:
            connection.rpq("fig2", "Transfer")  # computed on the loop
            connection.rpq("fig2", "Transfer")  # a hit on the loop
            # No allowance: the next read spills at its first budget check.
            monkeypatch.setattr(app_module, "_SPILL_ALLOWANCE", 0.0)
            connection.rpq("fig2", "owner")
        status, body = http_get(*harness.address, "/metrics")
        assert status == 200
        assert len(submitted) == 1
        assert "repro_server_answers_on_loop 2" in body
        assert "repro_server_spills_total 1" in body
        assert "repro_server_executor_wait_seconds_count 1" in body
        assert "repro_server_executor_resume_seconds_count 1" in body
        assert "# TYPE repro_server_loop_lag_seconds histogram" in body
        assert "repro_server_budget_exceeded" not in body

    def test_a_traced_hit_still_returns_its_span_tree(self, watched):
        harness, submitted, _ = watched
        with ServerClient(*harness.address) as connection:
            cold = connection.request(
                "rpq", graph="fig2", query="owner", trace=self.CTX
            )
            warm = connection.request(
                "rpq", graph="fig2", query="owner", trace=self.CTX
            )
        assert submitted == []
        assert cold["trace_spans"][0]["attributes"]["cache_hit"] is False
        (tree,) = warm["trace_spans"]
        assert tree["name"] == "server.request"
        assert tree["trace_id"] == self.CTX["trace_id"]
        assert tree["parent_span_id"] == self.CTX["span_id"]
        assert tree["attributes"]["cache_hit"] is True
        assert {k: v for k, v in warm.items() if k != "trace_spans"} == {
            k: v for k, v in cold.items() if k != "trace_spans"
        }


class TestOverloadAndLimits:
    def test_queue_full_is_typed_and_fast(self):
        admission = AdmissionController(
            max_concurrency=1, max_queue=0, queue_timeout=30.0
        )
        with ServerThread(admission=admission) as harness:
            holder = ServerClient(*harness.address)
            prober = ServerClient(*harness.address)
            try:
                hold = threading.Thread(target=holder.sleep, args=(1.0,))
                hold.start()
                time.sleep(0.2)  # let the sleep take the only slot
                started = time.perf_counter()
                with pytest.raises(ServerError) as excinfo:
                    prober.rpq("fig2", "Transfer")
                elapsed = time.perf_counter() - started
                assert excinfo.value.code == "overloaded"
                assert excinfo.value.details["reason"] == "queue_full"
                assert elapsed < 1.0  # fast rejection, not a queue wait
                # control ops bypass admission even under full load
                assert prober.ping() == {"pong": True}
                hold.join()
            finally:
                holder.close()
                prober.close()

    def test_query_timeout_is_typed(self):
        admission = AdmissionController(query_timeout=0.1)
        with ServerThread(admission=admission) as harness:
            with ServerClient(*harness.address) as connection:
                with pytest.raises(ServerError) as excinfo:
                    connection.sleep(5.0)
                assert excinfo.value.code == "timeout"

    def test_oversized_request_rejected(self):
        admission = AdmissionController(max_request_bytes=512)
        with ServerThread(admission=admission) as harness:
            with ServerClient(*harness.address) as connection:
                with pytest.raises((ServerError, ConnectionError)) as excinfo:
                    connection.rpq("fig2", "a" * 2048)
                if excinfo.type is ServerError:
                    assert excinfo.value.code == "too_large"

    def test_http_oversized_body_413(self):
        admission = AdmissionController(max_request_bytes=512)
        with ServerThread(admission=admission) as harness:
            status, response = http_post_query(
                *harness.address,
                {"op": "rpq", "params": {"graph": "fig2", "query": "x" * 2048}},
            )
            assert status == 413


class TestMalformedContentLength:
    """A ``POST /query`` whose ``Content-Length`` is not a usable length
    gets a 400 JSON reply; the connection never dies without one."""

    @staticmethod
    def _raw_post(address, length: str, body: bytes) -> tuple[int, dict]:
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: test\r\n"
                + f"Content-Length: {length}\r\n\r\n".encode("latin-1")
                + body
            )
            sock.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, payload = reply.partition(b"\r\n\r\n")
        return int(head.split()[1]), json.loads(payload)

    def test_non_numeric_length_is_400(self, harness):
        status, payload = self._raw_post(harness.address, "abc", b"")
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_negative_length_is_400(self, harness):
        status, payload = self._raw_post(harness.address, "-5", b"")
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_body_shorter_than_its_length_is_400(self, harness):
        status, payload = self._raw_post(harness.address, "50", b'{"op": "ping"}')
        assert status == 400
        assert "14 of 50" in payload["error"]

    def test_the_server_still_answers_afterwards(self, harness):
        self._raw_post(harness.address, "abc", b"")
        status, body = http_get(*harness.address, "/healthz")
        assert status == 200 and json.loads(body)["status"] == "ok"


class TestDrain:
    def test_requests_during_drain_get_shutting_down(self):
        harness = ServerThread().start()
        try:
            client = ServerClient(*harness.address)
            # start a slow request, then drain while it is in flight
            slow = {}

            def run_slow():
                slow["result"] = client.sleep(0.5)

            worker = threading.Thread(target=run_slow)
            worker.start()
            time.sleep(0.1)
            harness.server.request_drain_threadsafe()
            time.sleep(0.1)
            # the in-flight response is still delivered
            worker.join(timeout=10)
            assert slow["result"] == {"slept": 0.5}
        finally:
            harness.stop()

    def test_drain_flushes_metrics(self, tmp_path):
        metrics_path = tmp_path / "metrics.prom"
        harness = ServerThread(metrics_out=str(metrics_path)).start()
        try:
            with ServerClient(*harness.address) as connection:
                connection.rpq("fig2", "Transfer")
        finally:
            harness.stop()
        text = metrics_path.read_text()
        assert "server_requests_total" in text


SERVE_SCRIPT = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]


class TestSigtermSubprocess:
    def test_sigterm_drains_cleanly(self, tmp_path):
        """The full acceptance scenario: a real ``repro serve`` process,
        SIGTERM with a query in flight, the in-flight response delivered,
        metrics flushed, exit code 0."""
        metrics_path = tmp_path / "metrics.prom"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        process = subprocess.Popen(
            SERVE_SCRIPT + ["--metrics-out", str(metrics_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            announcement = json.loads(process.stdout.readline())
            assert announcement["event"] == "listening"
            port = announcement["port"]

            client = ServerClient("127.0.0.1", port)
            assert client.ping() == {"pong": True}
            assert client.rpq("fig2", "Transfer")["count"] > 0

            # fire a slow request, then SIGTERM while it is in flight
            result = {}

            def run_slow():
                result["value"] = client.sleep(1.0)

            worker = threading.Thread(target=run_slow)
            worker.start()
            time.sleep(0.3)
            process.send_signal(signal.SIGTERM)
            worker.join(timeout=15)
            assert result["value"] == {"slept": 1.0}
            client.close()

            assert process.wait(timeout=15) == 0
            assert "server_requests_total" in metrics_path.read_text()
        finally:
            if process.poll() is None:  # pragma: no cover - watchdog
                process.kill()
                process.wait()
