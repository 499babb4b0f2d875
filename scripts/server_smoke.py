"""CI smoke check for the query service, end to end as a real process.

Launches ``repro serve`` as a subprocess, uploads a graph, runs an RPQ and
a CRPQ through the client, resends the RPQ with ``timeout: 30`` (a budget
limit is not part of the answer's cache key, so ``stats`` must show one
more hit and no new miss) and with ``max_rows: 1`` (the warm answer must
trip as ``budget_exceeded`` with exactly one partial row), then on a
random graph one single-source miss
(answered on the event loop) and one full-relation RPQ heavy enough to
spill to the worker pool, both checked against the library evaluator.  It
sends a ``POST /query`` with a malformed ``Content-Length`` (must get a
400), scrapes the HTTP facade (``/healthz`` and ``/metrics``, which must
show a spill and the loop-lag histogram), then SIGTERMs the server and
asserts a clean drain: exit code 0 and the metrics file flushed.  Exits
non-zero on any deviation.

Run locally with::

    PYTHONPATH=src python scripts/server_smoke.py
"""

import json
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def fail(message: str) -> None:
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    sys.exit(1)


#: A full-relation RPQ on the random graph below: ~10 ms of product BFS,
#: several times the server's spill allowance.
HEAVY_QUERY = "p0 p1 p2 p3"


def expected_pairs(graph, query: str, source=None) -> list:
    """The library's answer in the wire's pair order."""
    from repro.rpq.evaluation import evaluate_rpq

    pairs = evaluate_rpq(query, graph, sources=None if source is None else [source])
    return sorted(([s, t] for s, t in pairs), key=repr)


def post_with_length(host: str, port: int, length: str) -> int:
    """The HTTP status of a ``POST /query`` declaring ``length``."""
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(
            f"POST /query HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
            .encode("latin-1")
        )
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return int(reply.split(None, 2)[1]) if reply else 0


def main() -> None:
    from repro.graph.datasets import figure2_graph
    from repro.graph.generators import random_graph
    from repro.server.client import ServerClient, ServerError, http_get

    metrics_path = Path(tempfile.mkdtemp()) / "metrics.prom"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--metrics-out", str(metrics_path),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        announcement = json.loads(process.stdout.readline())
        if announcement.get("event") != "listening":
            fail(f"unexpected announcement: {announcement}")
        host, port = announcement["host"], announcement["port"]
        print(f"server listening on {host}:{port}")

        with ServerClient(host, port) as client:
            if client.ping() != {"pong": True}:
                fail("ping did not pong")

            info = client.upload_graph("smoke", figure2_graph())
            print(f"uploaded 'smoke': {info['nodes']} nodes, "
                  f"{info['edges']} edges")

            rpq = client.rpq("smoke", "Transfer+")
            if rpq["count"] <= 0:
                fail("rpq returned no answers")
            print(f"rpq Transfer+: {rpq['count']} pairs")
            if client.rpq("smoke", "Transfer+") != rpq:
                fail("cached rpq answer differs")
            before = client.stats()["answer_cache"]
            if client.rpq("smoke", "Transfer+", timeout=30) != rpq:
                fail("rpq with a timeout answered differently")
            after = client.stats()["answer_cache"]
            if (after["hits"], after["misses"]) != (before["hits"] + 1, before["misses"]):
                fail(f"rpq with a timeout missed the cache: {before} -> {after}")
            try:
                client.rpq("smoke", "Transfer+", max_rows=1)
                fail("rpq with max_rows 1 did not trip on the cached answer")
            except ServerError as exc:
                partial = exc.details.get("partial")
                if exc.code != "budget_exceeded" or len(partial or ()) != 1:
                    fail(f"rpq with max_rows 1: [{exc.code}] {exc.details}")
            print("timeout 30 -> cache hit; max_rows 1 -> budget_exceeded, 1 row")

            crpq = client.crpq("smoke", "Ans(x, y) :- Transfer(x, y), owner(y, z)")
            if crpq["count"] <= 0:
                fail("crpq returned no answers")
            print(f"crpq: {crpq['count']} rows")

            graph = random_graph(1000, 8000, labels=("p0", "p1", "p2", "p3"), seed=7)
            client.upload_graph("random", graph)
            miss = client.rpq("random", "p0 p1", "v1")
            if miss["pairs"] != expected_pairs(graph, "p0 p1", "v1"):
                fail("single-source rpq miss answered wrongly")
            heavy = client.rpq("random", HEAVY_QUERY)
            if heavy["pairs"] != expected_pairs(graph, HEAVY_QUERY):
                fail("spilled full-relation rpq answered wrongly")
            print(f"rpq miss: {miss['count']} pairs; "
                  f"full-relation {HEAVY_QUERY}: {heavy['count']} pairs")

        status = post_with_length(host, port, "abc")
        if status != 400:
            fail(f"POST /query with Content-Length: abc got {status}, not 400")
        print("malformed Content-Length -> 400")

        status, body = http_get(host, port, "/healthz")
        health = json.loads(body)
        if status != 200 or health["status"] != "ok":
            fail(f"/healthz: {status} {body}")
        print(f"/healthz: {health}")

        status, body = http_get(host, port, "/metrics")
        if status != 200:
            fail(f"/metrics: {status}")
        if "repro_server_requests_total" not in body:
            fail("/metrics missing server_requests_total")
        spills = re.search(r"^repro_server_spills_total (\d+)", body, re.M)
        if spills is None or int(spills.group(1)) < 1:
            fail("/metrics shows no spill to the worker pool")
        if "# TYPE repro_server_loop_lag_seconds histogram" not in body:
            fail("/metrics missing the server_loop_lag_seconds histogram")
        print(f"/metrics: {len(body.splitlines())} exposition lines")

        process.send_signal(signal.SIGTERM)
        code = process.wait(timeout=30)
        if code != 0:
            fail(f"server exited {code} after SIGTERM "
                 f"(stderr: {process.stderr.read()[-2000:]})")
        if "server_requests_total" not in metrics_path.read_text():
            fail("metrics file not flushed on drain")
        print("SIGTERM -> clean drain, exit 0, metrics flushed")
        print("SMOKE OK")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()


if __name__ == "__main__":
    main()
