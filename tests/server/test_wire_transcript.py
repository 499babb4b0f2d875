"""Golden wire transcript: the protocol's bytes do not drift.

``wire_transcript.jsonl`` (beside this file) holds one exchange per line:
a request line sent to a fresh :class:`ServerThread` over JSON lines or as
the body of ``POST /query``, and what came back.  The script covers every
op in :data:`~repro.server.protocol.OPS`, well formed, on both transports,
then malformed requests.  Replaying it must give:

* for a well-formed request, the same response text after masking what
  varies from run to run (``uptime_seconds``, ``pid``, timer counters and
  histogram values; a histogram keeps its ``count``, except one a timer
  feeds, :data:`CLOCKED`);
* for a malformed one, the same ``error.code``, and the same
  ``details.param`` where the transcript names one.

The replay runs in a fresh interpreter with a fixed hash seed, so
process-wide state (the compile cache, engine counters) starts from zero
exactly as it did when the transcript was recorded.  To record it again::

    PYTHONPATH=src python tests/server/test_wire_transcript.py record
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
TRANSCRIPT = os.path.join(HERE, "wire_transcript.jsonl")
MASK = "<masked>"

#: Histograms a timer feeds: how many samples they hold follows the clock.
CLOCKED = ("server_loop_lag_seconds",)


def build_script() -> list[dict]:
    """The exchanges to record: ``{transport, request, malformed}``."""
    from repro.distributed.frontier import (
        automaton_plan,
        encode_mask,
        encode_pairs,
        node_order,
    )
    from repro.graph.datasets import figure2_graph
    from repro.graph.edge_labeled import EdgeLabeledGraph
    from repro.graph.serialize import graph_to_dict

    toy = EdgeLabeledGraph()
    toy.add_edge("e1", "x", "y", "a")
    toy.add_edge("e2", "y", "z", "a")
    fig2 = figure2_graph()
    alphabet = sorted(set(fig2.labels) | {"Transfer"}, key=repr)
    plan = automaton_plan("Transfer+", alphabet)
    order = node_order(fig2)
    seed = order.index("a3") << plan.state_bits
    frontier_step = {
        "graph": "fig2",
        "query": "Transfer+",
        "frontier": encode_pairs({seed | state: 1 for state in plan.initial}),
        "owned": encode_mask((1 << len(order)) - 1),
        "state_bits": plan.state_bits,
        "alphabet": alphabet,
        "round": 1,
    }
    crpq = "Ans(x, y) :- Transfer(x, y), Transfer(y, x)"
    dl = "(_) ([Transfer](_))* [Transfer][amount < 4500000](_) ([Transfer](_))*"

    def well_formed(tag: str) -> list[tuple[str, dict]]:
        return [
            ("ping", {}),
            ("graphs.list", {}),
            ("graphs.upload", {"name": f"toy-{tag}", "graph": graph_to_dict(toy)}),
            ("graphs.mutate", {"graph": f"toy-{tag}", "edits": [
                {"kind": "add_node", "id": "w"},
                {"kind": "add_edge", "id": "e3", "src": "z", "tgt": "w", "label": "a"},
            ]}),
            ("rpq", {"graph": f"toy-{tag}", "query": "a a"}),
            ("rpq", {"graph": "fig2", "query": "Transfer*"}),
            ("rpq", {"graph": "fig2", "query": "Transfer*"}),
            ("rpq", {"graph": "fig2", "query": "Transfer+", "source": "a3",
                     "timeout": 20, "max_rows": 1000, "max_states": 100000}),
            ("crpq", {"graph": "fig2", "query": crpq}),
            ("crpq", {"graph": "fig2", "query": crpq, "planner": "greedy"}),
            ("dlrpq", {"graph": "fig3", "query": dl, "source": "a3",
                       "target": "a5", "limit": 5}),
            ("paths", {"graph": "fig2", "query": "Transfer+", "source": "a3",
                       "target": "a5", "mode": "simple", "limit": 10}),
            ("paths", {"graph": "fig2", "query": "Transfer+", "source": "a3",
                       "target": "a5"}),
            ("explain", {"graph": "fig2", "query": crpq}),
            ("explain", {"graph": "fig2", "query": "Transfer+", "planner": "greedy"}),
            ("frontier_step", frontier_step),
            ("sleep", {"seconds": 0.01}),
            ("health", {}),
            ("cluster_metrics", {}),
            ("stats", {}),
        ]

    malformed = [
        ("paths", {"graph": "fig2", "query": "Transfer+", "source": "a3",
                   "target": "a5", "limit": "3"}),
        ("paths", {"graph": "fig2", "query": "Transfer+", "source": ["a3"],
                   "target": "a5"}),
        ("dlrpq", {"graph": "fig3", "query": dl, "source": "a3", "target": "a5",
                   "limit": -1}),
        ("rpq", {"graph": "fig2"}),
        ("rpq", {"query": "Transfer"}),
        ("rpq", {"graph": "fig2", "query": 3}),
        ("rpq", {"graph": "fig2", "query": "Transfer", "timeout": -1}),
        ("rpq", {"graph": "fig2", "query": "Transfer", "max_rows": "x"}),
        ("rpq", {"graph": "fig2", "query": "Transfer", "max_states": 0}),
        ("rpq", {"graph": "fig2", "query": "Transfer", "trace": "x"}),
        ("rpq", {"graph": "ghost", "query": "Transfer"}),
        ("rpq", {"graph": "fig2", "query": "((broken"}),
        ("paths", {"graph": "fig2", "query": "Transfer+", "source": "a3",
                   "target": "a5", "mode": "bogus"}),
        ("dlrpq", {"graph": "fig2", "query": dl, "source": "a3", "target": "a5"}),
        ("frontier_step", {**frontier_step, "state_bits": -1}),
        ("frontier_step", {**frontier_step, "alphabet": "Transfer"}),
        ("frontier_step", {**frontier_step, "frontier": {"codes": [1]}}),
        ("graphs.upload", {"name": "nope", "graph": "not-a-document"}),
        ("graphs.upload", {"graph": graph_to_dict(toy)}),
        ("graphs.mutate", {"graph": "fig2", "edits": "not-a-list"}),
        ("graphs.mutate", {"graph": "fig2", "edits": [{"kind": "add_edge", "id": "t"}]}),
        ("graphs.mutate", {"graph": "fig2", "edits": [{"kind": "sideways"}]}),
        ("sleep", {"seconds": -1}),
        ("drop_tables", {}),
    ]

    script = []
    for transport in ("jsonl", "http"):
        for number, (op, params) in enumerate(well_formed(transport)):
            line = json.dumps({"op": op, "id": f"{transport}-{number}", "params": params})
            script.append({"transport": transport, "request": line, "malformed": False})
    for transport in ("jsonl", "http"):
        for number, (op, params) in enumerate(malformed):
            line = json.dumps({"op": op, "id": f"bad-{transport}-{number}", "params": params})
            script.append({"transport": transport, "request": line, "malformed": True})
        script.append({"transport": transport, "request": "this is not json", "malformed": True})
    return script


def mask(value):
    """``value`` with what varies from run to run replaced by :data:`MASK`."""
    if isinstance(value, list):
        return [mask(item) for item in value]
    if not isinstance(value, dict):
        return value
    masked = {}
    for key, item in value.items():
        if key in ("uptime_seconds", "pid") or (
            key.endswith("_seconds") and isinstance(item, float)
        ):
            masked[key] = MASK
        elif key == "histograms" and isinstance(item, dict):
            masked[key] = {
                name: {
                    "count": MASK if name in CLOCKED else histogram.get("count"),
                    "values": MASK,
                }
                for name, histogram in item.items()
            }
        else:
            masked[key] = mask(item)
    return masked


def replay(script: list[dict]) -> list[dict]:
    """Send every exchange of ``script`` to a fresh server, in order.

    Whether a read spills from the event loop to the worker pool follows
    the clock (a module's first import, a descheduled thread), and the
    ``stats`` bodies count spills; the allowance is pinned far above any
    read here, so every read answers on the loop, as on a quiet host."""
    from repro.server import app
    from repro.server.app import ServerThread

    app._SPILL_ALLOWANCE = 60.0

    answers = []
    with ServerThread() as harness:
        host, port = harness.address
        with socket.create_connection((host, port), timeout=30) as sock:
            stream = sock.makefile("rwb")
            for exchange in script:
                line = exchange["request"]
                if exchange["transport"] == "jsonl":
                    stream.write(line.encode("utf-8") + b"\n")
                    stream.flush()
                    status, text = None, stream.readline().decode("utf-8")
                else:
                    connection = http.client.HTTPConnection(host, port, timeout=30)
                    try:
                        connection.request(
                            "POST", "/query", body=line.encode("utf-8"),
                            headers={"Content-Type": "application/json"},
                        )
                        response = connection.getresponse()
                        status = response.status
                        text = response.read().decode("utf-8")
                    finally:
                        connection.close()
                answers.append(_observed(exchange, status, json.loads(text)))
    return answers


def _observed(exchange: dict, status, response: dict) -> dict:
    """What the transcript holds of one exchange."""
    observed = {"transport": exchange["transport"], "request": exchange["request"]}
    if status is not None:
        observed["status"] = status
    if not exchange["malformed"]:
        observed["response"] = json.dumps(mask(response))
        return observed
    error = response["error"]
    observed["malformed"] = True
    observed["code"] = error["code"]
    param = error.get("details", {}).get("param")
    if param is not None:
        observed["param"] = param
    return observed


def replay_in_fresh_process(script: list[dict]) -> list[dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + ROOT
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_FAULTS", None)
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "replay"],
        input=json.dumps(script),
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=True,
    )
    return json.loads(completed.stdout)


def load_transcript() -> list[dict]:
    with open(TRANSCRIPT, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


@pytest.fixture(scope="module")
def exchanges():
    recorded = load_transcript()
    script = [
        {
            "transport": entry["transport"],
            "request": entry["request"],
            "malformed": entry.get("malformed", False),
        }
        for entry in recorded
    ]
    return list(zip(recorded, replay_in_fresh_process(script)))


def test_covers_every_op_on_both_transports():
    from repro.server.protocol import OPS

    for transport in ("jsonl", "http"):
        sent = {
            json.loads(entry["request"])["op"]
            for entry in load_transcript()
            if entry["transport"] == transport and not entry.get("malformed")
        }
        assert sent == set(OPS)


def test_well_formed_responses_match_after_masking(exchanges):
    for recorded, observed in exchanges:
        if recorded.get("malformed"):
            continue
        assert observed.get("status") == recorded.get("status"), recorded["request"]
        assert observed["response"] == recorded["response"], recorded["request"]


def test_malformed_requests_keep_their_code_and_param(exchanges):
    for recorded, observed in exchanges:
        if not recorded.get("malformed"):
            continue
        assert observed["code"] == recorded["code"], recorded["request"]
        assert observed.get("status") == recorded.get("status"), recorded["request"]
        if "param" in recorded:
            assert observed.get("param") == recorded["param"], recorded["request"]


def _main(argv: list[str]) -> None:
    if argv[:1] == ["replay"]:
        json.dump(replay(json.load(sys.stdin)), sys.stdout)
    elif argv[:1] == ["record"]:
        answers = replay_in_fresh_process(build_script())
        with open(TRANSCRIPT, "w", encoding="utf-8") as handle:
            for answer in answers:
                handle.write(json.dumps(answer) + "\n")
        print(f"recorded {len(answers)} exchanges to {TRANSCRIPT}", file=sys.stderr)
    else:
        raise SystemExit("usage: test_wire_transcript.py record|replay")


if __name__ == "__main__":
    _main(sys.argv[1:])
