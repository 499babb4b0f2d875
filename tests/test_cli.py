"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import main
from repro.graph.serialize import dumps


class TestCLI:
    def test_rpq_fig2(self, capsys):
        assert main(["rpq", "fig2", "Transfer", "--source", "a3"]) == 0
        out = capsys.readouterr().out
        assert "a3\ta5" in out

    def test_crpq(self, capsys):
        assert (
            main(
                [
                    "crpq",
                    "fig2",
                    "q(x1,x2,x3) :- Transfer(x1,x2), Transfer(x1,x3), "
                    "Transfer(x2,x3)",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "a3\ta2\ta4" in out

    def test_paths(self, capsys):
        assert (
            main(["paths", "fig3", "Transfer+", "a3", "a5", "--mode", "shortest"])
            == 0
        )
        out = capsys.readouterr().out
        assert "a3 -> t7 -> a5" in out

    def test_dlrpq(self, capsys):
        assert (
            main(
                [
                    "dlrpq",
                    "fig3",
                    "(_)[Transfer][amount < 4500000](_)",
                    "a3",
                    "a4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "t6" in out

    def test_json_graph_file(self, tmp_path, capsys):
        from repro.graph.generators import label_path

        path = tmp_path / "graph.json"
        path.write_text(dumps(label_path(2)))
        assert main(["rpq", str(path), "a.a"]) == 0
        out = capsys.readouterr().out
        assert "v0\tv2" in out

    def test_experiment(self, capsys):
        assert main(["experiment", "E1"]) == 0
        out = capsys.readouterr().out
        assert "Example 12" in out

    def test_paths_limit(self, capsys):
        assert (
            main(
                [
                    "paths",
                    "fig3",
                    "Transfer*",
                    "a3",
                    "a3",
                    "--mode",
                    "all",
                    "--limit",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.count("\n") == 2

    def test_paths_max_rows_prints_exactly_n_and_exits_2(self, capsys):
        argv = ["paths", "fig3", "Transfer+", "a3", "a5", "--mode", "all",
                "--limit", "50"]
        assert main(argv + ["--max-rows", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out.count("\n") == 2
        assert "limit=max_rows, rows_so_far=2," in captured.err
        # a ceiling the answer fits under changes nothing
        assert main(argv) == 0
        full = capsys.readouterr().out
        assert main(argv + ["--max-rows", "50"]) == 0
        assert capsys.readouterr().out == full
        assert full.startswith(captured.out)

    @pytest.mark.parametrize("command", [
        ["rpq", "fig2", "Transfer*"],
        ["crpq", "fig2", "q(x,y) :- Transfer(x,y)"],
        ["paths", "fig3", "Transfer+", "a3", "a5"],
    ])
    @pytest.mark.parametrize("flag", [
        ["--max-rows", "3"], ["--timeout", "30"], ["--max-states", "9"], ["--stats"],
    ])
    def test_no_index_refuses_budget_and_stats_flags(self, command, flag, capsys):
        # the reference takes no budget and keeps no counters; exit 1, not
        # 2, because 2 means "partial answers"
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--no-index"] + flag)
        assert isinstance(excinfo.value.code, str)
        assert flag[0] in excinfo.value.code
        assert capsys.readouterr().out == ""

    def test_no_index_agrees_with_the_engine(self, capsys):
        for command in (
            ["rpq", "fig2", "Transfer*"],
            ["crpq", "fig2", 'q(x) :- (Transfer.Transfer*)(x, "a1")'],
            ["paths", "fig3", "Transfer+", "a3", "a5", "--mode", "trail"],
        ):
            assert main(command) == 0
            engine = capsys.readouterr().out
            assert main(command + ["--no-index"]) == 0
            assert capsys.readouterr().out == engine

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate", "fig2"])

    def test_dlrpq_honours_max_rows(self, capsys):
        argv = ["dlrpq", "fig3", "(_)([Transfer^z](_))*", "a3", "a5",
                "--mode", "trail"]
        assert main(argv) == 0
        full = capsys.readouterr().out.splitlines()
        assert len(full) > 3
        assert main(argv + ["--max-rows", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == full[:3]
        assert "limit=max_rows, rows_so_far=3," in captured.err


#: Inputs every local query verb once crashed on, with the typed code each
#: now reports.
BAD_INPUTS = [
    (["rpq", "fig2", "Transfer*("], "parse_error"),
    (["crpq", "fig2", "q(x) :- Transfer(x"], "parse_error"),
    (["dlrpq", "fig3", "(_)[Transfer", "a3", "a4"], "parse_error"),
    (["paths", "fig3", "Transfer*", "a3", "a3", "--mode", "all"], "query_error"),
    (["paths", "fig3", "Transfer+", "a3", "a5", "--limit", "-1"], "bad_request"),
    (["dlrpq", "fig2", "(_)[Transfer](_)", "a3", "a4"], "bad_request"),
    (["rpq", "fig2", "Transfer*", "--timeout", "0"], "bad_request"),
    (["rpq", "fig2", "Transfer*", "--max-states", "0"], "bad_request"),
    (["rpq", "fig2", "Transfer*", "--max-rows", "-1"], "bad_request"),
]


class TestTypedErrors:
    """A bad query or flag is one ``error [code]: message`` line, exit 1."""

    @pytest.mark.parametrize(
        "argv,code", BAD_INPUTS, ids=[" ".join(argv) for argv, _ in BAD_INPUTS]
    )
    def test_no_traceback(self, argv, code, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error [{code}]: ")

    def test_process_exit_code_and_no_traceback(self):
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        done = subprocess.run(
            [sys.executable, "-m", "repro", "rpq", "fig2", "Transfer*("],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error [parse_error]: ")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("command", [
        ["rpq", "{}", "Transfer"],
        ["crpq", "{}", "q(x) :- Transfer(x,y)"],
        ["paths", "{}", "Transfer", "a3", "a5"],
        ["dlrpq", "{}", "(_)[Transfer](_)", "a3", "a5"],
        ["explain", "{}", "Transfer"],
        ["profile", "{}", "Transfer"],
        ["workload", "run", "{}"],
    ], ids=lambda command: command[0])
    @pytest.mark.parametrize("contents", [None, "{not json", "[1]"],
                             ids=["missing", "not-json", "not-a-graph"])
    def test_unloadable_graph_file(self, command, contents, tmp_path, capsys):
        path = tmp_path / "graph.json"
        if contents is not None:
            path.write_text(contents)
        argv = [str(path) if part == "{}" else part for part in command]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = excinfo.value.code
        assert isinstance(message, str)
        assert message.startswith(f"error: cannot load graph {str(path)!r}: ")
        assert "\n" not in message
        assert capsys.readouterr().out == ""

    def test_workload_budget_out_of_range(self, capsys):
        assert main(["workload", "run", "fig2", "--timeout", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error [bad_request]: ")
        assert len(captured.err.splitlines()) == 1

    def test_unreachable_server(self, capsys):
        import socket

        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        dead_port = placeholder.getsockname()[1]
        placeholder.close()  # nothing listens there now
        address = f"127.0.0.1:{dead_port}"
        assert main(["query", "--connect", address, "fig2", "Transfer*"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot reach server {address}: ")
        assert len(err.splitlines()) == 1


class TestExplainCLI:
    CRPQ = "q(x,y) :- Transfer(x,y), Transfer(y,x)"

    def test_explain_crpq_prints_plan_with_estimates(self, capsys):
        assert main(["explain", "fig2", self.CRPQ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("CRPQ ")
        assert "planner: cost" in out
        assert "est_cost=" in out and "est_pairs=" in out

    def test_explain_rpq(self, capsys):
        assert main(["explain", "fig2", "Transfer*"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("RPQ Transfer*")
        assert "automaton:" in out
        assert "access=full" in out

    def test_explain_json(self, capsys):
        assert main(["explain", "fig2", self.CRPQ, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "crpq"
        assert all("estimated_cost" in step for step in report["steps"])

    def test_explain_greedy_planner(self, capsys):
        assert main(["explain", "fig2", self.CRPQ, "--planner", "greedy"]) == 0
        assert "planner: greedy" in capsys.readouterr().out

    def test_profile_prints_span_tree_and_stats(self, capsys):
        assert main(["profile", "fig2", self.CRPQ]) == 0
        captured = capsys.readouterr()
        assert "crpq.evaluate" in captured.out
        assert "crpq.atom" in captured.out
        assert "actual_cardinality" in captured.out
        assert "engine stats:" in captured.err

    def test_profile_json(self, capsys):
        assert main(["profile", "fig2", "Transfer*", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "rpq"
        assert report["spans"][0]["name"] == "rpq.evaluate"
        assert "derived" in report["stats"]


class TestMismatchDetail:
    def test_first_result_mismatch_names_query_and_answer(self):
        from repro.cli import _first_result_mismatch

        log = [("shape", "a.b"), ("shape", "c*")]
        expected = [{("v0", "v1")}, {("v2", "v2"), ("v2", "v3")}]
        actual = [{("v0", "v1")}, {("v2", "v2")}]
        detail = _first_result_mismatch(log, expected, actual)
        assert "query #1" in detail
        assert "c*" in detail
        assert "('v2', 'v3')" in detail
        assert "missing from batch" in detail
        assert "seed=2 answers, batch=1" in detail

    def test_extra_answer_reported_from_batch_side(self):
        from repro.cli import _first_result_mismatch

        detail = _first_result_mismatch(["a"], [set()], [{("v0", "v1")}])
        assert "extra in batch" in detail
        assert "seed=0 answers, batch=1" in detail


class TestWorkloadCLI:
    def test_workload_run_random(self, capsys):
        assert (
            main(
                [
                    "workload",
                    "run",
                    "random",
                    "--queries",
                    "25",
                    "--nodes",
                    "30",
                    "--edges",
                    "90",
                    "--baseline",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["mode"] == "batch"
        assert report["num_queries"] == 25
        assert report["num_unique"] <= 25
        assert report["speedup_vs_seed"] > 0

    def test_workload_run_fig2_with_stats(self, capsys):
        assert (
            main(
                [
                    "workload",
                    "run",
                    "fig2",
                    "--queries",
                    "10",
                    "--stats",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert "engine_stats" in report
        assert "engine stats:" in captured.err

    def test_workload_trace_out_and_slow_log(self, tmp_path, capsys):
        trace_path = tmp_path / "traces.jsonl"
        assert (
            main(
                [
                    "workload",
                    "run",
                    "fig2",
                    "--queries",
                    "12",
                    "--trace-out",
                    str(trace_path),
                    "--slow-log",
                    "3",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        digest = json.loads(captured.out)
        assert digest["trace_out"] == str(trace_path)
        assert len(digest["slow_queries"]) == 3
        assert digest["query_latency"]["count"] == digest["num_unique"]
        lines = trace_path.read_text().splitlines()
        assert len(lines) == digest["num_unique"]
        for line in lines:
            entry = json.loads(line)
            assert entry["trace"]["name"] == "batch.query"
            assert entry["trace"]["attributes"]["query"] == entry["query"]
        assert "query traces" in captured.err

    def test_workload_metrics_out(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.prom"
        assert (
            main(
                [
                    "workload",
                    "run",
                    "fig2",
                    "--queries",
                    "8",
                    "--metrics-out",
                    str(metrics_path),
                ]
            )
            == 0
        )
        digest = json.loads(capsys.readouterr().out)
        assert digest["metrics_out"] == str(metrics_path)
        text = metrics_path.read_text()
        assert "# TYPE repro_query_latency_seconds histogram" in text
        assert 'repro_query_latency_seconds_bucket{le="+Inf"}' in text


class TestWorkloadInterrupt:
    """Ctrl-C during ``workload run`` flushes partial telemetry, exits 130."""

    def _patch_interrupt(self, monkeypatch, allow):
        from repro.engine.batch import BatchExecutor

        original = BatchExecutor._evaluate_one
        calls = {"n": 0}

        def flaky(self, graph, compiled_query, source, stats):
            calls["n"] += 1
            if calls["n"] > allow:
                raise KeyboardInterrupt
            return original(self, graph, compiled_query, source, stats)

        monkeypatch.setattr(BatchExecutor, "_evaluate_one", flaky)

    def test_interrupt_exits_130_and_flushes_metrics(
        self, tmp_path, monkeypatch, capsys
    ):
        self._patch_interrupt(monkeypatch, allow=3)
        metrics_path = tmp_path / "metrics.prom"
        code = main(
            [
                "workload",
                "run",
                "fig2",
                "--queries",
                "20",
                "--metrics-out",
                str(metrics_path),
            ]
        )
        assert code == 130
        captured = capsys.readouterr()
        digest = json.loads(captured.out)
        assert digest["interrupted"] is True
        assert digest["num_completed"] >= 1
        assert "interrupted: partial telemetry flushed" in captured.err
        text = metrics_path.read_text()
        # the histogram holds exactly the completed observations
        assert "repro_query_latency_seconds" in text

    def test_interrupt_flushes_partial_traces(
        self, tmp_path, monkeypatch, capsys
    ):
        self._patch_interrupt(monkeypatch, allow=2)
        trace_path = tmp_path / "traces.jsonl"
        code = main(
            [
                "workload",
                "run",
                "fig2",
                "--queries",
                "20",
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 130
        captured = capsys.readouterr()
        lines = trace_path.read_text().splitlines()
        assert len(lines) == 2  # one trace per completed query
        for line in lines:
            entry = json.loads(line)
            assert entry["trace"]["name"] == "batch.query"
        assert "wrote 2 query traces" in captured.err

    def test_immediate_interrupt_still_flushes(self, monkeypatch, capsys, tmp_path):
        """An interrupt before any query completes still exits 130 with a
        digest and a (near-empty) metrics file."""
        self._patch_interrupt(monkeypatch, allow=0)
        metrics_path = tmp_path / "metrics.prom"
        code = main(
            [
                "workload",
                "run",
                "fig2",
                "--queries",
                "5",
                "--metrics-out",
                str(metrics_path),
            ]
        )
        assert code == 130
        digest = json.loads(capsys.readouterr().out)
        assert digest["interrupted"] is True
        assert metrics_path.exists()


class TestQueryConnectCLI:
    """``repro query --connect`` against an in-process server."""

    @pytest.fixture(scope="class")
    def server(self):
        from repro.server.app import ServerThread

        with ServerThread() as harness:
            yield harness

    def _connect(self, server):
        host, port = server.address
        return f"{host}:{port}"

    def test_rpq_over_the_wire(self, server, capsys):
        code = main(
            ["query", "--connect", self._connect(server), "fig2", "Transfer",
             "--source", "a3"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "a3\ta5" in captured.out
        assert "answers" in captured.err

    def test_crpq_detected_by_syntax(self, server, capsys):
        code = main(
            ["query", "--connect", self._connect(server), "fig2",
             "Ans(x, y) :- Transfer(x, y)", "--json"]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["op"] == "crpq" and result["count"] > 0

    def test_explain_over_the_wire(self, server, capsys):
        code = main(
            ["query", "--connect", self._connect(server), "fig2", "Transfer+",
             "--explain"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["op"] == "explain"

    def test_server_error_exits_1(self, server, capsys):
        code = main(
            ["query", "--connect", self._connect(server), "ghost", "Transfer"]
        )
        assert code == 1
        assert "graph_not_found" in capsys.readouterr().err

    def test_server_and_local_errors_read_alike(self, server, capsys):
        assert main(["rpq", "fig2", "Transfer*("]) == 1
        local = capsys.readouterr().err
        code = main(
            ["query", "--connect", self._connect(server), "fig2", "Transfer*("]
        )
        assert code == 1
        assert capsys.readouterr().err == local

    @pytest.mark.parametrize(
        "flag",
        [
            ["--trace-out", "trace.jsonl"], ["--replicated"],
            ["--partition", "hash"], ["--slow-round-ms", "1"],
            ["--hedge-after", "0.5"], ["--allow-degraded"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_fleet_only_flags_are_refused(self, server, flag, tmp_path, capsys):
        """A flag only a ``--shards`` run reads is a typed error naming it,
        exit 1, not silently ignored."""
        argv = ["query", "--connect", self._connect(server), "fig2", "Transfer*"]
        if flag[0] == "--trace-out":
            flag = [flag[0], str(tmp_path / flag[1])]
        assert main(argv + flag) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error [bad_request]: {flag[0]} ")
        assert len(captured.err.splitlines()) == 1
        assert not (tmp_path / "trace.jsonl").exists()

    def test_budget_trip_reports_like_a_local_one(self, server, capsys):
        argv = ["fig3", "Transfer*", "--max-rows", "0"]
        assert main(["rpq"] + argv) == 2
        local = capsys.readouterr()
        code = main(["query", "--connect", self._connect(server)] + argv)
        assert code == 2
        remote = capsys.readouterr()
        assert remote.out == local.out == ""
        # the server's budget always has a deadline, so it also reports
        # elapsed_seconds
        trip = re.compile(
            r"# budget exceeded \((elapsed_seconds=[0-9.e-]+, )?limit=max_rows, "
            r"rows_so_far=0, states_visited=\d+\); answers above are partial\n"
        )
        assert trip.fullmatch(local.err)
        assert trip.fullmatch(remote.err)
        assert "elapsed_seconds" in remote.err


class TestServeBindFailure:
    """``repro serve`` on a taken port: one-line error, nonzero exit."""

    def test_busy_port_exits_1_with_one_line_error(self, capsys):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            code = main(["serve", "--port", str(port)])
        finally:
            blocker.close()
        assert code == 1
        err = capsys.readouterr().err.strip()
        # Exactly one line, naming the address — no traceback.
        assert len(err.splitlines()) == 1
        assert f"cannot bind 127.0.0.1:{port}" in err
        assert "Traceback" not in err


class TestQueryShardsCLI:
    """``repro query --shards`` distributes a graph and scatter-gathers."""

    @pytest.fixture(scope="class")
    def fleet(self):
        from repro.server.app import ServerThread

        servers = [ServerThread().start() for _ in range(2)]
        yield ",".join(f"{host}:{port}" for host, port in
                       (server.address for server in servers))
        for server in servers:
            server.stop()

    def test_rpq_matches_local_evaluation(self, fleet, capsys):
        code = main(["query", "--shards", fleet, "fig2", "Transfer*"])
        assert code == 0
        captured = capsys.readouterr()
        from repro.graph.datasets import figure2_graph
        from repro.rpq.evaluation import evaluate_rpq

        want = evaluate_rpq("Transfer*", figure2_graph())
        assert f"# {len(want)} answers" in captured.err
        got = {
            tuple(line.split("\t"))
            for line in captured.out.splitlines()
            if line
        }
        assert got == {(str(s), str(t)) for s, t in want}

    def test_replicated_mode(self, fleet, capsys):
        code = main(
            ["query", "--shards", fleet, "--replicated", "fig2",
             "Transfer Transfer"]
        )
        assert code == 0
        assert "answers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "layout", [[], ["--replicated"]], ids=["partitioned", "replicated"]
    )
    def test_max_rows_trip_prints_exactly_n_and_exits_2(self, fleet, layout, capsys):
        code = main(
            ["query", "--shards", fleet, *layout, "fig2", "Transfer*",
             "--max-rows", "3"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 3
        assert "rows_so_far=3" in captured.err
        assert "limit=max_rows" in captured.err

    @pytest.mark.parametrize(
        "layout", [[], ["--replicated"]], ids=["partitioned", "replicated"]
    )
    def test_max_rows_zero_prints_no_rows(self, fleet, layout, capsys):
        code = main(
            ["query", "--shards", fleet, *layout, "fig2", "Transfer*",
             "--max-rows", "0"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rows_so_far=0" in captured.err

    def test_crpq_over_shards(self, fleet, capsys):
        code = main(
            ["query", "--shards", fleet, "fig2",
             "Ans(x, y) :- Transfer(x, y), Transfer*(y, x)", "--json"]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        from repro.crpq.evaluation import evaluate_crpq
        from repro.graph.datasets import figure2_graph

        want = evaluate_crpq(
            "Ans(x, y) :- Transfer(x, y), Transfer*(y, x)", figure2_graph()
        )
        assert result["count"] == len(want) > 0

    def test_rpq_json_is_the_result_dict(self, fleet, capsys):
        code = main(["query", "--shards", fleet, "fig2", "Transfer*", "--json"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        from repro.graph.datasets import figure2_graph
        from repro.rpq.evaluation import evaluate_rpq

        want = evaluate_rpq("Transfer*", figure2_graph())
        assert result["op"] == "rpq"
        assert {tuple(pair) for pair in result["pairs"]} == want
        assert result["count"] == len(want)

    def test_explain_on_replicas_prints_the_plan(self, fleet, capsys):
        code = main(
            ["query", "--shards", fleet, "--replicated", "fig2", "Transfer*",
             "--explain"]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["op"] == "explain"
        assert result["report"]["kind"] == "rpq"

    def test_explain_on_partitions_is_a_bad_request(self, fleet, capsys):
        code = main(
            ["query", "--shards", fleet, "fig2", "Transfer*", "--explain"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error [bad_request]: ")
        assert "partitioned" in captured.err and "'explain'" in captured.err

    def test_unreachable_fleet_exits_1(self, capsys):
        import socket

        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        dead_port = placeholder.getsockname()[1]
        placeholder.close()  # nothing listens there now
        code = main(
            ["query", "--shards", f"127.0.0.1:{dead_port}", "fig2", "Transfer"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_connect_and_shards_are_exclusive(self):
        with pytest.raises(SystemExit):
            main(
                ["query", "--connect", "127.0.0.1:1", "--shards",
                 "127.0.0.1:2", "fig2", "Transfer"]
            )
