"""Golden CLI dump: the local query verbs print what they always printed.

``cli_dump.jsonl`` (beside this file) holds one line per invocation of
``repro rpq|crpq|paths|dlrpq|explain``: its argv, exit code, stdout and
stderr, with wall-clock figures masked (:func:`mask`).  Each case runs
in-process through :func:`repro.cli.main` with the compile cache emptied
first, so ``--stats`` counters read as they do in a fresh process.

Only cases whose output does not follow the hash seed are kept: a
``--max-rows`` trip of an RPQ or CRPQ keeps whichever rows its set
produced first.  Recording runs the cases under each of :data:`SEEDS`
(one interpreter per seed) and keeps the cases that printed the same
bytes under all of them.  To record the dump again::

    PYTHONPATH=src python tests/test_cli_dump.py record
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
DUMP = os.path.join(HERE, "cli_dump.jsonl")

#: the ``PYTHONHASHSEED`` values a case must print the same bytes under
SEEDS = ("0", "1", "2", "3")

_CYCLE = 'q(x,y) :- Transfer(x,y), Transfer(y,x)'
_TRIANGLE = "q(x1,x2,x3) :- Transfer(x1,x2), Transfer(x1,x3), Transfer(x2,x3)"
_BACKWARD = 'q(x) :- (Transfer.Transfer*)(x, "a1")'
_LISTS = "(_)([Transfer^z](_))*"
_CHEAP = "(_)[Transfer][amount < 4500000](_)"

CASES = (
    ["rpq", "fig2", "Transfer*"],
    ["rpq", "fig2", "Transfer*", "--no-index"],
    ["rpq", "fig2", "Transfer", "--source", "a3"],
    ["rpq", "fig2", "Transfer.Transfer", "--source", "a3", "--no-index"],
    ["rpq", "fig2", "owner + Transfer.owner"],
    ["rpq", "fig2", "Transfer*", "--stats"],
    ["rpq", "fig2", "Transfer*", "--timeout", "30"],
    ["rpq", "fig2", "Transfer*", "--max-rows", "100"],
    ["rpq", "fig2", "Transfer*", "--max-rows", "3"],
    ["rpq", "fig2", "Transfer*", "--max-rows", "0"],
    ["rpq", "fig2", "Transfer*", "--max-states", "1"],
    ["rpq", "fig2", "Transfer*", "--source", "a3", "--max-states", "2"],
    ["rpq", "fig2", "Nothing"],
    ["rpq", "fig3", "Transfer+", "--source", "a1"],
    ["crpq", "fig2", _TRIANGLE],
    ["crpq", "fig2", _BACKWARD],
    ["crpq", "fig2", _BACKWARD, "--no-index"],
    ["crpq", "fig2", _CYCLE, "--stats"],
    ["crpq", "fig2", _CYCLE, "--max-rows", "100"],
    ["crpq", "fig2", _CYCLE, "--max-rows", "2"],
    ["crpq", "fig2", "q(x) :- Transfer(x,y)"],
    ["crpq", "fig2", "q(x) :- Transfer(x,y)", "--max-rows", "0"],
    ["paths", "fig3", "Transfer+", "a3", "a5"],
    ["paths", "fig3", "Transfer+", "a3", "a5", "--no-index"],
    ["paths", "fig3", "Transfer+", "a3", "a5", "--mode", "all", "--limit", "30"],
    ["paths", "fig3", "Transfer+", "a3", "a5", "--mode", "all", "--limit", "30",
     "--no-index"],
    ["paths", "fig3", "Transfer+", "a3", "a5", "--mode", "simple"],
    ["paths", "fig3", "Transfer+", "a3", "a5", "--mode", "simple", "--no-index"],
    ["paths", "fig3", "Transfer+", "a3", "a5", "--mode", "trail"],
    ["paths", "fig3", "Transfer+", "a3", "a5", "--mode", "trail", "--no-index"],
    ["paths", "fig3", "Transfer+", "a3", "a5", "--stats"],
    ["paths", "fig3", "Transfer*", "a3", "a3", "--mode", "all", "--limit", "2"],
    ["paths", "fig3", "Transfer+", "a3", "a5", "--mode", "all", "--limit", "50",
     "--max-rows", "50"],
    ["paths", "fig3", "Transfer+", "a3", "ghost"],
    ["paths", "fig3", "Transfer+", "a3", "ghost", "--no-index"],
    ["dlrpq", "fig3", _CHEAP, "a3", "a4"],
    ["dlrpq", "fig3", _LISTS, "a3", "a5"],
    ["dlrpq", "fig3", _LISTS, "a3", "a5", "--mode", "all", "--limit", "4"],
    ["dlrpq", "fig3", _LISTS, "a3", "a5", "--mode", "simple"],
    ["dlrpq", "fig3", _LISTS, "a3", "a5", "--mode", "trail"],
    ["explain", "fig2", "Transfer*"],
    ["explain", "fig2", _CYCLE],
    ["explain", "fig2", _CYCLE, "--json"],
    ["explain", "fig2", "Transfer.owner", "--json"],
    ["explain", "fig2", _TRIANGLE, "--planner", "greedy"],
)

#: wall-clock figures: ``--stats`` timers and rate, a trip's elapsed time
_TIMINGS = (
    (re.compile(r"\d+\.\d+ ms"), "<t> ms"),
    (re.compile(r"answers_per_second: \S+"), "answers_per_second: <t>"),
    (re.compile(r"elapsed_seconds=[^,)]+"), "elapsed_seconds=<t>"),
)


def mask(text: str) -> str:
    for pattern, replacement in _TIMINGS:
        text = pattern.sub(replacement, text)
    return text


def run(argv: list) -> dict:
    """One invocation of ``main(argv)``: its exit code and masked output."""
    from repro.cli import main
    from repro.engine.cache import DEFAULT_CACHE

    DEFAULT_CACHE.clear()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": mask(stdout.getvalue()),
        "stderr": mask(stderr.getvalue()),
    }


def _recorded() -> list:
    if not os.path.exists(DUMP):  # not recorded yet
        return []
    with open(DUMP, encoding="utf-8") as handle:
        return [json.loads(text) for text in handle]


@pytest.mark.parametrize(
    "line", _recorded(), ids=lambda line: " ".join(line["argv"])
)
def test_cli_dump_replays(line):
    assert run(line["argv"]) == line


def test_dump_covers_every_local_verb():
    """Every verb and every path mode is recorded with answers (a dump of
    refusals would replay trivially)."""
    answered = [line for line in _recorded() if line["exit"] == 0 and line["stdout"]]
    for verb in ("rpq", "crpq", "paths", "dlrpq", "explain"):
        assert any(line["argv"][0] == verb for line in answered), verb
    for verb in ("paths", "dlrpq"):
        modes = {
            line["argv"][line["argv"].index("--mode") + 1]
            if "--mode" in line["argv"] else "shortest"
            for line in answered if line["argv"][0] == verb
        }
        assert modes == {"all", "shortest", "simple", "trail"}, verb
    assert any("--no-index" in line["argv"] for line in answered)
    assert any(line["exit"] == 2 for line in _recorded())


def _record() -> None:
    """Run every case under each seed; keep those every seed agrees on."""
    runs = [
        json.loads(
            subprocess.run(
                [sys.executable, __file__, "emit"],
                env={**os.environ, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True,
            ).stdout
        )
        for seed in SEEDS
    ]
    with open(DUMP, "w", encoding="utf-8") as handle:
        for lines in zip(*runs):
            if all(line == lines[0] for line in lines):
                handle.write(json.dumps(lines[0], sort_keys=True) + "\n")
            else:
                print("dropped (follows the hash seed):", " ".join(lines[0]["argv"]))


if __name__ == "__main__":
    if sys.argv[1:] == ["emit"]:
        print(json.dumps([run(argv) for argv in CASES]))
    elif sys.argv[1:] == ["record"]:
        _record()
    else:
        pytest.exit("usage: test_cli_dump.py record")
