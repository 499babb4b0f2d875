"""Golden match dump: the pattern evaluators' answers do not drift.

``match_dump.jsonl`` (beside this file) holds one line per (graph, pattern,
evaluator) case: the sorted ``repr`` of what the evaluator returned, or the
name of the error it raised.  The evaluators are CoreGQL's
:func:`~repro.coregql.semantics.pattern_paths` (with ``max_length``) and
:func:`~repro.coregql.semantics.pattern_triples`, GQL's
:func:`~repro.gql.semantics.match_gql_pattern` (with ``max_length``: an
unbounded GQL quantifier on a cyclic graph grows paths up to the safety
cap before it raises, seconds per case) and the Cypher fragment's
:func:`~repro.cypher.fragment.cypher_pairs`.  Every pattern text runs
through every language; a text one language does not accept records that
language's error.

The graphs are Figures 2 and 3 and three small seeded random property
graphs; the patterns are every pattern text of the pattern-layer benchmarks
and experiments (E6-E8, E10, E25, E26) plus a few that cover the remaining
constructs.  To record the dump again::

    PYTHONPATH=src python tests/patterns/test_match_dump.py record
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
DUMP = os.path.join(HERE, "match_dump.jsonl")

#: the ``max_length`` of ``pattern_paths`` and ``match_gql_pattern``
BOUND = 3

PATTERNS = (
    # benchmarks/bench_coregql.py, experiments/coregql_experiments.py
    "(x) ->* (y)",
    "(x) ->{1,} (y)",
    # benchmarks/bench_gql_quirks.py, experiments/gql_quirks.py
    "(x) (()-[z:a]->()){2} (y)",
    "(x) (()-[z:Transfer]->()){2} (y)",
    "(x) ()-[z:a]->() ()-[z:a]->() (y)",
    "(x) ()-[z:a]->() ()-[z1:a]->() (y)",
    "((x)-[:a]->(x)-[:a]->()){1,2}",
    "(x) ( ()-[u:a]->()-[v:a]->() WHERE u.date < v.date)* (y)",
    # benchmarks/bench_cypher_expressivity.py
    "(x)-[:l*]->(y)",
    # the remaining constructs of each language
    "((x:Account)-[t:Transfer]->(y) WHERE t.amount < 4500000)",
    "(x)-[:a]->(x)",
    "(u)(v)",
    "(x) | (x)",
    "(x)-[e:a]->(y) | (x)-[e:Transfer]->(y)",
    "(()-[z:a]->()){1} (()-[z:a]->()){1}",
    "((()-[z:a]->()){2} WHERE z.p = 1)",
    "(x) (((u)->(v) WHERE u.k < v.k))* (y)",
    "(()){2,}",
    "((x)){0,3}",
    "(x) ((()-[:Transfer]->()){2})* (y)",
    "(x)-[:a|Transfer]->()-[:l*]->(y) + (x)",
    "-[:owner]-> + -[:isBlocked]->",
    "(x)->(y)",
    "-[:a|l*]->",
)


def _random_property_graph(seed: int):
    """Five nodes and seven edges over the labels the patterns use, with
    cycles and self-loops as the seed draws them."""
    from repro.graph.property_graph import PropertyGraph

    rng = random.Random(seed)
    graph = PropertyGraph()
    for index in range(5):
        graph.add_node(
            f"n{index}",
            label=rng.choice(("Account", "A")),
            properties={"k": rng.randrange(4), "date": f"0{rng.randrange(1, 5)}-01"},
        )
    for index in range(7):
        graph.add_edge(
            f"e{index}",
            f"n{rng.randrange(5)}",
            f"n{rng.randrange(5)}",
            rng.choice(("a", "Transfer", "l")),
            properties={
                "amount": rng.randrange(1, 9_000_000),
                "date": f"0{rng.randrange(1, 5)}-01",
                "p": rng.randrange(2),
            },
        )
    return graph


def graphs() -> dict:
    from repro.graph.datasets import figure2_graph, figure3_graph

    named = {"fig2": figure2_graph(), "fig3": figure3_graph()}
    for seed in (1, 2, 3):
        named[f"random{seed}"] = _random_property_graph(seed)
    return named


def evaluators() -> dict:
    from repro.coregql.parser import parse_coregql_pattern
    from repro.coregql.semantics import pattern_paths, pattern_triples
    from repro.cypher.fragment import cypher_pairs, parse_cypher_pattern
    from repro.gql.semantics import match_gql_pattern

    return {
        "pattern_paths": lambda text, graph: pattern_paths(
            parse_coregql_pattern(text), graph, max_length=BOUND
        ),
        "pattern_triples": lambda text, graph: pattern_triples(
            parse_coregql_pattern(text), graph
        ),
        "match_gql_pattern_bounded": lambda text, graph: match_gql_pattern(
            text, graph, max_length=BOUND
        ),
        "cypher_pairs": lambda text, graph: cypher_pairs(
            parse_cypher_pattern(text), graph
        ),
    }


def dump() -> list[dict]:
    """Every case, in a fixed order."""
    lines = []
    named_evaluators = evaluators()
    for graph_name, graph in graphs().items():
        for text in PATTERNS:
            for evaluator, run in named_evaluators.items():
                line = {"graph": graph_name, "pattern": text, "evaluator": evaluator}
                try:
                    line["answer"] = sorted(map(repr, run(text, graph)))
                except Exception as error:  # the error's kind is the answer
                    line["error"] = type(error).__name__
                lines.append(line)
    return lines


def _case(line: dict) -> str:
    return f"{line['evaluator']}({line['pattern']!r}) on {line['graph']}"


def test_match_dump_replays():
    with open(DUMP, encoding="utf-8") as handle:
        recorded = [json.loads(text) for text in handle]
    replayed = dump()
    assert [_case(line) for line in replayed] == [_case(line) for line in recorded]
    for now, then in zip(replayed, recorded):
        assert now == then, _case(then)


def test_dump_exercises_every_evaluator_with_answers():
    """No evaluator is recorded only as errors (a dump of failures would
    replay trivially)."""
    with open(DUMP, encoding="utf-8") as handle:
        recorded = [json.loads(text) for text in handle]
    for evaluator in evaluators():
        answers = [
            line for line in recorded
            if line["evaluator"] == evaluator and line.get("answer")
        ]
        assert len(answers) >= 10, evaluator


if __name__ == "__main__":
    if sys.argv[1:] != ["record"]:
        pytest.exit("usage: test_match_dump.py record")
    with open(DUMP, "w", encoding="utf-8") as handle:
        for line in dump():
            handle.write(json.dumps(line, sort_keys=True) + "\n")
