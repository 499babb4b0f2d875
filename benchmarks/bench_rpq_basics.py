"""Benchmarks E1/E18: RPQ evaluation via the product construction.

Regenerates the Example 12 answer and the Section 6.2 scaling series:
all-pairs evaluation, single-pair decision, and unambiguous counting.
"""

from collections.abc import Set

import pytest

from repro.experiments.evaluation_section6 import e18_product_construction
from repro.experiments.examples_section3 import e1_transfer_star
from repro.graph.datasets import ACCOUNTS
from repro.graph.generators import diamond_chain
from repro.rpq.counting import count_matching_paths
from repro.rpq.evaluation import evaluate_rpq, rpq_holds


def test_e1_transfer_star(benchmark, fig2):
    result = benchmark(lambda: evaluate_rpq("Transfer*", fig2, sources=ACCOUNTS))
    assert {(u, v) for u in ACCOUNTS for v in ACCOUNTS} <= result


def test_e1_report(benchmark):
    result = benchmark(e1_transfer_star)
    assert result.rows[0]["all_pairs_covered"] is True


@pytest.mark.parametrize("size", [50, 100, 200])
def test_e18_all_pairs_scaling(benchmark, size):
    from repro.graph.generators import random_graph

    graph = random_graph(size, 4 * size, labels=("a", "b"), seed=size)
    result = benchmark(lambda: evaluate_rpq("a.b*.a", graph))
    assert isinstance(result, Set)  # the sweep's read-only PairRelation


def test_e18_single_pair_decision(benchmark, medium_graph):
    result = benchmark(
        lambda: rpq_holds("a.(a+b)*.c", medium_graph, "v0", "v199")
    )
    assert isinstance(result, bool)


@pytest.mark.parametrize("diamonds", [16, 32])
def test_e18_counting(benchmark, diamonds):
    graph = diamond_chain(diamonds)
    count = benchmark(
        lambda: count_matching_paths(
            "a*", graph, "j0", f"j{diamonds}", length=2 * diamonds
        )
    )
    assert count == 2**diamonds


def test_e18_report(benchmark):
    result = benchmark(lambda: e18_product_construction(sizes=(10, 20)))
    assert "equal: True" in result.finding
