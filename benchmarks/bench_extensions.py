"""Benchmarks E28–E31: the extension experiments.

Two-way navigation (Remark 9), containment and treewidth (Section 7.1),
naming/dedup quirk (Section 4.2), and delta enumeration.
"""

from collections.abc import Set

import pytest

from repro.analysis.containment import rpq_contained, rpq_equivalent
from repro.analysis.structure import treewidth_exact, treewidth_greedy
from repro.crpq.ast import parse_crpq
from repro.experiments.extensions import e28_naming_quirk, e30_structure_analysis
from repro.graph.generators import diamond_chain
from repro.pmr.build import pmr_for_rpq
from repro.pmr.enumerate import enumerate_spaths_delta
from repro.rpq.twoway import evaluate_two_way_rpq


def test_e31_two_way_evaluation(benchmark, fig2):
    result = benchmark(
        lambda: evaluate_two_way_rpq("(Transfer + ~Transfer)*", fig2)
    )
    assert result


def test_e31_two_way_on_network(benchmark, transfer_net):
    base = transfer_net.to_edge_labeled()
    result = benchmark(
        lambda: evaluate_two_way_rpq("~Transfer . Transfer", base)
    )
    assert isinstance(result, Set)  # the sweep's read-only PairRelation


@pytest.mark.parametrize(
    "pair", [("a.a", "a*"), ("(a+b)*", "(a*.b*)*"), ("(((a*)*)*)*", "a*")]
)
def test_e29_rpq_containment(benchmark, pair):
    left, right = pair
    assert benchmark(lambda: rpq_contained(left, right))


def test_e29_equivalence(benchmark):
    assert benchmark(lambda: rpq_equivalent("a.a*", "a*.a"))


def test_e30_treewidth_exact(benchmark):
    atoms = ", ".join(
        f"a(v{i}, v{j})" for i in range(6) for j in range(i + 1, 6)
    )
    query = parse_crpq(f"q(v0) :- {atoms}")  # K6 query graph
    width = benchmark(lambda: treewidth_exact(query))
    assert width == 5


def test_e30_treewidth_greedy_large(benchmark):
    atoms = ", ".join(f"a(v{i}, v{i + 1})" for i in range(40))
    query = parse_crpq(f"q(v0) :- {atoms}")
    width = benchmark(lambda: treewidth_greedy(query))
    assert width == 1


def test_e30_report(benchmark):
    result = benchmark(e30_structure_analysis)
    assert len(result.rows) == 4


def test_e28_report(benchmark):
    result = benchmark(e28_naming_quirk)
    assert result.rows


@pytest.mark.parametrize("diamonds", [8, 10])
def test_e31_delta_enumeration(benchmark, diamonds):
    graph = diamond_chain(diamonds)
    pmr = pmr_for_rpq("a*", graph, "j0", f"j{diamonds}")
    deltas = benchmark(lambda: list(enumerate_spaths_delta(pmr)))
    assert len(deltas) == 2**diamonds


def test_e32_forall_increasing(benchmark):
    from repro.gql.forall import increasing_edges_via_forall
    from repro.graph.generators import dated_path

    graph = dated_path(list(range(6)), on="edges", prop="k")
    result = benchmark(
        lambda: increasing_edges_via_forall(graph, "v0", "v6", prop="k")
    )
    assert len(result) == 1


@pytest.mark.parametrize("stages", [3, 4])
def test_e32_all_distinct_blowup(benchmark, stages):
    from repro.gql.forall import all_values_distinct_via_forall
    from repro.graph.property_graph import PropertyGraph

    graph = PropertyGraph()
    value = 0
    graph.add_node("j0", label="N", properties={"k": value})
    for stage in range(stages):
        for tag in ("top", "bot"):
            value += 1
            graph.add_node(f"{tag}{stage}", label="N", properties={"k": value})
        graph.add_node(f"j{stage + 1}", label="N", properties={"k": value + 10 + stage})
        graph.add_edge(f"u{stage}a", f"j{stage}", f"top{stage}", "a")
        graph.add_edge(f"u{stage}b", f"top{stage}", f"j{stage + 1}", "a")
        graph.add_edge(f"d{stage}a", f"j{stage}", f"bot{stage}", "a")
        graph.add_edge(f"d{stage}b", f"bot{stage}", f"j{stage + 1}", "a")
    result = benchmark(
        lambda: all_values_distinct_via_forall(graph, "j0", f"j{stages}", prop="k")
    )
    assert len(result) == 2**stages
