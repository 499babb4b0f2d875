"""Unit tests for the label-indexed adjacency (repro.engine.index)."""

import pytest

from repro.engine.index import GraphIndex, get_index
from repro.engine.stats import EngineStats
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.graph.generators import random_graph
from repro.graph.property_graph import PropertyGraph
from repro.rpq.evaluation import reachable_by_rpq


def small_graph() -> EdgeLabeledGraph:
    graph = EdgeLabeledGraph()
    graph.add_edge("e1", "u", "v", "a")
    graph.add_edge("e2", "u", "v", "b")
    graph.add_edge("e3", "v", "w", "a")
    graph.add_edge("e4", "u", "w", "a")
    return graph


class TestLookups:
    def test_out_edges_by_label(self):
        index = get_index(small_graph())
        assert set(index.out_edges("u", "a")) == {("e1", "v"), ("e4", "w")}
        assert set(index.out_edges("u", "b")) == {("e2", "v")}
        assert index.out_edges("u", "zzz") == ()
        assert index.out_edges("w", "a") == ()
        assert index.out_edges("not-a-node", "a") == ()

    def test_edges_with_label(self):
        index = get_index(small_graph())
        assert set(index.edges_with_label("a")) == {
            ("e1", "u", "v"),
            ("e3", "v", "w"),
            ("e4", "u", "w"),
        }
        assert index.edges_with_label("nope") == ()

    def test_labels(self):
        assert get_index(small_graph()).labels == frozenset({"a", "b"})

    def test_agrees_with_linear_scan_on_random_graph(self):
        graph = random_graph(30, 120, labels=("a", "b", "c"), seed=3)
        index = get_index(graph)
        for node in graph.iter_nodes():
            for label in graph.labels:
                expected = {
                    (edge, graph.tgt(edge)) for edge in graph.out_edges(node, label)
                }
                assert set(index.out_edges(node, label)) == expected


class TestCachingAndInvalidation:
    def test_index_is_reused_while_graph_unchanged(self):
        graph = small_graph()
        stats = EngineStats()
        first = get_index(graph, stats)
        second = get_index(graph, stats)
        assert first is second
        assert stats.get("index_builds") == 1
        assert stats.get("index_reuses") == 1

    def test_add_edge_invalidates(self):
        graph = small_graph()
        index = get_index(graph)
        graph.add_edge("e5", "w", "x", "b")
        rebuilt = get_index(graph)
        assert rebuilt is not index
        assert set(rebuilt.out_edges("w", "b")) == {("e5", "x")}

    def test_add_node_invalidates(self):
        graph = small_graph()
        before = graph.version
        index = get_index(graph)
        graph.add_node("lonely")
        assert graph.version > before
        assert get_index(graph) is not index

    def test_version_is_monotone(self):
        graph = EdgeLabeledGraph()
        versions = [graph.version]
        graph.add_node("u")
        versions.append(graph.version)
        graph.add_edge("e", "u", "v", "a")
        versions.append(graph.version)
        graph.add_node("u")  # no-op re-add must not go backwards
        versions.append(graph.version)
        assert versions == sorted(versions)
        assert versions[1] > versions[0] and versions[2] > versions[1]

    def test_query_results_reflect_mutation(self):
        """The end-to-end guarantee: no stale answers after add_edge."""
        graph = small_graph()
        assert reachable_by_rpq("a.a", graph, "u") == {"w"}
        graph.add_edge("e5", "w", "x", "a")
        assert reachable_by_rpq("a.a", graph, "u") == {"w", "x"}
        assert reachable_by_rpq("a.a.a", graph, "u") == {"x"}

    def test_snapshot_matches_build_version(self):
        graph = small_graph()
        index = GraphIndex(graph)
        assert index.version == graph.version
        assert index.num_edges == graph.num_edges


class TestPropertyGraphInvalidation:
    """Mutation-path audit (regressions): every PropertyGraph mutation that
    changes observable structure must bump the version, even the ones where
    the base-class ``add_node`` no-ops because the node already exists."""

    def test_label_refinement_bumps_version(self):
        graph = PropertyGraph()
        graph.add_node("n")
        before = graph.version
        graph.add_node("n", label="Account")
        assert graph.version > before
        # Re-adding with the same label is a no-op and must not churn.
        unchanged = graph.version
        graph.add_node("n", label="Account")
        assert graph.version == unchanged

    def test_property_merge_on_readd_bumps_version(self):
        graph = PropertyGraph()
        graph.add_node("n", label="Account")
        before = graph.version
        graph.add_node("n", properties={"owner": "Mike"})
        assert graph.version > before

    def test_set_property_bumps_version(self):
        graph = PropertyGraph()
        graph.add_edge("t", "u", "v", "Transfer")
        before = graph.version
        graph.set_property("t", "amount", 100)
        assert graph.version > before

    def test_index_rebuilt_after_property_mutation(self):
        graph = PropertyGraph()
        graph.add_edge("t", "u", "v", "Transfer")
        index = get_index(graph)
        graph.set_property("t", "amount", 100)
        assert get_index(graph) is not index
