"""Unit tests for the CSR snapshot's edge-id column (``CSRGraph.edge_rows``).

The column is what the evaluators whose answers name edges read — the
product graph behind every path mode and GQL edge patterns — so it is held
here to the graph itself: per label and node run, the edges in insertion
order, parallel to the targets of ``out_rows``, on a fresh build and on a
caught-up snapshot, and still answering for its own version after writes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.engine.csr import CSRGraph, get_csr
from repro.engine.stats import EngineStats
from repro.gql.semantics import match_gql_pattern
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.graph.generators import random_graph
from repro.graph.property_graph import PropertyGraph
from repro.rpq.evaluation import compile_for_graph, reachable_by_rpq
from repro.rpq.product_graph import build_product


def small_graph() -> EdgeLabeledGraph:
    graph = EdgeLabeledGraph()
    graph.add_edge("e1", "u", "v", "a")
    graph.add_edge("e2", "u", "v", "b")
    graph.add_edge("e3", "v", "w", "a")
    graph.add_edge("e4", "u", "w", "a")
    return graph


def out_edges(graph, node, label) -> tuple:
    """``((edge, tgt), ...)`` for edges ``node --label--> tgt``, read off the
    current snapshot's rows and edge column."""
    csr = get_csr(graph)
    edges, ordinals = csr.edge_rows(graph)
    node_int, label_int = csr.interner.node_id(node), csr.interner.label_id(label)
    if node_int is None or label_int is None:
        return ()
    offsets, targets = csr.out_rows[label_int]
    return tuple(
        (edges[ordinals[label_int][k]], csr.interner.node(targets[k]))
        for k in range(offsets[node_int], offsets[node_int + 1])
    )


def edges_with_label(graph, label) -> tuple:
    """``((edge, src, tgt), ...)`` for every edge carrying ``label``."""
    csr = get_csr(graph)
    edges, ordinals = csr.edge_rows(graph)
    label_int = csr.interner.label_id(label)
    if label_int is None:
        return ()
    return tuple(
        (edges[ordinal], *graph.endpoints(edges[ordinal]))
        for ordinal in ordinals[label_int]
    )


class TestLookups:
    def test_out_edges_by_label(self):
        graph = small_graph()
        assert out_edges(graph, "u", "a") == (("e1", "v"), ("e4", "w"))
        assert out_edges(graph, "u", "b") == (("e2", "v"),)
        assert out_edges(graph, "u", "zzz") == ()
        assert out_edges(graph, "w", "a") == ()
        assert out_edges(graph, "not-a-node", "a") == ()

    def test_edges_with_label(self):
        graph = small_graph()
        assert set(edges_with_label(graph, "a")) == {
            ("e1", "u", "v"),
            ("e3", "v", "w"),
            ("e4", "u", "w"),
        }
        assert edges_with_label(graph, "nope") == ()

    def test_labels(self):
        assert set(get_csr(small_graph()).interner.labels) == {"a", "b"}

    def test_agrees_with_linear_scan_on_random_graph(self):
        graph = random_graph(30, 120, labels=("a", "b", "c"), seed=3)
        for node in graph.iter_nodes():
            for label in graph.labels:
                # same edges, and in the insertion order the scan sees them
                assert out_edges(graph, node, label) == tuple(
                    (edge, graph.tgt(edge)) for edge in graph.out_edges(node, label)
                )


class TestCachingAndInvalidation:
    def test_index_is_reused_while_graph_unchanged(self):
        graph = small_graph()
        stats = EngineStats()
        first = get_csr(graph, stats)
        column = first.edge_rows(graph)
        second = get_csr(graph, stats)
        assert first is second
        assert second.edge_rows(graph) is column
        assert stats.get("csr_builds") == 1
        assert stats.get("csr_reuses") == 1

    def test_add_edge_invalidates(self):
        graph = small_graph()
        column = get_csr(graph).edge_rows(graph)
        graph.add_edge("e5", "w", "x", "b")
        assert get_csr(graph).edge_rows(graph) is not column
        assert out_edges(graph, "w", "b") == (("e5", "x"),)

    def test_add_node_invalidates(self):
        graph = small_graph()
        before = graph.version
        csr = get_csr(graph)
        csr.edge_rows(graph)
        graph.add_node("lonely")
        assert graph.version > before
        caught = get_csr(graph)
        assert caught is not csr
        assert caught._edge_rows is None  # packed again only when asked

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
        csr = CSRGraph(graph)
        assert csr.version == graph.version
        assert csr.num_edges == graph.num_edges
        edges, _ordinals = csr.edge_rows(graph)
        assert edges == ["e1", "e2", "e3", "e4"]


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
        column = get_csr(graph).edge_rows(graph)
        graph.set_property("t", "amount", 100)
        assert get_csr(graph).edge_rows(graph) is not column


# ----------------------------------------------------------------------
# the column against the graph, across writes
# ----------------------------------------------------------------------
NODES = [f"v{i}" for i in range(5)]
_edge = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES), st.sampled_from("abc"))
#: writes reach two nodes and one label the first snapshot never saw
_write = st.tuples(
    st.sampled_from(NODES + ["w0", "w1"]),
    st.sampled_from(NODES + ["w0", "w1"]),
    st.sampled_from("abcd"),
)
#: "z" is a label no graph here has
REGEXES = ("a", "a.b*", "(a+d)*.c", "(a+b+c+d)*", "z.a", "a*.z")


def graph_of(edges, cls=EdgeLabeledGraph):
    graph = cls()
    for node in NODES[:2]:
        graph.add_node(node)
    for number, (src, tgt, label) in enumerate(edges):
        graph.add_edge(f"e{number}", src, tgt, label)
    return graph


def assert_column_agrees(csr: CSRGraph, graph) -> None:
    """Every run of every label lists, through the column, the edges with
    that label and source in insertion order, beside their targets."""
    edges, ordinals = csr.edge_rows(graph)
    records = list(graph.iter_edge_records())[: csr.num_edges]
    assert edges == [edge for edge, _s, _t, _l in records]
    assert len(ordinals) == len(csr.out_rows) == csr.interner.num_labels
    assert sum(len(row) for row in ordinals) == csr.num_edges
    interner = csr.interner
    for label_int, (offsets, targets) in enumerate(csr.out_rows):
        row = ordinals[label_int]
        assert len(row) == len(targets)
        label = interner.label(label_int)
        for node_int in range(csr.num_nodes):
            node = interner.node(node_int)
            run = range(offsets[node_int], offsets[node_int + 1])
            assert [(edges[row[k]], interner.node(targets[k])) for k in run] == [
                (edge, tgt) for edge, src, tgt, lab in records
                if lab == label and src == node
            ]


def assert_product_arms_agree(graph) -> None:
    for regex in REGEXES:
        nfa = compile_for_graph(regex, graph)
        for source in ("v0", "v1"):
            counted = EngineStats()
            indexed = build_product(graph, nfa, [source], stats=counted)
            naive = reference.product(graph, nfa, [source])
            assert indexed.inner.nodes == naive.inner.nodes
            assert indexed.inner.edges == naive.inner.edges
            assert (indexed.sources, indexed.targets) == (naive.sources, naive.targets)
            # every product node is expanded once, every product edge relaxed once
            assert counted.get("nodes_expanded") == naive.inner.num_nodes, regex
            assert counted.get("edges_relaxed") == naive.inner.num_edges, regex


@settings(max_examples=80, deadline=None)
@given(edges=st.lists(_edge, max_size=14), writes=st.lists(_write, min_size=2, max_size=5))
def test_edge_column_agrees_fresh_and_caught_up(edges, writes):
    graph = graph_of(edges)
    first = get_csr(graph)
    assert_column_agrees(first, graph)
    assert get_csr(graph).interner.label_id("z") is None
    held = first.edge_rows(graph)
    frozen = (list(held[0]), [row.tobytes() for row in held[1]])
    unpacked = None
    for number, (src, tgt, label) in enumerate(writes):
        graph.add_edge(f"x{number}", src, tgt, label)
        if unpacked is None:
            unpacked = get_csr(graph)
            continue
        caught = get_csr(graph)
        assert caught is not first
        assert_column_agrees(caught, graph)
    # snapshots handed out earlier still answer for their own versions,
    # whether their column was packed before the writes or after them
    assert first.edge_rows(graph) is held
    assert (list(held[0]), [row.tobytes() for row in held[1]]) == frozen
    assert_column_agrees(first, graph)
    assert unpacked._edge_rows is None
    assert_column_agrees(unpacked, graph)


@settings(max_examples=40, deadline=None)
@given(edges=st.lists(_edge, max_size=12), writes=st.lists(_write, max_size=3))
def test_build_product_reads_the_column_like_the_seed_scan(edges, writes):
    graph = graph_of(edges)
    assert_product_arms_agree(graph)
    for number, (src, tgt, label) in enumerate(writes):
        graph.add_edge(f"x{number}", src, tgt, label)
    assert_product_arms_agree(graph)


LABELLED_PATTERNS = (
    "(x)-[t:a]->(y)",
    "()-[:b]->(y)",
    "(x)-[:a]->()-[t:b]->(y)",
    "(x)-[t:z]->(y)",  # a label the graph lacks
    "((x)-[t:a]->()){1,2}",
)


@settings(max_examples=40, deadline=None)
@given(edges=st.lists(_edge, max_size=10), writes=st.lists(_write, min_size=1, max_size=3))
def test_gql_edge_patterns_indexed_equal_the_seed_scan(edges, writes):
    graph = graph_of(edges, PropertyGraph)
    for pattern in LABELLED_PATTERNS:
        assert match_gql_pattern(pattern, graph) == reference.gql_matches(
            pattern, graph
        ), pattern
    for number, (src, tgt, label) in enumerate(writes):
        graph.add_edge(f"x{number}", src, tgt, label)
    for pattern in LABELLED_PATTERNS:
        assert match_gql_pattern(pattern, graph) == reference.gql_matches(
            pattern, graph
        ), pattern
