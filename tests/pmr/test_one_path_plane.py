"""One path plane: the product graph is the PMR (Sections 6.2-6.4).

``matching_paths``, ``evaluate_lrpq`` and ``enumerate_spaths(order="bfs")``
share one builder, one trim and one search per path mode
(``pmr.enumerate.search_paths``).  The property tests pin that sharing; the
regression tests pin the two bugs the three former copies kept — recursive
depth-first searches, and one breadth-first queue entry per *run* of an
ambiguous expression — and the unbounded BFS on an infinite PMR.
"""

from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.limits import QueryBudget
from repro.errors import GraphError, InfiniteResultError
from repro.graph.bindings import ListBinding
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.graph.generators import label_cycle, label_path
from repro.listvars.compile import compile_lrpq
from repro.listvars.enumerate import evaluate_lrpq
from repro.listvars.lrpq import lift_plain_regex, parse_lrpq
from repro.pmr.build import pmr_for_rpq, pmr_from_product
from repro.pmr.enumerate import enumerate_spaths, search_paths
from repro.pmr.ops import trim
from repro.pmr.representation import PMR
from repro.rpq.evaluation import compile_for_graph
from repro.rpq.path_modes import PATH_MODES, matching_paths
from repro.rpq.product_graph import ProductGraph, build_product
from tests.engine.test_differential import graphs, regexes

LIMIT = 12

small_cases = given(
    graph=graphs(max_nodes=4, max_edges=6),
    regex=regexes(max_leaves=4),
    source=st.integers(0, 3),
    target=st.integers(0, 3),
)


# ----------------------------------------------------------------------
# the sharing
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@small_cases
def test_lrpq_without_variables_is_the_rpq(graph, regex, source, target):
    src, tgt = f"v{source}", f"v{target}"
    for mode in PATH_MODES:
        bindings = list(
            evaluate_lrpq(lift_plain_regex(regex), graph, src, tgt, mode=mode, limit=LIMIT)
        )
        assert all(binding.mu == ListBinding.empty() for binding in bindings)
        assert [binding.path for binding in bindings] == list(
            matching_paths(regex, graph, src, tgt, mode=mode, limit=LIMIT)
        ), mode


@settings(max_examples=60, deadline=None)
@small_cases
def test_pmr_bfs_is_mode_all(graph, regex, source, target):
    src, tgt = f"v{source}", f"v{target}"
    if not (graph.has_node(src) and graph.has_node(tgt)):
        return
    pmr = pmr_for_rpq(regex, graph, src, tgt)
    assert list(enumerate_spaths(pmr, limit=LIMIT, order="bfs")) == list(
        matching_paths(regex, graph, src, tgt, mode="all", limit=LIMIT)
    )


@settings(max_examples=60, deadline=None)
@small_cases
def test_trim_is_idempotent_class_preserving_and_keeps_spaths(
    graph, regex, source, target
):
    src, tgt = f"v{source}", f"v{target}"
    if not graph.has_node(src):
        return
    product = build_product(graph, compile_for_graph(regex, graph), [src], [tgt])
    outside = PMR(
        product.inner,
        graph,
        {obj: obj[0] for obj in (*product.inner.iter_nodes(), *product.inner.iter_edges())},
        product.sources,
        product.targets,
    )
    for pmr, cls in ((product, ProductGraph), (outside, PMR)):
        trimmed = trim(pmr)
        assert type(trimmed) is cls
        assert trim(pmr) is trimmed and trim(trimmed) is trimmed
        assert trimmed.inner.nodes <= pmr.inner.nodes
    assert product.trim() is pmr_from_product(product) is trim(product)
    # search_paths takes a trimmed PMR; enumerate_spaths trims its argument
    assert list(enumerate_spaths(outside, limit=LIMIT, order="bfs")) == list(
        search_paths(trim(product), "all", LIMIT)
    )


@settings(max_examples=60, deadline=None)
@small_cases
def test_every_mode_indexed_equals_naive(graph, regex, source, target):
    src, tgt = f"v{source}", f"v{target}"
    for mode in PATH_MODES:
        assert list(
            matching_paths(regex, graph, src, tgt, mode=mode, limit=LIMIT, use_index=True)
        ) == list(
            matching_paths(regex, graph, src, tgt, mode=mode, limit=LIMIT, use_index=False)
        ), mode


def test_outside_pmrs_are_validated_and_products_never(monkeypatch, fig3):
    validated = []
    validate = PMR._validate
    monkeypatch.setattr(
        PMR, "_validate", lambda self: (validated.append(type(self)), validate(self))
    )
    with pytest.raises(GraphError):
        PMR.build(
            base=fig3,
            nodes=[("r1", "a3"), ("r2", "a5")],
            edges=[("q1", "r1", "r2", "t4")],  # t4 goes a5 -> a1, not a3 -> a5
            sources=["r1"],
            targets=["r2"],
        )
    assert validated == [PMR]
    pmr = pmr_for_rpq("Transfer+", fig3, "a3", "a5")
    assert isinstance(pmr, ProductGraph) and pmr.gamma[("a3", 0)] == "a3"
    list(matching_paths("Transfer+", fig3, "a3", "a5", mode="trail"))
    list(evaluate_lrpq("(Transfer^z)+", fig3, "a3", "a5", mode="shortest"))
    assert validated == [PMR]


def test_pmr_for_rpq_builds_once_and_trims_once(monkeypatch, fig3):
    import repro.rpq.product_graph as product_graph

    built = []
    build = product_graph.build_product
    monkeypatch.setattr(
        product_graph, "build_product", lambda *a, **k: (built.append(1), build(*a, **k))[1]
    )
    graphs_made = []
    init = EdgeLabeledGraph.__init__
    monkeypatch.setattr(
        EdgeLabeledGraph, "__init__", lambda self: (graphs_made.append(1), init(self))[1]
    )
    pmr_for_rpq("Transfer+", fig3, "a3", "a5")
    assert len(built) == 1
    assert len(graphs_made) == 2  # the product and its useful part


# ----------------------------------------------------------------------
# no path search recurses
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["shortest", "simple", "trail"])
def test_a_path_longer_than_the_interpreter_stack(mode):
    chain = label_path(1500)
    (path,) = matching_paths("a*", chain, "v0", "v1500", mode=mode)
    assert len(path) == 1500
    (binding,) = evaluate_lrpq("(a^z)*", chain, "v0", "v1500", mode=mode)
    assert binding.path == path
    assert binding.mu["z"] == tuple(f"e{i}" for i in range(1500))


# ----------------------------------------------------------------------
# ambiguity costs the breadth-first search nothing (Section 6.1)
# ----------------------------------------------------------------------
def self_loop() -> EdgeLabeledGraph:
    graph = EdgeLabeledGraph()
    graph.add_edge("e", "n0", "n0", "a")
    return graph


def test_ambiguous_rpq_pmr_bfs_is_linear_in_the_limit():
    """``(a+a.a)*`` gives the loop walked k times Fibonacci(k) runs; the
    queue holds one entry per (path, inner node), so 40 paths cost a few
    hundred steps, not 10^8."""
    pmr = pmr_for_rpq("(a+a.a)*", self_loop(), "n0", "n0")
    budget = QueryBudget(max_states=10_000)
    paths = list(search_paths(pmr, "all", 40, budget=budget))
    assert [len(path) for path in paths] == list(range(40))
    assert list(enumerate_spaths(pmr, limit=40, order="bfs")) == paths


def test_ambiguous_lrpq_is_linear_in_the_limit():
    graph = self_loop()
    query = "(a^z+a^z.a^z)*"
    product = trim(
        build_product(
            graph, compile_lrpq(parse_lrpq(query), graph), ["n0"], ["n0"],
            label_of=attrgetter("label"),
        )
    )
    budget = QueryBudget(max_states=10_000)
    runs = list(
        search_paths(
            product, "all", 40, budget=budget,
            edge_image=lambda edge: (edge[0], edge[1][1].variables),
            answer=lambda images: images,
        )
    )
    assert [len(images) // 2 for images in runs] == list(range(40))
    bindings = list(evaluate_lrpq(query, graph, "n0", "n0", mode="all", limit=40))
    assert [len(binding.path) for binding in bindings] == list(range(40))
    assert all(binding.mu["z"] == ("e",) * len(binding.path) for binding in bindings)


def test_runs_that_capture_differently_stay_distinct():
    """The dedup is on (image sequence, inner node), and an l-RPQ's images
    carry the captures: Example 17's 2^n lists on one path all come out."""
    chain = label_path(6)
    bindings = list(evaluate_lrpq("(a.a^z+a^z.a)*", chain, "v0", "v6", mode="all"))
    assert len({binding.path for binding in bindings}) == 1
    assert len({binding.mu for binding in bindings}) == len(bindings) == 2**3


# ----------------------------------------------------------------------
# BFS on an infinite PMR needs a bound, like DFS
# ----------------------------------------------------------------------
def test_bfs_requires_bound_on_infinite():
    pmr = pmr_for_rpq("a*", label_cycle(3), "v0", "v0")
    with pytest.raises(InfiniteResultError):
        list(enumerate_spaths(pmr, order="bfs"))
    assert [len(p) for p in enumerate_spaths(pmr, max_length=6, order="bfs")] == [0, 3, 6]
