"""Differential harness: lazy (segment-faulted) ≡ fully-resident ≡ oracle.

Three evaluation paths must agree on every generated (graph, query) pair:

* **lazy** — the service path: ``query_labels`` picks the needed segments,
  the handle serves a restricted view;
* **resident** — the same stored graph loaded in full;
* **oracle** — the seed evaluator (``use_index=False``) on the original
  in-memory graph (never stored at all).

Queries include wildcards and negation (whose automata depend on the full
stored alphabet — the Remark 11 trap lazy loading must not fall into) and
queries whose alphabet misses every stored label.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crpq.evaluation import evaluate_crpq
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.rpq.evaluation import evaluate_rpq
from repro.storage.lazy import LazyGraphHandle, query_labels
from repro.storage.store import GraphStore

LABELS = ("a", "b", "c", "d")

RPQ_QUERIES = (
    "a",
    "a.b",
    "a*",
    "(a+b)*.c",
    "a.(b+c)*.d",
    "_",
    "_*.a",
    "!{a}",
    "(!{a,b})*",
    "zz",          # label absent from every generated graph
    "zz+.a",
    "(a.zz)+",
)

CRPQ_QUERIES = (
    "q(x,y) :- a(x,y)",
    "q(x,y) :- a(x,z), b(z,y)",
    "q(x,y) :- a(x,y), b(y,x)",
    "q(x) :- a(x,z), zz(z,x)",
)


@st.composite
def graphs(draw):
    graph = EdgeLabeledGraph()
    num_nodes = draw(st.integers(min_value=1, max_value=10))
    for i in range(num_nodes):
        graph.add_node(f"n{i}")
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_nodes - 1),
                st.integers(min_value=0, max_value=num_nodes - 1),
                st.sampled_from(LABELS),
            ),
            max_size=25,
        )
    )
    for index, (src, tgt, label) in enumerate(edges):
        graph.add_edge(f"e{index}", f"n{src}", f"n{tgt}", label)
    return graph


def lazy_answers(handle, query, evaluator):
    view = handle.view(query_labels(query, handle.labels))
    return evaluator(query, view)


@settings(max_examples=40, deadline=None)
@given(graph=graphs(), query=st.sampled_from(RPQ_QUERIES))
def test_lazy_resident_oracle_agree_rpq(graph, query):
    with GraphStore(":memory:") as store:
        store.put_graph("g", graph)
        handle = LazyGraphHandle(store, "g")
        resident = store.load_graph("g")
        oracle = evaluate_rpq(query, graph, use_index=False)
        assert evaluate_rpq(query, resident) == oracle
        assert lazy_answers(handle, query, evaluate_rpq) == oracle


@settings(max_examples=25, deadline=None)
@given(graph=graphs(), query=st.sampled_from(CRPQ_QUERIES))
def test_lazy_resident_oracle_agree_crpq(graph, query):
    with GraphStore(":memory:") as store:
        store.put_graph("g", graph)
        handle = LazyGraphHandle(store, "g")
        resident = store.load_graph("g")
        oracle = evaluate_crpq(query, graph, use_index=False)
        assert evaluate_crpq(query, resident) == oracle
        assert lazy_answers(handle, query, evaluate_crpq) == oracle


@settings(max_examples=20, deadline=None)
@given(graph=graphs(), query=st.sampled_from(RPQ_QUERIES))
def test_lazy_under_tight_eviction_budget(graph, query):
    """Answers are identical even when every view build evicts the last."""
    with GraphStore(":memory:") as store:
        store.put_graph("g", graph)
        handle = LazyGraphHandle(store, "g", max_resident_edges=1)
        oracle = evaluate_rpq(query, graph, use_index=False)
        assert lazy_answers(handle, query, evaluate_rpq) == oracle
        # and again, through the (possibly evicted/rebuilt) view path
        assert lazy_answers(handle, query, evaluate_rpq) == oracle


def test_journaled_tail_included_in_lazy_views():
    """Segment faulting composes snapshot and journal exactly."""
    graph = EdgeLabeledGraph()
    graph.add_edge("e1", "x", "y", "a")
    with GraphStore(":memory:") as store:
        store.put_graph("g", graph)
        store.attach("g", graph)
        graph.add_edge("e2", "y", "z", "a")
        graph.add_edge("e3", "z", "w", "b")
        store.flush("g")
        handle = LazyGraphHandle(store, "g")
        for query in ("a", "a*", "a.b", "_*"):
            oracle = evaluate_rpq(query, graph, use_index=False)
            assert lazy_answers(handle, query, evaluate_rpq) == oracle
