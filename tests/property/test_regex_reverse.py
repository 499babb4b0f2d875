"""Property tests for ``regex.ast.reverse`` and backward reachability.

The CRPQ evaluator's backward access path (an atom whose *target* is
bound) rests on two facts this module locks in with hypothesis:

1. ``reverse`` is an involution: reversing twice yields the same
   expression (on smart-constructor-normalized forms) and, on arbitrary
   raw ASTs, at least the same *language*.
2. Reachability of the reversed expression over the reversed edges from a
   target ``t`` is exactly ``{s | (s, t) in [[R]]_G}`` — so the planner may
   freely choose forward or backward access without changing answers.  The
   kernel walks the CSR snapshot's reversed rows; a forward search over a
   reversed copy of the graph and the seed evaluator must give the same.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import kernel
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.regex.ast import (
    Concat,
    Epsilon,
    NotSymbols,
    Regex,
    Star,
    Symbol,
    Union,
)
from repro.regex.ast import reverse as regex_reverse
from repro.rpq.evaluation import evaluate_rpq, reachable_by_rpq

LABELS = "abc"
A, B, C = Symbol("a"), Symbol("b"), Symbol("c")
ANY = NotSymbols(frozenset())
NOT_A = NotSymbols(frozenset({"a"}))


def regexes(max_leaves: int = 5) -> st.SearchStrategy[Regex]:
    leaves = st.sampled_from([A, B, C, Epsilon(), ANY, NOT_A])

    def extend(children):
        return st.one_of(
            st.builds(lambda x, y: Union((x, y)), children, children),
            st.builds(lambda x, y: Concat((x, y)), children, children),
            st.builds(Star, children),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


@st.composite
def graphs(draw, max_nodes: int = 5, max_edges: int = 8) -> EdgeLabeledGraph:
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1),
                st.integers(0, num_nodes - 1),
                st.sampled_from(LABELS),
            ),
            max_size=max_edges,
        )
    )
    graph = EdgeLabeledGraph()
    for node in range(num_nodes):
        graph.add_node(f"v{node}")
    for number, (src, tgt, label) in enumerate(edges):
        graph.add_edge(f"e{number}", f"v{src}", f"v{tgt}", label)
    return graph


# ----------------------------------------------------------------------
# involution
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(regex=regexes())
def test_reverse_is_involution_on_normalized_forms(regex):
    # The strategy builds raw Concat/Union nodes; one reverse round-trip
    # normalizes through the smart constructors, and on that normalized
    # form reverse must be a strict involution.
    normalized = regex_reverse(regex_reverse(regex))
    assert regex_reverse(regex_reverse(normalized)) == normalized


@settings(max_examples=60, deadline=None)
@given(graph=graphs(), regex=regexes())
def test_double_reverse_preserves_language(graph, regex):
    assert evaluate_rpq(regex_reverse(regex_reverse(regex)), graph) == evaluate_rpq(
        regex, graph
    )


@settings(max_examples=60, deadline=None)
@given(graph=graphs(), regex=regexes())
def test_reverse_swaps_answer_pairs(graph, regex):
    forward = evaluate_rpq(regex, graph, use_index=False)
    backward = evaluate_rpq(
        regex_reverse(regex), graph.reversed_copy(), use_index=False
    )
    assert backward == {(target, source) for source, target in forward}


# ----------------------------------------------------------------------
# backward reachability over the snapshot's reversed rows
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(graph=graphs(), regex=regexes(), target=st.integers(0, 4))
def test_backward_reachability_equals_forward(graph, regex, target):
    node = f"v{target}"
    if not graph.has_node(node):
        return
    reversed_regex = regex_reverse(regex)
    sources = kernel.reachable(
        kernel.compile_query(reversed_regex, graph), graph, node, backward=True
    )
    assert sources == reachable_by_rpq(reversed_regex, graph.reversed_copy(), node)
    forward = evaluate_rpq(regex, graph, use_index=False)
    assert sources == {source for source, tgt in forward if tgt == node}
