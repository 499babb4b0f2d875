"""Tests for CoreGQL patterns, FV rules, and the Figure 4 semantics."""

import pytest

from repro.coregql.conditions import LabelIs, PropCompare, PropConstCompare
from repro.coregql.parser import parse_coregql_pattern
from repro.coregql.patterns import (
    EdgePattern,
    NodePattern,
    PatternConcat,
    PatternCondition,
    PatternRepeat,
    PatternUnion,
    free_variables,
    pattern_size,
)
from repro.coregql.semantics import pattern_paths, pattern_triples
from repro.errors import InfiniteResultError, QueryError
from repro.gql.semantics import match_gql_pattern
from repro.graph.generators import dated_path, label_cycle, label_path


def simple_step():
    """(x) -e-> (y)"""
    return PatternConcat((NodePattern("x"), EdgePattern("e"), NodePattern("y")))


class TestFreeVariables:
    def test_atoms(self):
        assert free_variables(NodePattern("x")) == {"x"}
        assert free_variables(NodePattern()) == frozenset()
        assert free_variables(EdgePattern("e")) == {"e"}

    def test_concat_unions(self):
        assert free_variables(simple_step()) == {"x", "e", "y"}

    def test_repetition_erases(self):
        """FV(pi^{n..m}) = {} — the 1NF guarantee (no list values)."""
        assert free_variables(PatternRepeat(simple_step(), 0, None)) == frozenset()

    def test_condition_preserves(self):
        pattern = PatternCondition(simple_step(), LabelIs("x", "A"))
        assert free_variables(pattern) == {"x", "e", "y"}

    def test_union_requires_equal_fv(self):
        """No nulls: both branches must bind the same variables."""
        with pytest.raises(QueryError):
            PatternUnion(NodePattern("x"), EdgePattern("y"))
        PatternUnion(NodePattern("x"), NodePattern("x"))  # fine

    def test_invalid_repeat_bounds(self):
        with pytest.raises(QueryError):
            PatternRepeat(NodePattern("x"), 3, 1)

    def test_pattern_size(self):
        assert pattern_size(simple_step()) == 4


class TestPathSemantics:
    def test_node_pattern(self, fig3):
        results = pattern_paths(NodePattern("x"), fig3)
        assert len(results) == fig3.num_nodes
        paths = {path.objects for path, _mu in results}
        assert ("a1",) in paths

    def test_edge_pattern_is_node_to_node(self, fig3):
        results = pattern_paths(EdgePattern("e"), fig3)
        for path, mu in results:
            assert not path.starts_with_edge and not path.ends_with_edge
            assert len(path) == 1

    def test_concat_joins_on_shared_node(self):
        g = label_path(2)
        results = pattern_paths(simple_step(), g)
        assert {path.objects for path, _mu in results} == {
            ("v0", "e0", "v1"),
            ("v1", "e1", "v2"),
        }

    def test_adjacent_nodes_join(self):
        """(u)(v) forces u = v (path concatenation collapses the node)."""
        g = label_path(1)
        pattern = PatternConcat((NodePattern("u"), NodePattern("v")))
        results = pattern_paths(pattern, g)
        for _path, mu in results:
            binding = dict(mu)
            assert binding["u"] == binding["v"]

    def test_repeated_variable_joins(self):
        """(x) -> (x) matches only self-loops."""
        g = label_path(2)
        pattern = PatternConcat((NodePattern("x"), EdgePattern(None), NodePattern("x")))
        assert pattern_paths(pattern, g) == set()
        loop = label_cycle(1)
        assert len(pattern_paths(pattern, loop)) == 1

    def test_union(self):
        g = label_path(1)
        pattern = PatternUnion(NodePattern("x"), NodePattern("x"))
        assert len(pattern_paths(pattern, g)) == 2

    def test_repeat_bounded(self):
        g = label_path(4)
        step = PatternConcat((NodePattern(None), EdgePattern(None), NodePattern(None)))
        two = PatternRepeat(step, 2, 2)
        results = pattern_paths(two, g)
        assert all(len(path) == 2 for path, _mu in results)
        assert all(mu == () for _path, mu in results)

    def test_repeat_star_on_acyclic(self):
        g = label_path(3)
        step = PatternConcat((NodePattern(None), EdgePattern(None), NodePattern(None)))
        star = PatternRepeat(step, 0, None)
        lengths = {len(path) for path, _mu in pattern_paths(star, g)}
        assert lengths == {0, 1, 2, 3}

    def test_repeat_star_on_cycle_raises(self):
        g = label_cycle(3)
        step = PatternConcat((NodePattern(None), EdgePattern(None), NodePattern(None)))
        with pytest.raises(InfiniteResultError):
            pattern_paths(PatternRepeat(step, 0, None), g)

    def test_repeat_star_on_cycle_with_bound(self):
        g = label_cycle(3)
        step = PatternConcat((NodePattern(None), EdgePattern(None), NodePattern(None)))
        results = pattern_paths(PatternRepeat(step, 0, None), g, max_length=6)
        assert max(len(path) for path, _mu in results) == 6

    def test_condition_filters(self):
        g = dated_path([1, 5, 3], on="nodes")
        pattern = PatternCondition(
            PatternConcat((NodePattern("u"), EdgePattern(None), NodePattern("v"))),
            PropCompare("u", "date", "<", "v", "date"),
        )
        results = pattern_paths(pattern, g)
        assert {path.objects for path, _mu in results} == {("v0", "e0", "v1")}

    def test_const_condition(self):
        g = dated_path([1, 5, 3], on="nodes")
        pattern = PatternCondition(
            NodePattern("u"), PropConstCompare("u", "date", ">", 2)
        )
        assert len(pattern_paths(pattern, g)) == 2


class TestTripleSemantics:
    def test_matches_path_semantics_on_acyclic(self):
        g = label_path(3)
        step = PatternConcat((NodePattern("x"), EdgePattern(None), NodePattern("y")))
        patterns = [
            step,
            PatternRepeat(step, 0, None),
            PatternRepeat(step, 1, 2),
            PatternUnion(NodePattern("x"), NodePattern("x")),
        ]
        for pattern in patterns:
            from_paths = {
                (path.src, path.tgt, mu)
                for path, mu in pattern_paths(pattern, g)
            }
            assert pattern_triples(pattern, g) == from_paths

    def test_star_is_reachability_on_cycles(self):
        """The endpoint semantics stays finite where paths do not."""
        g = label_cycle(3)
        step = PatternConcat((NodePattern(None), EdgePattern(None), NodePattern(None)))
        triples = pattern_triples(PatternRepeat(step, 0, None), g)
        pairs = {(src, tgt) for src, tgt, _mu in triples}
        assert pairs == {(u, v) for u in g.nodes for v in g.nodes}

    def test_bounded_repeat_on_cycle(self):
        g = label_cycle(3)
        step = PatternConcat((NodePattern(None), EdgePattern(None), NodePattern(None)))
        triples = pattern_triples(PatternRepeat(step, 2, 2), g)
        assert {(s, t) for s, t, _mu in triples} == {
            ("v0", "v2"),
            ("v1", "v0"),
            ("v2", "v1"),
        }


class TestAsciiParser:
    def test_labels_become_conditions(self, fig3):
        pattern = parse_coregql_pattern("(x:Account)")
        triples = pattern_triples(pattern, fig3)
        assert len(triples) == 6

    def test_edge_label(self, fig3):
        pattern = parse_coregql_pattern("(x)-[t:Transfer]->(y)")
        triples = pattern_triples(pattern, fig3)
        assert len(triples) == 10

    def test_where_clause(self, fig3):
        pattern = parse_coregql_pattern(
            "((x)-[t:Transfer]->(y) WHERE t.amount < 4500000)"
        )
        triples = pattern_triples(pattern, fig3)
        pairs = {(s, t) for s, t, _mu in triples}
        assert pairs == {("a1", "a3"), ("a3", "a4")}  # t1 and t6 are cheap

    def test_pi_inc_from_section_51(self):
        """pi_inc = (x)(((u)->(v))<u.k < v.k>)*(y): increasing node values."""
        pattern = parse_coregql_pattern(
            "(x) (((u)->(v) WHERE u.k < v.k))* (y)"
        )
        g = dated_path([1, 2, 3], on="nodes", prop="k")
        triples = pattern_triples(pattern, g)
        pairs = {(s, t) for s, t, _mu in triples}
        assert ("v0", "v2") in pairs
        g_bad = dated_path([3, 1, 2], on="nodes", prop="k")
        pairs_bad = {
            (s, t) for s, t, _mu in pattern_triples(pattern, g_bad)
        }
        assert ("v0", "v2") not in pairs_bad
        assert ("v1", "v2") in pairs_bad


@pytest.mark.parametrize("text", ["(x)", "(x)-[:a]->(y)"])
def test_negative_max_length_is_rejected_in_both_languages(text):
    """A negative bound admits no path, not even a node's: it is an error,
    for node and edge patterns alike, in CoreGQL and in GQL."""
    g = label_path(1)
    with pytest.raises(QueryError):
        pattern_paths(parse_coregql_pattern(text), g, max_length=-1)
    with pytest.raises(QueryError):
        match_gql_pattern(text, g, max_length=-1)
