"""Tests for the GQL group-variable semantics — Examples 1, 2, 3."""

import os
import subprocess
import sys

import pytest

from repro.errors import InfiniteResultError, QueryError
from repro.gql.semantics import GROUP, SINGLE, match_gql_pattern
from repro.graph.generators import dated_path, label_cycle, label_path
from repro.graph.property_graph import PropertyGraph


def two_step_graph():
    """v0 -a-> v1 -a-> v2 plus a self-loop at s."""
    g = PropertyGraph()
    g.add_edge("e0", "v0", "v1", "a")
    g.add_edge("e1", "v1", "v2", "a")
    g.add_edge("loop", "s", "s", "a")
    return g


class TestExample1:
    """(x) (()-[z:a]->()){2} (y) vs its three would-be equivalents."""

    PATTERN_ITERATED = "(x) (()-[z:a]->()){2} (y)"
    PATTERN_REPEATED_Z = "(x) ()-[z:a]->() ()-[z:a]->() (y)"
    PATTERN_Z_AND_Z1 = "(x) ()-[z:a]->() ()-[z1:a]->() (y)"

    def test_iterated_collects_list(self):
        g = two_step_graph()
        matches = match_gql_pattern(self.PATTERN_ITERATED, g)
        by_xy = {
            (m.get("x"), m.get("y")): m for m in matches
        }
        match = by_xy[("v0", "v2")]
        assert match.kind_of("z") == GROUP
        assert match.get("z") == ("e0", "e1")

    def test_repeated_z_is_a_join(self):
        """Both z occurrences must match the SAME edge, and ()() forces the
        same node, so only self-loops match."""
        g = two_step_graph()
        matches = match_gql_pattern(self.PATTERN_REPEATED_Z, g)
        assert {(m.get("x"), m.get("y")) for m in matches} == {("s", "s")}
        (match,) = matches
        assert match.kind_of("z") == SINGLE
        assert match.get("z") == "loop"

    def test_z_and_z1_are_separate_singletons(self):
        g = two_step_graph()
        matches = match_gql_pattern(self.PATTERN_Z_AND_Z1, g)
        by_xy = {(m.get("x"), m.get("y")): m for m in matches}
        match = by_xy[("v0", "v2")]
        assert match.get("z") == "e0" and match.get("z1") == "e1"
        assert match.kind_of("z") == SINGLE

    def test_the_three_patterns_are_inequivalent(self):
        """The headline of Example 1: pi{2} differs from its 'expansions'."""
        g = two_step_graph()
        iterated = {
            (m.get("x"), m.get("y"))
            for m in match_gql_pattern(self.PATTERN_ITERATED, g)
        }
        joined = {
            (m.get("x"), m.get("y"))
            for m in match_gql_pattern(self.PATTERN_REPEATED_Z, g)
        }
        split = {
            (m.get("x"), m.get("y"))
            for m in match_gql_pattern(self.PATTERN_Z_AND_Z1, g)
        }
        assert iterated != joined  # {2} is not a join
        assert iterated == split  # same endpoints, different bindings
        assert ("v0", "v2") in iterated and ("v0", "v2") not in joined


class TestExample2:
    """Variables as joins inside an iteration, as lists outside."""

    def make_graph(self):
        """Two nodes with a-self-loops connected by an a-edge, plus one
        node without a self-loop."""
        g = PropertyGraph()
        g.add_edge("l0", "n0", "n0", "a")
        g.add_edge("l1", "n1", "n1", "a")
        g.add_edge("step", "n0", "n1", "a")
        g.add_edge("step2", "n1", "n2", "a")  # n2 has no self-loop
        return g

    def test_inner_subpattern_joins_on_self_loop(self):
        g = self.make_graph()
        matches = match_gql_pattern("(x)-[:a]->(x)", g)
        assert {m.get("x") for m in matches} == {"n0", "n1"}

    def test_under_iteration_x_becomes_group(self):
        """((x)-[:a]->(x)-[:a]->()){1,2}: within one iteration the two x
        occurrences JOIN (forcing a self-loop), so each iteration binds x
        once; across iterations x collects the visited nodes into a list —
        "a list of nodes that are connected with a-labeled edges, in which
        each node has an a-labeled self-loop" (Example 2)."""
        g = self.make_graph()
        matches = match_gql_pattern("((x)-[:a]->(x)-[:a]->()){1,2}", g)
        groups = {m.get("x") for m in matches}
        assert ("n0",) in groups  # one iteration at n0
        assert ("n0", "n1") in groups  # two chained iterations
        loop_nodes = {"n0", "n1"}
        for m in matches:
            assert m.kind_of("x") == GROUP
            # every collected node carries an a-labeled self-loop (the join)
            assert set(m.get("x")) <= loop_nodes

    def test_no_self_loop_no_match(self):
        g = self.make_graph()
        matches = match_gql_pattern("((x)-[:a]->(x)-[:a]->()){2}", g)
        # second iteration would need a self-loop at n2's predecessor n1: ok,
        # but an iteration anchored at n2 itself can never occur.
        for m in matches:
            assert "n2" not in m.get("x")


class TestExample3:
    """The naive stepping-by-two WHERE misses overlapping violations."""

    NAIVE = "(x) ( ()-[u:a]->()-[v:a]->() WHERE u.date < v.date)* (y)"

    def test_accepts_the_bad_witness(self):
        """Dates 03, 04, 01, 02: both windows (03<04, 01<02) pass even
        though the sequence is not increasing."""
        g = dated_path(["03", "04", "01", "02"], on="edges")
        matches = match_gql_pattern(self.NAIVE, g)
        endpoints = {(m.get("x"), m.get("y")) for m in matches}
        assert ("v0", "v4") in endpoints  # wrongly accepted!

    def test_rejects_violation_inside_a_window(self):
        g = dated_path(["04", "03", "01", "02"], on="edges")
        matches = match_gql_pattern(self.NAIVE, g)
        endpoints = {(m.get("x"), m.get("y")) for m in matches}
        assert ("v0", "v4") not in endpoints

    def test_dlrpq_gets_it_right(self):
        """Contrast with Example 21's dl-RPQ (tested in depth elsewhere)."""
        from repro.datatests.dlrpq import evaluate_dlrpq

        g = dated_path(["03", "04", "01", "02"], on="edges")
        query = "[a][x := date] ( (_)[a][date > x][x := date] )*"
        assert list(evaluate_dlrpq(query, g, "v0", "v4", mode="all")) == []


class TestEngineMechanics:
    def test_node_label_filter(self, fig3):
        matches = match_gql_pattern("(x:Account)", fig3)
        assert len(matches) == 6

    def test_edge_label_filter(self, fig3):
        matches = match_gql_pattern("(x)-[t:Transfer]->(y)", fig3)
        assert len(matches) == 10

    def test_where_group_variable_rejected(self):
        g = two_step_graph()
        with pytest.raises(QueryError):
            match_gql_pattern("((()-[z:a]->()){2} WHERE z.p = 1)", g)

    def test_group_variable_in_two_siblings_rejected(self):
        g = two_step_graph()
        with pytest.raises(QueryError):
            match_gql_pattern("(()-[z:a]->()){1} (()-[z:a]->()){1}", g)

    def test_star_on_cycle_raises(self):
        g = label_cycle(3)
        with pytest.raises(InfiniteResultError):
            match_gql_pattern("(x) (()-[z:a]->())* (y)", g)

    def test_star_on_cycle_with_bound(self):
        g = label_cycle(3)
        matches = match_gql_pattern("(x) (()-[z:a]->())* (y)", g, max_length=4)
        assert matches
        assert max(len(m.path) for m in matches) == 4

    def test_alternation(self):
        g = label_path(1)
        matches = match_gql_pattern("(x) | (x)", g)
        assert len(matches) == 2

    def test_where_with_constant(self, fig3):
        matches = match_gql_pattern(
            "((x)-[t:Transfer]->(y) WHERE t.amount < 4500000)", fig3
        )
        assert {m.get("t") for m in matches} == {"t1", "t6"}


ZERO_LENGTH_QUANTIFIERS = """
from repro.coregql.parser import parse_coregql_pattern
from repro.coregql.semantics import pattern_paths
from repro.errors import InfiniteResultError
from repro.gql.semantics import match_gql_pattern
from repro.graph.property_graph import PropertyGraph

graph = PropertyGraph()
graph.add_node("u")
graph.add_node("v")
for max_length in (None, 3):
    try:
        match_gql_pattern("((x))*", graph, max_length=max_length)
    except InfiniteResultError as error:
        assert "max_length" not in str(error), error
    else:
        raise AssertionError("((x))* has infinitely many matches")
assert len(match_gql_pattern("(()){2,}", graph)) == 2
assert len(match_gql_pattern("((x)){0,3}", graph)) == 8
assert len(pattern_paths(parse_coregql_pattern("((x))*"), graph)) == 2
"""


def test_unbounded_quantifier_over_zero_length_binding_raises():
    """``((x))*`` matches the trivial path with x's list ever longer, so the
    match set is infinite and no length bound helps: it must raise, not
    loop.  Zero-length iterations that bind nothing stay finite, and so
    does CoreGQL's ``((x))*``, whose repetition erases x.  Runs in
    its own interpreter under a 5 s timeout."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    subprocess.run(
        [sys.executable, "-c", ZERO_LENGTH_QUANTIFIERS], env=env, timeout=5, check=True
    )
