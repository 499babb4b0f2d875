"""Tests for path-mode enumeration (Sections 3.1.5 and 6.3)."""

import pytest

from repro.errors import EvaluationError, InfiniteResultError
from repro.graph.generators import diamond_chain, label_cycle, label_path, parallel_chain
from repro.rpq.path_modes import matching_paths


class TestShortest:
    def test_single_shortest(self, fig2):
        paths = list(matching_paths("Transfer+", fig2, "a3", "a5", mode="shortest"))
        assert len(paths) == 1
        assert paths[0].objects == ("a3", "t7", "a5")

    def test_all_geodesics_returned(self, fig2):
        """a3 -> a2 has two parallel shortest transfers: t2 and t5."""
        paths = set(matching_paths("Transfer+", fig2, "a3", "a2", mode="shortest"))
        assert {p.objects for p in paths} == {("a3", "t2", "a2"), ("a3", "t5", "a2")}

    def test_epsilon_shortest(self, fig2):
        paths = list(matching_paths("Transfer*", fig2, "a3", "a3", mode="shortest"))
        assert len(paths) == 1 and paths[0].objects == ("a3",)

    def test_shortest_on_diamonds(self):
        g = diamond_chain(3)
        paths = list(matching_paths("a*", g, "j0", "j3", mode="shortest"))
        assert len(paths) == 2 ** 3
        assert all(len(p) == 6 for p in paths)

    def test_limit(self):
        g = diamond_chain(3)
        paths = list(matching_paths("a*", g, "j0", "j3", mode="shortest", limit=3))
        assert len(paths) == 3

    def test_no_match(self, fig2):
        assert list(matching_paths("owner", fig2, "a1", "a2", mode="shortest")) == []


class TestAll:
    def test_finite_all(self):
        g = diamond_chain(2)
        paths = list(matching_paths("a*", g, "j0", "j2", mode="all"))
        assert len(paths) == 4

    def test_infinite_raises(self):
        g = label_cycle(3)
        with pytest.raises(InfiniteResultError):
            list(matching_paths("a*", g, "v0", "v0", mode="all"))

    def test_infinite_with_limit(self):
        g = label_cycle(3)
        paths = list(matching_paths("a*", g, "v0", "v0", mode="all", limit=3))
        assert [len(p) for p in paths] == [0, 3, 6]

    def test_length_order(self):
        g = parallel_chain(2)
        paths = list(matching_paths("a+", g, "v0", "v2", mode="all"))
        assert [len(p) for p in paths] == [2, 2, 2, 2]

    def test_ambiguous_query_no_duplicates(self):
        g = label_path(2)
        paths = list(matching_paths("a* . a*", g, "v0", "v2", mode="all"))
        assert len(paths) == 1

    def test_ambiguity_does_not_multiply_the_search(self):
        """``(a+a)*`` gives a length-k path 2^k automaton runs (Section 6.1);
        the enumerator must walk each graph path once, not once per run.
        One budget tick per queue pop keeps a regression from eating memory:
        it trips ``max_states`` after ~13 paths instead."""
        from repro.engine.limits import QueryBudget
        from repro.graph.edge_labeled import EdgeLabeledGraph
        from repro.regex.ast import Star, Symbol, Union

        g = EdgeLabeledGraph()
        g.add_edge("loop", "n0", "n0", "a")
        a = Symbol("a")
        paths = list(
            matching_paths(
                Star(Union((a, a))), g, "n0", "n0", mode="all", limit=40,
                budget=QueryBudget(max_states=10_000),
            )
        )
        assert [len(p) for p in paths] == list(range(40))


class TestSimpleAndTrail:
    def test_simple_excludes_node_repeats(self, fig3):
        paths = set(matching_paths("Transfer+", fig3, "a3", "a5", mode="simple"))
        assert all(p.is_simple() for p in paths)
        objects = {p.objects for p in paths}
        assert ("a3", "t7", "a5") in objects
        assert ("a3", "t6", "a4", "t9", "a6", "t10", "a5") in objects

    def test_trail_excludes_edge_repeats(self, fig3):
        paths = set(matching_paths("Transfer+", fig3, "a3", "a3", mode="trail"))
        assert all(p.is_trail() for p in paths)
        assert all(len(p) > 0 for p in paths)
        objects = {p.objects for p in paths}
        assert ("a3", "t7", "a5", "t4", "a1", "t1", "a3") in objects

    def test_trails_superset_of_simple(self, fig3):
        simple = set(matching_paths("Transfer+", fig3, "a3", "a5", mode="simple"))
        trails = set(matching_paths("Transfer+", fig3, "a3", "a5", mode="trail"))
        assert simple <= trails

    def test_simple_on_cycle(self):
        g = label_cycle(4)
        paths = list(matching_paths("a*", g, "v0", "v2", mode="simple"))
        assert len(paths) == 1 and len(paths[0]) == 2

    def test_trail_finite_on_cycle(self):
        g = label_cycle(3)
        paths = list(matching_paths("a*", g, "v0", "v0", mode="trail"))
        # empty path and the full cycle
        assert sorted(len(p) for p in paths) == [0, 3]


class TestValidation:
    def test_unknown_mode(self, fig2):
        with pytest.raises(EvaluationError):
            list(matching_paths("Transfer", fig2, "a1", "a2", mode="fastest"))

    def test_unknown_endpoint(self, fig2):
        assert list(matching_paths("Transfer", fig2, "zz", "a2")) == []


class TestLimit:
    """``limit`` is tested before the first answer, not after it."""

    @pytest.mark.parametrize("mode", ["all", "shortest", "simple", "trail"])
    def test_limit_zero_yields_nothing(self, fig2, mode):
        def paths(limit):
            return list(matching_paths("Transfer+", fig2, "a3", "a5", mode, limit))

        assert paths(0) == []
        assert len(paths(1)) == 1

    def test_negative_limit_is_a_value_error(self, fig2):
        with pytest.raises(ValueError):
            list(matching_paths("Transfer+", fig2, "a3", "a5", mode="all", limit=-1))
