"""Tests for l-RPQs: syntax, denotational semantics, automata engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InfiniteResultError, ParseError
from repro.graph.bindings import ListBinding
from repro.graph.generators import diamond_chain, label_path, parallel_chain
from repro.listvars.compile import compile_lrpq
from repro.listvars.enumerate import evaluate_lrpq
from repro.listvars.lrpq import (
    LAtom,
    PathBinding,
    capture,
    denotational_lrpq,
    erase_list_variables,
    label_atom,
    lift_plain_regex,
    list_variables,
    parse_lrpq,
)
from repro.regex.ast import Concat, Epsilon, Regex, Star, Symbol, Union, concat, star


class TestSyntax:
    def test_parse_capture_atom(self):
        r = parse_lrpq("Transfer^z")
        assert r == capture("Transfer", "z")

    def test_parse_example16(self):
        r = parse_lrpq("(Transfer^z)* . isBlocked")
        assert r == concat(star(capture("Transfer", "z")), label_atom("isBlocked"))

    def test_parse_mixed(self):
        r = parse_lrpq("a.a^z + a^z.a")
        assert list_variables(r) == {"z"}

    def test_stray_caret_rejected(self):
        with pytest.raises(ParseError):
            parse_lrpq("a ^ ")

    def test_erase_and_lift(self):
        r = parse_lrpq("(Transfer^z)*.isBlocked")
        erased = erase_list_variables(r)
        from repro.regex.parser import parse_regex

        assert erased == parse_regex("Transfer*.isBlocked")
        lifted = lift_plain_regex(parse_regex("a.b"))
        assert lifted == concat(label_atom("a"), label_atom("b"))

    def test_latom_repr(self):
        assert repr(LAtom("a", frozenset({"z"}))) == "a^z"
        assert repr(LAtom("a")) == "a"


class TestDenotationalSemantics:
    def test_single_capture(self):
        g = label_path(1)
        result = denotational_lrpq(capture("a", "z"), g, max_length=2)
        assert result == {
            PathBinding(g.path("v0", "e0", "v1"), ListBinding.singleton("z", "e0"))
        }

    def test_epsilon(self):
        g = label_path(1)
        result = denotational_lrpq(Epsilon(), g, max_length=1)
        assert {binding.path.objects for binding in result} == {("v0",), ("v1",)}
        assert all(binding.mu == ListBinding.empty() for binding in result)

    def test_star_collects_in_order(self):
        g = label_path(3)
        result = denotational_lrpq(star(capture("a", "z")), g, max_length=3)
        lists = {
            binding.mu["z"]
            for binding in result
            if binding.path.src == "v0" and binding.path.tgt == "v3"
        }
        assert lists == {("e0", "e1", "e2")}

    def test_square_law(self):
        """[[R]]^2_G = [[R.R]]_G — the fix for Example 1's GQL surprise."""
        g = label_path(2)
        r = capture("a", "z")
        squared = set()
        singles = denotational_lrpq(r, g, max_length=1)
        for left in singles:
            for right in singles:
                if left.path.tgt == right.path.src:
                    squared.add(
                        PathBinding(
                            left.path.concat(right.path), left.mu.concat(right.mu)
                        )
                    )
        concatenated = denotational_lrpq(Concat((r, r)), g, max_length=2)
        assert squared == concatenated

    def test_parallel_edges_distinguished(self):
        """Example 16's point: edge identity lets t2 and t5 yield distinct
        bindings even though they connect the same nodes."""
        g = parallel_chain(1, width=2)
        result = denotational_lrpq(capture("a", "z"), g, max_length=1)
        assert {binding.mu["z"] for binding in result} == {("e0_0",), ("e0_1",)}


class TestAutomataEngine:
    def test_example16_bindings(self, fig2):
        """(Transfer^z)* . isBlocked from a3: the paper's mu2-mu5."""
        to_yes = list(
            evaluate_lrpq(
                "(Transfer^z)* . isBlocked", fig2, "a3", "yes", mode="all", limit=40
            )
        )
        lists = {binding.mu["z"] for binding in to_yes}
        assert ("t6",) in lists  # a3 -t6-> a4 -r10-> yes
        assert ("t2", "t3") in lists  # mu3
        assert ("t5", "t3") in lists  # mu4 (parallel edge!)

        to_no = list(
            evaluate_lrpq(
                "(Transfer^z)* . isBlocked", fig2, "a3", "no", mode="all", limit=40
            )
        )
        assert any(binding.mu["z"] == () for binding in to_no)  # mu5: path(a3, r9, no)

    def test_infinite_all_raises(self, fig2):
        with pytest.raises(InfiniteResultError):
            list(evaluate_lrpq("(Transfer^z)*", fig2, "a3", "a3", mode="all"))

    def test_exponential_lists_on_one_path(self):
        """Section 6.3: (a.a^z + a^z.a)* binds 2^n lists on a 2n-path."""
        n = 4
        g = label_path(2 * n)
        bindings = list(
            evaluate_lrpq(
                "(a.a^z + a^z.a)*", g, "v0", f"v{2 * n}", mode="all"
            )
        )
        assert len(bindings) == 2**n
        paths = {binding.path for binding in bindings}
        assert len(paths) == 1  # one path, exponentially many mus

    def test_shortest_mode(self, fig2):
        bindings = list(
            evaluate_lrpq("(Transfer^z)+", fig2, "a3", "a1", mode="shortest")
        )
        assert {binding.mu["z"] for binding in bindings} == {("t7", "t4")}

    def test_shortest_keeps_all_geodesics(self, fig2):
        bindings = list(
            evaluate_lrpq("(Transfer^z)+", fig2, "a3", "a2", mode="shortest")
        )
        assert {binding.mu["z"] for binding in bindings} == {("t2",), ("t5",)}

    def test_simple_and_trail_modes(self, fig3):
        simple = list(
            evaluate_lrpq("(Transfer^z)+", fig3, "a3", "a5", mode="simple")
        )
        assert all(binding.path.is_simple() for binding in simple)
        trail = list(
            evaluate_lrpq("(Transfer^z)+", fig3, "a3", "a3", mode="trail")
        )
        assert all(binding.path.is_trail() for binding in trail)
        assert any(binding.mu["z"] == ("t7", "t4", "t1") for binding in trail)

    def test_limit(self, fig2):
        bindings = list(
            evaluate_lrpq("(Transfer^z)*", fig2, "a3", "a3", mode="all", limit=3)
        )
        assert len(bindings) == 3

    def test_unknown_endpoints(self, fig2):
        assert list(evaluate_lrpq("a^z", fig2, "zz", "a1")) == []

    def test_compile_alphabet_is_atoms(self, fig2):
        nfa = compile_lrpq(parse_lrpq("(Transfer^z)*.isBlocked"), fig2)
        assert all(isinstance(symbol, LAtom) for symbol in nfa.alphabet)

    def test_wildcard_instantiation(self):
        g = label_path(2)
        bindings = list(evaluate_lrpq("_ . a^z", g, "v0", "v2", mode="all"))
        assert len(bindings) == 1
        assert bindings[0].mu["z"] == ("e1",)


def lrpq_regexes() -> st.SearchStrategy[Regex]:
    leaves = st.sampled_from(
        [
            Symbol(LAtom("a", frozenset())),
            Symbol(LAtom("a", frozenset({"z"}))),
            Symbol(LAtom("b", frozenset({"w"}))),
            Epsilon(),
        ]
    )

    def extend(children):
        return st.one_of(
            st.builds(lambda x, y: Union((x, y)), children, children),
            st.builds(lambda x, y: Concat((x, y)), children, children),
            st.builds(Star, children),
        )

    return st.recursive(leaves, extend, max_leaves=6)


class TestEnginesAgree:
    @given(lrpq_regexes())
    @settings(max_examples=60, deadline=None)
    def test_automaton_matches_denotational(self, regex):
        graph = diamond_chain(2, label="a")
        # add a b-labeled shortcut so 'b' atoms are satisfiable
        graph.add_edge("bridge", "j0", "j2", "b")
        expected = {
            (binding.path, binding.mu)
            for binding in denotational_lrpq(regex, graph, max_length=6)
            if binding.path.src == "j0" and binding.path.tgt == "j2"
        }
        actual = {
            (binding.path, binding.mu)
            for binding in evaluate_lrpq(regex, graph, "j0", "j2", mode="all")
        }
        assert actual == expected


class TestLimit:
    @pytest.mark.parametrize("mode", ["all", "shortest", "simple", "trail"])
    def test_limit_zero_yields_nothing(self, fig2, mode):
        def bindings(limit):
            return list(evaluate_lrpq("(Transfer^z)+", fig2, "a3", "a5", mode, limit))

        assert bindings(0) == []
        assert len(bindings(1)) == 1
