"""Unit tests for the LRU compilation cache (repro.engine.cache)."""

import pytest

from repro.engine.cache import CompilationCache, CompiledQuery, compile_uncached
from repro.engine.stats import EngineStats
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.regex.parser import parse_regex
from repro.rpq.evaluation import reachable_by_rpq


def regex(text):
    return parse_regex(text)


class TestLRUBehaviour:
    def test_hit_returns_same_object(self):
        cache = CompilationCache(maxsize=4)
        first = cache.compile(regex("a.b"), {"a", "b"})
        second = cache.compile(regex("a.b"), {"a", "b"})
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_is_least_recently_used(self):
        cache = CompilationCache(maxsize=2)
        key_a = (regex("a"), frozenset({"a"}))
        key_b = (regex("b"), frozenset({"b"}))
        key_c = (regex("c"), frozenset({"c"}))
        cache.compile(*key_a)
        cache.compile(*key_b)
        # Touch `a` so that `b` is now the least recently used entry.
        cache.compile(*key_a)
        cache.compile(*key_c)
        assert cache.evictions == 1
        keys = cache.keys()
        assert (key_a[0], key_a[1]) in keys and (key_c[0], key_c[1]) in keys
        assert (key_b[0], key_b[1]) not in keys
        # Re-compiling the evicted entry is a miss (and it evicts `a`,
        # which became LRU when `c` entered); the survivor `c` is a hit.
        misses_before = cache.misses
        cache.compile(*key_b)
        assert cache.misses == misses_before + 1
        hits_before = cache.hits
        cache.compile(*key_c)
        assert cache.hits == hits_before + 1

    def test_maxsize_is_enforced(self):
        cache = CompilationCache(maxsize=3)
        for letter in "abcdefgh":
            cache.compile(regex(letter), {letter})
        assert len(cache) == 3
        assert cache.evictions == 5

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            CompilationCache(maxsize=0)

    def test_clear_keeps_monotone_counters(self):
        cache = CompilationCache()
        cache.compile(regex("a"), {"a"})
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 1
        cache.compile(regex("a"), {"a"})
        assert cache.misses == 2


class TestAlphabetKeying:
    """Remark 11: wildcards are instantiated over the *graph's* alphabet."""

    def test_same_regex_different_alphabets_do_not_collide(self):
        cache = CompilationCache()
        wildcard = regex("_*")
        small = cache.compile(wildcard, {"a"})
        large = cache.compile(wildcard, {"a", "b"})
        assert small is not large
        assert cache.misses == 2 and cache.hits == 0
        assert small.nfa.accepts(["a"]) and not small.nfa.accepts(["b"])
        assert large.nfa.accepts(["b"])

    def test_wildcard_results_track_graph_mutation(self):
        """A mutated graph must never see an automaton for its old alphabet."""
        graph = EdgeLabeledGraph()
        graph.add_edge("e1", "u", "v", "a")
        assert reachable_by_rpq("_*", graph, "u") == {"u", "v"}
        # The new label enlarges the Remark 11 alphabet; a cache keyed only
        # on the expression would return the stale {a}-automaton here.
        graph.add_edge("e2", "v", "w", "brand-new-label")
        assert reachable_by_rpq("_*", graph, "u") == {"u", "v", "w"}


class TestParseCache:
    def test_parse_hit_and_miss_counters(self):
        cache = CompilationCache()
        stats = EngineStats()
        first = cache.parse("a.(a+b)*", stats)
        second = cache.parse("a.(a+b)*", stats)
        assert first is second
        assert stats.get("parse_misses") == 1
        assert stats.get("parse_hits") == 1

    def test_string_queries_compile_through_parse_cache(self):
        cache = CompilationCache()
        compiled = cache.compile("a.b", {"a", "b"})
        again = cache.compile("a.b", {"a", "b"})
        assert compiled is again
        assert cache.parse_misses == 1 and cache.parse_hits == 1


class TestCompiledQuery:
    def test_delta_matches_nfa_transitions(self):
        compiled = compile_uncached(regex("a.(a+b)*"), {"a", "b"})
        flattened = {
            (source, symbol, target)
            for source, by_symbol in compiled.delta.items()
            for symbol, targets in by_symbol.items()
            for target in targets
        }
        assert flattened == set(compiled.nfa.transitions())
        assert compiled.initial == compiled.nfa.initial
        assert compiled.finals == compiled.nfa.finals

    def test_optional_dfa_agrees_with_nfa(self):
        compiled = compile_uncached(regex("a.(a+b)*"), {"a", "b"})
        dfa = compiled.dfa()
        assert compiled.dfa() is dfa  # built once
        for word in (["a"], ["a", "b"], ["b"], [], ["a", "a", "b"]):
            assert dfa.accepts(word) == compiled.nfa.accepts(word)

    def test_one_plan_per_graph_queried_in_turn(self, monkeypatch):
        """Two graphs with the same labels, queried alternately through one
        compiled query, lower it once each, not once per call; past
        ``INT_PLANS_PER_QUERY`` interners the oldest plan goes first."""
        from repro.engine.cache import INT_PLANS_PER_QUERY, IntPlan
        from repro.engine.csr import get_csr
        from repro.graph.generators import random_graph
        from repro.rpq.evaluation import evaluate_rpq

        graphs = [
            random_graph(12, 30, labels=("a", "b"), seed=seed) for seed in (1, 2)
        ]
        compiled = compile_uncached(regex("a.b*"), {"a", "b"})
        lowered = []
        lower = IntPlan.__init__

        def counting(plan, query, interner):
            lowered.append(interner.uid)
            lower(plan, query, interner)

        monkeypatch.setattr(IntPlan, "__init__", counting)
        for _ in range(10):
            for graph in graphs:
                evaluate_rpq(compiled, graph)
        assert len(lowered) == 2
        uids = [get_csr(graph).interner.uid for graph in graphs]
        assert lowered == uids
        # A bounded map: more interners than it holds evict the oldest.
        extra = [
            random_graph(6, 10, labels=("a", "b"), seed=seed)
            for seed in range(3, 3 + INT_PLANS_PER_QUERY)
        ]
        for graph in extra:
            evaluate_rpq(compiled, graph)
        assert len(compiled._int_plans) == INT_PLANS_PER_QUERY
        assert uids[0] not in compiled._int_plans

    def test_stats_threading(self):
        cache = CompilationCache()
        stats = EngineStats()
        cache.compile(regex("a"), {"a"}, stats)
        cache.compile(regex("a"), {"a"}, stats)
        assert stats.get("cache_misses") == 1
        assert stats.get("cache_hits") == 1
