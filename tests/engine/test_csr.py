"""The flat int-encoded data plane: interning, CSR rows, bitsets, IntPlan.

``tests/engine/test_differential.py`` proves the CSR kernel answers every
query exactly like the seed evaluator; this module proves the *components*
under it correct in isolation and locks in the lifecycle:

* interner properties — round-trip, denseness, stability per graph
  version, extension after mutation (a fresh uid only when a label is
  added);
* CSR rows — exact agreement with the graph's adjacency per label and
  direction, multiplicity preserved, monotone offsets;
* bytearray bitsets — set/test/count/indices round-trips;
* the frontier invariant — walking the CSR rows with a bitset visited set
  discovers exactly the ``(node, state)`` seen set of a BFS over the graph
  object itself, and the kernel's two loops expand the same pairs;
* cache lifecycle — ``get_csr`` reuse within a version, catch-up (a patch,
  not a build) after mutation, a smuggled stale snapshot is never served
  (the staleness regression), stale ``IntPlan``s are dropped on interner
  change (``tests/engine/test_csr_catchup.py`` is the catch-up
  differential);
* kernel edge cases vs the seed evaluator — empty alphabet, query-only
  labels, self-loops, isolated nodes, single-node graphs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.engine import kernel
from repro.engine.cache import IntPlan
from repro.engine.csr import (
    CSRGraph,
    bitset_count,
    bitset_indices,
    bitset_make,
    bitset_set,
    bitset_test,
    get_csr,
)
from repro.engine.intern import Interner, get_interner
from repro.engine.stats import EngineStats
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.rpq.evaluation import evaluate_rpq


def small_graph() -> EdgeLabeledGraph:
    graph = EdgeLabeledGraph()
    graph.add_edge("e0", "u", "v", "a")
    graph.add_edge("e1", "v", "w", "b")
    graph.add_edge("e2", "u", "v", "a")  # parallel edge, same label
    graph.add_edge("e3", "w", "w", "c")  # self-loop
    graph.add_node("isolated")
    return graph


@st.composite
def graphs(draw, max_nodes: int = 6, max_edges: int = 10) -> EdgeLabeledGraph:
    num_nodes = draw(st.integers(1, max_nodes))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1),
                st.integers(0, num_nodes - 1),
                st.sampled_from("abc"),
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
# interner properties
# ----------------------------------------------------------------------
class TestInterner:
    @settings(max_examples=50, deadline=None)
    @given(graph=graphs())
    def test_round_trip_and_dense(self, graph):
        interner = Interner(graph)
        assert interner.num_nodes == graph.num_nodes
        # dense: ids cover exactly 0..n-1, resolve/intern invert each other
        assert sorted(interner.node_id(n) for n in graph.iter_nodes()) == list(
            range(interner.num_nodes)
        )
        for index in range(interner.num_nodes):
            assert interner.node_id(interner.node(index)) == index
        assert sorted(interner.label_id(l) for l in graph.labels) == list(
            range(interner.num_labels)
        )
        for index in range(interner.num_labels):
            assert interner.label_id(interner.label(index)) == index

    @settings(max_examples=50, deadline=None)
    @given(graph=graphs())
    def test_stable_across_rebuilds_of_same_version(self, graph):
        first = Interner(graph)
        second = Interner(graph)
        assert first.version == second.version
        assert first._node_ids == second._node_ids
        assert first._label_ids == second._label_ids
        # uids are process-unique even for identical mappings
        assert first.uid != second.uid

    def test_rebuilt_after_mutation(self):
        """The uid names the label numbering: it survives a write that keeps
        the label set and changes with the first edge of a new label."""
        graph = small_graph()
        before = get_interner(graph)
        graph.add_edge("e8", "v", "fresh", "a")
        same_labels = get_interner(graph)
        assert same_labels is not before
        assert same_labels.uid == before.uid
        assert same_labels.version == graph.version > before.version
        assert same_labels.node_id("fresh") == before.num_nodes
        assert before.node_id("fresh") is None
        graph.add_edge("e9", "v", "u", "d")
        after = get_interner(graph)
        assert after.uid != before.uid
        assert after.version == graph.version > same_labels.version
        assert after.label_id("d") == before.num_labels
        assert before.label_id("d") is None

    def test_foreign_objects_resolve_to_none(self):
        interner = Interner(small_graph())
        assert interner.node_id("nope") is None
        assert interner.label_id("nope") is None

    def test_nodes_labels_views_in_id_order(self):
        interner = Interner(small_graph())
        assert [interner.node_id(n) for n in interner.nodes] == list(
            range(interner.num_nodes)
        )
        assert [interner.label_id(l) for l in interner.labels] == list(
            range(interner.num_labels)
        )


# ----------------------------------------------------------------------
# CSR rows vs the graph's adjacency
# ----------------------------------------------------------------------
class TestCSRRows:
    @settings(max_examples=50, deadline=None)
    @given(graph=graphs())
    def test_rows_match_adjacency_with_multiplicity(self, graph):
        csr = CSRGraph(graph)
        interner = csr.interner
        for label in graph.labels:
            label_int = interner.label_id(label)
            for node in graph.iter_nodes():
                node_int = interner.node_id(node)
                out = sorted(
                    interner.node(i) for i in csr.out_targets(node_int, label_int)
                )
                expected_out = sorted(
                    graph.tgt(e) for e in graph.out_edges(node, label)
                )
                assert out == expected_out  # multiset equality, parallel edges kept
                back = sorted(
                    interner.node(i) for i in csr.in_sources(node_int, label_int)
                )
                expected_back = sorted(
                    graph.src(e) for e in graph.in_edges(node, label)
                )
                assert back == expected_back

    @settings(max_examples=50, deadline=None)
    @given(graph=graphs())
    def test_offsets_monotone_and_complete(self, graph):
        csr = CSRGraph(graph)
        for rows in (csr.out_rows, csr.in_rows):
            total = 0
            for offsets, targets in rows:
                assert len(offsets) == csr.num_nodes + 1
                assert offsets[0] == 0 and offsets[-1] == len(targets)
                assert all(
                    offsets[i] <= offsets[i + 1] for i in range(csr.num_nodes)
                )
                total += len(targets)
            # every edge lands in exactly one label row, per direction
            assert total == graph.num_edges


# ----------------------------------------------------------------------
# bitsets
# ----------------------------------------------------------------------
class TestBitsets:
    @settings(max_examples=100, deadline=None)
    @given(
        size=st.integers(1, 200),
        picks=st.sets(st.integers(0, 199), max_size=40),
    )
    def test_set_test_count_indices_round_trip(self, size, picks):
        picks = {p for p in picks if p < size}
        bits = bitset_make(size)
        assert bitset_count(bits) == 0
        for index in picks:
            assert bitset_set(bits, index) is True   # newly set
            assert bitset_set(bits, index) is False  # already set
        for index in range(size):
            assert bitset_test(bits, index) == (index in picks)
        assert bitset_count(bits) == len(picks)
        assert list(bitset_indices(bits)) == sorted(picks)


# ----------------------------------------------------------------------
# the frontier invariant: CSR + IntPlan + bitset == a plain BFS's seen set
# ----------------------------------------------------------------------
class TestFrontierInvariant:
    @settings(max_examples=50, deadline=None)
    @given(graph=graphs(), source=st.integers(0, 5))
    def test_bitset_frontier_equals_dict_seen_pairs(self, graph, source):
        """Walk the public data-plane pieces by hand and compare frontiers."""
        node = f"v{source}"
        if not graph.has_node(node):
            return
        compiled = kernel.compile_query("a.(b+c)*.a", graph)

        # reference: the (node, state) seen set of a BFS over the graph object
        from collections import deque

        seen = {(node, state) for state in compiled.initial}
        queue = deque(seen)
        while queue:
            current, state = queue.popleft()
            for symbol, next_states in compiled.delta.get(state, {}).items():
                for edge in graph.out_edges(current, symbol):
                    for next_state in next_states:
                        pair = (graph.tgt(edge), next_state)
                        if pair not in seen:
                            seen.add(pair)
                            queue.append(pair)

        # the flat plane: same BFS over packed codes and a bitset
        csr = get_csr(graph)
        plan = compiled.int_plan(csr.interner)
        k = plan.state_bits
        visited = bitset_make(csr.num_nodes << k if k else csr.num_nodes)
        source_int = csr.interner.node_id(node)
        frontier = deque()
        for state in plan.initial:
            code = (source_int << k) | state
            if bitset_set(visited, code):
                frontier.append(code)
        while frontier:
            code = frontier.popleft()
            for label_int, next_states in plan.delta[code & plan.state_mask]:
                for target in csr.out_targets(code >> k, label_int):
                    for next_state in next_states:
                        succ = (target << k) | next_state
                        if bitset_set(visited, succ):
                            frontier.append(succ)

        state_of = {index: state for state, index in plan.state_ids.items()}
        decoded = {
            (csr.interner.node(code >> k), state_of[code & plan.state_mask])
            for code in bitset_indices(visited)
        }
        assert decoded == seen
        assert bitset_count(visited) == len(seen)

    @settings(max_examples=30, deadline=None)
    @given(graph=graphs(), source=st.integers(0, 5))
    def test_kernels_expand_equal_pair_counts(self, graph, source):
        """The kernel's two loops agree on one start node: the bitset BFS
        and a one-source sweep pop every discovered pair once, so answers,
        ``nodes_expanded`` and ``edges_relaxed`` match whatever the visit
        order."""
        node = f"v{source}"
        if not graph.has_node(node):
            return
        compiled = kernel.compile_query("(a+b)*.c", graph)
        bfs_stats, sweep_stats = EngineStats(), EngineStats()
        reached = kernel.reachable(compiled, graph, node, stats=bfs_stats)
        swept = kernel.evaluate_sweep(compiled, graph, [node], stats=sweep_stats)
        assert reached == {target for _source, target in swept}
        for counter in ("nodes_expanded", "edges_relaxed"):
            assert bfs_stats.get(counter) == sweep_stats.get(counter)


# ----------------------------------------------------------------------
# cache lifecycle and the staleness regression
# ----------------------------------------------------------------------
class TestCSRLifecycle:
    def test_reused_within_a_version(self):
        graph = small_graph()
        stats = EngineStats()
        first = get_csr(graph, stats)
        second = get_csr(graph, stats)
        assert first is second
        assert stats.get("csr_builds") == 1
        assert stats.get("csr_reuses") == 1

    def test_rebuilt_after_mutation(self):
        """A write costs a catch-up patch, never a second full build."""
        graph = small_graph()
        stats = EngineStats()
        before = get_csr(graph, stats)
        graph.add_edge("e9", "isolated", "u", "d")
        after = get_csr(graph, stats)
        assert after is not before
        assert after.version == graph.version
        assert before.version < graph.version  # the old snapshot is untouched
        assert stats.get("csr_builds") == 1
        assert stats.get("csr_patches") == 1
        assert get_csr(graph, stats) is after
        assert stats.get("csr_reuses") == 1

    def test_smuggled_stale_snapshot_is_never_served(self):
        """The version check: a stale snapshot planted on the slot after a
        mutation is caught up to the current version before it is served."""
        graph = small_graph()
        stale = get_csr(graph)
        graph.add_edge("e9", "u", "w", "z")
        graph._engine_csr = stale  # smuggle it back in
        served = get_csr(graph)
        assert served is not stale
        assert served.version == graph.version

    def test_query_mutate_query_sees_new_edges(self):
        """End-to-end staleness regression: never serve answers computed on
        a CSR built for a prior graph version."""
        graph = small_graph()
        assert evaluate_rpq("z", graph) == set()
        graph.add_edge("e9", "u", "w", "z")
        assert evaluate_rpq("z", graph) == {("u", "w")}
        graph.add_edge("e10", "w", "isolated", "z")
        assert evaluate_rpq("z.z", graph) == {("u", "isolated")}


class TestIntPlan:
    def test_lowering_shape(self):
        graph = small_graph()
        compiled = kernel.compile_query("a.b", graph)
        interner = get_interner(graph)
        plan = compiled.int_plan(interner)
        assert plan.num_states == compiled.nfa.num_states
        assert sorted(plan.state_ids.values()) == list(range(plan.num_states))
        assert plan.finals_mask.bit_count() == len(compiled.finals)
        assert (1 << plan.state_bits) >= max(plan.num_states, 1)
        # every lowered transition maps back to a dict-plane transition
        state_of = {index: state for state, index in plan.state_ids.items()}
        for state_int, rows in enumerate(plan.delta):
            by_symbol = compiled.delta.get(state_of[state_int], {})
            for label_int, next_states in rows:
                symbol = interner.label(label_int)
                assert tuple(
                    sorted(plan.state_ids[s] for s in by_symbol[symbol])
                ) == tuple(sorted(next_states))

    def test_graph_absent_symbols_are_dropped(self):
        graph = small_graph()
        compiled = kernel.compile_query("zz.a", graph)  # 'zz' not in graph
        plan = compiled.int_plan(get_interner(graph))
        lowered_labels = {
            label_int for rows in plan.delta for label_int, _ in rows
        }
        assert all(
            get_interner(graph).label(label_int) != "zz"
            for label_int in lowered_labels
        )

    def test_memoized_per_interner_and_rebuilt_on_change(self):
        graph = small_graph()
        compiled = kernel.compile_query("a.b.c", graph)
        interner = get_interner(graph)
        plan = compiled.int_plan(interner)
        assert compiled.int_plan(interner) is plan  # memo hit
        other = Interner(graph)  # same mapping, different uid
        replacement = compiled.int_plan(other)
        assert replacement is not plan
        assert isinstance(replacement, IntPlan)
        assert replacement.interner_uid == other.uid


# ----------------------------------------------------------------------
# kernel edge cases vs the seed evaluator
# ----------------------------------------------------------------------
class TestKernelEdgeCases:
    def both(self, query, graph, **kwargs):
        fast = evaluate_rpq(query, graph, **kwargs)
        slow = reference.rpq_pairs(query, graph, **kwargs)
        assert fast == slow
        return fast

    def test_empty_alphabet_graph(self):
        graph = EdgeLabeledGraph()
        for node in ("x", "y", "z"):
            graph.add_node(node)
        assert self.both("a*", graph) == {(n, n) for n in ("x", "y", "z")}
        assert self.both("a.b", graph) == set()

    def test_query_labels_absent_from_graph(self):
        graph = small_graph()
        assert self.both("missing", graph) == set()
        # epsilon through the absent symbol's star still matches everywhere
        assert self.both("missing*", graph) == {
            (n, n) for n in graph.iter_nodes()
        }

    def test_self_loops(self):
        graph = EdgeLabeledGraph()
        graph.add_edge("e0", "n", "n", "a")
        assert self.both("a", graph) == {("n", "n")}
        assert self.both("a.a.a", graph) == {("n", "n")}

    def test_isolated_nodes_only_match_epsilon(self):
        graph = small_graph()
        pairs = self.both("_*", graph)
        assert ("isolated", "isolated") in pairs
        assert not any(
            src == "isolated" and tgt != "isolated" for src, tgt in pairs
        )

    def test_single_node_graph(self):
        graph = EdgeLabeledGraph()
        graph.add_node("only")
        assert self.both("a*", graph) == {("only", "only")}
        assert kernel.reachable(
            kernel.compile_query("a*", graph), graph, "only"
        ) == {"only"}

    def test_sources_outside_the_graph_are_skipped(self):
        graph = small_graph()
        assert self.both("a", graph, sources=["u", "ghost"]) == {("u", "v")}
        assert self.both("a", graph, sources=["ghost"]) == set()

    def test_duplicate_unknown_and_one_shot_sources(self):
        # Origin bits are numbered by source position, so repeats and
        # strangers must be gone before numbering — and a generator can
        # only be walked once.
        graph = small_graph()
        sources = ["u", "u", "ghost", "w", "u", "w"]
        oracle = reference.rpq_pairs("_*", graph, sources)
        assert oracle == {("u", "u"), ("u", "v"), ("u", "w"), ("w", "w")}
        stats = EngineStats()
        consumed = []

        def one_shot():
            for source in sources:
                consumed.append(source)
                yield source

        pairs = evaluate_rpq("_*", graph, sources=one_shot(), stats=stats)
        assert consumed == sources
        rows = list(pairs)
        assert len(pairs) == len(rows) == len(set(rows)) == 4
        assert pairs == oracle
        assert stats.get("sweep_sources") == 2

    @settings(max_examples=40, deadline=None)
    @given(graph=graphs(max_nodes=3, max_edges=3))
    def test_tiny_graphs_all_orders(self, graph):
        for query in ("a", "a*", "(a+b)*.c", "_"):
            self.both(query, graph)


def test_get_csr_requires_pytest_importable():  # sanity: module wiring
    assert get_csr is not None
    assert callable(bitset_make)
    with pytest.raises(TypeError):
        bitset_make()  # num_bits is required
