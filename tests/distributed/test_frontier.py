"""Shard-side frontier mechanics: the codec and the local step.

A single shard that owns *every* node must reproduce ``evaluate_rpq``
exactly — the distributed evaluator degenerates to the single-node one at
``num_shards=1`` — and a shard that owns nothing must bounce the whole
frontier back as cross-shard pairs without expanding it.  The step runs on
the graph's CSR snapshot and speaks shared node positions on the wire, so
the rest of the file holds it to the single-node evaluator on graphs whose
interner order is not the shared order, across writes, and across several
partitioned graphs in one process.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import ShardCoordinator
from repro.distributed.frontier import (
    automaton_plan,
    decode_mask,
    decode_pairs,
    encode_mask,
    encode_pairs,
    local_frontier_step,
    node_order,
)
from repro.engine.cache import DEFAULT_CACHE
from repro.engine.csr import get_csr
from repro.engine.faults import FAULTS, FaultError
from repro.engine.limits import BudgetExceeded, make_budget
from repro.engine.partition import hash_shard_map, partition_graph, stable_hash
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.graph.generators import random_graph
from repro.regex.ast import symbols
from repro.rpq.evaluation import evaluate_rpq
from repro.server.app import ServerThread
from repro.server.client import ServerClient, ServerError


def full_mask(order):
    return (1 << len(order)) - 1


def seed_frontier(order, plan, sources=None):
    """(source, q0) product codes with one origin bit per source."""
    frontier = {}
    positions = {node: index for index, node in enumerate(order)}
    for source in sources if sources is not None else order:
        bit = 1 << positions[source]
        for state in plan.initial:
            code = (positions[source] << plan.state_bits) | state
            frontier[code] = frontier.get(code, 0) | bit
    return frontier


def decode_answers(payload, order, sources=None):
    """Pairs of an ``answers`` payload whose origin bit ``i`` stands for
    ``sources[i]`` (default: the node at position ``i``)."""
    sources = order if sources is None else sources
    pairs = set()
    for position, mask in decode_pairs(payload).items():
        target = order[position]
        while mask:
            low = mask & -mask
            pairs.add((sources[low.bit_length() - 1], target))
            mask ^= low
    return pairs


def global_alphabet(graph, query):
    return sorted(graph.labels | symbols(DEFAULT_CACHE.parse(query)), key=repr)


class Cut:
    """A graph cut into hash-owned parts and stepped in-process: the
    coordinator's rounds in miniature (origin bit ``i`` = ``i``-th source),
    with no server between the rounds and the step."""

    def __init__(self, graph, num_parts):
        self.graph = graph
        self.num_parts = num_parts
        self.parts = partition_graph(graph, hash_shard_map(graph, num_parts))

    def add_edge(self, edge, src, tgt, label):
        """Write to the whole graph and through to the parts: every part
        holds every node, the source's owner holds the edge."""
        self.graph.add_edge(edge, src, tgt, label)
        for part in self.parts:
            part.add_node(src)
            part.add_node(tgt)
        owner = stable_hash(src) % self.num_parts
        self.parts[owner].add_edge(edge, src, tgt, label)

    def evaluate(self, query, sources=None):
        graph = self.graph
        shard_map = hash_shard_map(graph, self.num_parts)
        order = node_order(graph)
        positions = {node: index for index, node in enumerate(order)}
        owned = [
            shard_map.owned_mask(shard, order) for shard in range(self.num_parts)
        ]
        alphabet = global_alphabet(graph, query)
        plan = automaton_plan(query, alphabet)
        bits = plan.state_bits
        seeds = order if sources is None else sources
        known = {}
        pending = [{} for _ in self.parts]
        for bit, source in enumerate(seeds):
            for state in plan.initial:
                code = (positions[source] << bits) | state
                pending[shard_map.shard_of(source)][code] = known[code] = 1 << bit
        pairs = set()
        while any(pending):
            calls, pending = pending, [{} for _ in self.parts]
            for part, mask, frontier in zip(self.parts, owned, calls):
                if not frontier:
                    continue
                result = local_frontier_step(
                    part, query, alphabet, bits, mask, frontier
                )
                assert result["bounced"] == 0
                pairs |= decode_answers(result["answers"], order, seeds)
                for code, origins in decode_pairs(result["cross"]).items():
                    seen = known.get(code, 0)
                    novel = origins & ~seen
                    if novel:
                        known[code] = seen | novel
                        route = pending[shard_map.shard_of(order[code >> bits])]
                        route[code] = route.get(code, 0) | novel
        return pairs


class TestCodec:
    def test_roundtrip(self):
        mapping = {0: 1, 7: (1 << 40) | 5, 8: 3}
        assert decode_pairs(encode_pairs(mapping)) == mapping

    @settings(max_examples=100, deadline=None)
    @given(
        mapping=st.dictionaries(
            st.integers(min_value=0, max_value=1 << 32),
            st.integers(min_value=1, max_value=1 << 70),
            max_size=20,
        )
    )
    def test_roundtrip_property(self, mapping):
        assert decode_pairs(encode_pairs(mapping)) == mapping

    def test_mask_roundtrip(self):
        for mask in (0, 1, 5, 1 << 100):
            assert decode_mask(encode_mask(mask)) == mask

    @pytest.mark.parametrize(
        "payload",
        [
            {"codes": [0], "masks": []},
            {"codes": "nope", "masks": []},
            {"codes": [0, -2], "masks": ["1", "1"]},
            {"codes": [True], "masks": ["1"]},
            {"codes": [0], "masks": [7]},
            {"codes": [0], "masks": ["zz"]},
        ],
    )
    def test_malformed_payloads_raise(self, payload):
        with pytest.raises(ValueError):
            decode_pairs(payload)


class TestAutomatonPlan:
    def test_plan_is_alphabet_deterministic(self):
        first = automaton_plan("a b*", ["a", "b", "c"])
        second = automaton_plan("a b*", ["a", "b", "c"])
        assert first.state_bits == second.state_bits
        assert first.initial == second.initial

    def test_alphabet_shapes_the_plan(self):
        # The coordinator ships the *global* alphabet precisely because a
        # shard compiling over only its local labels may trim differently.
        narrow = automaton_plan("(a + b)*", ["a"])
        wide = automaton_plan("(a + b)*", ["a", "b"])
        assert narrow.compiled is not wide.compiled


class TestLocalFrontierStep:
    def test_sole_owner_equals_single_node_rpq(self):
        graph = random_graph(25, 70, labels=("a", "b"), seed=11)
        alphabet = sorted(graph.labels, key=repr)
        order = node_order(graph)
        plan = automaton_plan("a (a + b)*", alphabet)
        result = local_frontier_step(
            graph,
            "a (a + b)*",
            alphabet,
            plan.state_bits,
            full_mask(order),
            seed_frontier(order, plan),
        )
        assert decode_pairs(result["cross"]) == {}
        assert decode_answers(result["answers"], order) == evaluate_rpq(
            "a (a + b)*", graph
        )

    def test_owner_of_nothing_bounces_the_frontier(self):
        graph = random_graph(10, 30, labels=("a",), seed=4)
        order = node_order(graph)
        plan = automaton_plan("a*", ["a"])
        frontier = seed_frontier(order, plan)
        result = local_frontier_step(
            graph, "a*", ["a"], plan.state_bits, 0, frontier
        )
        assert result["relaxed"] == 0  # never expands another shard's node
        assert decode_pairs(result["cross"]) == frontier

    def test_state_bits_mismatch_raises(self):
        graph = random_graph(5, 10, labels=("a", "b"), seed=0)
        plan = automaton_plan("(a + b)*", ["a", "b"])
        with pytest.raises(ValueError):
            local_frontier_step(
                graph,
                "(a + b)*",
                ["a", "b"],
                plan.state_bits + 3,
                full_mask(node_order(graph)),
                {},
            )

    def test_partial_ownership_splits_answers_and_cross(self):
        # n0 -a-> n1 -a-> n2 with ownership {n0, n1}: the step must report
        # (n0, n1) and (n1, n2)? No — n2 is reachable but the pair
        # (n1, n2) pops at an *unowned* node, so it travels as cross.
        from repro.graph.edge_labeled import EdgeLabeledGraph

        graph = EdgeLabeledGraph()
        for index in range(3):
            graph.add_node(f"n{index}")
        graph.add_edge("e0", "n0", "n1", "a")
        graph.add_edge("e1", "n1", "n2", "a")
        order = node_order(graph)
        plan = automaton_plan("a+", ["a"])
        owned = (1 << order.index("n0")) | (1 << order.index("n1"))
        result = local_frontier_step(
            graph, "a+", ["a"], plan.state_bits, owned,
            seed_frontier(order, plan),
        )
        answers = decode_answers(result["answers"], order)
        assert ("n0", "n1") in answers
        assert decode_pairs(result["cross"]), "expected cross traffic to n2"


def int_ring(count):
    """``0 -a-> 1 -a-> ... -a-> 0`` plus ``b`` chords, nodes added highest
    first.  Int ids keep their value order in the interner (small ints hash
    to themselves) while the shared order sorts their reprs — ``10`` before
    ``2`` — so past ten nodes the two orders differ on every run."""
    graph = EdgeLabeledGraph()
    for node in reversed(range(count)):
        graph.add_node(node)
    for node in range(count):
        graph.add_edge(f"a{node}", node, (node + 1) % count, "a")
        if node % 3 == 0:
            graph.add_edge(f"b{node}", node, (node * 5 + 2) % count, "b")
    return graph


def assert_orders_differ(cut):
    for part in cut.parts:
        assert get_csr(part).interner.nodes != node_order(part)


class TestSharedOrderIsNotInternerOrder:
    """The wire speaks repr-sorted positions, the CSR speaks interner ids:
    every code crosses the permutation both ways."""

    QUERIES = ["a", "a b", "(a + b)*", "a* b a*"]

    @pytest.mark.parametrize("num_parts", [1, 2, 3])
    @pytest.mark.parametrize("query", QUERIES)
    def test_fixpoint_equals_single_node(self, num_parts, query):
        cut = Cut(int_ring(14), num_parts)
        assert cut.evaluate(query) == evaluate_rpq(query, cut.graph)
        assert_orders_differ(cut)

    @pytest.mark.parametrize("query", QUERIES)
    def test_mixed_int_and_str_ids(self, query):
        graph = int_ring(12)
        for index in range(6):
            graph.add_edge(f"s{index}", f"n{index}", index * 2, "a")
            graph.add_edge(f"t{index}", index, f"n{(index + 1) % 6}", "b")
        cut = Cut(graph, 2)
        assert cut.evaluate(query) == evaluate_rpq(query, graph)
        assert_orders_differ(cut)

    def test_sources_number_the_origin_bits(self):
        cut = Cut(int_ring(14), 3)
        sources = [11, 2, 7]
        assert cut.evaluate("a (a + b)*", sources) == evaluate_rpq(
            "a (a + b)*", cut.graph, sources=sources
        )

    def test_node_added_after_the_first_step_sorts_into_the_middle(self):
        cut = Cut(int_ring(14), 2)
        query = "(a + b)*"
        assert cut.evaluate(query) == evaluate_rpq(query, cut.graph)
        before = [get_csr(part) for part in cut.parts]
        # repr(100) sorts between 10 and 11: every later position shifts,
        # while the caught-up interner appends 100 at the end.
        cut.add_edge("in", 3, 100, "a")
        cut.add_edge("out", 100, 8, "b")
        assert node_order(cut.graph).index(100) == 3
        assert cut.evaluate(query) == evaluate_rpq(query, cut.graph)
        for part, old in zip(cut.parts, before):
            caught = get_csr(part)
            assert caught is not old and caught.interner.nodes[-1] == 100
            # the numbering went with the old snapshot and was derived
            # again, once, for the new one
            assert caught.shard_numbering is not old.shard_numbering
            assert len(caught.shard_numbering.id_of) == 15

    def test_two_partitioned_graphs_stepped_alternately(self):
        first = Cut(int_ring(14), 2)
        second = Cut(random_graph(20, 60, labels=("a", "b"), seed=5), 2)
        for query in ("a b", "(a + b)*", "a b"):
            assert first.evaluate(query) == evaluate_rpq(query, first.graph)
            assert second.evaluate(query) == evaluate_rpq(query, second.graph)
        # each part keeps its own numbering, on its own snapshot
        held = [get_csr(part).shard_numbering for part in first.parts + second.parts]
        assert all(numbering is not None for numbering in held)
        assert len({id(numbering) for numbering in held}) == 4
        first.evaluate("a")
        for part, then in zip(first.parts, held):
            assert get_csr(part).shard_numbering is then


class TestOneStateNumbering:
    @pytest.mark.parametrize("query", ["a", "a b*", "(a + b)* a", "a* b a*"])
    def test_coordinator_and_shard_number_states_alike(self, query):
        graph = random_graph(8, 20, labels=("a", "b"), seed=3)
        alphabet = global_alphabet(graph, query)
        plan = automaton_plan(query, alphabet)
        int_plan = plan.compiled.int_plan(get_csr(graph).interner)
        assert plan.state_bits == int_plan.state_bits
        assert plan.initial == int_plan.initial


class TestStepLimitsAndFaults:
    """The step runs the kernel's loop, so it carries the loop's fault
    site and honors the loop's budget ticks."""

    def setup_step(self):
        graph = random_graph(25, 80, labels=("a", "b"), seed=2)
        order = node_order(graph)
        plan = automaton_plan("(a + b)*", ["a", "b"])
        return graph, plan, full_mask(order), seed_frontier(order, plan)

    def test_kernel_step_fault_fires_inside_a_shard_step(self):
        graph, plan, owned, frontier = self.setup_step()
        FAULTS.reset()
        try:
            FAULTS.arm("kernel.step")
            with pytest.raises(FaultError) as excinfo:
                local_frontier_step(
                    graph, "(a + b)*", ["a", "b"], plan.state_bits, owned, frontier
                )
            assert excinfo.value.site == "kernel.step"
        finally:
            FAULTS.reset()
        clean = local_frontier_step(
            graph, "(a + b)*", ["a", "b"], plan.state_bits, owned, frontier
        )
        assert decode_answers(clean["answers"], node_order(graph)) == evaluate_rpq(
            "(a + b)*", graph
        )

    def test_max_states_trips_inside_a_shard_step(self):
        graph, plan, owned, frontier = self.setup_step()
        with pytest.raises(BudgetExceeded) as excinfo:
            local_frontier_step(
                graph, "(a + b)*", ["a", "b"], plan.state_bits, owned, frontier,
                budget=make_budget(max_states=5, stride=1),
            )
        assert excinfo.value.limit == "max_states"


@pytest.fixture(scope="module")
def shards():
    servers = [ServerThread().start() for _ in range(2)]
    yield servers
    for server in servers:
        server.stop()


class TestMalformedCodes:
    """A code naming a node or a state that does not exist is the caller's
    mistake (``bad_request``), not the shard's (``internal``): unchecked,
    the position would index the CSR offsets."""

    @pytest.fixture()
    def client(self, shards):
        graph = EdgeLabeledGraph()
        for index in range(5):
            graph.add_edge(
                f"e{index}", f"n{index}", f"n{(index + 1) % 5}", "ab"[index % 2]
            )
        with ServerClient(*shards[0].address) as client:
            client.upload_graph("five", graph)
            yield client

    def step(self, client, code):
        plan = automaton_plan("a b", ["a", "b"])
        assert (plan.compiled.nfa.num_states, plan.state_bits) == (3, 2)
        return client.frontier_step(
            "five", "a b", frontier=encode_pairs({code: 1}),
            owned=encode_mask((1 << 100) - 1), state_bits=2, alphabet=["a", "b"],
        )

    def test_node_position_out_of_range(self, client):
        with pytest.raises(ServerError) as excinfo:
            self.step(client, 99 << 2)
        assert excinfo.value.code == "bad_request"
        assert "position 99" in excinfo.value.message

    def test_state_out_of_range(self, client):
        with pytest.raises(ServerError) as excinfo:
            self.step(client, (1 << 2) | 3)
        assert excinfo.value.code == "bad_request"
        assert "state 3" in excinfo.value.message

    def test_well_formed_neighbours_are_accepted(self, client):
        assert self.step(client, (4 << 2) | 2)["bounced"] == 0


class TestWireSize:
    def test_single_source_masks_are_one_hex_digit(self, shards, monkeypatch):
        # Origin bits are numbered by source, not by node position: one
        # source is bit 0 wherever its node sorts among the 2000.
        graph = random_graph(2000, 3000, labels=("a", "b"), seed=9)
        exchanged = []
        original = ServerClient.frontier_step

        def recording(client, name, query, **params):
            result = original(client, name, query, **params)
            exchanged.append((params["frontier"], result["answers"], result["cross"]))
            return result

        monkeypatch.setattr(ServerClient, "frontier_step", recording)
        with ShardCoordinator([server.address for server in shards]) as coordinator:
            coordinator.partition_graph("wide", graph)
            pairs = coordinator.evaluate_rpq("wide", "(a + b)*", sources=["v1999"])
        assert pairs == evaluate_rpq("(a + b)*", graph, sources=["v1999"])
        assert len(pairs) > 100 and len(exchanged) > 2
        masks = [
            mask for payloads in exchanged for payload in payloads
            for mask in payload["masks"]
        ]
        assert masks and set(masks) == {"1"}
