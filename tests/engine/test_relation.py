"""The compact relation the CSR sweep returns, and the positional CRPQ join.

``evaluate_rpq`` hands back the sweep's origin masks as a read-only
:class:`~repro.engine.relation.PairRelation` instead of a decoded pair set.
This module holds that object to the ``collections.abc.Set`` contract
against the seed evaluator's plain ``set`` (``use_index=False``), exercises
both mask decoders on each side of their crossover, and holds the tuple-row
CRPQ join to the naive evaluator on the query shapes whose access path is
decided per atom: constants, non-node constants, repeated variables,
boolean heads, filter-only atoms.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crpq.ast import Var, parse_crpq
from repro.crpq.evaluation import evaluate_crpq, evaluate_crpq_bindings
from repro.engine.limits import BudgetExceeded, QueryBudget
from repro.engine.relation import (
    _POSITIONS_PER_SET_BIT,
    _SELECTOR_SETUP_POSITIONS,
    PairRelation,
)
from repro.engine.stats import EngineStats
from repro.graph.generators import random_graph
from repro.rpq.evaluation import evaluate_rpq

from .test_differential import crpqs, graphs, regexes


@st.composite
def source_subsets(draw, max_nodes: int = 5):
    """``None``, one source, a subset with repeats and strangers, or every
    node shuffled (names as ``graphs()`` assigns them; absent ones are
    simply not nodes)."""
    nodes = [f"v{index}" for index in range(max_nodes)]
    kind = draw(st.sampled_from(["none", "one", "some", "all"]))
    if kind == "none":
        return None
    if kind == "one":
        return [draw(st.sampled_from(nodes))]
    if kind == "some":
        return draw(st.lists(st.sampled_from(nodes + ["ghost"]), max_size=8))
    return list(draw(st.permutations(nodes)))


# ----------------------------------------------------------------------
# the Set contract, against the seed evaluator's plain set
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(graph=graphs(), regex=regexes(), sources=source_subsets())
def test_relation_equals_dict_oracle(graph, regex, sources):
    relation = evaluate_rpq(regex, graph, sources=sources)
    oracle = evaluate_rpq(regex, graph, sources=sources, use_index=False)
    assert type(oracle) is set
    assert relation == oracle and oracle == relation
    assert not (relation != oracle) and not (oracle != relation)
    assert relation <= oracle and oracle <= relation
    rows = list(relation)
    assert len(relation) == len(rows) == len(set(rows)) == len(oracle)
    # membership: every present pair, every absent pair over the graph's
    # nodes, and objects that are not pairs at all
    nodes = sorted(graph.iter_nodes())
    for source in nodes:
        for target in nodes:
            assert ((source, target) in relation) == ((source, target) in oracle)
    for stranger in (("ghost", nodes[0]), (nodes[0], "ghost"), nodes[0], 7,
                     (nodes[0],), (nodes[0], nodes[0], nodes[0])):
        assert stranger not in relation


@settings(max_examples=60, deadline=None)
@given(graph=graphs(), regex=regexes(), sources=source_subsets(),
       other=st.sets(st.tuples(st.sampled_from(["v0", "v1", "v2"]),
                               st.sampled_from(["v0", "v1", "v2"]))))
def test_relation_algebra_returns_plain_sets(graph, regex, sources, other):
    relation = evaluate_rpq(regex, graph, sources=sources)
    oracle = evaluate_rpq(regex, graph, sources=sources, use_index=False)
    for ours, theirs in (
        (relation | other, oracle | other), (other | relation, other | oracle),
        (relation & other, oracle & other), (other & relation, other & oracle),
        (relation - other, oracle - other), (other - relation, other - oracle),
    ):
        assert type(ours) is set
        assert ours == theirs
    assert (other <= relation) == (other <= oracle)
    assert (relation <= other) == (oracle <= other)
    assert sorted(relation) == sorted(oracle)


@settings(max_examples=40, deadline=None)
@given(graph=graphs(), regex=regexes(), sources=source_subsets())
def test_relation_pickles_as_a_plain_set(graph, regex, sources):
    relation = evaluate_rpq(regex, graph, sources=sources)
    clone = pickle.loads(pickle.dumps(relation))
    assert type(clone) is set
    assert clone == relation


def test_relation_is_read_only_and_unhashable():
    graph = random_graph(20, 60, labels=("a", "b"), seed=1)
    relation = evaluate_rpq("(a+b)*", graph)
    assert isinstance(relation, PairRelation)
    for mutator in ("add", "update", "discard", "remove", "pop", "clear",
                    "__ior__", "__iand__", "__isub__"):
        assert not hasattr(relation, mutator)
    with pytest.raises(TypeError):
        hash(relation)
    with pytest.raises(AttributeError):
        relation.extra = 1


def test_relation_is_a_snapshot_of_its_graph_version():
    graph = random_graph(30, 90, labels=("a", "b"), seed=2)
    before = evaluate_rpq("a.b*", graph)
    frozen = set(before)
    graph.add_edge("late", "v0", "fresh", "a")
    graph.add_edge("later", "fresh", "v1", "b")
    after = evaluate_rpq("a.b*", graph)
    assert ("v0", "fresh") in after and ("v0", "fresh") not in before
    assert before == frozen and len(before) == len(frozen)
    assert after == evaluate_rpq("a.b*", graph, use_index=False)


# ----------------------------------------------------------------------
# both decoders, on each side of the crossover
# ----------------------------------------------------------------------
def _handmade(length: int, counts: list[int], seed: int = 0):
    """A relation over ``length`` sources whose ``j``-th target has
    ``counts[j]`` origins, the top source always among them (so every
    mask's ``bit_length`` is ``length``), plus the expected pair set."""
    rng = random.Random(seed)
    sources = [f"s{index}" for index in range(length)]
    targets = [f"t{index}" for index in range(len(counts))]
    masks, expected = {}, set()
    for position, count in enumerate(counts):
        bits = set(rng.sample(range(length - 1), count - 1)) | {length - 1}
        masks[position] = sum(1 << bit for bit in bits)
        expected |= {(sources[bit], targets[position]) for bit in bits}
    return PairRelation(sources, targets, masks, len(expected)), expected


@pytest.mark.parametrize("length", [1, 8, 64, 500, 2000])
def test_both_decoders_agree_around_the_crossover(length):
    # the count at which the selector pass takes over from the bit loop
    meet = (length + _SELECTOR_SETUP_POSITIONS) // _POSITIONS_PER_SET_BIT + 1
    counts = sorted(
        {count for count in (1, 2, meet - 1, meet, meet + 1, length // 2, length)
         if 1 <= count <= length}
    )
    relation, expected = _handmade(length, counts, seed=length)
    rows = list(relation)
    assert len(rows) == len(expected) == len(relation)
    assert set(rows) == expected
    assert relation == expected
    for pair in expected:
        assert pair in relation
    assert ("s0", "nowhere") not in relation


def test_the_crossover_splits_real_masks():
    """The density rule must send a dense relation's masks one way and a
    sparse relation's the other — on real sweeps, not handmade masks."""

    def dense_share(relation):
        masks = relation._masks.values()
        dense = sum(
            mask.bit_count() * _POSITIONS_PER_SET_BIT
            > mask.bit_length() + _SELECTOR_SETUP_POSITIONS
            for mask in masks
        )
        return dense / len(masks)

    graph = random_graph(300, 2400, labels=("a", "b", "c", "d"), seed=3)
    dense = evaluate_rpq("(a+b)*", graph)
    sparse = evaluate_rpq("a", graph)
    assert dense_share(dense) > 0.9
    assert dense_share(sparse) == 0.0
    assert dense == evaluate_rpq("(a+b)*", graph, use_index=False)
    assert sparse == evaluate_rpq("a", graph, use_index=False)


def test_one_bit_masks_in_a_large_graph():
    graph = random_graph(2000, 4000, labels=("a", "b"), seed=4)
    everything = evaluate_rpq("a", graph)
    assert any(
        mask.bit_count() == 1 and mask.bit_length() > 1000
        for mask in everything._masks.values()
    )
    assert everything == evaluate_rpq("a", graph, use_index=False)
    # a single-source read: one-bit masks of length one, whatever the graph
    single = evaluate_rpq("a.b*", graph, sources=["v1999"])
    assert all(mask == 1 for mask in single._masks.values())
    assert single == evaluate_rpq("a.b*", graph, sources=["v1999"], use_index=False)


def test_max_rows_trip_attaches_exactly_k_answers():
    graph = random_graph(120, 720, labels=("a", "b"), seed=5)
    full = evaluate_rpq("(a+b)*", graph)
    assert len(full) >= 10_000
    for k in (0, 1, 37, 5000):
        with pytest.raises(BudgetExceeded) as caught:
            evaluate_rpq("(a+b)*", graph, budget=QueryBudget(max_rows=k))
        partial = caught.value.partial
        assert type(partial) is set
        assert len(partial) == k
        assert partial <= full


# ----------------------------------------------------------------------
# the positional CRPQ join
# ----------------------------------------------------------------------
def _freeze(bindings):
    return sorted(
        tuple(sorted((var.name, node) for var, node in binding.items()))
        for binding in bindings
    )


@settings(max_examples=100, deadline=None)
@given(graph=graphs(), query=crpqs())
def test_positional_join_equals_naive_and_greedy(graph, query):
    answer = evaluate_crpq(query, graph)
    assert answer == evaluate_crpq(query, graph, use_index=False)
    assert answer == evaluate_crpq(query, graph, planner="greedy")
    assert _freeze(evaluate_crpq_bindings(query, graph)) == _freeze(
        evaluate_crpq_bindings(query, graph, use_index=False)
    )


SHAPES = [
    # a constant on the left, on the right, on both sides
    "q(y) :- a('v3', y)",
    "q(x) :- (a.b*)(x, 'v5')",
    "q() :- (a+b)*('v0', 'v7')",
    "q(x, y) :- a(x, y), b*('v2', x)",
    "q(x, y) :- a(x, y), b*(y, 'v2')",
    # a constant that is not a node: left, right, after a binding
    "q(y) :- a('ghost', y)",
    "q(x) :- a(x, 'ghost')",
    "q(x, y) :- a(x, y), b*('ghost', y)",
    "q(x, y) :- a(x, y), b*(x, 'ghost')",
    "q() :- a('ghost', 'v1')",
    # a repeated variable: unbound, bound, next to a constant
    "q(x) :- (a.b)(x, x)",
    "q(x, y) :- a(x, y), (b+)(y, y)",
    "q(x, y) :- (a+)(x, x), b(x, y)",
    # boolean heads
    "q() :- a(x, y), b(y, z)",
    "q() :- a(x, y), b(y, x), c(x, x)",
    # a later atom that only filters (both ends already bound)
    "q(x, y, z) :- a(x, y), b(y, z), (a+b+c)(x, z)",
    "q(x, y) :- a(x, y), b*(x, y), c*(y, x)",
    # disconnected atoms: a cross product
    "q(x, y, z, w) :- a(x, y), c(z, w)",
    "q(x, z) :- a(x, x), b(z, z)",
    # Example 17's shape: two attributes joined by a + path
    "q(x1, x2) :- a(y1, x1), a(y2, x2), b+(y1, y2)",
]


@pytest.mark.parametrize("text", SHAPES)
@pytest.mark.parametrize("seed", [0, 1])
def test_join_shapes_equal_the_naive_evaluator(text, seed):
    graph = random_graph(12, 60, labels=("a", "b", "c"), seed=seed)
    query = parse_crpq(text)
    oracle = evaluate_crpq(query, graph, use_index=False)
    assert evaluate_crpq(query, graph) == oracle
    assert evaluate_crpq(query, graph, planner="greedy") == oracle
    for plan in (list(query.atoms), list(reversed(query.atoms))):
        assert evaluate_crpq(query, graph, plan=plan) == oracle
        assert _freeze(evaluate_crpq_bindings(query, graph, plan=plan)) == _freeze(
            evaluate_crpq_bindings(query, graph, use_index=False)
        )


def test_bindings_are_mappings_over_every_variable():
    graph = random_graph(12, 60, labels=("a", "b", "c"), seed=0)
    query = parse_crpq("q(x) :- a(x, y), b(y, z), c*(x, z)")
    bindings = evaluate_crpq_bindings(query, graph)
    assert bindings
    for binding in bindings:
        assert type(binding) is dict
        assert set(binding) == {Var("x"), Var("y"), Var("z")}


def test_budget_trip_mid_join_attaches_dicts():
    graph = random_graph(40, 400, labels=("a", "b"), seed=6)
    query = parse_crpq("q(x, z) :- a(x, y), (a+b)*(y, z)")
    plan = list(query.atoms)
    complete = evaluate_crpq_bindings(query, graph, plan=plan)
    first_atom = evaluate_rpq("a", graph)
    # what the first atom alone costs, so the ceiling lands inside the second
    probe = QueryBudget(stride=1)
    evaluate_crpq_bindings(parse_crpq("q(x, y) :- a(x, y)"), graph, budget=probe)
    with pytest.raises(BudgetExceeded) as caught:
        evaluate_crpq_bindings(
            query, graph, plan=plan,
            budget=QueryBudget(max_states=probe.states_visited + 25, stride=1),
        )
    partial = caught.value.partial
    assert type(partial) is list and partial
    assert all(type(binding) is dict for binding in partial)
    # the trip came inside the second atom: the partial is the first
    # atom's bindings, each of which some complete binding extends
    assert _freeze(partial) == _freeze(
        {Var("x"): source, Var("y"): target} for source, target in first_atom
    )
    assert len(complete) > len(partial)
    # evaluate_crpq overwrites the partial with head tuples
    with pytest.raises(BudgetExceeded) as caught:
        evaluate_crpq(query, graph, budget=QueryBudget(max_rows=5))
    assert type(caught.value.partial) is set and len(caught.value.partial) == 5
    assert caught.value.partial <= evaluate_crpq(query, graph)


def test_repeats_and_strangers_do_not_change_the_schedule():
    """Sources are de-duplicated before origin bits are numbered by
    position, so a noisy source list runs the very sweep its distinct nodes
    do: same seeds in the same order, hence the same counters."""
    graph = random_graph(50, 300, labels=("a", "b"), seed=7)
    clean = ["v9", "v3", "v41", "v0"]
    noisy = ["v9", "v3", "v3", "v41", "ghost", "v0", "v9"]
    tidy, messy = EngineStats(), EngineStats()
    answer = evaluate_rpq("a.(a+b)*", graph, sources=clean, stats=tidy)
    assert evaluate_rpq("a.(a+b)*", graph, sources=noisy, stats=messy) == answer
    for counter in ("sweep_sources", "nodes_expanded", "edges_relaxed", "answers"):
        assert tidy.get(counter) == messy.get(counter), counter
    assert tidy.get("sweep_sources") == 4
    assert tidy.get("answers") == len(answer)
