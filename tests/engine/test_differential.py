"""Differential test harness: indexed kernel vs naive seed oracle.

The tentpole guarantee of the execution kernel is *observational
equivalence*: with ``use_index=True`` every evaluator must return exactly
what the paper-faithful naive implementation (``use_index=False``, kept
verbatim from the seed) returns, on every input.  Hypothesis generates
random multigraphs and random regular expressions (including Remark 11
wildcards, whose alphabet-dependent compilation is the subtlest cache
interaction) and pits the two pipelines against each other for:

* ``reachable_by_rpq`` (single-source reachability),
* ``evaluate_rpq`` (the full answer relation),
* ``rpq_holds`` (single-pair decision),
* ``matching_paths`` under shortest / trail / simple modes (sequence
  equality — same paths in the same order),
* ``evaluate_crpq`` / ``evaluate_crpq_bindings`` (joins of RPQ relations),
* the kernel's two loops against each other and the naive oracle: the
  multi-source sweep vs one single-source BFS per node, including
  restricted source sets,
* the cost-based planner vs the greedy planner vs the naive oracle — plans
  may differ, answer sets must not,
* the batch executor vs per-query naive evaluation,
* the flat int-encoded **CSR data plane** vs the naive oracle, for the
  sweep, single-source reachability, restricted source sets and CRPQ joins
  (these compared against a dict-of-dicts kernel until it was deleted; the
  seed evaluator is the one reference now),
* all four evaluators — rpq, crpq, coregql, gql — pinned to one answer on
  label-word patterns (the fragment they all implement),
* budget trips: the kernel raises the typed limit and attaches a partial
  answer that is a true subset of the oracle's.

Across the suite well over 200 (graph, query) cases are exercised per run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crpq.ast import CRPQ, RPQAtom, Var
from repro.crpq.evaluation import evaluate_crpq, evaluate_crpq_bindings
from repro.engine import kernel
from repro.engine.limits import BudgetExceeded, make_budget
from repro.engine.stats import EngineStats
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
from repro.rpq.evaluation import evaluate_rpq, reachable_by_rpq, rpq_holds
from repro.rpq.path_modes import matching_paths

LABELS = "abc"
A, B, C = Symbol("a"), Symbol("b"), Symbol("c")
ANY = NotSymbols(frozenset())
NOT_A = NotSymbols(frozenset({"a"}))


def regexes(max_leaves: int = 5) -> st.SearchStrategy[Regex]:
    """Random expressions over a/b/c plus epsilon and Remark 11 wildcards."""
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
    """Random multigraphs (parallel edges and self-loops allowed)."""
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


@st.composite
def crpqs(draw) -> CRPQ:
    """Random 1-3 atom CRPQs over variables x, y, z."""
    variables = (Var("x"), Var("y"), Var("z"))
    num_atoms = draw(st.integers(min_value=1, max_value=3))
    atoms = tuple(
        RPQAtom(
            draw(regexes(max_leaves=3)),
            draw(st.sampled_from(variables)),
            draw(st.sampled_from(variables)),
        )
        for _ in range(num_atoms)
    )
    body_vars = sorted({v for atom in atoms for v in atom.variables()}, key=repr)
    head = tuple(draw(st.permutations(body_vars)))[: draw(st.integers(0, len(body_vars)))]
    return CRPQ(head=head, atoms=atoms)


# ----------------------------------------------------------------------
# RPQ reachability and decision
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(graph=graphs(), regex=regexes(), source=st.integers(0, 4))
def test_reachable_indexed_equals_naive(graph, regex, source):
    node = f"v{source}"
    fast = reachable_by_rpq(regex, graph, node, use_index=True, stats=EngineStats())
    oracle = reachable_by_rpq(regex, graph, node, use_index=False)
    assert fast == oracle


@settings(max_examples=50, deadline=None)
@given(graph=graphs(), regex=regexes())
def test_evaluate_indexed_equals_naive(graph, regex):
    fast = evaluate_rpq(regex, graph, use_index=True)
    oracle = evaluate_rpq(regex, graph, use_index=False)
    assert fast == oracle


@settings(max_examples=50, deadline=None)
@given(
    graph=graphs(), regex=regexes(), source=st.integers(0, 4), target=st.integers(0, 4)
)
def test_holds_indexed_equals_naive(graph, regex, source, target):
    src, tgt = f"v{source}", f"v{target}"
    assert rpq_holds(regex, graph, src, tgt, use_index=True) == rpq_holds(
        regex, graph, src, tgt, use_index=False
    )


# ----------------------------------------------------------------------
# path modes (sequence equality: same paths, same order)
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    graph=graphs(max_nodes=4, max_edges=6),
    regex=regexes(max_leaves=4),
    source=st.integers(0, 3),
    target=st.integers(0, 3),
)
def test_path_modes_indexed_equals_naive(graph, regex, source, target):
    src, tgt = f"v{source}", f"v{target}"
    for mode in ("shortest", "trail", "simple"):
        fast = list(
            matching_paths(regex, graph, src, tgt, mode=mode, limit=25, use_index=True)
        )
        oracle = list(
            matching_paths(regex, graph, src, tgt, mode=mode, limit=25, use_index=False)
        )
        assert fast == oracle, mode


# ----------------------------------------------------------------------
# CRPQ joins
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(graph=graphs(max_nodes=4, max_edges=6), query=crpqs())
def test_crpq_indexed_equals_naive(graph, query):
    fast = evaluate_crpq(query, graph, use_index=True, stats=EngineStats())
    oracle = evaluate_crpq(query, graph, use_index=False)
    assert fast == oracle
    fast_bindings = evaluate_crpq_bindings(query, graph, use_index=True)
    oracle_bindings = evaluate_crpq_bindings(query, graph, use_index=False)
    freeze = lambda bindings: {tuple(sorted(b.items(), key=repr)) for b in bindings}
    assert freeze(fast_bindings) == freeze(oracle_bindings)


# ----------------------------------------------------------------------
# multi-source sweep vs one single-source BFS per node vs naive
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(graph=graphs(), regex=regexes())
def test_sweep_equals_single_source_loop_and_naive(graph, regex):
    sweep = evaluate_rpq(regex, graph, use_index=True, stats=EngineStats())
    compiled = kernel.compile_query(regex, graph)
    one_by_one = {
        (source, target)
        for source in graph.iter_nodes()
        for target in kernel.reachable(compiled, graph, source)
    }
    oracle = evaluate_rpq(regex, graph, use_index=False)
    assert sweep == one_by_one == oracle


@settings(max_examples=40, deadline=None)
@given(
    graph=graphs(),
    regex=regexes(),
    picks=st.sets(st.integers(0, 6), max_size=4),
)
def test_sweep_restricted_sources_equals_naive(graph, regex, picks):
    # Source lists may name nodes outside the graph; both paths must skip them.
    sources = [f"v{i}" for i in sorted(picks)]
    sweep = evaluate_rpq(regex, graph, sources, use_index=True)
    oracle = evaluate_rpq(regex, graph, sources, use_index=False)
    assert sweep == oracle


# ----------------------------------------------------------------------
# planner differential: cost vs greedy vs naive — identical answer sets
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(graph=graphs(max_nodes=4, max_edges=6), query=crpqs())
def test_planners_agree_on_answer_sets(graph, query):
    cost = evaluate_crpq(query, graph, use_index=True, planner="cost")
    greedy = evaluate_crpq(query, graph, use_index=True, planner="greedy")
    oracle = evaluate_crpq(query, graph, use_index=False, planner="greedy")
    assert cost == greedy == oracle
    freeze = lambda bindings: {tuple(sorted(b.items(), key=repr)) for b in bindings}
    assert freeze(
        evaluate_crpq_bindings(query, graph, use_index=True, planner="cost")
    ) == freeze(evaluate_crpq_bindings(query, graph, use_index=False))


# ----------------------------------------------------------------------
# batch executor vs per-query naive evaluation
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    graph=graphs(),
    workload=st.lists(regexes(max_leaves=4), min_size=1, max_size=6),
)
def test_batch_executor_equals_naive(graph, workload):
    from repro.engine.batch import BatchExecutor

    batch = BatchExecutor().run(graph, workload)
    for regex, result in zip(workload, batch.results):
        assert result == evaluate_rpq(regex, graph, use_index=False)


# ----------------------------------------------------------------------
# CSR data plane vs naive — the int encoding must be observationally
# invisible.  (The test names predate the deletion of the dict kernel these
# once compared against as well; its leg of each assert went with it.)
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(graph=graphs(), regex=regexes())
def test_csr_sweep_equals_dict_kernel_and_naive(graph, regex):
    csr = evaluate_rpq(regex, graph, use_index=True, stats=EngineStats())
    oracle = evaluate_rpq(regex, graph, use_index=False)
    assert csr == oracle


@settings(max_examples=80, deadline=None)
@given(graph=graphs(), regex=regexes(), source=st.integers(0, 4))
def test_csr_reachable_equals_dict_kernel_and_naive(graph, regex, source):
    node = f"v{source}"
    csr = reachable_by_rpq(regex, graph, node, use_index=True)
    oracle = reachable_by_rpq(regex, graph, node, use_index=False)
    assert csr == oracle


@settings(max_examples=40, deadline=None)
@given(
    graph=graphs(),
    regex=regexes(),
    picks=st.sets(st.integers(0, 6), max_size=4),
)
def test_csr_restricted_sources_equals_dict_kernel(graph, regex, picks):
    # Source lists may name nodes outside the graph; the kernel must skip
    # them before seeding (it would otherwise KeyError interning).
    sources = [f"v{i}" for i in sorted(picks)]
    csr = evaluate_rpq(regex, graph, sources, use_index=True)
    oracle = evaluate_rpq(regex, graph, sources, use_index=False)
    assert csr == oracle


@settings(max_examples=40, deadline=None)
@given(graph=graphs(max_nodes=4, max_edges=6), query=crpqs())
def test_csr_crpq_equals_dict_kernel(graph, query):
    csr = evaluate_crpq(query, graph, use_index=True)
    oracle = evaluate_crpq(query, graph, use_index=False)
    assert csr == oracle
    freeze = lambda bindings: {tuple(sorted(b.items(), key=repr)) for b in bindings}
    assert freeze(
        evaluate_crpq_bindings(query, graph, use_index=True)
    ) == freeze(evaluate_crpq_bindings(query, graph, use_index=False))


# ----------------------------------------------------------------------
# all four evaluators on label-word patterns (their common fragment)
# ----------------------------------------------------------------------
@st.composite
def word_cases(draw):
    """A random property graph plus a label word of length 0-3."""
    from repro.graph.property_graph import PropertyGraph

    num_nodes = draw(st.integers(1, 4))
    graph = PropertyGraph()
    for index in range(num_nodes):
        graph.add_node(f"n{index}")
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1),
                st.integers(0, num_nodes - 1),
                st.sampled_from("ab"),
            ),
            max_size=6,
        )
    )
    for number, (src, tgt, label) in enumerate(edges):
        graph.add_edge(f"e{number}", f"n{src}", f"n{tgt}", label)
    word = draw(st.lists(st.sampled_from("ab"), max_size=3))
    return graph, word


@settings(max_examples=60, deadline=None)
@given(case=word_cases())
def test_four_evaluators_agree_on_label_words(case):
    """rpq (kernel and seed), crpq, coregql and gql pin one endpoint relation.

    A label word ``l1 ... lk`` is expressible in every language of the
    library: as the concat regex, as a one-atom CRPQ, and as the pattern
    ``() -[:l1]-> () ... ()``.  The gql/coregql evaluators never route
    through the kernel, so this is the cross-evaluator agreement layer of
    the CSR differential harness.
    """
    from repro.coregql.parser import parse_coregql_pattern
    from repro.coregql.semantics import pattern_triples
    from repro.gql.semantics import match_gql_pattern

    graph, word = case
    if word:
        regex = Concat(tuple(Symbol(label) for label in word))
    else:
        regex = Epsilon()
    expected = evaluate_rpq(regex, graph, use_index=True)
    assert expected == evaluate_rpq(regex, graph, use_index=False)

    query = CRPQ(
        head=(Var("x"), Var("y")), atoms=(RPQAtom(regex, Var("x"), Var("y")),)
    )
    assert evaluate_crpq(query, graph, use_index=True) == expected

    pattern_text = "()" + "".join(f" -[:{label}]-> ()" for label in word)
    core_endpoints = {
        (src, tgt)
        for src, tgt, _mu in pattern_triples(
            parse_coregql_pattern(pattern_text), graph
        )
    }
    assert core_endpoints == expected
    gql_endpoints = {
        (match.path.src, match.path.tgt)
        for match in match_gql_pattern(pattern_text, graph)
    }
    assert gql_endpoints == expected


# ----------------------------------------------------------------------
# budget trips on the CSR plane, judged against the seed evaluator's answer
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(graph=graphs(), regex=regexes(), ceiling=st.integers(1, 6))
def test_max_rows_trip_equivalent_across_planes(graph, regex, ceiling):
    """``max_rows`` trips exactly when the full answer is larger, with a
    true partial.

    The attached partial must be *exactly* the ceiling and a subset of the
    seed evaluator's full answer (which subset is not fixed — answer
    discovery order is an implementation detail the bound does not pin).
    """
    full = evaluate_rpq(regex, graph, use_index=False)
    budget = make_budget(max_rows=ceiling)
    if len(full) > ceiling:
        try:
            evaluate_rpq(regex, graph, use_index=True, budget=budget)
        except BudgetExceeded as exc:
            assert exc.limit == "max_rows"
            assert len(exc.partial) == ceiling
            assert exc.partial <= full
        else:
            raise AssertionError("max_rows did not trip")
    else:
        assert evaluate_rpq(regex, graph, use_index=True, budget=budget) == full


@settings(max_examples=40, deadline=None)
@given(graph=graphs(), regex=regexes(), source=st.integers(0, 4), ceiling=st.integers(1, 8))
def test_max_states_trip_equivalent_across_planes(graph, regex, source, ceiling):
    """``max_states`` (stride=1) either lets the search finish with the
    seed evaluator's answer or trips typed, attaching a subset of it; the
    same call trips the same way twice (each product pair expands once)."""
    node = f"v{source}"
    full = reachable_by_rpq(regex, graph, node, use_index=False)
    outcomes = []
    for _ in range(2):
        budget = make_budget(max_states=ceiling, stride=1)
        try:
            answers = reachable_by_rpq(
                regex, graph, node, use_index=True, budget=budget
            )
            assert answers == full
            outcomes.append("ok")
        except BudgetExceeded as exc:
            assert exc.limit == "max_states"
            assert exc.partial <= full
            outcomes.append("trip")
    assert outcomes[0] == outcomes[1]
