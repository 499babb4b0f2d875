"""The shared query-execution kernel: cached compile + product BFS on the CSR.

Section 6 of the paper makes the product construction ``G x A`` the common
core of RPQ, CRPQ and GQL evaluation; Figueira & Lin's complexity analysis
shows this core dominates evaluation cost.  This module is that core, done
once, on one data plane:

* queries compile through the LRU :mod:`repro.engine.cache` (repeat queries
  skip parsing and Glushkov entirely);
* nodes, labels and automaton states are interned to dense ints
  (:mod:`repro.engine.intern`), adjacency is label-partitioned CSR rows in
  ``array('i')`` (:mod:`repro.engine.csr`), the transition table is lowered
  into the same int space (:class:`~repro.engine.cache.IntPlan`), and the
  searches run over packed ``(node_int << k) | state_int`` codes, so each
  automaton transition out of a state inspects only the edges that carry
  its symbol — pure stdlib, no numpy;
* there are two search loops, chosen by what the caller asks for.  *One
  start node's answers* (:func:`reachable`, and :func:`holds` as the same
  loop with a target to stop at) is a BFS with a bytearray-bitset visited
  set; it walks ``out_rows`` forward or ``in_rows`` backward.  *A relation*
  (:func:`evaluate_sweep`) is the origin-mask worklist
  :func:`csr_worklist`: one bit per source of the call, so a k-source sweep
  carries k-bit masks.  The bitset loop is not the worklist with one seed:
  it keeps no per-code origin dicts, and a CRPQ with a bound atom runs
  thousands of these;
* the worklist also takes an ownership table, so a shard of a partitioned
  graph (:mod:`repro.distributed.frontier`) steps on the same code with the
  same fault site and budget ticks — all-owned is the single-node sweep;
* the sweep returns what it computed: one origin mask per target node,
  wrapped undecoded in a read-only
  :class:`~repro.engine.relation.PairRelation` (``len`` and ``in`` never
  decode; iteration decodes lazily, so a ``max_rows`` trip decodes k rows);
* every entry point threads an optional :class:`~repro.engine.stats.EngineStats`
  recording nodes expanded, edges relaxed, cache behaviour and phase times.

The language frontends (``rpq.evaluation``, ``rpq.path_modes``,
``crpq.evaluation``, ``coregql.semantics``, ``gql.semantics``) all call into
here.  Their original linear-scan implementations live in
:mod:`repro.reference`, the one reference every differential test compares
this module against.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterable, Set

from repro.engine.cache import (
    DEFAULT_CACHE,
    CompilationCache,
    CompiledQuery,
    alphabet_for,
    compile_uncached,
)
from repro.engine.csr import get_csr
from repro.engine.faults import FAULTS, fault_point
from repro.engine.limits import BudgetExceeded, QueryBudget
from repro.engine.relation import PairRelation
from repro.engine.stats import EngineStats
from repro.engine.tracing import get_tracer
from repro.graph.edge_labeled import EdgeLabeledGraph, ObjectId
from repro.regex.ast import Regex, to_string


def _budget_hooks(budget: "QueryBudget | None"):
    """Hoist the budget's hot-loop callables (or Nones) for one traversal.

    Evaluators bind these to locals so the unbudgeted path pays a single
    ``is not None`` comparison per iteration and the budgeted path a plain
    function call — no attribute lookups inside the loop either way.
    """
    if budget is None:
        return None, None
    budget.check()  # fail fast on an already-expired deadline
    tick = budget.tick
    check_rows = budget.check_rows if budget.max_rows is not None else None
    return tick, check_rows


def query_text(query: "Regex | str | CompiledQuery") -> str:
    """A short textual rendering of a query for span attributes and logs."""
    if isinstance(query, str):
        return query
    if isinstance(query, CompiledQuery):
        if query.regex is None:
            return repr(query)
        return to_string(query.regex)
    if isinstance(query, Regex):
        return to_string(query)
    return repr(query)


def compile_query(
    query: "Regex | str | CompiledQuery",
    graph: EdgeLabeledGraph,
    *,
    cache: "CompilationCache | None" = DEFAULT_CACHE,
    stats: "EngineStats | None" = None,
) -> CompiledQuery:
    """Compile ``query`` over the Remark 11 alphabet of ``graph``.

    Passing ``cache=None`` forces a fresh parse + Glushkov run (the naive
    pipeline the seed used on every single call).
    """
    if isinstance(query, CompiledQuery):
        return query
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span("kernel.compile", query=query_text(query)) as span:
            compiled = _compile_query(query, graph, cache, stats)
            span.set(states=compiled.nfa.num_states, alphabet=len(compiled.alphabet))
            return compiled
    return _compile_query(query, graph, cache, stats)


def _compile_query(
    query: "Regex | str",
    graph: EdgeLabeledGraph,
    cache: "CompilationCache | None",
    stats: "EngineStats | None",
) -> CompiledQuery:
    started = time.perf_counter()
    if cache is None:
        regex = query if isinstance(query, Regex) else None
        if regex is None:
            from repro.regex.parser import parse_regex

            regex = parse_regex(query)
        compiled = compile_uncached(regex, alphabet_for(regex, graph))
    else:
        regex = query if isinstance(query, Regex) else cache.parse(query, stats)
        compiled = cache.compile(regex, alphabet_for(regex, graph), stats)
    if stats is not None:
        stats.add_time("compile", time.perf_counter() - started)
    return compiled


def reachable(
    compiled: CompiledQuery,
    graph: EdgeLabeledGraph,
    source: ObjectId,
    *,
    stats: "EngineStats | None" = None,
    budget: "QueryBudget | None" = None,
    backward: bool = False,
) -> set[ObjectId]:
    """All nodes ``v`` with ``(source, v)`` in ``[[R]]_G`` — one BFS.

    With ``backward=True`` the BFS walks the reversed rows of the same
    snapshot: the automaton reads the labels of a path from its last edge
    to its first, so ``reachable(compile(reverse(R)), G, v, backward=True)``
    is every ``u`` with ``(u, v)`` in ``[[R]]_G`` — what the seed gets from
    a reversed copy of the graph.
    """
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span(
            "kernel.reachable", query=query_text(compiled), source=str(source)
        ) as span:
            answers = _reachable(compiled, graph, source, stats, budget, backward)
            span.set(answers=len(answers))
            return answers
    return _reachable(compiled, graph, source, stats, budget, backward)


def _reachable(
    compiled: CompiledQuery,
    graph: EdgeLabeledGraph,
    source: ObjectId,
    stats: "EngineStats | None" = None,
    budget: "QueryBudget | None" = None,
    backward: bool = False,
) -> set[ObjectId]:
    """The uninstrumented BFS body (also the tracing-overhead baseline)."""
    if not graph.has_node(source):
        return set()
    answers = _csr_reachable(compiled, graph, source, stats, budget, backward)
    if stats is not None:
        stats.count("answers", len(answers))
    return answers


class _TargetReached(Exception):
    """Leaves the BFS loops at the answer :func:`holds` asked about."""


def _csr_reachable(
    compiled: CompiledQuery,
    graph: EdgeLabeledGraph,
    source: ObjectId,
    stats: "EngineStats | None",
    budget: "QueryBudget | None",
    backward: bool = False,
    stop_at: "ObjectId | None" = None,
) -> set[ObjectId]:
    """Single-source BFS on the flat data plane.

    The product state is a packed code ``(node_int << k) | state_int``; the
    visited set is a bytearray bitset over ``num_nodes << k`` bits; answers
    accumulate as node ints and decode once at the end.  ``stop_at`` (a
    node of the graph) ends the search the moment that node becomes an
    answer; the test sits where a newly visited code is final, so it runs
    per answer, never per edge.  What comes back then is one boolean, so
    the budget's row ceiling does not apply.
    """
    fault_point("kernel.evaluate")
    tick, check_rows = _budget_hooks(budget)
    if stop_at is not None:
        check_rows = None
    started = time.perf_counter()
    csr = get_csr(graph, stats)
    plan = compiled.int_plan(csr.interner)
    node_ids = csr.interner._node_ids
    source_int = node_ids[source]
    stop_int = -1 if stop_at is None else node_ids[stop_at]
    k = plan.state_bits
    state_mask = plan.state_mask
    finals_mask = plan.finals_mask
    delta = plan.delta
    adjacency = csr.in_rows if backward else csr.out_rows
    fire = FAULTS.fire if FAULTS.enabled else None
    visited = bytearray(((csr.num_nodes << k) + 7) >> 3)
    queue = deque()
    answer_ints: set[int] = set()
    for state in plan.initial:
        code = (source_int << k) | state
        byte = code >> 3
        bit = 1 << (code & 7)
        if not visited[byte] & bit:
            visited[byte] |= bit
            queue.append(code)
            if (finals_mask >> state) & 1:
                answer_ints.add(source_int)
    if stop_int in answer_ints:
        queue.clear()
    expanded = 0
    relaxed = 0
    tripped = None
    try:
        while queue:
            code = queue.popleft()
            expanded += 1
            if fire is not None:
                fire("kernel.step")
            if tick is not None:
                tick()
            rows = delta[code & state_mask]
            if not rows:
                continue
            node = code >> k
            for label_int, next_states in rows:
                offsets, targets = adjacency[label_int]
                lo = offsets[node]
                hi = offsets[node + 1]
                if lo == hi:
                    continue
                relaxed += hi - lo
                for target in targets[lo:hi]:
                    base = target << k
                    for next_state in next_states:
                        succ = base | next_state
                        byte = succ >> 3
                        bit = 1 << (succ & 7)
                        if not visited[byte] & bit:
                            visited[byte] = visited[byte] | bit
                            queue.append(succ)
                            if (finals_mask >> next_state) & 1:
                                answer_ints.add(target)
                                if target == stop_int:
                                    raise _TargetReached
                                if check_rows is not None:
                                    check_rows(len(answer_ints))
    except _TargetReached:
        pass
    except BudgetExceeded as exc:
        tripped = exc
    if stats is not None:
        stats.count("nodes_expanded", expanded)
        stats.count("edges_relaxed", relaxed)
        stats.add_time("bfs", time.perf_counter() - started)
    nodes = csr.interner._nodes
    answers = {nodes[i] for i in answer_ints}
    if tripped is not None:
        if stats is not None:
            stats.count("budget_exceeded")
        raise tripped.attach_partial(answers)
    return answers


def holds(
    compiled: CompiledQuery,
    graph: EdgeLabeledGraph,
    source: ObjectId,
    target: ObjectId,
    *,
    stats: "EngineStats | None" = None,
    budget: "QueryBudget | None" = None,
) -> bool:
    """Whether ``(source, target)`` answers the query, with early exit."""
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span(
            "kernel.holds",
            query=query_text(compiled),
            source=str(source),
            target=str(target),
        ) as span:
            found = _holds(compiled, graph, source, target, stats, budget)
            span.set(found=found)
            return found
    return _holds(compiled, graph, source, target, stats, budget)


def _holds(
    compiled: CompiledQuery,
    graph: EdgeLabeledGraph,
    source: ObjectId,
    target: ObjectId,
    stats: "EngineStats | None" = None,
    budget: "QueryBudget | None" = None,
) -> bool:
    if not (graph.has_node(source) and graph.has_node(target)):
        return False
    return target in _csr_reachable(
        compiled, graph, source, stats, budget, stop_at=target
    )


def evaluate_sweep(
    compiled: CompiledQuery,
    graph: EdgeLabeledGraph,
    sources: "Iterable[ObjectId] | None" = None,
    *,
    stats: "EngineStats | None" = None,
    budget: "QueryBudget | None" = None,
) -> Set[tuple[ObjectId, ObjectId]]:
    """``[[R]]_G`` in **one** multi-source product-BFS sweep.

    Instead of one BFS per source node, every ``(v, q0)`` pair is seeded at
    once and each product pair ``(node, state)`` carries the *set of origins*
    that reach it.  Origin sets only grow, so the sweep is a worklist
    fixpoint: a pair re-enters the queue only when new origins arrive, and
    each visit propagates just the not-yet-propagated origins (``pending``).
    Work that per-source BFS repeats for every source — discovering the same
    product edges again and again — happens here once per pair, with origin
    bookkeeping done by big-int operations on batches of sources.

    ``sources`` may be any iterable (read once; non-nodes and repeats are
    dropped).  The answer comes back as the sweep holds it — a
    :class:`~repro.engine.relation.PairRelation` over origin masks, a
    snapshot of this graph version (a plain empty ``set`` when there is
    nothing to start from).
    """
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span(
            "kernel.evaluate_sweep", query=query_text(compiled)
        ) as span:
            answers = _evaluate_sweep(compiled, graph, sources, stats, budget)
            span.set(answers=len(answers))
            return answers
    return _evaluate_sweep(compiled, graph, sources, stats, budget)


def _evaluate_sweep(
    compiled: CompiledQuery,
    graph: EdgeLabeledGraph,
    sources: "Iterable[ObjectId] | None" = None,
    stats: "EngineStats | None" = None,
    budget: "QueryBudget | None" = None,
) -> Set[tuple[ObjectId, ObjectId]]:
    """The uninstrumented sweep body (also the tracing-overhead baseline).

    Product pairs are packed codes and origin *sets* are origin *bitmasks*,
    so the per-batch set algebra is single big-int ``&``/``|``/``~``
    operations.  Bit ``i`` stands for the ``i``-th source of the call
    (``sources``: distinct nodes; ``None``: the interner's own node list,
    so bit == node id), which keeps a k-source sweep on k-bit masks however
    large the graph is.  The seeded worklist runs in :func:`csr_worklist`
    with every node owned; the per-target answer masks it leaves *are* the
    result: they are handed back as a :class:`PairRelation`, undecoded.
    """
    started = time.perf_counter()
    if sources is not None:
        # Distinct nodes in first-seen order (the sweep numbers its origin
        # bits by position); a one-shot iterable is read once, here.
        sources = list(dict.fromkeys(s for s in sources if graph.has_node(s)))
        if not sources:
            return set()
    elif not graph.num_nodes:
        return set()
    fault_point("kernel.evaluate")
    tick, check_rows = _budget_hooks(budget)
    csr = get_csr(graph, stats)
    interner = csr.interner
    plan = compiled.int_plan(interner)
    node_ids = interner._node_ids
    source_list = interner._nodes if sources is None else sources
    k = plan.state_bits
    #: code -> every origin (as a bitmask) that ever reached the pair
    origins: dict[int, int] = {}
    #: code -> origins not yet pushed to the pair's successors (nonzero
    #: exactly while the code sits in the queue)
    pending: dict[int, int] = {}
    queue = deque()
    append = queue.append
    initial = plan.initial
    # Sources and initial states are both duplicate-free, so every seed code
    # is new and starts with exactly its own origin bit.
    bit = 1
    for source in source_list:
        base = node_ids[source] << k
        for state in initial:
            code = base | state
            origins[code] = pending[code] = bit
            append(code)
        bit <<= 1
    #: target node int -> origins that reach it in a final state (nonzero)
    answer_masks: dict[int, int] = {}
    try:
        expanded, relaxed, answer_count = csr_worklist(
            plan, csr.out_rows, origins, pending, queue, answer_masks,
            tick, check_rows,
        )
    except BudgetExceeded as exc:
        if stats is not None:
            stats.count("budget_exceeded")
            stats.add_time("bfs", time.perf_counter() - started)
        answer_count = sum(mask.bit_count() for mask in answer_masks.values())
        raise exc.attach_partial(
            PairRelation(source_list, interner._nodes, answer_masks, answer_count)
        )
    if stats is not None:
        stats.count("sweep_sources", len(source_list))
        stats.count("nodes_expanded", expanded)
        stats.count("edges_relaxed", relaxed)
        stats.count("answers", answer_count)
        stats.add_time("bfs", time.perf_counter() - started)
    return PairRelation(source_list, interner._nodes, answer_masks, answer_count)


def csr_worklist(
    plan, out_rows, origins, pending, queue, answer_masks, tick, check_rows,
    owned=None, cross=None,
) -> tuple[int, int, int]:
    """Run a seeded origin-mask worklist over CSR rows to its fixpoint.

    The relation loop of the flat data plane: the single-node sweep above
    and a shard's frontier step
    (:func:`repro.distributed.frontier.local_frontier_step`) both seed
    ``origins``/``pending``/``queue`` and call it.  ``pending`` doubles as
    the queued signal: a code is in the queue iff its pending mask is
    nonzero.  Answers accumulate in ``answer_masks`` as per-target origin
    masks with an incremental ``bit_count`` row total; ``check_rows`` runs
    once per batch of freshly arriving origins.

    ``owned`` (indexed by node int, truthy where this process owns the
    node) cuts the sweep along a partition: a popped code whose node is not
    owned hands its fresh origins to ``cross[code]`` and is neither
    expanded nor recorded as an answer.  The test runs once per pop, never
    per edge; ``owned=None`` owns everything and is the single-node sweep.
    Returns ``(expanded, relaxed, answer rows added)``.
    """
    k = plan.state_bits
    state_mask = plan.state_mask
    finals_mask = plan.finals_mask
    delta = plan.delta
    fire = FAULTS.fire if FAULTS.enabled else None
    answer_count = 0
    expanded = 0
    relaxed = 0
    append = queue.append
    popleft = queue.popleft
    pending_pop = pending.pop
    origins_get = origins.get
    pending_get = pending.get
    answers_get = answer_masks.get
    while queue:
        code = popleft()
        fresh = pending_pop(code, 0)
        if not fresh:
            continue
        node = code >> k
        if owned is not None and not owned[node]:
            cross[code] = cross.get(code, 0) | fresh
            continue
        expanded += 1
        if fire is not None:
            fire("kernel.step")
        if tick is not None:
            tick()
        state = code & state_mask
        if (finals_mask >> state) & 1:
            prev = answers_get(node, 0)
            new = fresh & ~prev
            if new:
                answer_masks[node] = prev | new
                answer_count += new.bit_count()
                if check_rows is not None:
                    check_rows(answer_count)
        rows = delta[state]
        if not rows:
            continue
        for label_int, next_states in rows:
            offsets, targets = out_rows[label_int]
            lo = offsets[node]
            hi = offsets[node + 1]
            if lo == hi:
                continue
            relaxed += hi - lo
            for target in targets[lo:hi]:
                base = target << k
                for next_state in next_states:
                    succ = base | next_state
                    known = origins_get(succ, 0)
                    novel = fresh & ~known
                    if novel:
                        origins[succ] = known | novel
                        pend = pending_get(succ, 0)
                        if pend:
                            pending[succ] = pend | novel
                        else:
                            pending[succ] = novel
                            append(succ)
    return expanded, relaxed, answer_count
