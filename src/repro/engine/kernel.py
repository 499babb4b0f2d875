"""The shared query-execution kernel: cached compile + indexed product BFS.

Section 6 of the paper makes the product construction ``G x A`` the common
core of RPQ, CRPQ and GQL evaluation; Figueira & Lin's complexity analysis
shows this core dominates evaluation cost.  This module is that core, done
once, properly:

* queries compile through the LRU :mod:`repro.engine.cache` (repeat queries
  skip parsing and Glushkov entirely);
* the BFS walks the lazily-built label index of :mod:`repro.engine.index`
  (O(out-degree-by-label) per step instead of O(out-degree));
* with ``use_csr=True`` (the default) the relation kernels run on the flat
  int-encoded data plane instead: nodes, labels and automaton states are
  interned to dense ints (:mod:`repro.engine.intern`), adjacency is
  label-partitioned CSR rows in ``array('i')`` (:mod:`repro.engine.csr`),
  the transition table is lowered into the same int space
  (:class:`~repro.engine.cache.IntPlan`), and the worklists run over packed
  ``(node_int << k) | state_int`` codes with bytearray-bitset visited sets
  and int-bitmask origin tracking (one bit per *source of the call*, so a
  k-source sweep carries k-bit masks) — pure stdlib, no numpy;
* the multi-source sweep's worklist is one loop (:func:`csr_worklist`)
  that also takes an ownership table, so a shard of a partitioned graph
  (:mod:`repro.distributed.frontier`) steps on the same code with the same
  fault site and budget ticks — all-owned is the single-node sweep;
* the CSR sweep returns what it computed: one origin mask per target node,
  wrapped undecoded in a read-only
  :class:`~repro.engine.relation.PairRelation` (``len`` and ``in`` never
  decode; iteration decodes lazily, so a ``max_rows`` trip decodes k rows);
* every entry point threads an optional :class:`~repro.engine.stats.EngineStats`
  recording nodes expanded, edges relaxed, cache behaviour and phase times.

The language frontends (``rpq.evaluation``, ``rpq.path_modes``,
``crpq.evaluation``, ``coregql.semantics``, ``gql.semantics``) all call into
here when ``use_index=True`` (the default); their original linear-scan
implementations remain available behind ``use_index=False`` and serve as the
oracle for the differential tests in ``tests/engine/test_differential.py``.
``use_csr=False`` is the second escape hatch one layer down: it keeps the
indexed *dict* kernel (tuple pairs, set-of-origins bookkeeping, plain ``set``
results), which is the differential oracle for the CSR plane in
``tests/engine/test_csr.py`` and ``tests/engine/test_relation.py`` and the
baseline of the ``bench_engine.py`` scale sweep.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterable, Set
from itertools import islice

from repro.engine.cache import (
    DEFAULT_CACHE,
    CompilationCache,
    CompiledQuery,
    alphabet_for,
    compile_uncached,
)
from repro.engine.csr import get_csr
from repro.engine.faults import FAULTS, fault_point
from repro.engine.index import get_index
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


def _raise_with_partial(
    exc: BudgetExceeded, answers, budget: "QueryBudget | None"
):
    """Attach the rows produced so far and re-raise.

    For a ``max_rows`` trip the attached set is *exactly* the ceiling: the
    answer whose arrival tripped the limit is sliced off, so callers
    surfacing partial results report a true k-subset of the full answer.
    """
    if (
        budget is not None
        and exc.limit == "max_rows"
        and budget.max_rows is not None
    ):
        exc.attach_partial(set(islice(answers, budget.max_rows)))
    else:
        exc.attach_partial(set(answers))
    raise exc


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
    use_csr: bool = True,
) -> set[ObjectId]:
    """All nodes ``v`` with ``(source, v)`` in ``[[R]]_G`` — indexed BFS.

    One BFS over ``(node, state)`` pairs; successor edges come from the
    label index (``use_csr=False``) or the flat CSR rows (default), so each
    automaton transition out of a state inspects only the edges that
    actually carry its symbol.
    """
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span(
            "kernel.reachable", query=query_text(compiled), source=str(source)
        ) as span:
            answers = _reachable(compiled, graph, source, stats, budget, use_csr)
            span.set(answers=len(answers))
            return answers
    return _reachable(compiled, graph, source, stats, budget, use_csr)


def _reachable(
    compiled: CompiledQuery,
    graph: EdgeLabeledGraph,
    source: ObjectId,
    stats: "EngineStats | None" = None,
    budget: "QueryBudget | None" = None,
    use_csr: bool = True,
) -> set[ObjectId]:
    """The uninstrumented BFS body (also the tracing-overhead baseline)."""
    if not graph.has_node(source):
        return set()
    fault_point("kernel.evaluate")
    tick, check_rows = _budget_hooks(budget)
    started = time.perf_counter()
    if use_csr:
        return _csr_reachable(
            compiled, graph, source, tick, check_rows, stats, budget, started
        )
    index = get_index(graph, stats)
    delta = compiled.delta
    finals = compiled.finals
    fire = FAULTS.fire if FAULTS.enabled else None
    start = {(source, state) for state in compiled.initial}
    seen = set(start)
    queue = deque(start)
    answers = {node for node, state in start if state in finals}
    expanded = 0
    relaxed = 0
    try:
        while queue:
            node, state = queue.popleft()
            expanded += 1
            if fire is not None:
                fire("kernel.step")
            if tick is not None:
                tick()
            by_symbol = delta.get(state)
            if not by_symbol:
                continue
            for symbol, next_states in by_symbol.items():
                for _edge, target in index.out_edges(node, symbol):
                    relaxed += 1
                    for next_state in next_states:
                        pair = (target, next_state)
                        if pair not in seen:
                            seen.add(pair)
                            queue.append(pair)
                            if next_state in finals:
                                answers.add(target)
                                if check_rows is not None:
                                    check_rows(len(answers))
    except BudgetExceeded as exc:
        if stats is not None:
            stats.count("nodes_expanded", expanded)
            stats.count("edges_relaxed", relaxed)
            stats.count("budget_exceeded")
            stats.add_time("bfs", time.perf_counter() - started)
        _raise_with_partial(exc, answers, budget)
    if stats is not None:
        stats.count("nodes_expanded", expanded)
        stats.count("edges_relaxed", relaxed)
        stats.count("answers", len(answers))
        stats.add_time("bfs", time.perf_counter() - started)
    return answers


def _csr_reachable(
    compiled: CompiledQuery,
    graph: EdgeLabeledGraph,
    source: ObjectId,
    tick,
    check_rows,
    stats: "EngineStats | None",
    budget: "QueryBudget | None",
    started: float,
) -> set[ObjectId]:
    """Single-source BFS on the flat data plane.

    The product state is a packed code ``(node_int << k) | state_int``; the
    visited set is a bytearray bitset over ``num_nodes << k`` bits; answers
    accumulate as node ints and decode once at the end.  Semantics (seed
    handling, tick cadence, row accounting, partial attach) mirror the dict
    body above — the differential tests hold the two to identical answers.
    """
    csr = get_csr(graph, stats)
    plan = compiled.int_plan(csr.interner)
    source_int = csr.interner._node_ids[source]
    k = plan.state_bits
    state_mask = plan.state_mask
    finals_mask = plan.finals_mask
    delta = plan.delta
    out_rows = csr.out_rows
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
    expanded = 0
    relaxed = 0
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
                        byte = succ >> 3
                        bit = 1 << (succ & 7)
                        if not visited[byte] & bit:
                            visited[byte] = visited[byte] | bit
                            queue.append(succ)
                            if (finals_mask >> next_state) & 1:
                                answer_ints.add(target)
                                if check_rows is not None:
                                    check_rows(len(answer_ints))
    except BudgetExceeded as exc:
        if stats is not None:
            stats.count("nodes_expanded", expanded)
            stats.count("edges_relaxed", relaxed)
            stats.count("budget_exceeded")
            stats.add_time("bfs", time.perf_counter() - started)
        nodes = csr.interner._nodes
        _raise_with_partial(exc, {nodes[i] for i in answer_ints}, budget)
    if stats is not None:
        stats.count("nodes_expanded", expanded)
        stats.count("edges_relaxed", relaxed)
        stats.count("answers", len(answer_ints))
        stats.add_time("bfs", time.perf_counter() - started)
    nodes = csr.interner._nodes
    return {nodes[i] for i in answer_ints}


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
    fault_point("kernel.evaluate")
    tick, _ = _budget_hooks(budget)
    started = time.perf_counter()
    index = get_index(graph, stats)
    delta = compiled.delta
    finals = compiled.finals
    start = {(source, state) for state in compiled.initial}
    found = any(node == target and state in finals for node, state in start)
    seen = set(start)
    queue = deque(start)
    expanded = 0
    relaxed = 0
    while queue and not found:
        node, state = queue.popleft()
        expanded += 1
        if tick is not None:
            tick()
        by_symbol = delta.get(state)
        if not by_symbol:
            continue
        for symbol, next_states in by_symbol.items():
            for _edge, successor in index.out_edges(node, symbol):
                relaxed += 1
                for next_state in next_states:
                    pair = (successor, next_state)
                    if pair in seen:
                        continue
                    if successor == target and next_state in finals:
                        found = True
                    seen.add(pair)
                    queue.append(pair)
            if found:
                break
    if stats is not None:
        stats.count("nodes_expanded", expanded)
        stats.count("edges_relaxed", relaxed)
        stats.add_time("bfs", time.perf_counter() - started)
    return found


def evaluate(
    compiled: CompiledQuery,
    graph: EdgeLabeledGraph,
    sources: "Iterable[ObjectId] | None" = None,
    *,
    stats: "EngineStats | None" = None,
    multi_source: bool = True,
    budget: "QueryBudget | None" = None,
    use_csr: bool = True,
) -> Set[tuple[ObjectId, ObjectId]]:
    """``[[R]]_G`` over all (or the given) sources, sharing one index.

    With ``multi_source=True`` (default) the whole relation is computed in
    one origin-tracking frontier sweep (:func:`evaluate_sweep`); with
    ``multi_source=False`` the original per-source BFS loop runs instead
    (kept as the sweep's differential oracle).  ``use_csr`` picks the data
    plane either way.  The result is a read-only set of pairs: the CSR
    sweep's :class:`~repro.engine.relation.PairRelation`, a plain ``set``
    from the oracle arms.
    """
    if multi_source:
        return evaluate_sweep(
            compiled, graph, sources, stats=stats, budget=budget, use_csr=use_csr
        )
    source_nodes = sources if sources is not None else graph.iter_nodes()
    answers: set[tuple[ObjectId, ObjectId]] = set()
    # Per-source reachability bounds its own rows ceiling wrong for the
    # joined relation, so the row check runs out here over the union; the
    # per-source traversals still honor deadline/cancellation/max_states.
    per_source = budget.subquery() if budget is not None else None
    try:
        for source in source_nodes:
            for target in reachable(
                compiled, graph, source,
                stats=stats, budget=per_source, use_csr=use_csr,
            ):
                answers.add((source, target))
                if budget is not None:
                    budget.check_rows(len(answers))
    except BudgetExceeded as exc:
        _raise_with_partial(exc, answers, budget)
    return answers


def evaluate_sweep(
    compiled: CompiledQuery,
    graph: EdgeLabeledGraph,
    sources: "Iterable[ObjectId] | None" = None,
    *,
    stats: "EngineStats | None" = None,
    budget: "QueryBudget | None" = None,
    use_csr: bool = True,
) -> Set[tuple[ObjectId, ObjectId]]:
    """``[[R]]_G`` in **one** multi-source product-BFS sweep.

    Instead of one BFS per source node, every ``(v, q0)`` pair is seeded at
    once and each product pair ``(node, state)`` carries the *set of origins*
    that reach it.  Origin sets only grow, so the sweep is a worklist
    fixpoint: a pair re-enters the queue only when new origins arrive, and
    each visit propagates just the not-yet-propagated origins (``pending``).
    Work that per-source BFS repeats for every source — discovering the same
    product edges again and again — happens here once per pair, with origin
    bookkeeping done by C-level set operations on batches of sources.

    ``sources`` may be any iterable (read once; non-nodes and repeats are
    dropped).  On the CSR plane the answer comes back as the sweep holds it
    — a :class:`~repro.engine.relation.PairRelation` over origin masks, a
    snapshot of this graph version — and the dict oracle returns a ``set``.
    """
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span(
            "kernel.evaluate_sweep", query=query_text(compiled)
        ) as span:
            answers = _evaluate_sweep(
                compiled, graph, sources, stats, budget, use_csr
            )
            span.set(answers=len(answers))
            return answers
    return _evaluate_sweep(compiled, graph, sources, stats, budget, use_csr)


def _evaluate_sweep(
    compiled: CompiledQuery,
    graph: EdgeLabeledGraph,
    sources: "Iterable[ObjectId] | None" = None,
    stats: "EngineStats | None" = None,
    budget: "QueryBudget | None" = None,
    use_csr: bool = True,
) -> Set[tuple[ObjectId, ObjectId]]:
    """The uninstrumented sweep body (also the tracing-overhead baseline)."""
    started = time.perf_counter()
    if sources is not None:
        # Distinct nodes in first-seen order (the CSR sweep numbers its
        # origin bits by position); a one-shot iterable is read once, here.
        sources = list(dict.fromkeys(s for s in sources if graph.has_node(s)))
        if not sources:
            return set()
    elif not graph.num_nodes:
        return set()
    fault_point("kernel.evaluate")
    tick, check_rows = _budget_hooks(budget)
    if use_csr:
        return _csr_sweep(
            compiled, graph, sources, tick, check_rows, stats, budget, started
        )
    source_list = list(graph.iter_nodes()) if sources is None else sources
    index = get_index(graph, stats)
    delta = compiled.delta
    finals = compiled.finals
    answers: set[tuple[ObjectId, ObjectId]] = set()
    #: (node, state) -> every origin that ever reached the pair
    origins: dict[tuple, set] = {}
    #: (node, state) -> origins not yet pushed to the pair's successors
    pending: dict[tuple, set] = {}
    queue = deque()
    queued: set[tuple] = set()
    for source in source_list:
        for state in compiled.initial:
            pair = (source, state)
            bucket = origins.get(pair)
            if bucket is None:
                origins[pair] = {source}
                pending[pair] = {source}
                queued.add(pair)
                queue.append(pair)
            elif source not in bucket:
                bucket.add(source)
                pending.setdefault(pair, set()).add(source)
                if pair not in queued:
                    queued.add(pair)
                    queue.append(pair)
    try:
        return _sweep_loop(
            index, delta, finals, answers, origins, pending, queue, queued,
            tick, check_rows, stats, started, source_list,
        )
    except BudgetExceeded as exc:
        if stats is not None:
            stats.count("budget_exceeded")
            stats.add_time("bfs", time.perf_counter() - started)
        _raise_with_partial(exc, answers, budget)


def _sweep_loop(
    index, delta, finals, answers, origins, pending, queue, queued,
    tick, check_rows, stats, started, source_list,
):
    expanded = 0
    relaxed = 0
    fire = FAULTS.fire if FAULTS.enabled else None
    while queue:
        pair = queue.popleft()
        queued.discard(pair)
        fresh = pending.pop(pair, None)
        if not fresh:
            continue
        expanded += 1
        if fire is not None:
            fire("kernel.step")
        if tick is not None:
            tick()
        node, state = pair
        if state in finals:
            for origin in fresh:
                answers.add((origin, node))
            if check_rows is not None:
                check_rows(len(answers))
        by_symbol = delta.get(state)
        if not by_symbol:
            continue
        for symbol, next_states in by_symbol.items():
            for _edge, target in index.out_edges(node, symbol):
                relaxed += 1
                for next_state in next_states:
                    successor = (target, next_state)
                    known = origins.get(successor)
                    if known is None:
                        origins[successor] = set(fresh)
                        pending[successor] = set(fresh)
                        queued.add(successor)
                        queue.append(successor)
                    else:
                        novel = fresh - known
                        if novel:
                            known |= novel
                            extra = pending.get(successor)
                            if extra is None:
                                pending[successor] = set(novel)
                            else:
                                extra |= novel
                            if successor not in queued:
                                queued.add(successor)
                                queue.append(successor)
    if stats is not None:
        stats.count("sweep_sources", len(source_list))
        stats.count("nodes_expanded", expanded)
        stats.count("edges_relaxed", relaxed)
        stats.count("answers", len(answers))
        stats.add_time("bfs", time.perf_counter() - started)
    return answers


def _csr_sweep(
    compiled: CompiledQuery,
    graph: EdgeLabeledGraph,
    sources: "list | None",
    tick,
    check_rows,
    stats: "EngineStats | None",
    budget: "QueryBudget | None",
    started: float,
) -> PairRelation:
    """The multi-source origin-tracking sweep on the flat data plane.

    Product pairs are packed codes; origin *sets* become origin *bitmasks*,
    so the dict sweep's per-batch set algebra turns into single big-int
    ``&``/``|``/``~`` operations.  Bit ``i`` stands for the ``i``-th source
    of the call (``sources``: distinct nodes; ``None``: the interner's own
    node list, so bit == node id), which keeps a k-source sweep on k-bit
    masks however large the graph is.  The seeded worklist runs in
    :func:`csr_worklist` with every node owned; the per-target answer masks
    it leaves *are* the result: they are handed back as a
    :class:`PairRelation`, undecoded.
    """
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
        _raise_with_partial(
            exc,
            PairRelation(source_list, interner._nodes, answer_masks, answer_count),
            budget,
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

    The one product-BFS loop of the flat data plane: the single-node sweep
    above and a shard's frontier step
    (:func:`repro.distributed.frontier.local_frontier_step`) both seed
    ``origins``/``pending``/``queue`` and call it.  ``pending`` doubles as
    the queued signal: a code is in the queue iff its pending mask is
    nonzero, so the dict sweep's separate ``queued`` set disappears.
    Answers accumulate in ``answer_masks`` as per-target origin masks with
    an incremental ``bit_count`` row total, keeping ``check_rows`` cadence
    identical to the dict sweep (checked once per batch of freshly arriving
    origins).

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
