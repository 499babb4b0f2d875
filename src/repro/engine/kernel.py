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
  (:func:`evaluate_sweep`, and :func:`evaluate_sweep_backward` over
  ``in_rows``) is :func:`sweep_layers`: one origin bit per source of the
  call, so a k-source sweep carries k-bit masks, and the product is
  visited in the topological order of the automaton's strongly connected
  components, so each reached code is expanded exactly once.  A sweep
  from every node starts from the snapshot's label columns instead of
  one seed code per node; where every later state is a *first-step
  sink* (a final state with no transitions that only that step enters:
  ``a``, ``a + b``, ``_``) the columns are the answers, no code bucketed,
  and each sink code still counts as one expansion.  The bitset loop is not
  the relation loop with one seed: it keeps no per-code masks
  (``reachable_by_rpq``, ``rpq_holds`` and the batch executor's
  single-source items run on it); a CRPQ atom, bound or not, is one
  relation;
* the relation loop also takes an ownership table, so a shard of a
  partitioned graph (:mod:`repro.distributed.frontier`) steps on the same
  code with the same fault site and budget ticks — all-owned is the
  single-node sweep;
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
    """``[[R]]_G`` in **one** multi-source product sweep.

    Instead of one BFS per source node, every ``(v, q0)`` pair is seeded at
    once and each product pair ``(node, state)`` carries the *set of origins*
    that reach it.  The sweep visits the product one automaton layer at a
    time (:func:`sweep_layers`): a layer's origin sets are complete before
    it runs, or are completed by condensing the layer's product SCCs, so
    each pair is expanded exactly once.  Work that per-source BFS repeats
    for every source — discovering the same product edges again and again —
    happens here once per pair, with origin bookkeeping done by big-int
    operations on batches of sources.

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


def evaluate_sweep_backward(
    compiled: CompiledQuery,
    graph: EdgeLabeledGraph,
    targets: Iterable[ObjectId],
    *,
    stats: "EngineStats | None" = None,
    budget: "QueryBudget | None" = None,
) -> Set[tuple[ObjectId, ObjectId]]:
    """:func:`evaluate_sweep` over the reversed rows of the same snapshot.

    The automaton reads a path from its last edge to its first, so with
    ``compiled`` the compilation of ``reverse(R)`` the answer is every
    ``(v, u)`` with ``v`` in ``targets`` and ``(u, v)`` in ``[[R]]_G`` —
    one relation sweep for all the targets, as :func:`reachable` with
    ``backward=True`` is one BFS for one of them.
    """
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span(
            "kernel.evaluate_sweep", query=query_text(compiled), backward=True
        ) as span:
            answers = _evaluate_sweep(compiled, graph, targets, stats, budget, True)
            span.set(answers=len(answers))
            return answers
    return _evaluate_sweep(compiled, graph, targets, stats, budget, True)


def _evaluate_sweep(
    compiled: CompiledQuery,
    graph: EdgeLabeledGraph,
    sources: "Iterable[ObjectId] | None" = None,
    stats: "EngineStats | None" = None,
    budget: "QueryBudget | None" = None,
    backward: bool = False,
) -> Set[tuple[ObjectId, ObjectId]]:
    """The uninstrumented sweep body (also the tracing-overhead baseline).

    Product pairs are packed codes and origin *sets* are origin *bitmasks*,
    so the per-batch set algebra is single big-int ``&``/``|``/``~``
    operations.  Bit ``i`` stands for the ``i``-th source of the call
    (``sources``: distinct nodes; ``None``: the interner's own node list,
    so bit == node id), which keeps a k-source sweep on k-bit masks however
    large the graph is.  The seeded loop runs in :func:`sweep_layers` with
    every node owned; the per-target answer masks it leaves *are* the
    result: they are handed back as a :class:`PairRelation`, undecoded.

    With bit == node id, the first step out of an initial state that is
    alone in the first automaton layer (every Glushkov ``q0``: nothing
    enters it) is the same for every query: a label's edges carry each
    source's own bit to their targets.  That state is not seeded code by
    code; :func:`_column_step` merges the snapshot's label columns into
    the later layers instead, and answers its first-step sinks from them.
    Other initial states seed as one code per source.
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
    initial = plan.initial
    first = None
    if sources is None and not backward and plan.cyclic and not plan.cyclic[0]:
        first = plan.layer.index(0)
        if first in initial:
            initial = [state for state in initial if state != first]
        else:
            first = None
    # Sources and initial states are both duplicate-free, so every seed code
    # starts with exactly its own origin bit.
    seeds = [
        ((node_ids[source] << k) | state, 1 << bit)
        for bit, source in enumerate(source_list)
        for state in initial
    ] if initial else []
    #: target node int -> origins that reach it in a final state (nonzero)
    answer_masks: dict[int, int] = {}
    expanded = relaxed = answer_count = 0
    try:
        if first is not None:
            expanded, relaxed, answer_count = _column_step(
                plan, csr, first, seeds, answer_masks, tick, check_rows
            )
            if answer_count and check_rows is not None:
                # sweep_layers counts the rows it adds; the ceiling is on all
                check_rows = _offset_rows(check_rows, answer_count)
        swept = sweep_layers(
            plan, csr.in_rows if backward else csr.out_rows, seeds, answer_masks,
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
    expanded += swept[0]
    relaxed += swept[1]
    answer_count += swept[2]
    if stats is not None:
        stats.count("sweep_sources", len(source_list))
        stats.count("nodes_expanded", expanded)
        stats.count("edges_relaxed", relaxed)
        stats.count("answers", answer_count)
        stats.add_time("bfs", time.perf_counter() - started)
    return PairRelation(source_list, interner._nodes, answer_masks, answer_count)


def _offset_rows(check_rows, rows_before: int):
    """``check_rows`` for a loop that counts only the rows it adds."""
    return lambda rows: check_rows(rows_before + rows)


def _column_step(
    plan, csr, state, seeds, answer_masks, tick, check_rows,
) -> tuple[int, int, int]:
    """Expand every seed code ``(v, state)`` of an all-sources sweep at once.

    ``state`` is an initial state alone in an acyclic first layer, and seed
    ``(v, state)`` carries ``1 << v``.  Expanding them all sends, per label
    row of ``state``, each target the OR of its sources' bits: the label's
    column (:meth:`~repro.engine.csr.CSRGraph.label_column`), merged into
    ``seeds`` here as later-layer codes, label by label, each label's
    targets in the order a seed-by-seed step first reaches them.  A final
    ``state`` makes every node its own answer.

    Where ``plan.first_sinks`` is set, every successor is a first-step
    sink (a final state with no rows that only ``state`` enters): its
    codes would be expanded only to answer their masks, so its labels'
    columns, ORed, are its answers, sink by sink in layer order and each
    in its bucket's order, and nothing is seeded.  With a hook or the fault
    site live, each sink code takes its ``kernel.step`` site, ``tick`` and
    row check as in its layer; with none, a one-label sink that answers
    first is a copy of its column (never the snapshot's dict itself).

    The work is counted as the seed-by-seed step counts it: ``|V|`` codes
    expanded (one ``tick`` and ``kernel.step`` fault site each, each
    identity answer checked against the row ceiling as it is added),
    every edge of each row's label relaxed, and one expansion per sink
    code, as its layer would count: a sink's distinct targets.  Returns
    ``(expanded, relaxed, answer rows)``.
    """
    num_nodes = csr.num_nodes
    fire = FAULTS.fire if FAULTS.enabled else None
    bulk = fire is None and tick is None and check_rows is None
    final = (plan.finals_mask >> state) & 1
    if bulk:
        if final:
            answer_masks.update({node: 1 << node for node in range(num_nodes)})
    else:
        for node in range(num_nodes):
            if fire is not None:
                fire("kernel.step")
            if tick is not None:
                tick()
            if final:
                answer_masks[node] = 1 << node
                if check_rows is not None:
                    check_rows(node + 1)
    k = plan.state_bits
    relaxed = 0
    later: dict[int, int] = {}
    entered: dict[int, list[int]] = {}  # sink -> the labels into it
    for label_int, _inner, outer in plan.layer_rows[state]:
        relaxed += len(csr.out_rows[label_int][1])
        if plan.first_sinks:
            for next_state, _layer in outer:
                entered.setdefault(next_state, []).append(label_int)
            continue
        column = csr.label_column(label_int)
        if not later and len(outer) == 1:  # nothing to merge into yet
            next_state = outer[0][0]
            later = {
                (target << k) | next_state: mask for target, mask in column.items()
            }
            continue
        for target, mask in column.items():
            base = target << k
            for next_state, _layer in outer:
                code = base | next_state
                later[code] = later.get(code, 0) | mask
    seeds.extend(later.items())
    expanded, rows = num_nodes, num_nodes if final else 0
    for sink in sorted(entered, key=plan.layer.__getitem__):
        label_int, *more = entered[sink]
        column = csr.label_column(label_int)
        if more:
            column = dict(column)  # the snapshot's own dict is never written
            for other in more:
                for target, mask in csr.label_column(other).items():
                    column[target] = column.get(target, 0) | mask
        expanded += len(column)
        if bulk and not answer_masks and not more:
            answer_masks.update(column)
            rows += csr.column_rows(label_int)
            continue
        answers_get = answer_masks.get
        for target, mask in column.items():
            if fire is not None:
                fire("kernel.step")
            if tick is not None:
                tick()
            prev = answers_get(target, 0)
            new = mask & ~prev
            if new:
                answer_masks[target] = prev | new
                rows += new.bit_count()
                if check_rows is not None:
                    check_rows(rows)
    return expanded, relaxed, rows


def sweep_layers(
    plan, out_rows, seeds, answer_masks, tick, check_rows, owned=None, cross=None,
) -> tuple[int, int, int]:
    """Run the relation loop from ``seeds`` (``(code, origin mask)`` pairs).

    The product is visited one automaton layer at a time, in the layers'
    topological order (``plan.layer``), so each reached code is expanded
    exactly once.  A layer's ``{code: mask}`` bucket collects every mask
    that reaches it from earlier layers before the layer runs, and is
    dropped when it has run.  Each layer runs in one of three ways:

    * an acyclic layer is one state with no successor in the layer: its
      masks are complete, and each code is expanded once, in bucket order;
    * a cyclic layer whose codes all arrived with one and the same mask
      (every single-source sweep, most shard steps) gives that mask to all
      it reaches inside the layer: each code is expanded once, in FIFO
      order;
    * any other cyclic layer runs an iterative Tarjan that expands each of
      its codes once and condenses the layer's product SCCs (Purdom 1970;
      Nuutila 1995).  A component's mask is its seeds' masks OR the masks
      of the components with an edge into it, ORed along those edges in
      topological order; its answers, its cross pairs and the codes it
      reaches in later layers all take that mask.

    Answers accumulate in ``answer_masks`` as per-target origin masks with
    an incremental ``bit_count`` row total; ``check_rows`` runs once per
    batch of new answer bits, and ``tick`` and the ``kernel.step`` fault
    site once per expansion.  The expansions counted are the product codes
    reached (law (b)); a first-step sink's codes, which an all-sources
    sweep answers from the columns and never hands to this loop, are
    counted by :func:`_column_step` as this loop would count them.

    ``owned`` (indexed by node int, truthy where this process owns the
    node) cuts the sweep along a partition: a code whose node is not owned
    hands its mask to ``cross[code]`` and is neither expanded nor recorded
    as an answer.  ``owned=None`` owns everything and is the single-node
    sweep.  Returns ``(expanded, relaxed, answer rows added)``.
    """
    k = plan.state_bits
    state_mask = plan.state_mask
    finals_mask = plan.finals_mask
    layer_of = plan.layer
    rows_of = plan.layer_rows
    fire = FAULTS.fire if FAULTS.enabled else None
    answers_get = answer_masks.get
    answer_count = 0
    expanded = 0
    relaxed = 0
    buckets = [{} for _ in plan.cyclic]
    for code, mask in seeds:
        bucket = buckets[layer_of[code & state_mask]]
        bucket[code] = bucket.get(code, 0) | mask
    for layer, cyclic in enumerate(plan.cyclic):
        bucket = buckets[layer]
        buckets[layer] = None
        if not bucket:
            continue

        if not cyclic:
            # The FIFO case below with its one state hoisted and nothing to
            # queue: single labels and chains are mostly such layers, and
            # the hoist is worth ~10 % of a whole-log relation pass.
            state = next(iter(bucket)) & state_mask
            final = (finals_mask >> state) & 1
            rows = rows_of[state]
            for code, mask in bucket.items():
                node = code >> k
                if owned is not None and not owned[node]:
                    cross[code] = cross.get(code, 0) | mask
                    continue
                expanded += 1
                if fire is not None:
                    fire("kernel.step")
                if tick is not None:
                    tick()
                if final:
                    prev = answers_get(node, 0)
                    new = mask & ~prev
                    if new:
                        answer_masks[node] = prev | new
                        answer_count += new.bit_count()
                        if check_rows is not None:
                            check_rows(answer_count)
                for label_int, _inner, outer in rows:
                    offsets, targets = out_rows[label_int]
                    lo = offsets[node]
                    hi = offsets[node + 1]
                    if lo == hi:
                        continue
                    relaxed += hi - lo
                    for target in targets[lo:hi]:
                        base = target << k
                        for next_state, later in outer:
                            succ = base | next_state
                            waiting = buckets[later]
                            waiting[succ] = waiting.get(succ, 0) | mask
            continue

        masks = iter(bucket.values())
        mask = next(masks)
        if all(other == mask for other in masks):
            queue = list(bucket)
            for code in queue:
                node = code >> k
                if owned is not None and not owned[node]:
                    cross[code] = cross.get(code, 0) | mask
                    continue
                expanded += 1
                if fire is not None:
                    fire("kernel.step")
                if tick is not None:
                    tick()
                state = code & state_mask
                if (finals_mask >> state) & 1:
                    prev = answers_get(node, 0)
                    new = mask & ~prev
                    if new:
                        answer_masks[node] = prev | new
                        answer_count += new.bit_count()
                        if check_rows is not None:
                            check_rows(answer_count)
                for label_int, inner, outer in rows_of[state]:
                    offsets, targets = out_rows[label_int]
                    lo = offsets[node]
                    hi = offsets[node + 1]
                    if lo == hi:
                        continue
                    relaxed += hi - lo
                    for target in targets[lo:hi]:
                        base = target << k
                        for next_state in inner:
                            succ = base | next_state
                            if succ not in bucket:
                                bucket[succ] = mask
                                queue.append(succ)
                        for next_state, later in outer:
                            succ = base | next_state
                            waiting = buckets[later]
                            waiting[succ] = waiting.get(succ, 0) | mask
            continue

        # Tarjan over the layer.  ``number`` holds a code's DFS number while
        # it is open and ``closed + component`` once its component closed,
        # so a closed code never lowers a lowlink.  What a component must do
        # once its mask is known goes on ``effects`` as its members are
        # expanded: a later-layer code to pass the mask to, a member's own
        # code (an answer or a cross pair), or ``~c`` for a condensation
        # edge to component ``c``.  The members of a component sit on top
        # of both stacks when it closes, so closing cuts its slice off each.
        # A code with no successor in the layer closes at once, without a
        # frame.
        closed = 1 << 62
        number: dict[int, int] = {}
        open_codes: list[int] = []
        effects: list[int] = []
        comp_masks: list[int] = []
        comp_effects: list = []
        for root in bucket:
            if root in number:
                continue
            #: [code, its successors in the layer, next to read, lowlink,
            #:  its start on ``effects``, its start on ``open_codes``]
            frames = []
            code = root
            while True:
                if code is not None:
                    number[code] = dfs = len(number)
                    start = len(effects)
                    node = code >> k
                    inner_succs = None
                    if owned is not None and not owned[node]:
                        effects.append(code)
                    else:
                        expanded += 1
                        if fire is not None:
                            fire("kernel.step")
                        if tick is not None:
                            tick()
                        state = code & state_mask
                        if (finals_mask >> state) & 1:
                            effects.append(code)
                        for label_int, inner, outer in rows_of[state]:
                            offsets, targets = out_rows[label_int]
                            lo = offsets[node]
                            hi = offsets[node + 1]
                            if lo == hi:
                                continue
                            relaxed += hi - lo
                            for target in targets[lo:hi]:
                                base = target << k
                                if inner:
                                    if inner_succs is None:
                                        inner_succs = []
                                    for next_state in inner:
                                        inner_succs.append(base | next_state)
                                for next_state, _later in outer:
                                    effects.append(base | next_state)
                    if inner_succs is None:
                        number[code] = closed + len(comp_masks)
                        comp_masks.append(bucket.get(code, 0))
                        if len(effects) > start:
                            comp_effects.append(effects[start:])
                            del effects[start:]
                        else:
                            comp_effects.append(())
                    else:
                        frames.append(
                            [code, inner_succs, 0, dfs, start, len(open_codes)]
                        )
                        open_codes.append(code)
                    code = None
                if not frames:
                    break
                frame = frames[-1]
                succs = frame[1]
                position = frame[2]
                low = frame[3]
                while position < len(succs):
                    succ = succs[position]
                    seen = number.get(succ)
                    if seen is None:
                        code = succ  # visit it; the edge is read again after
                        break
                    if seen >= closed:
                        effects.append(~(seen - closed))
                    elif seen < low:
                        low = seen
                    position += 1
                frame[2] = position
                frame[3] = low
                if code is not None:
                    continue
                frames.pop()
                if low == number[frame[0]]:
                    marker = closed + len(comp_masks)
                    seed_mask = 0
                    members = open_codes[frame[5]:]
                    del open_codes[frame[5]:]
                    for member in members:
                        number[member] = marker
                        seed_mask |= bucket.get(member, 0)
                    comp_masks.append(seed_mask)
                    start = frame[4]
                    comp_effects.append(effects[start:])
                    del effects[start:]
                elif frames and low < frames[-1][3]:
                    frames[-1][3] = low
        # Components close sinks first: propagate from the last one closed.
        for component in range(len(comp_masks) - 1, -1, -1):
            mask = comp_masks[component]
            for effect in comp_effects[component]:
                if effect < 0:
                    comp_masks[~effect] |= mask
                    continue
                later = layer_of[effect & state_mask]
                if later != layer:
                    waiting = buckets[later]
                    waiting[effect] = waiting.get(effect, 0) | mask
                    continue
                node = effect >> k
                if owned is not None and not owned[node]:
                    cross[effect] = cross.get(effect, 0) | mask
                    continue
                prev = answers_get(node, 0)
                new = mask & ~prev
                if new:
                    answer_masks[node] = prev | new
                    answer_count += new.bit_count()
                    if check_rows is not None:
                        check_rows(answer_count)
    return expanded, relaxed, answer_count
