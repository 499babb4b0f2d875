"""Evaluating dl-RPQs (Section 3.2.1) under path modes.

The engine enumerates paths through the configuration graph of
:mod:`repro.datatests.register`.  Each accepted run determines a result
``(p, mu)``: append effects build the path, capture effects build the lists.

Finiteness is subtler than for plain RPQs because *stay* transitions can
capture (``(a^z)(a^z)`` appends the same node to ``z`` twice without moving)
— so even a fixed finite path can carry infinitely many ``mu``.  Before
enumerating, the engine analyzes the strongly connected components of the
useful configuration graph:

* mode ``all`` is infinite iff some useful cycle contains a *progress* edge
  (append or capture);
* the restricted modes bound the number of appends, so they are infinite
  iff some useful cycle consists of stay edges only and captures — those
  cycles pump ``mu`` without lengthening the path.

In the infinite cases an :class:`InfiniteResultError` is raised unless the
caller passes a ``limit``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from itertools import islice

from repro.errors import EvaluationError, InfiniteResultError
from repro.datatests.parser import parse_dlrpq
from repro.datatests.register import ConfigGraph, build_config_graph, compile_dlrpq
from repro.graph.bindings import ListBinding
from repro.graph.edge_labeled import ObjectId
from repro.graph.paths import Path
from repro.graph.property_graph import PropertyGraph
from repro.listvars.lrpq import PathBinding
from repro.regex.ast import Regex
from repro.rpq.path_modes import PATH_MODES


def _as_regex(query) -> Regex:
    if isinstance(query, str):
        return parse_dlrpq(query)
    return query


def _coreachable(cg: ConfigGraph, goal: set) -> set:
    """Configs from which some goal configuration is reachable."""
    backward: dict = {}
    for config, successors in cg.edges.items():
        for _effect, target in successors:
            backward.setdefault(target, set()).add(config)
    seen = set(goal)
    frontier = list(goal)
    while frontier:
        config = frontier.pop()
        for source in backward.get(config, ()):
            if source not in seen:
                seen.add(source)
                frontier.append(source)
    return seen


def _sccs(nodes: set, successors) -> dict:
    """Iterative Tarjan; returns a node -> component-id mapping."""
    index_counter = [0]
    indices: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    component: dict = {}
    comp_counter = [0]

    for root in nodes:
        if root in indices:
            continue
        work = [(root, iter(successors(root)))]
        indices[root] = lowlink[root] = index_counter[0]
        index_counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, iterator = work[-1]
            advanced = False
            for successor in iterator:
                if successor not in nodes:
                    continue
                if successor not in indices:
                    indices[successor] = lowlink[successor] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(successors(successor))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], indices[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == indices[node]:
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component[member] = comp_counter[0]
                    if member == node:
                        break
                comp_counter[0] += 1
    return component


def _is_infinite(cg: ConfigGraph, useful: set, mode: str) -> bool:
    """See module docstring for the two infinity criteria."""

    def all_successors(config):
        for _effect, target in cg.successors(config):
            if target in useful:
                yield target

    component = _sccs(useful, all_successors)

    if mode == "all":
        for config in useful:
            for effect, target in cg.successors(config):
                if target not in useful:
                    continue
                same_scc = component[config] == component[target]
                if same_scc and effect.is_progress:
                    return True
                if config == target and effect.is_progress:
                    return True
        return False

    # Restricted modes: only stay-edge cycles with captures pump results.
    def stay_successors(config):
        for effect, target in cg.successors(config):
            if target in useful and effect.append is None:
                yield target

    stay_component = _sccs(useful, stay_successors)
    for config in useful:
        for effect, target in cg.successors(config):
            if target not in useful or effect.append is not None:
                continue
            if effect.capture is None:
                continue
            if config == target:
                return True  # capturing stay self-loop
            if stay_component[config] == stay_component[target]:
                return True  # capturing edge on a stay-only cycle
    return False


def _geodesic_filter(cg: ConfigGraph, useful: set):
    """Restrict to transitions on minimum-append accepting runs (0/1 BFS)."""
    INF = float("inf")
    dist_from: dict = {config: INF for config in useful}
    queue: deque = deque()
    for start in cg.starts:
        if start in useful:
            dist_from[start] = 0
            queue.append(start)
    while queue:
        config = queue.popleft()
        for effect, target in cg.successors(config):
            if target not in useful:
                continue
            weight = 1 if effect.append is not None else 0
            candidate = dist_from[config] + weight
            if candidate < dist_from.get(target, INF):
                dist_from[target] = candidate
                if weight == 0:
                    queue.appendleft(target)
                else:
                    queue.append(target)

    backward: dict = {}
    for config in useful:
        for effect, target in cg.successors(config):
            if target in useful:
                backward.setdefault(target, []).append((effect, config))
    dist_to: dict = {config: INF for config in useful}
    queue = deque()
    goals = [config for config in cg.accepting if config in useful]
    for goal in goals:
        dist_to[goal] = 0
        queue.append(goal)
    while queue:
        config = queue.popleft()
        for effect, source in backward.get(config, ()):
            weight = 1 if effect.append is not None else 0
            candidate = dist_to[config] + weight
            if candidate < dist_to.get(source, INF):
                dist_to[source] = candidate
                if weight == 0:
                    queue.appendleft(source)
                else:
                    queue.append(source)

    best = min((dist_from[g] for g in goals), default=INF)

    def on_geodesic(config, effect, target) -> bool:
        weight = 1 if effect.append is not None else 0
        return (
            dist_from.get(config, INF) + weight + dist_to.get(target, INF) == best
        )

    return best, on_geodesic


def evaluate_dlrpq(
    query: "Regex | str",
    graph: PropertyGraph,
    source: ObjectId,
    target: ObjectId,
    mode: str = "all",
    limit: int | None = None,
    budget=None,
) -> Iterator[PathBinding]:
    """Yield ``(p, mu)`` results of ``sigma_{source,target}([[R]]_G)`` under
    the mode, each distinct pair once.

    Paths may start or end with edges (the symmetric design of Example 21);
    ``source``/``target`` refer to ``src(p)``/``tgt(p)``, which look through
    boundary edges.  The empty path never appears in results (it has no
    endpoints).  ``limit`` caps the results (``0`` yields none; a negative
    one is a ``ValueError``).  A ``budget`` is ticked per configuration
    popped while the configuration graph is built and per entry dequeued
    while runs are enumerated, so a deadline or cancellation stops either
    phase.
    """
    if mode not in PATH_MODES:
        raise EvaluationError(f"unknown path mode {mode!r}; use one of {PATH_MODES}")
    regex = _as_regex(query)
    if not graph.has_node(source) or not graph.has_node(target):
        return
    if budget is not None:
        budget.check()
    cg = build_config_graph(regex, graph, source, budget)
    goals = cg.finals_by_target.get(target, set())
    if not goals:
        return
    useful = _coreachable(cg, goals) & cg.configs
    accepting_here = set(goals)

    if mode == "shortest":
        best, on_geodesic = _geodesic_filter(
            ConfigGraph(
                graph=cg.graph,
                source=cg.source,
                starts=cg.starts,
                configs=cg.configs,
                edges=cg.edges,
                accepting=accepting_here,
            ),
            useful,
        )
        if best == float("inf"):
            return
        edge_filter = on_geodesic
    else:
        edge_filter = None

    if limit is None and _is_infinite(
        _restricted_view(cg, accepting_here, useful, edge_filter), useful, mode
    ):
        raise InfiniteResultError(
            "infinitely many (path, mu) results; pass a limit or change mode"
        )

    yield from islice(
        _enumerate(cg, accepting_here, useful, mode, edge_filter, budget), limit
    )


def _restricted_view(cg, accepting, useful, edge_filter) -> ConfigGraph:
    if edge_filter is None:
        return ConfigGraph(
            graph=cg.graph,
            source=cg.source,
            starts=cg.starts,
            configs=cg.configs,
            edges=cg.edges,
            accepting=accepting,
        )
    edges: dict = {}
    for config in useful:
        kept = [
            (effect, target)
            for effect, target in cg.successors(config)
            if target in useful and edge_filter(config, effect, target)
        ]
        if kept:
            edges[config] = kept
    return ConfigGraph(
        graph=cg.graph,
        source=cg.source,
        starts=cg.starts,
        configs=cg.configs,
        edges=edges,
        accepting=accepting,
    )


def _enumerate(
    cg: ConfigGraph,
    accepting: set,
    useful: set,
    mode: str,
    edge_filter,
    budget=None,
) -> Iterator[PathBinding]:
    """Breadth-first enumeration of accepted runs, deduplicated on (p, mu).

    An entry equal to one still queued is not enqueued: equal state, equal
    futures, so it could only repeat results, and breadth-first keeps the
    first — the same rule as ``pmr.enumerate``'s mode ``all``.  Without it
    an ambiguous expression queues one entry per *run* (Section 6.1).
    """
    graph = cg.graph
    emitted: set[PathBinding] = set()
    tick = budget.tick if budget is not None else None

    # queue entries: (config, path_objects, mu_lists, used, since_progress)
    queue: deque = deque(
        (start, (), (), frozenset(), frozenset())
        for start in cg.starts
        if start in useful
    )
    queued = set(queue)

    def result_of(path_objects, mu_lists) -> PathBinding:
        lists: dict = {}
        for variable, obj in mu_lists:
            lists[variable] = lists.get(variable, ()) + (obj,)
        return PathBinding(Path(graph, path_objects), ListBinding(lists))

    while queue:
        if tick is not None:
            tick()
        entry = queue.popleft()
        queued.discard(entry)
        config, path_objects, mu_lists, used, since_progress = entry
        if config in accepting and path_objects:
            binding = result_of(path_objects, mu_lists)
            if binding not in emitted:
                emitted.add(binding)
                yield binding
        for effect, target in cg.successors(config):
            if target not in useful:
                continue
            if edge_filter is not None and not edge_filter(config, effect, target):
                continue
            new_path = path_objects
            new_used = used
            if effect.append is not None:
                obj = effect.append
                if mode == "simple" and graph.has_node(obj) and obj in used:
                    continue
                if mode == "trail" and graph.has_edge(obj) and obj in used:
                    continue
                new_path = path_objects + (obj,)
                if mode == "simple" and graph.has_node(obj):
                    new_used = used | {obj}
                elif mode == "trail" and graph.has_edge(obj):
                    new_used = used | {obj}
            new_mu = mu_lists
            if effect.capture is not None:
                new_mu = mu_lists + ((effect.capture, effect.matched),)
            if effect.is_progress:
                new_since = frozenset()
            else:
                if target in since_progress:
                    continue  # a no-progress cycle adds nothing new
                new_since = since_progress | {target}
            entry = (target, new_path, new_mu, new_used, new_since)
            if entry not in queued:
                queued.add(entry)
                queue.append(entry)


def dlrpq_pairs(
    query: "Regex | str", graph: PropertyGraph, sources=None
) -> set[tuple[ObjectId, ObjectId]]:
    """All ``(src(p), tgt(p))`` pairs witnessed by some matching path.

    Decided on the finite configuration graph, so this terminates even when
    the path set is infinite — the data-complexity story of Section 6.4.
    A library-only helper: it takes no budget and always runs to the end.
    """
    regex = _as_regex(query)
    nfa = compile_dlrpq(regex)
    answers: set[tuple[ObjectId, ObjectId]] = set()
    nodes = sources if sources is not None else list(graph.iter_nodes())
    for source in nodes:
        if not graph.has_node(source):
            continue
        cg = build_config_graph(nfa, graph, source)
        for target in cg.finals_by_target:
            answers.add((source, target))
    return answers
