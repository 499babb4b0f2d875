"""Operations on PMRs: trimming, finiteness, counting, membership.

:func:`trim`, :func:`_closure` and the cycle test in :func:`is_finite` are
the only ones: product graphs are PMRs and go through them too.
"""

from __future__ import annotations

from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.graph.paths import Path
from repro.pmr.representation import PMR


def _closure(graph: EdgeLabeledGraph, seeds, forward: bool) -> set:
    seen = {node for node in seeds if graph.has_node(node)}
    frontier = list(seen)
    while frontier:
        node = frontier.pop()
        neighbours = (
            graph.successors(node) if forward else graph.predecessors(node)
        )
        for neighbour in neighbours:
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return seen


def trim(pmr: PMR) -> PMR:
    """Restrict to inner nodes on some source-to-target path.

    Trimming never changes ``SPaths`` and is what makes enumeration delays
    output-linear: every step of a walk in a trimmed PMR can be completed to
    an accepted path.  The result has its argument's class (a trimmed
    product graph is a product graph) and is memoised, so
    ``trim(trim(x)) is trim(x)``.
    """
    if pmr._trimmed is not None:
        return pmr._trimmed
    useful = _closure(pmr.inner, pmr.sources, True) & _closure(
        pmr.inner, pmr.targets, False
    )
    inner = EdgeLabeledGraph()
    for node in useful:
        inner.add_node(node)
    for edge, src, tgt, label in pmr.inner.iter_edge_records():
        if src in useful and tgt in useful:
            inner.add_edge(edge, src, tgt, label)
    trimmed = pmr._trusted(
        inner, pmr.base, pmr.gamma, pmr.sources & useful, pmr.targets & useful
    )
    trimmed._trimmed = pmr._trimmed = trimmed
    return trimmed


def is_finite(pmr: PMR) -> bool:
    """Whether ``SPaths(R)`` is finite (no cycle in the trimmed inner graph).

    The Figure 3 cycles PMR is infinite; the Figure 5 PMR is finite (2^n
    paths).
    """
    graph = trim(pmr).inner
    color: dict = {}
    for start in graph.iter_nodes():
        if color.get(start, 0):
            continue
        stack = [(start, iter(graph.successors(start)))]
        color[start] = 1
        while stack:
            node, successors = stack[-1]
            advanced = False
            for successor in successors:
                mark = color.get(successor, 0)
                if mark == 1:
                    return False
                if mark == 0:
                    color[successor] = 1
                    stack.append((successor, iter(graph.successors(successor))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return True


def pmr_size(pmr: PMR) -> int:
    """|N| + |E| of the inner graph — the space measure of Section 6.4."""
    return pmr.inner.num_nodes + pmr.inner.num_edges


def count_paths_of_length(pmr: PMR, length: int) -> int:
    """The number of *distinct base paths* of the given length in SPaths.

    Note the set semantics: several inner paths may project to the same
    base path, so counting runs over projected prefixes, not inner
    configurations alone.
    """
    trimmed = trim(pmr)
    # Subset construction over the base-edge alphabet: every distinct base
    # path drives a unique subset sequence, and distinct paths reaching the
    # same subset are kept apart by *counting* subsets, not just tracking
    # them.
    start_by_base: dict = {}
    for source in trimmed.sources:
        start_by_base.setdefault(trimmed.gamma[source], set()).add(source)
    counts: dict = {}
    for inner_nodes in start_by_base.values():
        subset = frozenset(inner_nodes)
        counts[subset] = counts.get(subset, 0) + 1
    for _ in range(length):
        next_counts: dict = {}
        for subset, count in counts.items():
            moves: dict = {}
            for node in subset:
                for edge in trimmed.inner.out_edges(node):
                    base_edge = trimmed.gamma[edge]
                    moves.setdefault(base_edge, set()).add(trimmed.inner.tgt(edge))
            for successor_nodes in moves.values():
                successor = frozenset(successor_nodes)
                next_counts[successor] = next_counts.get(successor, 0) + count
        counts = next_counts
    return sum(
        count for subset, count in counts.items() if subset & trimmed.targets
    )


def contains_path(pmr: PMR, path: Path) -> bool:
    """Whether a base path belongs to ``SPaths(R)`` (a simple DP).

    The path must be node-to-node (inner paths always are, since PMR
    sources/targets are nodes).
    """
    if path.is_empty or path.starts_with_edge or path.ends_with_edge:
        return False
    objects = path.objects
    current = {
        node
        for node in pmr.sources
        if pmr.gamma[node] == objects[0]
    }
    index = 1
    while index < len(objects):
        base_edge, base_node = objects[index], objects[index + 1]
        next_current = set()
        for node in current:
            for edge in pmr.inner.out_edges(node):
                if pmr.gamma[edge] == base_edge:
                    target = pmr.inner.tgt(edge)
                    if pmr.gamma[target] == base_node:
                        next_current.add(target)
        current = next_current
        if not current:
            return False
        index += 2
    return bool(current & pmr.targets)
