"""Enumerating the paths a PMR represents (Sections 3.1.5, 6.3 and 6.4).

The one search per path mode lives here.  Everything that returns paths runs
:func:`search_paths` on a trimmed PMR: ``rpq.path_modes.matching_paths`` and
``listvars.enumerate.evaluate_lrpq`` on a product graph (which is a PMR),
:func:`enumerate_spaths` on any PMR (its ``order="dfs"`` is the depth-first
search of the restrictive modes with no restriction).

* ``all`` — breadth-first, so answers come in non-decreasing length;
* ``shortest`` — the geodesics (polynomial: one backward BFS);
* ``simple`` / ``trail`` — backtracking under a no-repeated-node /
  no-repeated-edge constraint on the *base* projection.  Existence is
  NP-complete in general (Section 6.3); the search behaves well on the
  "well-behaved" queries and graphs the paper describes, and a budget is
  what stops it elsewhere.

Emission order is a function of the PMR alone: sources and out-edges in
``repr`` order.  Answers are deduplicated (set semantics), so an ambiguous
representation never emits one twice; the dedup set is the one component
whose memory grows with the output, as in the set-semantics variants of the
cited algorithms [41, 84].  No search recurses: a matching path may be
longer than the interpreter's stack is deep.

Output-linear delay (Section 6.4): "Since paths can grow arbitrarily long,
constant-delay algorithms cannot exist; output-linear delay algorithms have
been studied [41, 84]."  On a *trimmed* PMR every partial walk extends to an
accepted path, so the ``order="dfs"`` traversal of :func:`enumerate_spaths`
spends O(|p|) work between consecutive outputs.  Benchmark E23 measures
exactly this.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterator
from itertools import islice

from repro.errors import InfiniteResultError
from repro.graph.paths import Path
from repro.pmr.ops import is_finite, trim
from repro.pmr.representation import PMR


def search_paths(
    pmr: PMR,
    mode: str,
    limit: "int | None" = None,
    *,
    max_length: "int | None" = None,
    budget=None,
    edge_image: "Callable | None" = None,
    answer: "Callable | None" = None,
) -> Iterator:
    """Yield the distinct answers of the *trimmed* ``pmr`` under ``mode``.

    A search walks inner source-to-target paths and builds, step by step,
    their *image sequence*: gamma of each inner node, alternating with what
    ``edge_image`` makes of each inner edge (default: gamma).  ``answer``
    turns a finished image sequence into a hashable result (default: the
    base ``Path`` with those objects).  l-RPQs set both, to keep the captures
    of a run; nothing else differs between callers.

    ``max_length`` bounds mode ``all``, which raises
    :class:`InfiniteResultError` on an infinite PMR given neither bound.
    ``limit`` caps the answers (``0`` yields none; a negative one is a
    ``ValueError``).  ``budget`` is ticked once per search step.
    """
    if not pmr.targets:  # trimmed, so nothing at all
        return
    node_image = pmr.gamma.__getitem__
    if edge_image is None:
        edge_image = node_image
    tick = budget.tick if budget is not None else None
    steps = _sorted_steps(pmr.inner)
    if mode == "all":
        _require_bound(pmr, limit, max_length)
        sequences = _breadth_first(pmr, steps, node_image, edge_image, tick, max_length)
    else:
        sequences = _depth_first(pmr, mode, steps, node_image, edge_image, tick)
    yield from islice(_distinct(pmr, sequences, answer), limit)


def _distinct(pmr: PMR, sequences, answer) -> Iterator:
    """The answers the image ``sequences`` denote, each once, in order."""
    emitted: set = set()
    for images in sequences:
        # A base path is its object tuple: dedup on that, build the new ones.
        result = images if answer is None else answer(images)
        if result not in emitted:
            emitted.add(result)
            yield Path(pmr.base, images) if answer is None else result


def _require_bound(trimmed: PMR, limit, max_length) -> None:
    if limit is None and max_length is None and not is_finite(trimmed):
        raise InfiniteResultError(
            "infinitely many paths; pass a limit (or max_length), "
            "or use a restrictive path mode"
        )


def _sorted_steps(inner) -> Callable:
    """``node -> ((edge, successor), ...)`` in ``repr`` order of the edges —
    the order every search extends in — sorted once per visited node."""
    memo: dict = {}

    def steps(node) -> tuple:
        found = memo.get(node)
        if found is None:
            found = memo[node] = tuple(
                (edge, inner.tgt(edge))
                for edge in sorted(inner.out_edges(node), key=repr)
            )
        return found

    return steps


def _breadth_first(
    pmr: PMR, steps, node_image, edge_image, tick, max_length
) -> Iterator[tuple]:
    """Image sequences of all inner source-to-target paths, in length order.

    The queue holds one entry per (image sequence, inner node it ends in),
    not one per inner path.  An ambiguous expression gives one graph path
    many runs (``(a+a)*`` gives a path of length k 2^k of them, Section
    6.1), but two runs with the same image sequence that end in the same
    inner node have the same extensions, so the later one could only repeat
    answers; the search is breadth-first, so dropping it leaves every answer
    at the position the first run yields it.
    """
    targets = pmr.targets
    queue: deque[tuple] = deque(
        ((node_image(source),), source) for source in sorted(pmr.sources, key=repr)
    )
    queued = set(queue)
    while queue:
        if tick is not None:
            tick()
        entry = queue.popleft()
        queued.discard(entry)  # its extensions are longer: it cannot recur
        images, node = entry
        if node in targets:
            yield images
        if max_length is not None and len(images) // 2 >= max_length:
            continue
        for edge, successor in steps(node):
            extended = (images + (edge_image(edge), node_image(successor)), successor)
            if extended not in queued:
                queued.add(extended)
                queue.append(extended)


def _distances_to_targets(pmr: PMR) -> dict:
    """Inner node -> length of its shortest inner path to a target."""
    inner = pmr.inner
    distances = {node: 0 for node in pmr.targets}
    queue = deque(pmr.targets)
    while queue:
        node = queue.popleft()
        for predecessor in inner.predecessors(node):
            if predecessor not in distances:
                distances[predecessor] = distances[node] + 1
                queue.append(predecessor)
    return distances


def _depth_first(
    pmr: PMR, mode: str, steps, node_image, edge_image, tick, max_length=None
) -> Iterator[tuple]:
    """Image sequences of the inner source-to-target paths ``mode`` admits,
    in pre-order, on an explicit stack; a path is yielded when its last
    step is pushed.

    ``shortest`` admits a step iff it stays on a geodesic: the successor is
    exactly as far from a target as the globally minimal length leaves room
    for.  ``simple`` / ``trail`` constrain the *base* projection: a simple
    path may not revisit a base node even in a different inner node, and a
    trail may not reuse a base edge even under a different inner edge; this
    is the NP-hard search (Section 6.3), which can run exponentially long
    *between* two answers — hence one budget tick per extension.  ``all``
    admits every step (the depth-first order of :func:`enumerate_spaths`);
    ``max_length`` stops a walk at that many edges.
    """
    targets = pmr.targets
    shortest = mode == "shortest"
    simple = mode == "simple"
    if shortest:
        to_go = _distances_to_targets(pmr)
        best = min(to_go[source] for source in pmr.sources)
    for source in sorted(pmr.sources, key=repr):
        if tick is not None:
            tick()
        images = (node_image(source),)
        if source in targets:
            yield images
        #: base nodes (simple) or base edges (trail) on the current walk
        used = {images[0]} if simple else set()
        #: one frame per inner node on the walk: (image sequence so far,
        #: what entering it added to ``used``, its untried steps)
        stack = [(images, None, iter(steps(source)))]
        while stack:
            images, entered_with, untried = stack[-1]
            # the top frame is at depth len(stack) - 1
            if max_length is not None and len(stack) > max_length:
                untried = ()
            for edge, successor in untried:
                marker = None
                if shortest:
                    if to_go[successor] != best - len(stack):
                        continue
                elif mode != "all":
                    marker = node_image(successor if simple else edge)
                    if marker in used:
                        continue
                    used.add(marker)
                if tick is not None:
                    tick()
                images = images + (edge_image(edge), node_image(successor))
                if successor in targets:
                    yield images
                stack.append((images, marker, iter(steps(successor))))
                break
            else:
                stack.pop()
                used.discard(entered_with)


def enumerate_spaths(
    pmr: PMR,
    limit: "int | None" = None,
    max_length: "int | None" = None,
    order: str = "dfs",
) -> Iterator[Path]:
    """Yield the distinct base paths of ``SPaths(R)``.

    ``order="dfs"`` gives the output-linear-delay traversal;
    ``order="bfs"`` yields paths in non-decreasing length (useful when only
    the shortest few are wanted) — it is mode ``all`` of
    :func:`search_paths`.  At least one of ``limit`` / ``max_length`` must
    bound the enumeration when the PMR is infinite, in either order.
    """
    trimmed = trim(pmr)
    if not trimmed.targets:
        return
    if order == "bfs":
        yield from search_paths(trimmed, "all", limit, max_length=max_length)
        return
    if order != "dfs":
        raise ValueError(f"unknown enumeration order {order!r}")
    _require_bound(trimmed, limit, max_length)
    gamma = trimmed.gamma.__getitem__
    sequences = _depth_first(
        trimmed, "all", _sorted_steps(trimmed.inner), gamma, gamma, None, max_length
    )
    yield from islice(_distinct(trimmed, sequences, None), limit)


def enumerate_spaths_delta(
    pmr: PMR,
    limit: "int | None" = None,
    max_length: "int | None" = None,
):
    """Delta enumeration: yield ``(path, shared_prefix_objects)`` pairs.

    Section 7.1 suggests "enumerating only the difference between
    consecutive outputs".  In DFS order, consecutive paths share long
    prefixes; the second component counts how many leading *objects* of the
    path were already part of the previously yielded one, so a consumer can
    re-emit only the suffix.  The total suffix work over the whole
    enumeration is what an incremental client actually pays — experiment
    data shows it is much smaller than re-sending every path whole.
    """
    previous: "Path | None" = None
    for path in enumerate_spaths(pmr, limit=limit, max_length=max_length, order="dfs"):
        if previous is None:
            shared = 0
        else:
            shared = 0
            for left, right in zip(previous.objects, path.objects):
                if left != right:
                    break
                shared += 1
        yield path, shared
        previous = path
