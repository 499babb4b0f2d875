"""Automata-based evaluation of l-RPQs (Section 3.1.4 + path modes).

The engine builds the product of the graph with the capture-atom automaton
— by the one ``build_product``, told that an atom matches an edge by its
``label`` field — and runs the one search per path mode of
:mod:`repro.pmr.enumerate` on its trimmed part.  Each product path
determines one path binding ``(p, mu)``: the projection gives the graph
path, and the capture sets on the traversed transitions give the lists.
Note that one *graph* path can carry several distinct ``mu`` (the paper's
``(a.a^z + a^z.a)*`` example binds exponentially many lists on a single
path), so a product edge contributes its base edge *and* its captures to
the search, and deduplication happens on the pair, never on the path alone.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import partial
from operator import attrgetter

from repro.errors import EvaluationError
from repro.graph.bindings import ListBinding
from repro.graph.edge_labeled import EdgeLabeledGraph, ObjectId
from repro.graph.paths import Path
from repro.listvars.compile import compile_lrpq
from repro.listvars.lrpq import PathBinding, parse_lrpq
from repro.pmr.enumerate import search_paths
from repro.pmr.ops import trim
from repro.regex.ast import Regex
from repro.rpq.path_modes import PATH_MODES
from repro.rpq.product_graph import build_product


def _captured(product_edge: tuple) -> tuple:
    """What a product edge ``(e, (q1, atom, q2))`` adds to a run: the base
    edge and the variables capturing it."""
    return product_edge[0], product_edge[1][1].variables


def _path_binding(base: EdgeLabeledGraph, images: tuple) -> PathBinding:
    """The ``(graph path, mu)`` of a run's node / :func:`_captured` sequence."""
    objects = list(images)
    lists: dict = {}
    for position in range(1, len(images), 2):
        edge, variables = images[position]
        objects[position] = edge
        for variable in variables:
            lists.setdefault(variable, []).append(edge)
    return PathBinding(Path(base, tuple(objects)), ListBinding(lists))


def evaluate_lrpq(
    query: "Regex | str",
    graph: EdgeLabeledGraph,
    source: ObjectId,
    target: ObjectId,
    mode: str = "all",
    limit: int | None = None,
) -> Iterator[PathBinding]:
    """Yield the path bindings of ``sigma_{source,target}([[R]]_G)`` under
    the given mode, each ``(p, mu)`` pair exactly once.

    ``mode="all"`` raises :class:`InfiniteResultError` on cyclic matches
    unless ``limit`` bounds the enumeration; the restrictive modes are
    always finite (Section 3.1.5's reason for introducing them).
    """
    if mode not in PATH_MODES:
        raise EvaluationError(f"unknown path mode {mode!r}; use one of {PATH_MODES}")
    if not (graph.has_node(source) and graph.has_node(target)):
        return
    regex = parse_lrpq(query) if isinstance(query, str) else query
    nfa = compile_lrpq(regex, graph)
    product = trim(
        build_product(
            graph, nfa, sources=[source], targets=[target],
            label_of=attrgetter("label"),
        )
    )
    yield from search_paths(
        product, mode, limit,
        edge_image=_captured, answer=partial(_path_binding, graph),
    )
