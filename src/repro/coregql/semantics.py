"""The Figure 4 semantics of CoreGQL patterns, on the one pattern core.

The core, :func:`_evaluate`, computes ``[[pi]]_G`` as a set of
``(value, binding)`` pairs for any pattern language whose AST maps onto six
roles: node, edge, concatenation, union, condition and repetition.  A
:class:`_Language` supplies only what differs between languages: its leaf
matchers, when two values of one variable join, and its repetition rule.
CoreGQL and GQL differ exactly in the last (Gheerbrant–Peterfreund):
CoreGQL erases the variables of a repeated pattern, GQL groups them into
lists (:mod:`repro.gql.semantics`).

Two CoreGQL evaluators run on the core:

* :func:`pattern_paths` — the literal semantics: the set of pairs
  ``(p, mu)`` of a path and a binding of the free variables.  This set can
  be infinite under unbounded repetition on cyclic graphs, so the evaluator
  either takes a ``max_length`` bound or raises
  :class:`~repro.errors.InfiniteResultError`.

* :func:`pattern_triples` — the *endpoint* semantics: the set of
  ``(src(p), tgt(p), mu)`` triples.  Because repetition erases bindings
  (``FV(pi^{n..m}) = {}``), this set is always finite and is exactly what
  the relational layer of CoreGQL needs; unbounded repetition becomes a
  transitive closure.

The test suite checks that on acyclic graphs the two agree.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, NamedTuple

from repro.errors import InfiniteResultError, QueryError
from repro.coregql.patterns import (
    EdgePattern,
    NodePattern,
    Pattern,
    PatternConcat,
    PatternCondition,
    PatternRepeat,
    PatternUnion,
)
from repro.graph.paths import Path
from repro.graph.property_graph import PropertyGraph

Binding = tuple  # sorted tuple of (var, value) pairs


def _freeze(mu: dict) -> Binding:
    return tuple(sorted(mu.items(), key=lambda item: repr(item[0])))


def _scan_edges(graph, label=None):
    """``(edge, src, tgt)`` of every edge (with ``label``, if given)."""
    return (
        (edge, src, tgt)
        for edge, src, tgt, edge_label in graph.iter_edge_records()
        if label is None or edge_label == label
    )


class _Language(NamedTuple):
    """What a pattern language hands the core.

    ``role(pattern)`` is ``(role, sub-patterns)``; ``nodes(pattern, graph)``
    and ``edges(pattern, graph, stats)`` are the leaf matchers (nodes, and
    ``(edge, src, tgt)`` triples); ``element`` is how a leaf binds its
    variable; ``agree(var, v1, v2)`` says whether two values of one
    variable join (it may raise on a static type error); ``holds(condition,
    graph, mu)`` tests a condition.  The repetition rule is ``start(inner)``,
    the binding of iteration 0 of a repeated pattern, and ``step(acc, mu)``,
    the binding after one more iteration bound ``mu``.
    """

    role: Callable
    nodes: Callable
    edges: Callable
    element: Callable
    agree: Callable
    holds: Callable
    start: Callable
    step: Callable


class _Endpoints(tuple):
    """A path seen only by its endpoints, ``(src, tgt)``.  Its length is
    unknown, so no bound applies: the level fixpoint alone keeps repetition
    finite.  (A plain tuple subclass: a ``NamedTuple`` constructor costs a
    Python call per concatenation.)"""

    __slots__ = ()
    src = property(itemgetter(0))
    tgt = property(itemgetter(1))

    @classmethod
    def of(cls, graph, objects) -> "_Endpoints":
        return cls((objects[0], objects[-1]))

    def concat(self, other: "_Endpoints") -> "_Endpoints":
        return _Endpoints((self[0], other[1]))


def _evaluate(
    pattern, graph, language: _Language, values=Path, bound=None, stats=None
):
    """``[[pattern]]_G`` as ``(value, binding)`` pairs, where ``values`` is
    :class:`~repro.graph.paths.Path` (lengths at most ``bound``) or
    :class:`_Endpoints`."""
    if bound is not None and bound < 0:
        raise QueryError(f"max_length must be non-negative, got {bound}")

    def leaf(var, element) -> Binding:
        return () if var is None else ((var, language.element(element)),)

    def merge(mu1: Binding, mu2: Binding) -> "Binding | None":
        merged = dict(mu1)
        for var, value in mu2:
            if var not in merged:
                merged[var] = value
            elif not language.agree(var, merged[var], value):
                return None
        return _freeze(merged)

    def join(left, right, combine) -> set:
        """Concatenate each left value with the right values leaving its
        target; ``combine`` merges the bindings (None drops the pair)."""
        by_src: dict = {}
        for value, mu in right:
            by_src.setdefault(value.src, []).append((value, mu))
        combined = set()
        joined = 0
        for value1, mu1 in left:
            for value2, mu2 in by_src.get(value1.tgt, ()):
                joined += 1
                mu = combine(mu1, mu2)
                if mu is None:
                    continue
                value = value1.concat(value2)
                if bound is None or len(value) <= bound:
                    combined.add((value, mu))
        if stats is not None:
            stats.count("edges_relaxed", joined)
        return combined

    def evaluate(pattern) -> set:
        role, subpatterns = language.role(pattern)
        if role == "node":
            return {
                (values.of(graph, (node,)), leaf(pattern.var, node))
                for node in language.nodes(pattern, graph)
            }
        if role == "edge":
            if bound == 0:
                return set()
            records = list(language.edges(pattern, graph, stats))
            if stats is not None:
                stats.count("edges_scanned", len(records))
            return {
                (values.of(graph, (src, edge, tgt)), leaf(pattern.var, edge))
                for edge, src, tgt in records
            }
        if role == "concat":
            current = evaluate(subpatterns[0])
            for part in subpatterns[1:]:
                current = join(current, evaluate(part), merge)
            return current
        if role == "union":
            return set().union(*map(evaluate, subpatterns))
        if role == "condition":
            return {
                (value, mu)
                for value, mu in evaluate(subpatterns[0])
                if language.holds(pattern.condition, graph, dict(mu))
            }
        return repeat(pattern, subpatterns[0])

    def repeat(pattern, inner) -> set:
        """The union of the levels ``[[inner]]^j`` for j in the window."""
        steps = evaluate(inner)
        start = language.start(inner)
        if pattern.high is None and any(
            language.step(start, mu) != start and len(value) == 0
            for value, mu in steps
        ):
            raise InfiniteResultError(
                "an unbounded repetition of a zero-length match that binds "
                "variables yields infinitely many matches"
            )
        # current = [[inner]]^j; j starts at 0 (trivial values).
        current = {(values.of(graph, (node,)), start) for node in graph.iter_nodes()}
        accumulated: set = set()
        iteration = 0
        safety_cap = graph.num_nodes + graph.num_edges + 1
        seen_levels: set[frozenset] = set()
        while True:
            in_window = iteration >= pattern.low and (
                pattern.high is None or iteration <= pattern.high
            )
            if in_window:
                accumulated |= current
                if pattern.high is None:
                    level = frozenset(current)
                    if level in seen_levels:
                        break  # the level sets cycle; nothing new can appear
                    seen_levels.add(level)
            if pattern.high is not None and iteration >= pattern.high:
                break
            current = join(current, steps, language.step)
            iteration += 1
            if not current:
                break
            if (
                pattern.high is None
                and bound is None
                and values is Path
                and any(len(value) > safety_cap for value, _mu in current)
            ):
                raise InfiniteResultError(
                    "unbounded repetition over a cyclic graph yields "
                    "infinitely many matches; pass max_length"
                )
        return accumulated

    return evaluate(pattern)


def _coregql_role(pattern):
    if isinstance(pattern, NodePattern):
        return "node", ()
    if isinstance(pattern, EdgePattern):
        return "edge", ()
    if isinstance(pattern, PatternConcat):
        return "concat", pattern.parts
    if isinstance(pattern, PatternUnion):
        return "union", (pattern.left, pattern.right)
    if isinstance(pattern, PatternCondition):
        return "condition", (pattern.inner,)
    if isinstance(pattern, PatternRepeat):
        return "repeat", (pattern.inner,)
    raise TypeError(f"not a CoreGQL pattern: {pattern!r}")


_COREGQL = _Language(
    role=_coregql_role,
    nodes=lambda pattern, graph: graph.iter_nodes(),
    edges=lambda pattern, graph, stats: _scan_edges(graph),
    element=lambda element: element,
    agree=lambda var, value1, value2: value1 == value2,
    holds=lambda condition, graph, mu: condition(graph, mu),
    # FV(pi^{n..m}) = {}: repetition erases the inner variables
    start=lambda inner: (),
    step=lambda acc, mu: (),
)


def pattern_paths(
    pattern: Pattern,
    graph: PropertyGraph,
    max_length: "int | None" = None,
    *,
    stats=None,
) -> set[tuple[Path, Binding]]:
    """``[[pi]]_G`` as (path, binding) pairs; see module docstring.

    ``stats`` (an :class:`~repro.engine.stats.EngineStats`) collects edge
    scan counters when provided.
    """
    return _evaluate(pattern, graph, _COREGQL, Path, max_length, stats)


def pattern_triples(
    pattern: Pattern, graph: PropertyGraph, *, stats=None
) -> set[tuple]:
    """``{(src(p), tgt(p), mu) | (p, mu) in [[pi]]_G}`` — always finite."""
    return {
        (ends.src, ends.tgt, mu)
        for ends, mu in _evaluate(pattern, graph, _COREGQL, _Endpoints, stats=stats)
    }
