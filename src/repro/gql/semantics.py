"""GQL-style pattern matching with singleton and group variables.

This engine deliberately implements the *syntax-driven* semantics that
Examples 1 and 2 of the paper dissect:

* within an unrepeated subpattern, multiple occurrences of a variable are a
  **join** — they must bind to the same element (``(x)-[:a]->(x)`` matches
  self-loops);
* adjacent node patterns join too, because path concatenation glues on a
  shared node (``(u)(v)`` forces ``u = v``);
* when the parse tree passes through a quantifier, every variable of the
  quantified subpattern becomes a **group variable** that collects one
  element per iteration into a list — and group variables do *not* join.

Consequently ``pi{2}`` is not equivalent to ``pi pi`` (Example 1), which is
exactly the disconnect from regular expressions the paper criticizes; the
repaired design is :mod:`repro.listvars`.

Bindings map variables to ``("single", element)`` or ``("group", tuple)``.
Mixing the two kinds for one variable, or giving one group variable two
homes, is a static type error in GQL and raises :class:`QueryError` here.

Matching runs on the pattern core of :mod:`repro.coregql.semantics`: this
module maps its AST onto the core's six roles and supplies its leaf
matchers, the join rule above and the group rule for repetition.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.coregql.semantics import (
    _evaluate,
    _freeze,
    _Language,
    _scan_edges,
)
from repro.errors import QueryError
from repro.gql.ast import (
    Alt,
    BAnd,
    BNot,
    BOr,
    BoolExpr,
    Cmp,
    EdgePat,
    GPattern,
    NodePat,
    Quant,
    Seq,
    Where,
    pattern_variables,
)
from repro.graph.paths import Path
from repro.graph.property_graph import PropertyGraph

#: binding entry kinds
SINGLE = "single"
GROUP = "group"

Binding = tuple  # sorted tuple of (var, (kind, value)) pairs


@dataclass(frozen=True)
class GQLMatch:
    """One match: the matched path and the variable bindings."""

    path: Path
    binding: Binding

    def get(self, var):
        """The bound value: an element for singletons, a tuple for groups."""
        for name, (kind, value) in self.binding:
            if name == var:
                return value
        return None

    def kind_of(self, var):
        for name, (kind, _value) in self.binding:
            if name == var:
                return kind
        return None


def _agree(var, value1, value2) -> bool:
    """Singletons join; a group variable in two sibling subpatterns is a
    GQL type error."""
    if value1[0] == SINGLE == value2[0]:
        return value1 == value2
    raise QueryError(
        f"variable {var!r} is used as a group variable in two "
        "sibling subpatterns (a GQL type error)"
    )


def _evaluate_condition(
    condition: BoolExpr, graph: PropertyGraph, binding: dict
) -> bool:
    if isinstance(condition, BAnd):
        return _evaluate_condition(condition.left, graph, binding) and (
            _evaluate_condition(condition.right, graph, binding)
        )
    if isinstance(condition, BOr):
        return _evaluate_condition(condition.left, graph, binding) or (
            _evaluate_condition(condition.right, graph, binding)
        )
    if isinstance(condition, BNot):
        return not _evaluate_condition(condition.inner, graph, binding)
    if isinstance(condition, Cmp):
        return _evaluate_comparison(condition, graph, binding)
    raise TypeError(f"not a condition: {condition!r}")


def _property_of(graph, binding, var, prop):
    if var not in binding:
        return None
    kind, value = binding[var]
    if kind != SINGLE:
        raise QueryError(
            f"WHERE references {var!r}, which is a group variable in scope"
        )
    if not graph.has_property(value, prop):
        return None
    return graph.get_property(value, prop)


def _evaluate_comparison(cmp: Cmp, graph, binding: dict) -> bool:
    left = _property_of(graph, binding, cmp.var, cmp.prop)
    if left is None:
        return False
    if cmp.rhs_is_const:
        right = cmp.const
    else:
        right = _property_of(graph, binding, cmp.rhs_var, cmp.rhs_prop)
        if right is None:
            return False
    try:
        return {
            "=": left == right,
            "!=": left != right,
            "<": left < right,
            ">": left > right,
            "<=": left <= right,
            ">=": left >= right,
        }[cmp.op]
    except TypeError:
        return False


def match_gql_pattern(
    pattern: "GPattern | str",
    graph: PropertyGraph,
    max_length: "int | None" = None,
    *,
    use_index: bool = True,
    stats=None,
) -> set[GQLMatch]:
    """All matches of the pattern on the graph.

    ``max_length`` bounds path lengths for unbounded quantifiers on cyclic
    graphs (otherwise :class:`~repro.errors.InfiniteResultError` is raised
    when the match set would be infinite, as it is for an unbounded
    quantifier over a zero-length match that binds a variable, whatever
    the bound).  A negative ``max_length`` raises :class:`QueryError`.

    With ``use_index=True`` (default) a labeled edge pattern reads the
    label's row of the CSR snapshot's edge column
    (:meth:`~repro.engine.csr.CSRGraph.edge_rows`) instead of scanning every
    edge; ``use_index=False`` keeps the seed's linear scans (the
    differential oracle).  ``stats`` collects engine counters when provided.
    """
    if isinstance(pattern, str):
        from repro.gql.parser import parse_gql_pattern

        pattern = parse_gql_pattern(pattern)
    language = _GQL if use_index else _GQL._replace(edges=_scanned_edges)
    return {
        GQLMatch(path, binding)
        for path, binding in _evaluate(
            pattern, graph, language, bound=max_length, stats=stats
        )
    }


def _role(pattern):
    if isinstance(pattern, NodePat):
        return "node", ()
    if isinstance(pattern, EdgePat):
        return "edge", ()
    if isinstance(pattern, Seq):
        return "concat", pattern.parts
    if isinstance(pattern, Alt):
        return "union", pattern.parts
    if isinstance(pattern, Where):
        return "condition", (pattern.inner,)
    if isinstance(pattern, Quant):
        return "repeat", (pattern.inner,)
    raise TypeError(f"not an ASCII pattern: {pattern!r}")


def _nodes(pattern: NodePat, graph):
    return (
        node
        for node in graph.iter_nodes()
        if pattern.label is None or graph.object_label(node) == pattern.label
    )


def _scanned_edges(pattern: EdgePat, graph, stats):
    return _scan_edges(graph, pattern.label)


def _indexed_edges(pattern: EdgePat, graph, stats):
    """A labeled edge pattern reads the label's row of the CSR edge column."""
    if pattern.label is None:
        return _scan_edges(graph)
    from repro.engine.csr import get_csr

    csr = get_csr(graph, stats)
    edges, ordinals = csr.edge_rows(graph)
    label_int = csr.interner.label_id(pattern.label)
    row = ordinals[label_int] if label_int is not None else ()
    return ((edge, *graph.endpoints(edge)) for edge in map(edges.__getitem__, row))


def _group_start(inner: GPattern) -> Binding:
    """Iteration 0 binds every inner variable to the empty list."""
    return _freeze({var: (GROUP, ()) for var in pattern_variables(inner)})


def _group_step(acc: Binding, mu: Binding) -> Binding:
    """One more iteration appends its values to the lists (group values of
    nested quantifiers are flattened, as GQL's lists are flat)."""
    extended = dict(acc)
    for var, (kind, value) in mu:
        items = (value,) if kind == SINGLE else tuple(value)
        extended[var] = (GROUP, extended.get(var, (GROUP, ()))[1] + items)
    return _freeze(extended)


_GQL = _Language(
    role=_role,
    nodes=_nodes,
    edges=_indexed_edges,
    element=lambda element: (SINGLE, element),
    agree=_agree,
    holds=_evaluate_condition,
    start=_group_start,
    step=_group_step,
)
