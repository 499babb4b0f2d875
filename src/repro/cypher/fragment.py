"""The Cypher pattern fragment of Section 5.1.

Adapting the Section 4 pattern language as the paper does::

    pi := (x:L) | -x:L-> | -:L*-> | pi1 pi2 | pi1 + pi2

where every ``L`` is a disjunction of labels ``l1|l2|...|ln`` (an absent
label list means the wildcard).  Crucially, the star applies *only* to
label disjunctions, not to arbitrary subpatterns — that is Cypher's
historic restriction, and the reason ``(ll)*`` escapes the fragment
(Proposition 22).

Since Proposition 22 is about pure reachability, the semantics we expose is
the endpoint-pair relation (conditions and data play no role here).  That
relation is an RPQ's: a fragment pattern is a regular expression whose
stars sit on label disjunctions, and :func:`cypher_pairs` evaluates it as
one.
"""

from __future__ import annotations

import re as _stdlib_re
from dataclasses import dataclass

from repro.errors import ParseError
from repro.graph.edge_labeled import EdgeLabeledGraph, ObjectId
from repro.regex.ast import ANY, Epsilon, Regex, Symbol, concat, star, union
from repro.rpq.evaluation import evaluate_rpq


class CypherPattern:
    """Base class for fragment patterns."""

    __slots__ = ()


@dataclass(frozen=True)
class CypherNode(CypherPattern):
    """``(x:L)`` — matches any node (labels on nodes are ignored in the
    edge-labeled setting of Proposition 22; the variable is optional)."""

    var: object = None


@dataclass(frozen=True)
class CypherEdge(CypherPattern):
    """``-x:L->`` — one edge whose label is in ``labels`` (None = any)."""

    labels: "frozenset | None" = None
    var: object = None


@dataclass(frozen=True)
class CypherStar(CypherPattern):
    """``-:L*->`` — a path of zero or more edges with labels in ``labels``.

    This is the *only* repetition the fragment allows.
    """

    labels: "frozenset | None" = None


@dataclass(frozen=True)
class CypherSeq(CypherPattern):
    parts: tuple


@dataclass(frozen=True)
class CypherUnion(CypherPattern):
    parts: tuple


# ----------------------------------------------------------------------
# semantics: the fragment is an RPQ
# ----------------------------------------------------------------------
def _labels(labels) -> Regex:
    if labels is None:
        return ANY
    return union(*(Symbol(label) for label in sorted(labels, key=repr)))


def _as_regex(pattern: CypherPattern) -> Regex:
    """The regular expression a fragment pattern denotes: nodes are the
    empty word, and a star applies to a label disjunction only."""
    if isinstance(pattern, CypherNode):
        return Epsilon()
    if isinstance(pattern, CypherEdge):
        return _labels(pattern.labels)
    if isinstance(pattern, CypherStar):
        return star(_labels(pattern.labels))
    if isinstance(pattern, CypherSeq):
        return concat(*map(_as_regex, pattern.parts))
    if isinstance(pattern, CypherUnion):
        return union(*map(_as_regex, pattern.parts))
    raise TypeError(f"not a Cypher fragment pattern: {pattern!r}")


def cypher_pairs(
    pattern: CypherPattern, graph: EdgeLabeledGraph
) -> set[tuple[ObjectId, ObjectId]]:
    """The endpoint-pair relation of a fragment pattern: that of its RPQ."""
    return set(evaluate_rpq(_as_regex(pattern), graph))


# ----------------------------------------------------------------------
# a small parser:  (x)-[:a|b]->()-[:a*]->(y)  and  pi + pi
# ----------------------------------------------------------------------
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN = _stdlib_re.compile(
    rf"""
    (?P<WS>\s+)
  | (?P<NODE>\(\s*(?:{_IDENT})?\s*\))
  | (?P<STAR_EDGE>-\[\s*:\s*{_IDENT}(?:\s*\|\s*{_IDENT})*\s*\*\s*\]->)
  | (?P<EDGE>-\[\s*(?:{_IDENT})?\s*(?::\s*{_IDENT}(?:\s*\|\s*{_IDENT})*)?\s*\]->)
  | (?P<ARROW>->)
  | (?P<PLUS>\+)
""",
    _stdlib_re.VERBOSE,
)
_LABELS = _stdlib_re.compile(rf"{_IDENT}")


def parse_cypher_pattern(text: str) -> CypherPattern:
    """Parse fragment patterns like ``(x)-[:a*]->(y)`` or
    ``(x)-[:a]->(y) + (x)-[:b]->(y)``.

    Only the fragment is accepted: stars occur inside edge brackets, never
    around subpatterns.
    """
    alternatives: list[CypherPattern] = []
    parts: list[CypherPattern] = []
    position = 0
    while position < len(text):
        match = _TOKEN.match(text, position)
        if match is None:
            raise ParseError(
                f"unexpected character {text[position]!r} at {position} "
                "in Cypher fragment pattern"
            )
        kind = match.lastgroup
        value = match.group()
        position = match.end()
        if kind == "WS":
            continue
        if kind == "NODE":
            var = value.strip("() \t") or None
            parts.append(CypherNode(var))
        elif kind == "STAR_EDGE":
            labels = frozenset(_LABELS.findall(value))
            parts.append(CypherStar(labels))
        elif kind == "EDGE":
            inner = value[2:-3]
            if ":" in inner:
                var_text, label_text = inner.split(":", 1)
                labels = frozenset(_LABELS.findall(label_text)) or None
            else:
                var_text, labels = inner, None
            parts.append(CypherEdge(labels, var_text.strip() or None))
        elif kind == "ARROW":
            parts.append(CypherEdge(None, None))
        elif kind == "PLUS":
            if not parts:
                raise ParseError("empty alternative in Cypher fragment pattern")
            alternatives.append(
                parts[0] if len(parts) == 1 else CypherSeq(tuple(parts))
            )
            parts = []
    if not parts:
        raise ParseError("empty Cypher fragment pattern")
    alternatives.append(parts[0] if len(parts) == 1 else CypherSeq(tuple(parts)))
    if len(alternatives) == 1:
        return alternatives[0]
    return CypherUnion(tuple(alternatives))
