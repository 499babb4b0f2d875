"""dl-CRPQs over label-only atoms are l-CRPQs (Sections 3.1.5 and 3.2.2).

A dl-RPQ whose atoms only test labels says what an l-RPQ says: the label
regex ``R`` becomes ``(_)R'``, where each label ``a`` is ``[a](_)`` (the
edge, then its target node) and each capture ``a^z`` is ``[a^z](_)``.  So
on the same graph, lifted to a property graph, ``evaluate_dlcrpq`` of the
translated query must equal ``evaluate_lcrpq`` of the original — in every
path mode, with constants and repeated variables, and both sides must
agree on when mode ``all`` is infinite.  The two evaluators share a join
and a combiner but not a path search (the dl side runs the configuration
graph of :mod:`repro.datatests.register`), so this pins the two atom
languages to each other.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crpq.ast import Var
from repro.datatests.ast import DLAtom, Kind, LabelMatch
from repro.datatests.dlcrpq import DLCRPQ, DLCRPQAtom, evaluate_dlcrpq
from repro.errors import InfiniteResultError
from repro.graph.property_graph import PropertyGraph
from repro.listvars.lcrpq import LCRPQ, LCRPQAtom, ListVar, evaluate_lcrpq
from repro.listvars.lrpq import LAtom, list_variables
from repro.regex.ast import (
    Concat,
    Epsilon,
    NotSymbols,
    Star,
    Symbol,
    Union,
    concat,
    map_symbols,
    union,
)
from tests.engine.test_differential import LABELS, graphs, regexes

ANY_NODE = Symbol(DLAtom(Kind.NODE, LabelMatch(None, None)))


def lift(graph) -> PropertyGraph:
    """The same nodes and edges (same ids, same insertion order) as a
    property graph without labels on nodes or properties anywhere."""
    lifted = PropertyGraph()
    for node in graph.iter_nodes():
        lifted.add_node(node)
    for edge in graph.iter_edges():
        src, tgt = graph.endpoints(edge)
        lifted.add_edge(edge, src, tgt, graph.label(edge))
    return lifted


def edge_step(label, capture=None):
    """``[label^capture](_)``: one edge and the node it enters."""
    return Concat((Symbol(DLAtom(Kind.EDGE, LabelMatch(label, capture))), ANY_NODE))


def translate(regex):
    """``R'`` of the module docstring, node for node."""
    if isinstance(regex, Symbol):
        atom = regex.symbol
        if isinstance(atom, LAtom):
            (variable,) = atom.variables or (None,)
            return edge_step(atom.label, variable)
        return edge_step(atom)
    if isinstance(regex, NotSymbols):
        if not regex.excluded:
            return edge_step(None)
        # Remark 11: a negated set ranges over the graph's labels, all of
        # which are in LABELS.
        allowed = [label for label in LABELS if label not in regex.excluded]
        return union(*(edge_step(label) for label in allowed))
    if isinstance(regex, Epsilon):
        return regex
    if isinstance(regex, Concat):
        return Concat(tuple(translate(part) for part in regex.parts))
    if isinstance(regex, Union):
        return Union(tuple(translate(part) for part in regex.parts))
    if isinstance(regex, Star):
        return Star(translate(regex.inner))
    raise TypeError(f"not a regex node: {regex!r}")


TERMS = (Var("x"), Var("y"), "v0")
MODES = ("shortest", "simple", "trail", "all")


@st.composite
def queries(draw):
    """An l-CRPQ of 1-2 moded atoms; atom ``i`` captures the labels it
    draws into list variable ``z<i>``."""
    atoms = []
    for index in range(draw(st.integers(1, 2))):
        captured = draw(st.sets(st.sampled_from(LABELS)))
        variable = f"z{index}"
        regex = map_symbols(
            draw(regexes(max_leaves=3)),
            lambda label: LAtom(label, frozenset({variable}))
            if label in captured
            else label,
        )
        atoms.append(
            LCRPQAtom(
                draw(st.sampled_from(MODES)),
                regex,
                draw(st.sampled_from(TERMS)),
                draw(st.sampled_from(TERMS)),
            )
        )
    node_vars = sorted({v for atom in atoms for v in atom.node_variables()}, key=repr)
    list_vars = sorted({z for atom in atoms for z in list_variables(atom.regex)})
    head = tuple(draw(st.permutations(node_vars))) + tuple(map(ListVar, list_vars))
    return LCRPQ(head=head, atoms=tuple(atoms))


def as_dlcrpq(query: LCRPQ) -> DLCRPQ:
    return DLCRPQ(
        head=query.head,
        atoms=tuple(
            DLCRPQAtom(
                atom.mode,
                concat(ANY_NODE, translate(atom.regex)),
                atom.left,
                atom.right,
            )
            for atom in query.atoms
        ),
    )


def outcome(evaluate, query, graph):
    try:
        return evaluate(query, graph)
    except InfiniteResultError:
        return "infinite"


@settings(max_examples=150, deadline=None)
@given(graph=graphs(max_nodes=4, max_edges=6), query=queries())
def test_dlcrpq_equals_lcrpq(graph, query):
    expected = outcome(evaluate_lcrpq, query, graph)
    assert outcome(evaluate_dlcrpq, as_dlcrpq(query), lift(graph)) == expected


def test_translation_keeps_captures_and_loops():
    """A fixed case of what the property covers: a repeated variable, a
    constant and a capture, in a restricted mode and in mode ``all``."""
    graph = PropertyGraph()
    for node in ("v0", "v1"):
        graph.add_node(node)
    graph.add_edge("e0", "v0", "v1", "a")
    graph.add_edge("e1", "v1", "v0", "b")
    capture = Symbol(LAtom("a", frozenset({"z0"})))
    loop = LCRPQ(
        head=(Var("x"), ListVar("z0")),
        atoms=(LCRPQAtom("trail", Concat((capture, Symbol("b"))), Var("x"), Var("x")),),
    )
    assert evaluate_lcrpq(loop, graph) == {("v0", ("e0",))}
    assert evaluate_dlcrpq(as_dlcrpq(loop), graph) == evaluate_lcrpq(loop, graph)
    cyclic = LCRPQ(
        head=(),
        atoms=(LCRPQAtom("all", Star(NotSymbols(frozenset())), "v0", Var("y")),),
    )
    assert outcome(evaluate_lcrpq, cyclic, graph) == "infinite"
    assert outcome(evaluate_dlcrpq, as_dlcrpq(cyclic), graph) == "infinite"
