"""The configuration graph of a dl-RPQ over a property graph.

This is our implementation of the paper's register-automaton approach to
data filters (Section 6.4, [69, 78]), extended to treat nodes and edges
symmetrically as dl-RPQs require.

A *configuration* is ``(position, state, nu)`` where

* ``position`` is the last object of the path built so far (``None`` at the
  very start, when the path is empty),
* ``state`` is an automaton state of the Glushkov NFA over the dl-atoms,
* ``nu`` is the current value assignment of the data variables.

An atom transition either **stays** on the current object (the collapsing
concatenation ``p . path(o) = p`` when ``o`` is already the last object —
this is how ``(a^z)(date < x)(x := date)`` tests one node three times) or
**appends** a new object, which must be incident to the previous one:

* appending a node after an edge ``e`` requires the node to be ``tgt(e)``;
* appending an edge after a node ``n`` requires ``src(edge) = n``;
* from the empty path, the first object is either the source node itself or
  an edge leaving it (so that ``src(p)`` is the requested source).

Because property values come from the graph, the reachable ``nu`` are
finitely many and the configuration graph is finite even when the set of
matching paths is infinite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.automata.glushkov import glushkov
from repro.automata.nfa import NFA
from repro.datatests.ast import DLAtom, Kind
from repro.engine.faults import fault_point
from repro.graph.bindings import ValueAssignment
from repro.graph.edge_labeled import ObjectId
from repro.graph.property_graph import PropertyGraph
from repro.regex.ast import Regex, symbols

Config = tuple  # (position | None, state, ValueAssignment)


@dataclass(frozen=True, slots=True)
class Effect:
    """What a configuration transition does to the path and the lists."""

    append: "ObjectId | None"  # object appended to the path (None = stay)
    capture: object = None  # list variable receiving the matched object
    matched: "ObjectId | None" = None  # the object the atom matched

    @property
    def is_progress(self) -> bool:
        """Whether the transition changes the output (path or mu)."""
        return self.append is not None or self.capture is not None


@dataclass
class ConfigGraph:
    """A materialized configuration graph rooted at one source node."""

    graph: PropertyGraph
    source: ObjectId
    starts: list = field(default_factory=list)
    configs: set = field(default_factory=set)
    # config -> list of (Effect, config')
    edges: dict = field(default_factory=dict)
    accepting: set = field(default_factory=set)
    #: accepting configs reachable without a single append (the empty path);
    #: excluded from sigma results because path() has no endpoints.
    finals_by_target: dict = field(default_factory=dict)

    def successors(self, config: Config):
        return self.edges.get(config, ())


def compile_dlrpq(regex: Regex) -> NFA:
    """Glushkov NFA over the dl-atoms of the expression."""
    alphabet = {atom for atom in symbols(regex) if isinstance(atom, DLAtom)}
    if len(alphabet) != len(symbols(regex)):
        raise TypeError("dl-RPQ expressions must use DLAtom symbols only")
    return glushkov(regex, alphabet).trim()


def _position_target(graph: PropertyGraph, position) -> ObjectId:
    """tgt(p) for a path ending at ``position``."""
    if graph.has_edge(position):
        return graph.tgt(position)
    return position


def build_config_graph(
    regex: "Regex | NFA",
    graph: PropertyGraph,
    source: ObjectId,
    budget=None,
) -> ConfigGraph:
    """Explore all configurations reachable from ``(None, q0, nu0)``.

    The returned graph's ``accepting`` set contains every configuration with
    an accepting automaton state and a non-empty path position;
    ``finals_by_target`` groups them by the path target they witness.  A
    ``budget`` is ticked once per popped configuration, so a deadline or
    cancellation stops the build, not only the enumeration after it.
    """
    nfa = regex if isinstance(regex, NFA) else compile_dlrpq(regex)
    by_state: dict = {}
    for state_from, atom, state_to in nfa.transitions():
        by_state.setdefault(state_from, []).append((atom, state_to))

    # Configurations carry single automaton states (not subsets) so that
    # captures stay faithful; seed one start configuration per initial state.
    seeds = [(None, state, ValueAssignment.empty()) for state in nfa.initial]
    result = ConfigGraph(graph=graph, source=source, starts=list(seeds))
    frontier = list(seeds)
    result.configs.update(seeds)

    def candidate_moves(position):
        """(object, append?) pairs reachable from the current position.

        Out-edges are taken in ``repr`` order, the order every path search
        extends in: insertion order differs between a resident graph and a
        lazily loaded one, and must not change which answers come first."""
        moves = []
        if position is None:
            if graph.has_node(source):
                moves.append((source, True))
                for edge in sorted(graph.out_edges(source), key=repr):
                    moves.append((edge, True))
        elif graph.has_edge(position):
            moves.append((position, False))  # stay on the edge
            moves.append((graph.tgt(position), True))
        else:
            moves.append((position, False))  # stay on the node
            for edge in sorted(graph.out_edges(position), key=repr):
                moves.append((edge, True))
        return moves

    tick = budget.tick if budget is not None else None
    while frontier:
        fault_point("kernel.step")
        if tick is not None:
            tick()
        config = frontier.pop()
        position, state, nu = config
        moves = candidate_moves(position)
        for atom, next_state in by_state.get(state, ()):
            for obj, is_append in moves:
                if atom.kind is Kind.NODE and not graph.has_node(obj):
                    continue
                if atom.kind is Kind.EDGE and not graph.has_edge(obj):
                    continue
                ok, next_nu, capture = atom.matches(graph, obj, nu)
                if not ok:
                    continue
                next_config: Config = (obj, next_state, next_nu)
                effect = Effect(
                    append=obj if is_append else None,
                    capture=capture,
                    matched=obj,
                )
                result.edges.setdefault(config, []).append((effect, next_config))
                if next_config not in result.configs:
                    result.configs.add(next_config)
                    frontier.append(next_config)

    for config in result.configs:
        position, state, _nu = config
        if position is not None and state in nfa.finals:
            result.accepting.add(config)
            target = _position_target(graph, position)
            result.finals_by_target.setdefault(target, set()).add(config)
    return result
