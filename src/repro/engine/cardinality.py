"""Cardinality estimation over the CSR snapshot (Section 7.1).

The paper singles out cardinality estimation for (C)RPQs as an open
practical problem; this module is the engine's deliberately simple,
documented answer.  All statistics are read off the label-partitioned rows
of the :class:`~repro.engine.csr.CSRGraph` that evaluation runs on, once
per snapshot:

* per-label **edge counts** ``|E_a|``,
* per-label **distinct source / target counts** (how many nodes have an
  outgoing / incoming ``a``-edge),

plus, per query, the **first/last-label selectivity** of the compiled
automaton: the only labels a match can start (resp. end) with are the
symbols on transitions leaving an initial state (resp. entering a final
state), so the number of distinct sources of ``[[R]]_G`` is bounded by the
distinct sources of those labels.  Because the engine instantiates Remark 11
wildcards over the graph's concrete alphabet at compile time, the
transition symbols are always concrete labels — no special wildcard case.

:class:`CardinalityModel` is consumed by :func:`repro.crpq.planning.cost_plan`
to order CRPQ atoms, and deliberately knows nothing about CRPQs: it prices
one regular expression at a time, given which endpoints are bound.
"""

from __future__ import annotations

from repro.engine.cache import CompiledQuery
from repro.engine.csr import CSRGraph, get_csr
from repro.graph.edge_labeled import EdgeLabeledGraph, Label
from repro.regex.ast import (
    Concat,
    Empty,
    Epsilon,
    NotSymbols,
    Regex,
    Star,
    Symbol,
    Union,
)


def first_labels(compiled: CompiledQuery) -> frozenset:
    """Symbols on transitions out of an initial state (possible first labels)."""
    found = set()
    for state in compiled.initial:
        found.update(compiled.delta.get(state, ()))
    return frozenset(found)


def last_labels(compiled: CompiledQuery) -> frozenset:
    """Symbols on transitions into a final state (possible last labels)."""
    finals = compiled.finals
    found = set()
    for by_symbol in compiled.delta.values():
        for symbol, targets in by_symbol.items():
            if symbol in found:
                continue
            if any(target in finals for target in targets):
                found.add(symbol)
    return frozenset(found)


def accepts_epsilon(compiled: CompiledQuery) -> bool:
    """Whether the automaton accepts the empty word (identity pairs)."""
    return bool(set(compiled.initial) & set(compiled.finals))


def _label_statistics(csr: CSRGraph) -> "tuple[dict[Label, int], ...]":
    """``(edge count, distinct sources, distinct targets)`` per label.

    A function of the snapshot alone, so it is computed once and held with
    it (a model is built per planned query).  Each count is one C-level
    pass over a row: a label's targets array has one entry per edge, and a
    node's run is non-empty exactly where the offsets step.  Racing callers
    compute equal values and publish with one assignment.
    """
    held = csr.label_statistics
    if held is None:
        rows = list(zip(csr.interner.labels, csr.out_rows))
        held = csr.label_statistics = (
            {label: len(targets) for label, (_offsets, targets) in rows},
            {label: len(set(offsets)) - 1 for label, (offsets, _targets) in rows},
            {label: len(set(targets)) for label, (_offsets, targets) in rows},
        )
    return held


class CardinalityModel:
    """Per-label statistics of one graph snapshot, with RPQ estimators.

    Building the model forces the CSR snapshot (which evaluation needs
    anyway); the three dicts are shared by every model of that snapshot and
    must not be written.
    """

    __slots__ = (
        "num_nodes",
        "num_edges",
        "label_counts",
        "distinct_sources",
        "distinct_targets",
    )

    def __init__(self, graph: EdgeLabeledGraph, stats=None):
        self.num_nodes = max(graph.num_nodes, 1)
        self.num_edges = max(graph.num_edges, 1)
        self.label_counts, self.distinct_sources, self.distinct_targets = (
            _label_statistics(get_csr(graph, stats))
        )

    # ------------------------------------------------------------------
    # structural size estimate (over the regex AST)
    # ------------------------------------------------------------------
    def _symbol_count(self, regex: Regex) -> float:
        if isinstance(regex, Symbol):
            return float(self.label_counts.get(regex.symbol, 0))
        # NotSymbols: every concrete label not excluded
        return float(
            sum(
                count
                for label, count in self.label_counts.items()
                if label not in regex.excluded
            )
        )

    def relation_size(self, regex: Regex) -> float:
        """A rough ``|[[R]]_G|`` estimate from per-label counts.

        Union adds, concatenation multiplies scaled by ``1/n`` (midpoint
        join), star behaves like bounded reachability; everything is capped
        at ``n^2``.
        """
        n = float(self.num_nodes)
        cap = n * n

        def walk(node: Regex) -> float:
            if isinstance(node, Empty):
                return 0.0
            if isinstance(node, Epsilon):
                return n
            if isinstance(node, (Symbol, NotSymbols)):
                return self._symbol_count(node)
            if isinstance(node, Union):
                return min(cap, sum(walk(part) for part in node.parts))
            if isinstance(node, Concat):
                result = walk(node.parts[0])
                for part in node.parts[1:]:
                    result = result * walk(part) / n
                return min(cap, result)
            if isinstance(node, Star):
                average_degree = self.num_edges / n
                return min(cap, n * min(n, max(average_degree, 1.0) ** 2))
            raise TypeError(f"not a regex node: {node!r}")

        return walk(regex)

    # ------------------------------------------------------------------
    # automaton-shape selectivity
    # ------------------------------------------------------------------
    def source_count(self, compiled: CompiledQuery) -> float:
        """Estimated distinct sources of ``[[R]]_G`` (first-label bound)."""
        if accepts_epsilon(compiled):
            return float(self.num_nodes)
        total = sum(
            self.distinct_sources.get(label, 0) for label in first_labels(compiled)
        )
        return float(min(total, self.num_nodes))

    def target_count(self, compiled: CompiledQuery) -> float:
        """Estimated distinct targets of ``[[R]]_G`` (last-label bound)."""
        if accepts_epsilon(compiled):
            return float(self.num_nodes)
        total = sum(
            self.distinct_targets.get(label, 0) for label in last_labels(compiled)
        )
        return float(min(total, self.num_nodes))

    def pair_estimate(self, compiled: CompiledQuery) -> float:
        """``|[[R]]_G|`` estimate refined by first/last-label selectivity."""
        size = self.relation_size(compiled.regex) if compiled.regex is not None else (
            float(self.num_nodes) * self.num_nodes
        )
        if accepts_epsilon(compiled):
            size += self.num_nodes
        bound = self.source_count(compiled) * self.target_count(compiled)
        return max(0.0, min(size, bound, float(self.num_nodes) * self.num_nodes))

    def access_cost(
        self,
        compiled: CompiledQuery,
        *,
        left_bound: bool,
        right_bound: bool,
    ) -> float:
        """Expected bindings produced by one access to the atom's relation.

        * neither side bound — the full relation (one multi-source sweep);
        * left bound — expected targets per source (forward reachability);
        * right bound — expected sources per target (backward reachability);
        * both bound — a membership check, priced by its selectivity.
        """
        size = self.pair_estimate(compiled)
        if left_bound and right_bound:
            return size / (float(self.num_nodes) * self.num_nodes)
        if left_bound:
            return size / max(self.source_count(compiled), 1.0)
        if right_bound:
            return size / max(self.target_count(compiled), 1.0)
        return size
