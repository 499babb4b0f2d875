"""dl-CRPQs: CRPQs with data tests and list variables (Section 3.2.2).

Syntax and semantics are "verbatim the same" as l-CRPQs (Section 3.1.5)
except that atoms are dl-RPQs, so this module only names that atom
language: :class:`DLCRPQAtom` subclasses the l-CRPQ atom of
:mod:`repro.listvars.lcrpq`, whose parser, well-formedness check and
evaluator do the rest.  The textual form mirrors the l-CRPQ one::

    q(x, z) :- shortest [Transfer^z]((_)[Transfer^z])*(x, y),
               (isBlocked = 'no')(y, y)

Each atom is ``[mode] DLRPQ(term, term)`` where the dl-RPQ uses the
Section 3.2.1 surface syntax (``( )`` for node atoms, ``[ ]`` for edge
atoms — consecutive edge atoms re-test the *same* edge via the collapsing
concatenation, so chains of edges are written with interleaved ``(_)``
node atoms).  The final ``(term, term)`` pair is an *argument list*, not a
node atom — the parser peels it off the end.
"""

from __future__ import annotations

from repro.crpq.ast import CRPQ, RPQAtom
from repro.crpq.evaluation import PairsAccess, evaluate_crpq_bindings
from repro.datatests.ast import dl_list_variables
from repro.datatests.dlrpq import dlrpq_pairs, evaluate_dlrpq
from repro.datatests.parser import parse_dlrpq
from repro.graph.property_graph import PropertyGraph
from repro.listvars.lcrpq import LCRPQ, LCRPQAtom, _parse_moded, evaluate_lcrpq


class DLCRPQAtom(LCRPQAtom):
    """``m R(y, y')`` with ``R`` a dl-RPQ."""

    __slots__ = ()

    parse_expression = staticmethod(parse_dlrpq)
    variables_of = staticmethod(dl_list_variables)
    enumerate_results = staticmethod(evaluate_dlrpq)

    @staticmethod
    def homomorphisms(query: "DLCRPQ", graph: PropertyGraph) -> list[dict]:
        """The engine's node join with the atoms in written order, each
        relation decided by ``dlrpq_pairs`` on the configuration graph."""
        atoms = [RPQAtom(atom.regex, atom.left, atom.right) for atom in query.atoms]
        return evaluate_crpq_bindings(
            CRPQ(head=(), atoms=tuple(atoms), name=query.name),
            graph,
            plan=atoms,
            access=PairsAccess(
                lambda regex, sources, _budget: dlrpq_pairs(regex, graph, sources)
            ),
        )


class DLCRPQ(LCRPQ):
    """A dl-CRPQ: node/list-variable head, moded dl-RPQ atoms."""

    __slots__ = ()

    atom_type = DLCRPQAtom


def parse_dlcrpq(text: str) -> DLCRPQ:
    """Parse a dl-CRPQ (see module docstring)."""
    return _parse_moded(text, DLCRPQ)


def evaluate_dlcrpq(
    query: "DLCRPQ | str", graph: PropertyGraph, limit: int | None = None
) -> set[tuple]:
    """Evaluate a dl-CRPQ: node-homomorphism join, then per-atom moded
    path-binding sets, combined by cartesian product (as in l-CRPQs)."""
    if isinstance(query, str):
        query = parse_dlcrpq(query)
    return evaluate_lcrpq(query, graph, limit)
