"""RPQs and CRPQs with data tests and list variables (Section 3.2).

dl-RPQs extend l-RPQs to property graphs with

* symmetric node atoms ``( )`` and edge atoms ``[ ]`` — paths may start and
  end with either kind, unlike GQL;
* element tests (the ``ETest`` grammar): ``x := pname`` stores a property
  value in a data variable, ``pname op c`` and ``pname op x`` filter on it;
* list variables ``(a^z)`` / ``[a^z]`` capturing nodes *or* edges.

Evaluation uses a register-automaton-style configuration search (Section
6.4, [69, 78]): configurations are (current object, automaton state, value
assignment) triples, and the active domain of the graph keeps the space
finite.

* :mod:`~repro.datatests.ast` — atoms and the ETest grammar;
* :mod:`~repro.datatests.parser` — the paper's surface syntax: the RPQ
  parser with its atoms swapped for node and edge atoms;
* :mod:`~repro.datatests.register` — the configuration graph;
* :mod:`~repro.datatests.dlrpq` — evaluation of single dl-RPQs under modes;
* :mod:`~repro.datatests.dlcrpq` — dl-CRPQs (Section 3.2.2): the l-CRPQ
  layer of :mod:`repro.listvars.lcrpq` with dl-RPQ atoms.

Only the atom language is new here: the regex grammar, the CRPQ node join
and the moded-CRPQ combiner are the ones plain RPQs and l-RPQs use.
"""

from repro.datatests.ast import (
    AssignTest,
    ConstTest,
    DLAtom,
    Kind,
    LabelMatch,
    VarTest,
    edge_atom,
    node_atom,
)
from repro.datatests.parser import parse_dlrpq
from repro.datatests.dlrpq import dlrpq_pairs, evaluate_dlrpq
from repro.datatests.dlcrpq import DLCRPQ, DLCRPQAtom, evaluate_dlcrpq, parse_dlcrpq

__all__ = [
    "DLAtom",
    "Kind",
    "LabelMatch",
    "AssignTest",
    "ConstTest",
    "VarTest",
    "node_atom",
    "edge_atom",
    "parse_dlrpq",
    "evaluate_dlrpq",
    "dlrpq_pairs",
    "DLCRPQ",
    "DLCRPQAtom",
    "parse_dlcrpq",
    "evaluate_dlcrpq",
]
