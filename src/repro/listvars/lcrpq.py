"""CRPQs with list variables (Section 3.1.5).

An l-CRPQ ``q(x1,...,xk) :- m1 R1(y1,y1'), ..., mn Rn(yn,yn')`` combines

* node variables (joined, as in plain CRPQs),
* list variables inside the ``Ri`` (collected, never joined), and
* a path mode ``mi ∈ {shortest, simple, trail, all}`` per atom.

The semantics follows the paper's *restricted path homomorphisms*: first a
node homomorphism ``h`` is fixed, then for every atom the mode is applied to
``sigma_{h(yi), h(yi')}([[Ri]]_G)`` — endpoint selection happens *before*
the mode, which is exactly what makes ``shortest`` group by endpoint pairs
(Example 17).

Well-formedness (conditions 3-5): list variables are disjoint from node
variables, disjoint across atoms, and head entries are node or list
variables of the body.

This module is the one moded-CRPQ layer.  dl-CRPQs (Section 3.2.2) are
defined "verbatim the same" with dl-RPQ atoms, so the parser, the
well-formedness check and the evaluator here serve both; only the atom
class differs (see :class:`LCRPQAtom`), and
:mod:`repro.datatests.dlcrpq` subclasses it.
"""

from __future__ import annotations

import re as _stdlib_re
from dataclasses import dataclass
from itertools import product

from repro.crpq.ast import CRPQ, RPQAtom, Var, _parse_term, _split_top_level
from repro.crpq.evaluation import evaluate_crpq_bindings
from repro.errors import ParseError, QueryError
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.listvars.enumerate import evaluate_lrpq
from repro.listvars.lrpq import erase_list_variables, list_variables, parse_lrpq
from repro.regex.ast import Regex
from repro.rpq.path_modes import PATH_MODES


@dataclass(frozen=True, slots=True)
class ListVar:
    """A list variable of an l-CRPQ head (bound to a list of edges; in a
    dl-CRPQ, of nodes and edges)."""

    name: str

    def __repr__(self) -> str:
        return f"!{self.name}"


@dataclass(frozen=True, slots=True)
class LCRPQAtom:
    """``m R(y, y')`` — a moded l-RPQ atom between two terms.

    The atom class *is* the atom language.  The moded-CRPQ layer below
    asks it four things and nothing else: how an expression parses
    (``parse_expression``), where its list variables are
    (``variables_of``), how its ``(p, mu)`` results are enumerated
    (``enumerate_results``), and how its endpoint-pair relations reach the
    node join (:meth:`homomorphisms`).  A dl-CRPQ atom
    (:class:`repro.datatests.dlcrpq.DLCRPQAtom`) answers them for dl-RPQs.
    """

    mode: str
    regex: Regex
    left: object
    right: object

    parse_expression = staticmethod(parse_lrpq)
    variables_of = staticmethod(list_variables)
    enumerate_results = staticmethod(evaluate_lrpq)

    def __post_init__(self) -> None:
        if self.mode not in PATH_MODES:
            raise QueryError(f"unknown mode {self.mode!r}; use one of {PATH_MODES}")

    def node_variables(self) -> frozenset:
        found = set()
        if isinstance(self.left, Var):
            found.add(self.left)
        if isinstance(self.right, Var):
            found.add(self.right)
        return frozenset(found)

    def list_variables(self) -> frozenset:
        return self.variables_of(self.regex)

    @staticmethod
    def homomorphisms(query: "LCRPQ", graph: EdgeLabeledGraph) -> list[dict]:
        """The node homomorphisms of the erased CRPQ: the engine plans the
        join and reads every atom relation off the graph."""
        erased = CRPQ(
            head=(),
            atoms=tuple(
                RPQAtom(erase_list_variables(atom.regex), atom.left, atom.right)
                for atom in query.atoms
            ),
            name=query.name,
        )
        return evaluate_crpq_bindings(erased, graph)


@dataclass(frozen=True, slots=True)
class LCRPQ:
    """An l-CRPQ: head of node/list variables, body of moded atoms."""

    head: tuple
    atoms: tuple[LCRPQAtom, ...]
    name: str = "q"

    #: The atom class, hence the language, the parser builds atoms of.
    atom_type = LCRPQAtom

    def __post_init__(self) -> None:
        node_vars: set[Var] = set()
        seen_list_vars: set = set()
        for atom in self.atoms:
            node_vars |= atom.node_variables()
            atom_lists = atom.list_variables()
            overlap = seen_list_vars & atom_lists
            if overlap:
                raise QueryError(
                    f"list variables {sorted(overlap)!r} shared across atoms "
                    "(condition 4)"
                )
            seen_list_vars |= atom_lists
        name_clash = {var.name for var in node_vars} & set(seen_list_vars)
        if name_clash:
            raise QueryError(
                f"variables {sorted(name_clash)!r} used both as node and list "
                "variables (condition 3)"
            )
        for entry in self.head:
            if isinstance(entry, Var):
                if entry not in node_vars:
                    raise QueryError(f"head variable {entry!r} not in the body")
            elif isinstance(entry, ListVar):
                if entry.name not in seen_list_vars:
                    raise QueryError(f"head list variable {entry!r} not in the body")
            else:
                raise QueryError(f"head entries must be variables, got {entry!r}")


_MODE_PREFIX = _stdlib_re.compile(r"^\s*(shortest|simple|trail|all)\b")


def parse_lcrpq(text: str) -> LCRPQ:
    """Parse an l-CRPQ; Example 17 reads::

        q(x1, x2, z) :- owner(y1, x1), owner(y2, x2),
                        shortest (Transfer^z)+(y1, y2)

    Atoms without a mode keyword default to ``all`` (the paper omits the
    ``all`` modifiers "to simplify notation").  Head names that occur as
    list variables in the body become list entries of the output.
    """
    return _parse_moded(text, LCRPQ)


def _parse_moded(text: str, query_type: type) -> LCRPQ:
    """``head :- [mode] R(t, t'), ...`` as a ``query_type``, whose
    ``atom_type`` parses each ``R``."""
    if ":-" not in text:
        raise ParseError("a CRPQ needs a ':-' between head and body")
    head_text, body_text = text.split(":-", 1)
    head_text = head_text.strip()
    if not head_text.endswith(")") or "(" not in head_text:
        raise ParseError(f"malformed head {head_text!r}")
    name, args_text = head_text.split("(", 1)
    head_names = [
        part.strip()
        for part in _split_top_level(args_text[:-1].strip(), ",")
        if part.strip()
    ]

    atoms: list[LCRPQAtom] = []
    for part in _split_top_level(body_text.strip(), ","):
        part = part.strip()
        if not part:
            continue
        mode = "all"
        match = _MODE_PREFIX.match(part)
        if match:
            mode = match.group(1)
            part = part[match.end() :].strip()
        atoms.append(_parse_atom(query_type.atom_type, mode, part))

    list_vars: set = set()
    for atom in atoms:
        list_vars |= atom.list_variables()
    head = tuple(
        ListVar(entry) if entry in list_vars else Var(entry) for entry in head_names
    )
    return query_type(head=head, atoms=tuple(atoms), name=name.strip() or "q")


def _parse_atom(atom_type: type, mode: str, text: str) -> LCRPQAtom:
    """One ``R(t, t')``: the trailing ``(t, t')`` is an argument list (for
    a dl-RPQ it would read as a node atom too), so it is peeled off the end."""
    if not text.endswith(")"):
        raise ParseError(f"atom {text!r} does not end with a term list")
    depth = 0
    open_index = None
    for index in range(len(text) - 1, -1, -1):
        char = text[index]
        if char == ")":
            depth += 1
        elif char == "(":
            depth -= 1
            if depth == 0:
                open_index = index
                break
    if open_index is None:
        raise ParseError(f"unbalanced parentheses in atom {text!r}")
    regex_text = text[:open_index].strip()
    if not regex_text:
        raise ParseError(f"atom {text!r} is missing its expression")
    terms = _split_top_level(text[open_index + 1 : -1], ",")
    if len(terms) != 2:
        raise ParseError(f"atom {text!r} must have exactly two terms")
    return atom_type(
        mode=mode,
        regex=atom_type.parse_expression(regex_text),
        left=_parse_term(terms[0]),
        right=_parse_term(terms[1]),
    )


def evaluate_lcrpq(
    query: "LCRPQ | str", graph: EdgeLabeledGraph, limit: int | None = None
) -> set[tuple]:
    """The output of an l-CRPQ: tuples over nodes and edge lists (as tuples).

    For every node homomorphism of the erased CRPQ and every atom, the
    moded path-binding set is computed between the homomorphism's endpoint
    images; the atom results are combined by cartesian product, as each
    choice of ``(p, mu)`` per atom yields its own path homomorphism.  The
    atoms' class supplies the homomorphisms and the ``(p, mu)`` results, so
    a dl-CRPQ (Section 3.2.2) evaluates here too.

    ``limit`` bounds the per-atom enumeration for mode ``all`` on cyclic
    matches (without it, such queries raise
    :class:`~repro.errors.InfiniteResultError`, mirroring Section 3.1.4's
    discussion of infinite outputs).
    """
    if isinstance(query, str):
        query = parse_lcrpq(query)
    homomorphisms = query.atom_type.homomorphisms(query, graph)

    mu_cache: dict = {}

    def atom_bindings(atom: LCRPQAtom, source, target) -> list:
        key = (id(atom), source, target)
        if key not in mu_cache:
            variables = atom.list_variables()
            mu_cache[key] = list(dict.fromkeys(
                binding.mu.restrict(variables)
                for binding in atom.enumerate_results(
                    atom.regex, graph, source, target, mode=atom.mode, limit=limit
                )
            ))
        return mu_cache[key]

    results: set[tuple] = set()
    for h in homomorphisms:
        choices: list[list] = []
        for atom in query.atoms:
            source = h[atom.left] if isinstance(atom.left, Var) else atom.left
            target = h[atom.right] if isinstance(atom.right, Var) else atom.right
            mus = atom_bindings(atom, source, target)
            if not mus:
                break
            choices.append(mus)
        else:
            for combination in product(*choices):
                merged: dict = {}
                for mu in combination:
                    merged.update(mu.items())
                results.add(tuple(
                    h[entry] if isinstance(entry, Var) else merged.get(entry.name, ())
                    for entry in query.head
                ))
    return results
