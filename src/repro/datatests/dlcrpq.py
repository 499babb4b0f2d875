"""dl-CRPQs: CRPQs with data tests and list variables (Section 3.2.2).

Syntax and semantics are "verbatim the same" as l-CRPQs (Section 3.1.5)
except that atoms are dl-RPQs.  The textual form mirrors the l-CRPQ one::

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

from dataclasses import dataclass

from repro.crpq.ast import Var, _parse_term, _split_top_level
from repro.datatests.ast import dl_list_variables
from repro.datatests.dlrpq import dlrpq_pairs, evaluate_dlrpq
from repro.datatests.parser import parse_dlrpq
from repro.errors import ParseError, QueryError
from repro.graph.property_graph import PropertyGraph
from repro.listvars.lcrpq import ListVar, _MODE_PREFIX
from repro.regex.ast import Regex
from repro.rpq.path_modes import PATH_MODES


@dataclass(frozen=True, slots=True)
class DLCRPQAtom:
    """``m R(y, y')`` with ``R`` a dl-RPQ."""

    mode: str
    regex: Regex
    left: object
    right: object

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
        return dl_list_variables(self.regex)


@dataclass(frozen=True, slots=True)
class DLCRPQ:
    """A dl-CRPQ: node/list-variable head, moded dl-RPQ atoms."""

    head: tuple
    atoms: tuple[DLCRPQAtom, ...]
    name: str = "q"

    def __post_init__(self) -> None:
        node_vars: set[Var] = set()
        seen_lists: set = set()
        for atom in self.atoms:
            node_vars |= atom.node_variables()
            atom_lists = atom.list_variables()
            overlap = seen_lists & atom_lists
            if overlap:
                raise QueryError(
                    f"list variables {sorted(overlap)!r} shared across atoms"
                )
            seen_lists |= atom_lists
        clash = {var.name for var in node_vars} & set(seen_lists)
        if clash:
            raise QueryError(
                f"variables {sorted(clash)!r} used both as node and list variables"
            )
        for entry in self.head:
            if isinstance(entry, Var):
                if entry not in node_vars:
                    raise QueryError(f"head variable {entry!r} not in the body")
            elif isinstance(entry, ListVar):
                if entry.name not in seen_lists:
                    raise QueryError(f"head list variable {entry!r} not in the body")
            else:
                raise QueryError(f"head entries must be variables, got {entry!r}")


def parse_dlcrpq(text: str) -> DLCRPQ:
    """Parse a dl-CRPQ (see module docstring)."""
    if ":-" not in text:
        raise ParseError("a dl-CRPQ needs a ':-' between head and body")
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

    atoms: list[DLCRPQAtom] = []
    for part in _split_top_level(body_text.strip(), ","):
        part = part.strip()
        if not part:
            continue
        mode = "all"
        match = _MODE_PREFIX.match(part)
        if match:
            mode = match.group(1)
            part = part[match.end() :].strip()
        atoms.append(_parse_atom(mode, part))

    list_vars: set = set()
    for atom in atoms:
        list_vars |= atom.list_variables()
    head: list = []
    for entry in head_names:
        head.append(ListVar(entry) if entry in list_vars else Var(entry))
    return DLCRPQ(head=tuple(head), atoms=tuple(atoms), name=name.strip() or "q")


def _parse_atom(mode: str, text: str) -> DLCRPQAtom:
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
    return DLCRPQAtom(
        mode=mode,
        regex=parse_dlrpq(regex_text),
        left=_parse_term(terms[0]),
        right=_parse_term(terms[1]),
    )


def evaluate_dlcrpq(
    query: "DLCRPQ | str", graph: PropertyGraph, limit: int | None = None
) -> set[tuple]:
    """Evaluate a dl-CRPQ: node-homomorphism join, then per-atom moded
    path-binding sets, combined by cartesian product (as in l-CRPQs)."""
    if isinstance(query, str):
        query = parse_dlcrpq(query)

    pair_cache: dict = {}

    def atom_pairs(atom: DLCRPQAtom, sources=None) -> set:
        key = (id(atom), tuple(sorted(sources, key=repr)) if sources else None)
        if key not in pair_cache:
            pair_cache[key] = dlrpq_pairs(atom.regex, graph, sources=sources)
        return pair_cache[key]

    # --- node homomorphisms (sideways joins over endpoint pairs) -------
    bindings: list[dict] = [{}]
    for atom in query.atoms:
        next_bindings: list[dict] = []
        for binding in bindings:
            left = binding.get(atom.left) if isinstance(atom.left, Var) else atom.left
            right = (
                binding.get(atom.right) if isinstance(atom.right, Var) else atom.right
            )
            if left is not None:
                pairs = atom_pairs(atom, sources=[left])
            else:
                pairs = atom_pairs(atom)
            for source, target in pairs:
                if left is not None and source != left:
                    continue
                if right is not None and target != right:
                    continue
                extended = dict(binding)
                if isinstance(atom.left, Var):
                    extended[atom.left] = source
                if isinstance(atom.right, Var):
                    extended[atom.right] = target
                next_bindings.append(extended)
        # dedupe identical partial bindings
        unique = {tuple(sorted(b.items(), key=repr)): b for b in next_bindings}
        bindings = list(unique.values())
        if not bindings:
            break

    # --- attach list bindings per atom ---------------------------------
    mu_cache: dict = {}

    def atom_mus(atom: DLCRPQAtom, source, target) -> list:
        key = (id(atom), source, target)
        if key not in mu_cache:
            seen = set()
            ordered = []
            for result in evaluate_dlrpq(
                atom.regex, graph, source, target, mode=atom.mode, limit=limit
            ):
                mu = result.mu.restrict(atom.list_variables())
                if mu not in seen:
                    seen.add(mu)
                    ordered.append(mu)
            mu_cache[key] = ordered
        return mu_cache[key]

    results: set[tuple] = set()
    for h in bindings:
        choices: list[list] = []
        feasible = True
        for atom in query.atoms:
            source = h[atom.left] if isinstance(atom.left, Var) else atom.left
            target = h[atom.right] if isinstance(atom.right, Var) else atom.right
            mus = atom_mus(atom, source, target)
            if not mus:
                feasible = False
                break
            choices.append(mus)
        if not feasible:
            continue
        for combination in _cartesian(choices):
            merged: dict = {}
            for mu in combination:
                for variable, values in mu.items():
                    merged[variable] = values
            row = []
            for entry in query.head:
                if isinstance(entry, Var):
                    row.append(h[entry])
                else:
                    row.append(merged.get(entry.name, ()))
            results.add(tuple(row))
    return results


def _cartesian(choices: list[list]):
    if not choices:
        yield ()
        return
    head, *tail = choices
    for item in head:
        for rest in _cartesian(tail):
            yield (item,) + rest
