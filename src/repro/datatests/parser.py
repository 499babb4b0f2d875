"""Surface syntax for dl-RPQs (the paper's notation, ASCII-adapted).

Example 21's expressions parse verbatim (modulo ``^`` instead of
superscripts)::

    (a^z)(x := date) ( [_](a^z)(date > x)(x := date) )*
    [a^z][x := date] ( (_)[a^z][date > x][x := date] )*

Atom grammar (inside ``(...)`` for nodes, ``[...]`` for edges)::

    content :=  '_' | ''                      -- wildcard (any label)
             |  LABEL ('^' VAR)?              -- label match, optional capture
             |  '_' '^' VAR                   -- wildcard with capture
             |  VAR ':=' PNAME                -- assignment test
             |  PNAME OP value                -- comparison test

    OP      :=  '=' | '!=' | '≠' | '<' | '>'
    value   :=  NUMBER | 'quoted string' | VAR   -- bare identifier = data var

A quoted string is one unit inside an atom, so it may contain brackets
(``[note = 'x]y']``).  Around atoms the grammar *is* the RPQ grammar: the
parser subclasses :mod:`repro.regex.parser`'s and overrides only what an
atom is — juxtaposition or ``.`` for concatenation, ``+`` / ``|`` for union
(postfix ``+`` for Kleene plus, by the same lookahead), ``*``, ``?``,
``{n,m}``.
"""

from __future__ import annotations

import re as _stdlib_re

from repro.errors import ParseError
from repro.datatests.ast import (
    AssignTest,
    ConstTest,
    DLAtom,
    Kind,
    LabelMatch,
    VarTest,
)
from repro.regex.ast import Regex, Symbol
from repro.regex.parser import _Parser, _tokenize

#: An atom's inside: anything but brackets, where a quoted constant is one
#: unit (so ``(owner = 'Mike (Jr)')`` is one node atom).
_CONTENT = r"""(?:[^()\[\]'"]|'[^']*'|"[^"]*")*?"""

_TOKEN_PATTERN = _stdlib_re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<NODEATOM>\(\s*""" + _CONTENT + r"""\s*\))
  | (?P<EDGEATOM>\[\s*""" + _CONTENT + r"""\s*\])
  | (?P<REPEAT>\{\s*\d+\s*(?:,\s*\d*\s*)?\})
  | (?P<OP>[().+|*?])
""",
    _stdlib_re.VERBOSE,
)

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_LABEL_CAPTURE = _stdlib_re.compile(
    rf"^(?P<label>{_IDENT})?\s*(?:\^\s*(?P<var>{_IDENT}))?$"
)
_ASSIGN = _stdlib_re.compile(rf"^(?P<var>{_IDENT})\s*:=\s*(?P<prop>{_IDENT})$")
_COMPARE = _stdlib_re.compile(
    rf"^(?P<prop>{_IDENT})\s*(?P<op>!=|≠|=|<|>)\s*(?P<value>.+)$"
)
_NUMBER = _stdlib_re.compile(r"^-?\d+(\.\d+)?$")

#: Atom token kind -> the kind of object the atom tests.
_KINDS = {"NODEATOM": Kind.NODE, "EDGEATOM": Kind.EDGE}


def _parse_value(text: str):
    """A comparison RHS: number / quoted constant / bare data variable."""
    text = text.strip()
    if _NUMBER.match(text):
        return ("const", float(text) if "." in text else int(text))
    if len(text) >= 2 and text[0] in "'\"" and text[-1] == text[0]:
        return ("const", text[1:-1])
    if _stdlib_re.match(rf"^{_IDENT}$", text):
        return ("var", text)
    raise ParseError(f"cannot parse comparison value {text!r}")


def _parse_atom_content(content: str, kind: Kind) -> DLAtom:
    content = content.strip()
    if content in ("", "_"):
        return DLAtom(kind, LabelMatch(None, None))
    match = _ASSIGN.match(content)
    if match:
        return DLAtom(kind, AssignTest(match.group("var"), match.group("prop")))
    match = _COMPARE.match(content)
    if match:
        op = match.group("op")
        if op == "≠":
            op = "!="
        value_kind, value = _parse_value(match.group("value"))
        if value_kind == "const":
            return DLAtom(kind, ConstTest(match.group("prop"), op, value))
        return DLAtom(kind, VarTest(match.group("prop"), op, value))
    match = _LABEL_CAPTURE.match(content)
    if match and (match.group("label") or match.group("var")):
        label = match.group("label")
        if label == "_":
            label = None
        return DLAtom(kind, LabelMatch(label, match.group("var")))
    raise ParseError(f"cannot parse atom content {content!r}")


class _DLParser(_Parser):
    """The RPQ grammar of :mod:`repro.regex.parser`; only an atom differs.

    An atom is a node atom ``(...)`` or an edge atom ``[...]`` token.  A
    ``(`` only opens a *group* when it cannot be read as a node atom — the
    tokenizer prefers atoms, so grouping requires the group to contain
    operators, which is always the case in practice (``((a))`` is therefore
    read as a group around the node atom ``(a)``).
    """

    _atom_starters = frozenset(_KINDS)

    def atom(self) -> Regex:
        token = self._peek()
        if token is not None and token[0] in _KINDS:
            self._index += 1
            return Symbol(_parse_atom_content(token[1][1:-1], _KINDS[token[0]]))
        return super().atom()


def parse_dlrpq(text: str) -> Regex:
    """Parse a dl-RPQ from the paper's surface syntax (see module docstring)."""
    return _DLParser(_tokenize(text, _TOKEN_PATTERN)).parse()
