"""A recursive-descent parser for RPQ regular expressions.

Grammar (in the paper's notation, adapted to ASCII):

.. code-block:: text

    union   :=  concat (('+' | '|') concat)*
    concat  :=  postfix (('.' postfix) | postfix)*      # '.' optional
    postfix :=  atom ('*' | '+' | '?' | '{n}' | '{n,}' | '{n,m}')*
    atom    :=  LABEL | '_' | '!{' LABEL (',' LABEL)* '}'
              | 'ε' | '<eps>' | '(' union ')'

Labels are identifiers (``[A-Za-z][A-Za-z0-9_]*``) or single-quoted strings
for anything else.  The token ``+`` is *union* when an atom follows it and
*Kleene plus* otherwise, matching how the paper freely writes both
``R1 + R2`` and ``R+``.
"""

from __future__ import annotations

import re as _stdlib_re

from repro.errors import ParseError
from repro.regex.ast import (
    ANY,
    Concat,
    Epsilon,
    NotSymbols,
    Regex,
    Star,
    Symbol,
    Union,
    concat,
    optional,
    plus,
    repeat,
    star,
    union,
)

_TOKEN_PATTERN = _stdlib_re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<LABEL>[A-Za-z][A-Za-z0-9_]*)
  | (?P<QUOTED>'(?:[^'\\]|\\.)*')
  | (?P<REPEAT>\{\s*\d+\s*(?:,\s*\d*\s*)?\})
  | (?P<NOTSET>!\{)
  | (?P<EPS>ε|<eps>)
  | (?P<UNDERSCORE>_)
  | (?P<OP>[().,+|*?}])
""",
    _stdlib_re.VERBOSE,
)


def _tokenize(text: str, pattern=_TOKEN_PATTERN) -> list[tuple[str, str]]:
    """``(kind, text)`` tokens by ``pattern``'s named groups, spaces dropped."""
    tokens: list[tuple[str, str]] = []
    position = 0
    while position < len(text):
        match = pattern.match(text, position)
        if match is None:
            raise ParseError(f"unexpected character {text[position]!r} at {position}")
        kind = match.lastgroup
        value = match.group()
        position = match.end()
        if kind != "WS":
            tokens.append((kind, value))
    return tokens


class _Parser:
    #: Token kinds that begin an atom (besides ``(``): what juxtaposition
    #: concatenates and what makes a ``+`` infix union.
    _atom_starters = frozenset({"LABEL", "QUOTED", "NOTSET", "EPS", "UNDERSCORE"})

    def __init__(self, tokens: list[tuple[str, str]], normalize: bool = True):
        self._tokens = tokens
        self._index = 0
        self._normalize = normalize

    # -- AST building --------------------------------------------------
    def _mk_concat(self, parts: list[Regex]) -> Regex:
        if self._normalize:
            return concat(*parts)
        if len(parts) == 1:
            return parts[0]
        return Concat(tuple(parts))

    def _mk_union(self, parts: list[Regex]) -> Regex:
        if self._normalize:
            return union(*parts)
        if len(parts) == 1:
            return parts[0]
        return Union(tuple(parts))

    def _mk_star(self, inner: Regex) -> Regex:
        return star(inner) if self._normalize else Star(inner)

    def _mk_optional(self, inner: Regex) -> Regex:
        return optional(inner) if self._normalize else Union((inner, Epsilon()))

    def _mk_plus(self, inner: Regex) -> Regex:
        return plus(inner) if self._normalize else Concat((inner, Star(inner)))

    # -- token helpers -------------------------------------------------
    def _peek(self) -> tuple[str, str] | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> tuple[str, str]:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of expression")
        self._index += 1
        return token

    def _expect(self, value: str) -> None:
        token = self._peek()
        if token is None or token[1] != value:
            found = token[1] if token else "end of input"
            raise ParseError(f"expected {value!r}, found {found!r}")
        self._index += 1

    def _atom_follows(self) -> bool:
        token = self._peek()
        return token is not None and (
            token[0] in self._atom_starters or token[1] == "("
        )

    # -- grammar -------------------------------------------------------
    def parse(self) -> Regex:
        result = self.union()
        token = self._peek()
        if token is not None:
            raise ParseError(f"trailing input starting at {token[1]!r}")
        return result

    def union(self) -> Regex:
        parts = [self.concatenation()]
        while True:
            token = self._peek()
            if token is None or token[1] not in ("+", "|"):
                break
            self._index += 1
            parts.append(self.concatenation())
        return self._mk_union(parts)

    def concatenation(self) -> Regex:
        parts = [self.postfix()]
        while True:
            token = self._peek()
            if token is None:
                break
            if token[1] == ".":
                self._index += 1
                parts.append(self.postfix())
            elif self._atom_follows():
                parts.append(self.postfix())
            else:
                break
        return self._mk_concat(parts)

    def postfix(self) -> Regex:
        result = self.atom()
        while True:
            token = self._peek()
            if token is None:
                break
            kind, value = token
            if value == "*":
                self._index += 1
                result = self._mk_star(result)
            elif value == "?":
                self._index += 1
                result = self._mk_optional(result)
            elif value == "+" and not self._atom_follows_after_plus():
                self._index += 1
                result = self._mk_plus(result)
            elif kind == "REPEAT":
                self._index += 1
                result = self._apply_repeat(result, value)
            else:
                break
        return result

    def _atom_follows_after_plus(self) -> bool:
        """Disambiguate infix union from postfix plus by one-token lookahead."""
        if self._index + 1 < len(self._tokens):
            kind, value = self._tokens[self._index + 1]
            return kind in self._atom_starters or value == "("
        return False

    def _apply_repeat(self, inner: Regex, text: str) -> Regex:
        body = text.strip("{} \t")
        if "," in body:
            low_text, high_text = body.split(",", 1)
            low = int(low_text)
            high = int(high_text) if high_text.strip() else None
        else:
            low = high = int(body)
        if low < 0 or (high is not None and high < low):
            raise ParseError(f"invalid repetition bounds {{{low},{high}}}")
        if self._normalize:
            return repeat(inner, low, high)
        required: list[Regex] = [inner] * low
        if high is None:
            required.append(Star(inner))
            return self._mk_concat(required or [Epsilon()])
        tail: Regex = Epsilon()
        for _ in range(high - low):
            tail = Union((Concat((inner, tail)) if not isinstance(tail, Epsilon) else inner, Epsilon()))
        if required:
            return self._mk_concat(required + [tail])
        return tail

    def atom(self) -> Regex:
        kind, value = self._next()
        if kind == "LABEL":
            return Symbol(value)
        if kind == "QUOTED":
            return Symbol(value[1:-1].replace("\\'", "'").replace("\\\\", "\\"))
        if kind == "EPS":
            return Epsilon()
        if kind == "UNDERSCORE":
            return ANY
        if kind == "NOTSET":
            return self._not_set()
        if value == "(":
            inner = self.union()
            self._expect(")")
            return inner
        raise ParseError(f"unexpected token {value!r}")

    def _not_set(self) -> Regex:
        excluded: set[str] = set()
        while True:
            kind, value = self._next()
            if kind == "LABEL":
                excluded.add(value)
            elif kind == "QUOTED":
                excluded.add(value[1:-1])
            else:
                raise ParseError(f"expected a label inside !{{...}}, found {value!r}")
            kind, value = self._next()
            if value == "}":
                return NotSymbols(frozenset(excluded))
            if value != ",":
                raise ParseError(f"expected ',' or '}}' in !{{...}}, found {value!r}")


def parse_regex(text: str, normalize: bool = True) -> Regex:
    """Parse an RPQ regular expression from its textual form.

    With ``normalize=True`` (the default) the smart constructors apply their
    safe simplifications while parsing — e.g. ``(((a*)*)*)*`` comes back as
    ``a*``.  Pass ``normalize=False`` to keep the syntax tree verbatim; the
    bag-semantics counter of Section 6.1 needs the raw tree because its
    multiplicities are syntax-dependent (that is the whole point of the
    anecdote).

    Examples from the paper::

        parse_regex("Transfer*")                  # Example 12
        parse_regex("Transfer . Transfer?")       # Example 13
        parse_regex("(((a*)*)*)*", normalize=False)  # Section 6.1
        parse_regex("(l.l)*")                     # Proposition 22
    """
    return _Parser(_tokenize(text), normalize=normalize).parse()
