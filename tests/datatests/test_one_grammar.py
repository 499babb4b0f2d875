"""dl-RPQs parse with the RPQ grammar: only what an atom is differs.

Writing every label ``a`` of a label regex as the edge atom ``[a]`` must
give the tree :func:`parse_regex` gives with its symbols mapped to edge
atoms — for concatenation (juxtaposed and with ``.``), union (``+`` and
``|``), ``*``, postfix ``+`` (and its lookahead against infix ``+``), ``?``
and ``{n,m}``.  And the inputs the dl-RPQ parser rejects stay rejected.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatests.ast import DLAtom, Kind, LabelMatch
from repro.datatests.parser import parse_dlrpq
from repro.errors import ParseError
from repro.regex.ast import map_symbols
from repro.regex.parser import parse_regex

POSTFIX = ("*", "+", "?", "{2}", "{1,2}", "{0,}")


def label_regexes():
    """Regex text over the labels a/b/c, with and without parentheses."""

    def extend(children):
        return st.one_of(
            st.builds(lambda x, y: f"{x} {y}", children, children),
            st.builds(lambda x, y: f"{x} . {y}", children, children),
            st.builds(
                lambda x, op, y: f"{x} {op} {y}", children, st.sampled_from("+|"), children
            ),
            st.builds(lambda x: f"({x})", children),
            st.builds(lambda x, op: f"{x}{op}", children, st.sampled_from(POSTFIX)),
        )

    return st.recursive(st.sampled_from("abc"), extend, max_leaves=6)


def edge_atom(label):
    return DLAtom(Kind.EDGE, LabelMatch(label, None))


def as_dl_text(text: str) -> str:
    return re.sub(r"[abc]", lambda match: f"[{match.group()}]", text)


@settings(max_examples=300, deadline=None)
@given(text=label_regexes())
def test_dlrpq_parses_as_the_rpq_grammar(text):
    try:
        expected = map_symbols(parse_regex(text), edge_atom)
    except ParseError:
        with pytest.raises(ParseError):
            parse_dlrpq(as_dl_text(text))
        return
    assert parse_dlrpq(as_dl_text(text)) == expected


@pytest.mark.parametrize(
    "text",
    ["(a", "a)", "(a))", "[x : = date]", "(date >> x)", "(1 < 2)", "@"],
)
def test_rejected_by_both_parsers(text):
    """``test_parser.py``'s rejected inputs, less ``(a b)``: to the RPQ
    grammar that is a group around a concatenation, to the dl-RPQ tokenizer
    a node atom with unparsable content."""
    with pytest.raises(ParseError):
        parse_dlrpq(text)
    with pytest.raises(ParseError):
        parse_regex(text)


def test_a_node_atom_is_not_a_group():
    assert parse_regex("(a b)") == parse_regex("a b")
    with pytest.raises(ParseError):
        parse_dlrpq("(a b)")
