"""Tests for the dl-RPQ surface syntax."""

import pytest

from repro.datatests.ast import (
    AssignTest,
    ConstTest,
    DLAtom,
    Kind,
    LabelMatch,
    VarTest,
    dl_data_variables,
    dl_list_variables,
)
from repro.datatests.parser import parse_dlrpq
from repro.errors import ParseError
from repro.regex.ast import Concat, Star, Symbol, concat, star


def sym(kind, action):
    return Symbol(DLAtom(kind, action))


class TestAtoms:
    def test_node_label(self):
        assert parse_dlrpq("(a)") == sym(Kind.NODE, LabelMatch("a", None))

    def test_edge_label(self):
        assert parse_dlrpq("[a]") == sym(Kind.EDGE, LabelMatch("a", None))

    def test_captures(self):
        assert parse_dlrpq("(a^z)") == sym(Kind.NODE, LabelMatch("a", "z"))
        assert parse_dlrpq("[a^z]") == sym(Kind.EDGE, LabelMatch("a", "z"))

    def test_wildcards(self):
        assert parse_dlrpq("(_)") == sym(Kind.NODE, LabelMatch(None, None))
        assert parse_dlrpq("[_]") == sym(Kind.EDGE, LabelMatch(None, None))
        assert parse_dlrpq("()") == sym(Kind.NODE, LabelMatch(None, None))
        assert parse_dlrpq("(_^z)") == sym(Kind.NODE, LabelMatch(None, "z"))

    def test_assign(self):
        assert parse_dlrpq("(x := date)") == sym(Kind.NODE, AssignTest("x", "date"))
        assert parse_dlrpq("[x := date]") == sym(Kind.EDGE, AssignTest("x", "date"))

    def test_const_comparisons(self):
        assert parse_dlrpq("(amount < 4500000)") == sym(
            Kind.NODE, ConstTest("amount", "<", 4500000)
        )
        assert parse_dlrpq("[owner = 'Mike']") == sym(
            Kind.EDGE, ConstTest("owner", "=", "Mike")
        )
        assert parse_dlrpq("(amount != 3)") == sym(
            Kind.NODE, ConstTest("amount", "!=", 3)
        )
        assert parse_dlrpq("(amount ≠ 3)") == sym(
            Kind.NODE, ConstTest("amount", "!=", 3)
        )
        assert parse_dlrpq("(rate > 1.5)") == sym(
            Kind.NODE, ConstTest("rate", ">", 1.5)
        )

    def test_var_comparisons(self):
        assert parse_dlrpq("(date > x)") == sym(Kind.NODE, VarTest("date", ">", "x"))
        assert parse_dlrpq("[date < x]") == sym(Kind.EDGE, VarTest("date", "<", "x"))

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("(owner = 'Mike (Jr)')", sym(Kind.NODE, ConstTest("owner", "=", "Mike (Jr)"))),
            ("[note = 'x]y']", sym(Kind.EDGE, ConstTest("note", "=", "x]y"))),
            ("[note != '[a](b)']", sym(Kind.EDGE, ConstTest("note", "!=", "[a](b)"))),
            ('(owner = "a)(")', sym(Kind.NODE, ConstTest("owner", "=", "a)("))),
            (
                "(_)[note = 'x]y'](_)",
                concat(
                    sym(Kind.NODE, LabelMatch(None, None)),
                    sym(Kind.EDGE, ConstTest("note", "=", "x]y")),
                    sym(Kind.NODE, LabelMatch(None, None)),
                ),
            ),
        ],
    )
    def test_quoted_constants_may_hold_brackets(self, text, expected):
        assert parse_dlrpq(text) == expected


class TestCombinators:
    def test_example21_nodes(self):
        r = parse_dlrpq("(a^z)(x := date) ( [_](a^z)(date > x)(x := date) )*")
        assert isinstance(r, Concat)
        assert isinstance(r.parts[-1], Star)

    def test_example21_edges(self):
        r = parse_dlrpq("[a^z][x := date] ( (_)[a^z][date > x][x := date] )*")
        assert dl_list_variables(r) == {"z"}
        assert dl_data_variables(r) == {"x"}

    def test_union_of_atoms(self):
        r = parse_dlrpq("((a) + (b))")
        from repro.regex.ast import Union

        assert isinstance(r, Union)

    def test_postfix_operators(self):
        r = parse_dlrpq("((_)[a])+")  # Kleene plus desugars to R.R*
        assert isinstance(r, Concat)
        r3 = parse_dlrpq("((_)[a])* (_)")
        assert isinstance(r3, Concat)
        r2 = parse_dlrpq("(a)?")
        from repro.regex.ast import Union as U

        assert isinstance(r2, U)

    def test_repeat(self):
        r = parse_dlrpq("((_)[a]){2} (_)")
        assert isinstance(r, Concat)

    @pytest.mark.parametrize(
        "text",
        ["(a", "a)", "(a))", "(a b)", "[x : = date]", "(date >> x)", "(1 < 2)", "@"],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_dlrpq(text)
