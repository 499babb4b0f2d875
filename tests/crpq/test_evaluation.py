"""Tests for CRPQ evaluation — Example 13 is the gold standard."""

from repro.crpq.ast import CRPQ, RPQAtom, Var, parse_crpq
from repro.crpq.evaluation import evaluate_crpq
from repro.crpq.planning import estimate_atom_cardinality, greedy_plan, label_statistics
from repro.graph.generators import label_cycle, label_path, random_graph
from repro.regex.ast import Symbol
from repro.rpq.evaluation import evaluate_rpq


class TestExample13:
    def test_q1_exact_result(self, fig2):
        """q1(x1,x2,x3) :- Transfer(x1,x2), Transfer(x1,x3), Transfer(x2,x3)
        returns exactly {(a3,a2,a4), (a6,a3,a5)} on Figure 2."""
        q = parse_crpq(
            "q1(x1, x2, x3) :- Transfer(x1, x2), Transfer(x1, x3), Transfer(x2, x3)"
        )
        assert evaluate_crpq(q, fig2) == {("a3", "a2", "a4"), ("a6", "a3", "a5")}

    def test_q2_contains_paper_answer(self, fig2):
        """q2 matches (a4, Rebecca, no): transfers of length 2 from a4 to a5,
        Rebecca owns a5, a5 is not blocked."""
        q = parse_crpq(
            "q2(x, x1, x2) :- owner(y, x1), isBlocked(y, x2), "
            "(Transfer.Transfer?)(x, y)"
        )
        result = evaluate_crpq(q, fig2)
        assert ("a4", "Rebecca", "no") in result

    def test_q2_semantics(self, fig2):
        """Cross-check every q2 answer against its defining conditions."""
        q = parse_crpq(
            "q2(x, x1, x2) :- owner(y, x1), isBlocked(y, x2), "
            "(Transfer.Transfer?)(x, y)"
        )
        owner = evaluate_rpq("owner", fig2)
        blocked = evaluate_rpq("isBlocked", fig2)
        steps = evaluate_rpq("Transfer.Transfer?", fig2)
        expected = set()
        for y in fig2.iter_nodes():
            owners = {o for (yy, o) in owner if yy == y}
            statuses = {b for (yy, b) in blocked if yy == y}
            sources = {x for (x, yy) in steps if yy == y}
            for x in sources:
                for o in owners:
                    for b in statuses:
                        expected.add((x, o, b))
        assert evaluate_crpq(q, fig2) == expected


class TestExample14:
    def test_mutual_transfer_pairs(self, fig2):
        """q1(x,y) :- Transfer(x,y), Transfer(y,x): join on both variables."""
        q = parse_crpq("q1(x, y) :- Transfer(x, y), Transfer(y, x)")
        result = evaluate_crpq(q, fig2)
        transfers = evaluate_rpq("Transfer", fig2)
        assert result == {(u, v) for (u, v) in transfers if (v, u) in transfers}


class TestGeneralEvaluation:
    def test_single_atom_equals_rpq(self, fig2):
        q = parse_crpq("q(x, y) :- Transfer*(x, y)")
        assert evaluate_crpq(q, fig2) == evaluate_rpq("Transfer*", fig2)

    def test_projection(self, fig2):
        q = parse_crpq("q(x) :- owner(x, y)")
        assert evaluate_crpq(q, fig2) == {
            (u,) for (u, _v) in evaluate_rpq("owner", fig2)
        }

    def test_constants(self, fig2):
        q = parse_crpq("q(x) :- Transfer('a3', x)")
        assert evaluate_crpq(q, fig2) == {("a2",), ("a4",), ("a5",)}

    def test_constant_to_constant(self, fig2):
        sat = parse_crpq("q() :- Transfer*('a1', 'a6')")
        assert evaluate_crpq(sat, fig2) == {()}
        unsat = parse_crpq("q() :- owner('a1', 'Mike')")
        assert evaluate_crpq(unsat, fig2) == set()

    def test_unknown_constant(self, fig2):
        q = parse_crpq("q(x) :- Transfer('nope', x)")
        assert evaluate_crpq(q, fig2) == set()

    def test_repeated_variable_in_atom(self):
        g = label_cycle(1)  # self-loop v0 -> v0
        q = parse_crpq("q(x) :- a(x, x)")
        assert evaluate_crpq(q, g) == {("v0",)}
        g2 = label_path(2)
        assert evaluate_crpq(q, g2) == set()

    def test_head_repetition(self, fig2):
        q = parse_crpq("q(x, x) :- Transfer(x, y)")
        result = evaluate_crpq(q, fig2)
        assert all(a == b for (a, b) in result)

    def test_cross_product_when_disconnected(self):
        g = label_path(2)
        q = parse_crpq("q(x, y) :- a(x, u), a(y, v)")
        result = evaluate_crpq(q, g)
        assert result == {
            (x, y) for x in ("v0", "v1") for y in ("v0", "v1")
        }

    def test_custom_plan_same_answer(self, fig2):
        q = parse_crpq(
            "q1(x1, x2, x3) :- Transfer(x1, x2), Transfer(x1, x3), Transfer(x2, x3)"
        )
        default = evaluate_crpq(q, fig2)
        for plan in ([*q.atoms], [*reversed(q.atoms)]):
            assert evaluate_crpq(q, fig2, plan=plan) == default

    def test_path_join_chain(self):
        g = label_path(4)
        q = parse_crpq("q(x, y) :- a(x, m), a(m, y)")
        assert evaluate_crpq(q, g) == evaluate_rpq("a.a", g)


    def test_bound_atoms_lower_their_automaton_once(self, monkeypatch):
        """Example 17's shape runs one BFS per bound node; the int-space
        transition table is built per (expression, direction), not per BFS."""
        from repro.engine import kernel
        from repro.engine.cache import IntPlan

        graph = random_graph(60, 240, labels=("a", "b"), seed=5)
        query = parse_crpq("q(x1, x2) :- a(y1, x1), a(y2, x2), b+(y1, y2)")
        lowered, traversals = [], []
        lower, reachable = IntPlan.__init__, kernel.reachable

        def counting_lower(plan, compiled, interner):
            lowered.append(compiled)
            lower(plan, compiled, interner)

        def counting_reachable(compiled, graph, source, **kwargs):
            traversals.append(source)
            return reachable(compiled, graph, source, **kwargs)

        monkeypatch.setattr(IntPlan, "__init__", counting_lower)
        monkeypatch.setattr(kernel, "reachable", counting_reachable)
        assert evaluate_crpq(query, graph) == evaluate_crpq(
            query, graph, use_index=False
        )
        assert len(traversals) > 10 * len(query.atoms)
        # each atom reads one expression in one direction
        assert len(lowered) <= len(query.atoms)


class TestPlanning:
    def test_label_statistics(self, fig2):
        stats = label_statistics(fig2)
        assert stats["Transfer"] == 10
        assert stats["owner"] == 6

    def test_estimates_are_sane(self, fig2):
        stats = label_statistics(fig2)
        transfer = RPQAtom(Symbol("Transfer"), Var("x"), Var("y"))
        assert estimate_atom_cardinality(transfer, fig2, stats) == 10
        bound = RPQAtom(Symbol("Transfer"), "a3", Var("y"))
        assert estimate_atom_cardinality(
            bound, fig2, stats
        ) < estimate_atom_cardinality(transfer, fig2, stats)

    def test_greedy_plan_is_connected_when_possible(self, fig2):
        q = parse_crpq("q(x, z) :- Transfer(x, y), Transfer(y, z), owner(z, w)")
        plan = greedy_plan(q, fig2)
        bound = set(plan[0].variables())
        for atom in plan[1:]:
            assert atom.variables() & bound
            bound |= atom.variables()

    def test_plan_covers_all_atoms(self, fig2):
        q = parse_crpq("q(x, y) :- a(x, u), a(y, v)")
        plan = greedy_plan(q, fig2)
        assert len(plan) == 2

    def test_planner_agrees_on_random_graphs(self):
        g = random_graph(12, 40, labels=("a", "b"), seed=11)
        q = parse_crpq("q(x, z) :- a*(x, y), b(y, z)")
        baseline = evaluate_crpq(q, g, plan=list(q.atoms))
        assert evaluate_crpq(q, g) == baseline


class TestPlannerSelection:
    def test_cost_and_greedy_agree(self, fig2):
        q = parse_crpq("q(x, z) :- Transfer(x, y), Transfer(y, z), owner(z, w)")
        cost = evaluate_crpq(q, fig2, planner="cost")
        greedy = evaluate_crpq(q, fig2, planner="greedy")
        oracle = evaluate_crpq(q, fig2, use_index=False)
        assert cost == greedy == oracle

    def test_unknown_planner_rejected(self, fig2):
        import pytest

        q = parse_crpq("q(x, y) :- Transfer(x, y)")
        with pytest.raises(ValueError):
            evaluate_crpq(q, fig2, planner="exhaustive")

    def test_explicit_plan_overrides_planner(self, fig2):
        q = parse_crpq("q(x, z) :- Transfer(x, y), owner(y, z)")
        reversed_plan = list(reversed(q.atoms))
        assert evaluate_crpq(
            q, fig2, plan=reversed_plan, planner="cost"
        ) == evaluate_crpq(q, fig2)
