"""The reference evaluator stands apart from the engine it judges.

* **Import guard** — :mod:`repro.reference` imports nothing from the
  engine, the RPQ/CRPQ evaluators or the serving tiers.  The check reads the
  module's own import statements: ``sys.modules`` cannot show it, because
  importing :mod:`repro.crpq.ast` runs ``repro.crpq/__init__``, which
  re-exports the CRPQ evaluator.
* **Constants** — the homomorphisms of CRPQs whose atoms name nodes (and
  names that are no node) agree with :func:`evaluate_crpq_bindings`; the
  generator in ``test_differential`` draws variables only.
* **The product is a PMR** — validated on construction, and the matching
  paths of Section 6.4 are its trimmed paths.
"""

import ast
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.crpq.ast import CRPQ, RPQAtom, Var
from repro.crpq.evaluation import evaluate_crpq, evaluate_crpq_bindings
from repro.graph.datasets import figure3_graph
from repro.pmr.representation import PMR

from tests.engine.test_differential import graphs, regexes

FORBIDDEN = (
    "repro.engine",
    "repro.rpq",
    "repro.crpq.evaluation",
    "repro.server",
    "repro.distributed",
    "repro.storage",
)


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            if node.module == "repro":  # ``from repro import engine``
                yield from (f"repro.{alias.name}" for alias in node.names)


def test_reference_imports_nothing_it_judges():
    source = Path(reference.__file__).read_text(encoding="utf-8")
    imported = set(_imported_modules(ast.parse(source)))
    assert "repro.automata.glushkov" in imported  # the scan sees the imports
    offending = {
        name
        for name in imported
        for banned in FORBIDDEN
        if name == banned or name.startswith(banned + ".")
    }
    assert not offending


def test_the_guard_catches_each_banned_form():
    for statement in (
        "import repro.engine.kernel",
        "from repro.rpq.evaluation import evaluate_rpq",
        "from repro import server",
        "def late():\n    from repro.crpq.evaluation import evaluate_crpq",
    ):
        names = set(_imported_modules(ast.parse(statement)))
        assert any(
            name == banned or name.startswith(banned + ".")
            for name in names
            for banned in FORBIDDEN
        ), statement


@st.composite
def crpqs_with_constants(draw) -> CRPQ:
    """1-3 atoms whose terms are variables, node names, or ``"nowhere"``."""
    terms = st.sampled_from(
        (Var("x"), Var("y"), Var("z"), "v0", "v1", "v2", "nowhere")
    )
    atoms = tuple(
        RPQAtom(draw(regexes(max_leaves=3)), draw(terms), draw(terms))
        for _ in range(draw(st.integers(1, 3)))
    )
    body_vars = sorted(
        {term for atom in atoms for term in atom.variables()}, key=repr
    )
    head = tuple(draw(st.permutations(body_vars)))[
        : draw(st.integers(0, len(body_vars)))
    ]
    return CRPQ(head=head, atoms=atoms)


def _frozen(bindings):
    return {tuple(sorted(mu.items(), key=repr)) for mu in bindings}


@settings(max_examples=150, deadline=None)
@given(graph=graphs(max_nodes=4, max_edges=6), query=crpqs_with_constants())
def test_bindings_with_constants_agree_with_the_engine(graph, query):
    assert _frozen(reference.crpq_bindings(query, graph)) == _frozen(
        evaluate_crpq_bindings(query, graph)
    )
    assert reference.crpq_answers(query, graph) == evaluate_crpq(query, graph)


def test_a_constant_that_is_no_node_reaches_nothing():
    graph = figure3_graph()
    for text in (
        'q(x) :- (Transfer*)("nowhere", x)',
        'q(x) :- (Transfer*)(x, "nowhere")',
        'q() :- (Transfer*)("nowhere", "nowhere")',
    ):
        assert reference.crpq_answers(text, graph) == set() == evaluate_crpq(
            text, graph
        )


def test_the_product_is_a_validated_pmr():
    graph = figure3_graph()
    nfa = reference.compile_query("Transfer+", graph)
    product = reference.product(graph, nfa, ["a3"], ["a5"])
    assert type(product) is PMR
    assert {node for node, _state in product.sources} == {"a3"}
    assert {node for node, _state in product.targets} <= {"a5"}
    shortest = list(reference.matching_paths("Transfer+", graph, "a3", "a5"))
    assert [path.objects for path in shortest] == [("a3", "t7", "a5")]
    assert list(reference.matching_paths("Transfer+", graph, "a3", "nowhere")) == []
