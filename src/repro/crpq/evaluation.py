"""CRPQ evaluation: joins of RPQ relations (Section 3.1.2).

``q(G) = { h(x1, ..., xk) | h is a node homomorphism from q to G }``.

The evaluator processes atoms in the order chosen by
:mod:`repro.crpq.planning`, maintaining a set of partial bindings (a
relation over the variables seen so far).  Per atom it picks the cheapest
access path:

* left term bound  -> forward reachability from the bound nodes;
* right term bound -> reachability of the *reversed* expression over the
  reversed edges (Section 6.2's product construction runs equally well
  backwards): the kernel walks the CSR snapshot's reversed rows;
* neither bound    -> the full ``[[R]]_G`` relation.

Which of the three applies is a property of the atom and of the variables
bound so far, not of any one binding, so it is decided once per atom:
partial bindings are tuples over a schema (the variables in binding order)
and an atom reads its bound terms by column position.  A bound atom is one
relation for all its bound values (Figueira & Lin: the product
reachability once per atom, not once per tuple): the distinct values of
the bound column seed one multi-source sweep, and the rows are extended
from what it reached per value.

Two access objects answer those three questions: :class:`_AtomAccess` reads
the graph's own relations, and :class:`PairsAccess` adapts relations
computed elsewhere — by the shard fleet, or by the dl-RPQ evaluator — so
every CRPQ flavour runs this one join.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter

from repro.crpq.ast import CRPQ, RPQAtom, Var
from repro.crpq.planning import explain_steps, make_plan
from repro.engine import kernel
from repro.engine.limits import BudgetExceeded
from repro.engine.tracing import get_tracer
from repro.graph.edge_labeled import EdgeLabeledGraph, ObjectId
from repro.regex.ast import reverse as regex_reverse
from repro.rpq.evaluation import evaluate_rpq


class _AtomAccess:
    """The graph's own atom relations for one evaluation run.

    Compilation goes through the engine's process-wide LRU cache (keyed on
    the *alphabet*, so a graph mutated between runs never resurrects a
    stale wildcard automaton) and every relation is one sweep on the CSR
    snapshot, in either direction.
    """

    def __init__(self, graph: EdgeLabeledGraph, stats=None, budget=None):
        self.graph = graph
        self.stats = stats
        # Atom relations are *intermediate* results: they share the query's
        # deadline/cancellation but are exempt from its answer-row ceiling.
        self.budget = budget.subquery() if budget is not None else None
        self._full: dict = {}
        self._compiled_cache: dict = {}

    def _compiled(self, regex):
        # Keyed on (expression, graph version) — never on ``id(graph)``: a
        # garbage-collected graph can recycle its id and resurrect a stale
        # automaton compiled over a different alphabet.
        key = (regex, self.graph.version)
        if key not in self._compiled_cache:
            self._compiled_cache[key] = kernel.compile_query(
                regex, self.graph, stats=self.stats
            )
        return self._compiled_cache[key]

    def reach(self, regex, starts: list):
        """``(start, v)`` for each ``start`` in ``starts`` and ``(start, v)``
        in ``[[R]]_G``: one relation sweep seeded by ``starts``."""
        return kernel.evaluate_sweep(
            self._compiled(regex), self.graph, starts,
            stats=self.stats, budget=self.budget,
        )

    def reach_back(self, regex, ends: list):
        """``(end, u)`` for each ``end`` in ``ends`` and ``(u, end)`` in
        ``[[R]]_G``: one sweep of ``reverse(R)`` over the reversed rows."""
        return kernel.evaluate_sweep_backward(
            self._compiled(regex_reverse(regex)), self.graph, ends,
            stats=self.stats, budget=self.budget,
        )

    def full(self, regex) -> set[tuple[ObjectId, ObjectId]]:
        # The unbound-atom hot path: the kernel's one-sweep multi-source
        # evaluation of ``[[R]]_G``.
        if regex not in self._full:
            self._full[regex] = evaluate_rpq(
                regex, self.graph, stats=self.stats, budget=self.budget
            )
        return self._full[regex]


class PairsAccess:
    """Atom access paths over relations computed elsewhere.

    ``pairs(regex, sources, budget)`` returns the atom's ``(source,
    target)`` pairs, from ``sources`` only, or all of them when ``sources``
    is ``None``: the shard fleet's ``evaluate_rpq`` for a distributed CRPQ,
    ``dlrpq_pairs`` for a dl-CRPQ.  ``reach`` is one such call for all of
    an atom's bound values (on the fleet, one scatter-gather), ``full`` is
    the call for all sources, and ``reach_back`` filters the full relation
    by target in one pass.  Budgeted via ``budget.subquery()``: atom
    relations are intermediate results, so the deadline applies and the
    row ceiling does not.
    """

    def __init__(self, pairs, budget=None):
        self.pairs = pairs
        self.budget = budget.subquery() if budget is not None else None
        self._full: dict = {}

    def reach(self, regex, starts: list):
        return self.pairs(regex, starts, self.budget)

    def reach_back(self, regex, ends: list) -> list:
        ends = set(ends)
        return [
            (target, source)
            for source, target in self.full(regex)
            if target in ends
        ]

    def full(self, regex):
        if regex not in self._full:
            self._full[regex] = self.pairs(regex, None, self.budget)
        return self._full[regex]


def evaluate_crpq_bindings(
    query: "CRPQ | str",
    graph: EdgeLabeledGraph,
    plan: "list[RPQAtom] | None" = None,
    *,
    planner: "str | None" = None,
    stats=None,
    budget=None,
    access=None,
) -> list[dict]:
    """All node homomorphisms from ``query`` to ``graph`` as variable->node
    dictionaries (before head projection).

    ``access`` swaps in an alternative atom-access object: a
    :class:`PairsAccess` over relations computed elsewhere (the distributed
    coordinator's shard fleet, the dl-CRPQ evaluator's ``dlrpq_pairs``).
    Planning still runs over ``graph``, so unless ``plan`` fixes the order
    the cost model keeps choosing it — and thereby which atoms run bound
    (shard-local scatter) versus unbound (broadcast sweep).

    ``planner`` selects the atom ordering: ``"cost"`` (the engine's
    cardinality-model planner, the default) or ``"greedy"`` (the seed
    planner, which :mod:`repro.reference` uses).  An explicit ``plan``
    overrides both.

    A ``budget`` bounds the whole join: atom reachability calls run under
    ``budget.subquery()`` and the join loop itself ticks per extension.  On
    :class:`BudgetExceeded` the bindings completed so far are attached as
    the partial result (callers with a more final answer shape overwrite).

    This is the engine behind :func:`evaluate_crpq`; the moded CRPQs of
    Sections 3.1.5 and 3.2.2 (l-CRPQs and dl-CRPQs alike) also start from
    these homomorphisms before attaching list bindings per atom.
    """
    schema, rows = _join(query, graph, plan, planner, stats, budget, access)
    return _as_dicts(schema, rows)


def _as_dicts(schema: tuple, rows: list[tuple]) -> list[dict]:
    return [dict(zip(schema, row)) for row in rows]


def _join(
    query: "CRPQ | str", graph, plan, planner, stats, budget, access,
) -> "tuple[tuple[Var, ...], list[tuple]]":
    """The homomorphisms as ``(schema, rows)``: ``rows[i][j]`` is the node
    bound to variable ``schema[j]``, in the order the plan first binds them."""
    if isinstance(query, str):
        from repro.crpq.ast import parse_crpq

        query = parse_crpq(query)
    tracer = get_tracer()
    with tracer.span("crpq.evaluate", query=query.name) as query_span:
        with tracer.span("crpq.plan", planner=planner or "default"):
            if plan is not None:
                ordered = plan
            else:
                ordered = make_plan(
                    query, graph, planner or "cost", stats=stats, budget=budget
                )
            # When tracing, price the chosen order up front so every
            # per-atom span carries its estimate next to the actual
            # cardinality it produced.
            steps = (
                explain_steps(ordered, graph, stats=stats)
                if tracer.enabled
                else None
            )
        if query_span is not None:
            query_span.set(atoms=len(ordered))
        if access is None:
            access = _AtomAccess(graph, stats=stats, budget=budget)
        schema: tuple = ()
        rows: list[tuple] = [()]
        try:
            for position, atom in enumerate(ordered):
                if budget is not None:
                    budget.check()  # natural barrier between atoms
                attributes = {}
                if steps is not None:
                    step = steps[position]
                    attributes = {
                        "atom": step.atom_text,
                        "access": step.access,
                        "estimated_cost": round(step.estimated_cost, 4),
                        "estimated_pairs": round(step.estimated_pairs, 4),
                    }
                with tracer.span("crpq.atom", **attributes) as atom_span:
                    schema, rows = _apply_atom(
                        atom, schema, rows, access, graph, budget
                    )
                    if atom_span is not None:
                        atom_span.set(actual_cardinality=len(rows))
                if not rows:
                    break
        except BudgetExceeded as exc:
            raise exc.attach_partial(_as_dicts(schema, rows))
        if query_span is not None:
            query_span.set(bindings=len(rows))
    return schema, rows


def _bound_nodes(term, schema: tuple, rows: list[tuple]) -> "list | None":
    """The node ``term`` denotes in each row, as a list aligned with
    ``rows`` — its column, or the constant itself over and over — or
    ``None`` for a variable no earlier atom has bound."""
    if not isinstance(term, Var):
        return [term] * len(rows)
    if term in schema:
        return list(map(itemgetter(schema.index(term)), rows))
    return None


def _apply_atom(
    atom: RPQAtom,
    schema: tuple,
    rows: list[tuple],
    access: "_AtomAccess | PairsAccess",
    graph: EdgeLabeledGraph,
    budget=None,
) -> "tuple[tuple, list[tuple]]":
    """Join one atom's relation into the current rows.

    The access path follows from the atom and the schema alone, so it is
    picked here once; the loops below do no per-row case analysis.
    """
    tick = budget.tick if budget is not None else None
    regex = atom.regex
    lefts = _bound_nodes(atom.left, schema, rows)
    rights = _bound_nodes(atom.right, schema, rows)
    joined: list[tuple] = []
    if lefts is None and rights is None:
        pairs = access.full(regex)
        if len(rows) > 1:
            pairs = tuple(pairs)  # a cross product: decode once, not per row
        if atom.left == atom.right:  # R(x, x): one new column, loops only
            schema += (atom.left,)
            for row in rows:
                if tick is not None:
                    tick()
                for source, target in pairs:
                    if tick is not None:
                        tick()
                    if source == target:
                        joined.append(row + (source,))
        else:
            schema += (atom.left, atom.right)
            for row in rows:
                if tick is not None:
                    tick()
                for pair in pairs:
                    if tick is not None:
                        tick()
                    joined.append(row + pair)
        return schema, joined

    if lefts is not None:
        reach, starts, ends = access.reach, lefts, rights
    else:
        reach, starts, ends = access.reach_back, rights, None
    # One relation for every distinct bound value (a bound term that is no
    # node of the graph reaches nothing), as ``(start, node)`` pairs.
    distinct = [node for node in dict.fromkeys(starts) if graph.has_node(node)]
    relation = reach(regex, distinct) if distinct else ()

    if ends is not None:  # both terms bound: the atom only filters
        for row, start, end in zip(rows, starts, ends):
            if tick is not None:
                tick()
            if (start, end) in relation:
                joined.append(row)
        return schema, joined
    #: start node -> the nodes the atom reaches from it, in decode order
    reached: dict = {}
    for start, node in relation:
        found = reached.get(start)
        if found is None:
            reached[start] = [node]
        else:
            found.append(node)
    schema += (atom.right if lefts is not None else atom.left,)
    for row, start in zip(rows, starts):
        if tick is not None:
            tick()
        for node in reached.get(start, ()):
            if tick is not None:
                tick()
            joined.append(row + (node,))
    return schema, joined


def evaluate_crpq(
    query: "CRPQ | str",
    graph: EdgeLabeledGraph,
    plan: "list[RPQAtom] | None" = None,
    *,
    use_index: bool = True,
    planner: "str | None" = None,
    stats=None,
    budget=None,
    access=None,
) -> set[tuple]:
    """The output ``q(G)`` as a set of head-variable tuples.

    A boolean query (empty head) returns ``{()}`` when satisfiable and
    ``set()`` otherwise.  A custom atom order can be injected via ``plan``;
    ``planner`` picks between the cost-based and greedy orderings (the
    benchmarks and differential tests compare all of them).

    ``budget.max_rows`` applies to these head tuples: the evaluation stops
    once more than ``max_rows`` distinct tuples exist, and the raised
    :class:`BudgetExceeded` carries exactly ``max_rows`` of them — the
    first ones in join order.

    ``use_index=False`` returns :func:`repro.reference.crpq_answers` instead
    (every other option is ignored).  It stays only for the answer checks of
    the repo benchmark under ``bench/``; no caller in the package passes it.
    """
    if not use_index:
        from repro import reference

        return reference.crpq_answers(query, graph)
    if isinstance(query, str):
        from repro.crpq.ast import parse_crpq

        query = parse_crpq(query)
    #: the head tuples in join order (a dict as an insertion-ordered set)
    results: dict[tuple, None] = {}
    try:
        schema, rows = _join(query, graph, plan, planner, stats, budget, access)
        if rows:
            head = [schema.index(var) for var in query.head]
            for row in rows:
                results[tuple([row[column] for column in head])] = None
                if budget is not None:
                    budget.check_rows(len(results))
    except BudgetExceeded as exc:
        # A row trip keeps the first ``max_rows`` tuples in join order, so
        # which rows a partial carries does not follow the hash seed.
        kept = results if exc.max_rows is None else islice(results, exc.max_rows)
        raise exc.attach_partial(set(kept))
    return set(results)
