"""CRPQ evaluation: joins of RPQ relations (Section 3.1.2).

``q(G) = { h(x1, ..., xk) | h is a node homomorphism from q to G }``.

The evaluator processes atoms in the order chosen by
:mod:`repro.crpq.planning`, maintaining a set of partial bindings (a
relation over the variables seen so far).  Per atom it picks the cheapest
access path:

* left term bound  -> forward reachability from the bound node;
* right term bound -> reachability of the *reversed* expression over the
  reversed edges (Section 6.2's product construction runs equally well
  backwards): the kernel walks the CSR snapshot's reversed rows, the seed
  evaluator a reversed copy of the graph;
* neither bound    -> the full ``[[R]]_G`` relation.

Which of the three applies is a property of the atom and of the variables
bound so far, not of any one binding, so it is decided once per atom:
partial bindings are tuples over a schema (the variables in binding order)
and an atom reads its bound terms by column position.  Reachability calls
are memoized per (expression, start), so star-shaped joins do not recompute
the same BFS.

Two access objects answer those three questions: :class:`_AtomAccess` reads
the graph's own relations, and :class:`PairsAccess` adapts relations
computed elsewhere — by the shard fleet, or by the dl-RPQ evaluator — so
every CRPQ flavour runs this one join.
"""

from __future__ import annotations

from itertools import islice, repeat
from operator import itemgetter

from repro.crpq.ast import CRPQ, RPQAtom, Var
from repro.crpq.planning import explain_steps, greedy_plan, make_plan
from repro.engine import kernel
from repro.engine.limits import BudgetExceeded
from repro.engine.tracing import get_tracer
from repro.graph.edge_labeled import EdgeLabeledGraph, ObjectId
from repro.regex.ast import reverse as regex_reverse
from repro.rpq.evaluation import compile_for_graph, evaluate_rpq, reachable_by_rpq


class _AtomAccess:
    """Memoized access paths for one evaluation run.

    With ``use_index=True`` compilation additionally goes through the
    engine's process-wide LRU cache (keyed on the *alphabet*, so a graph
    mutated between runs never resurrects a stale wildcard automaton) and
    reachability runs on the CSR snapshot, in either direction.
    """

    def __init__(
        self,
        graph: EdgeLabeledGraph,
        use_index: bool = True,
        stats=None,
        budget=None,
    ):
        self.graph = graph
        self.use_index = use_index
        self.stats = stats
        # Atom relations are *intermediate* results: they share the query's
        # deadline/cancellation but are exempt from its answer-row ceiling.
        self.budget = budget.subquery() if budget is not None else None
        self.reversed_graph = None
        self._forward: dict = {}
        self._backward: dict = {}
        self._full: dict = {}
        self._compiled_cache: dict = {}

    def _compiled(self, regex):
        # Keyed on (expression, graph version) — never on ``id(graph)``: a
        # garbage-collected graph can recycle its id and resurrect a stale
        # automaton compiled over a different alphabet.  A reversed copy
        # has the graph's labels, hence its Remark 11 alphabet, so both
        # access directions compile over the graph itself.
        key = (regex, self.graph.version)
        if key not in self._compiled_cache:
            # Indexed runs keep the cache's CompiledQuery, whose lowered
            # IntPlan is memoized on it: a bare NFA would be re-wrapped and
            # re-lowered by every BFS that starts from it.
            self._compiled_cache[key] = (
                kernel.compile_query(regex, self.graph, stats=self.stats)
                if self.use_index
                else compile_for_graph(regex, self.graph, cached=False)
            )
        return self._compiled_cache[key]

    def forward(self, regex, source: ObjectId) -> set[ObjectId]:
        key = (regex, source)
        if key not in self._forward:
            self._forward[key] = reachable_by_rpq(
                self._compiled(regex),
                self.graph,
                source,
                use_index=self.use_index,
                stats=self.stats,
                budget=self.budget,
            )
        return self._forward[key]

    def backward(self, regex, target: ObjectId) -> set[ObjectId]:
        key = (regex, target)
        if key not in self._backward:
            compiled = self._compiled(regex_reverse(regex))
            if self.use_index:
                self._backward[key] = kernel.reachable(
                    compiled, self.graph, target,
                    stats=self.stats, budget=self.budget, backward=True,
                )
            else:
                # The reference keeps the seed's build-per-run behaviour.
                if self.reversed_graph is None:
                    self.reversed_graph = self.graph.reversed_copy()
                self._backward[key] = reachable_by_rpq(
                    compiled, self.reversed_graph, target, use_index=False
                )
        return self._backward[key]

    def full(self, regex) -> set[tuple[ObjectId, ObjectId]]:
        # The unbound-atom hot path: with use_index=True this is the
        # kernel's one-sweep multi-source evaluation of ``[[R]]_G``.
        if regex not in self._full:
            self._full[regex] = evaluate_rpq(
                regex, self.graph, use_index=self.use_index,
                stats=self.stats, budget=self.budget,
            )
        return self._full[regex]


class PairsAccess:
    """Atom access paths over relations computed elsewhere.

    ``pairs(regex, sources, budget)`` returns the atom's ``(source,
    target)`` pairs, from ``sources`` only, or all of them when ``sources``
    is ``None``: the shard fleet's ``evaluate_rpq`` for a distributed CRPQ,
    ``dlrpq_pairs`` for a dl-CRPQ.  ``forward`` asks for one source's pairs,
    ``full`` for all, and ``backward`` groups the full relation by target
    in one pass (it decodes lazily, so a filter per bound target would
    decode it once per target).  Memoized per evaluation, like
    :class:`_AtomAccess`, and budgeted via ``budget.subquery()``: atom
    relations are intermediate results, so the deadline applies and the
    row ceiling does not.
    """

    def __init__(self, pairs, budget=None):
        self.pairs = pairs
        self.budget = budget.subquery() if budget is not None else None
        self._forward: dict = {}
        self._backward: dict = {}
        self._full: dict = {}

    def forward(self, regex, source) -> set:
        key = (regex, source)
        if key not in self._forward:
            self._forward[key] = {
                target for _source, target in self.pairs(regex, [source], self.budget)
            }
        return self._forward[key]

    def backward(self, regex, target) -> set:
        by_target = self._backward.get(regex)
        if by_target is None:
            by_target = self._backward[regex] = {}
            for source, candidate in self.full(regex):
                by_target.setdefault(candidate, set()).add(source)
        return by_target.get(target, set())

    def full(self, regex):
        if regex not in self._full:
            self._full[regex] = self.pairs(regex, None, self.budget)
        return self._full[regex]


def evaluate_crpq_bindings(
    query: "CRPQ | str",
    graph: EdgeLabeledGraph,
    plan: "list[RPQAtom] | None" = None,
    *,
    use_index: bool = True,
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
    cardinality-model planner, default on indexed runs) or ``"greedy"``
    (the seed planner, default for the ``use_index=False`` oracle).  An
    explicit ``plan`` overrides both.

    A ``budget`` bounds the whole join: atom reachability calls run under
    ``budget.subquery()`` and the join loop itself ticks per extension.  On
    :class:`BudgetExceeded` the bindings completed so far are attached as
    the partial result (callers with a more final answer shape overwrite).

    This is the engine behind :func:`evaluate_crpq`; the moded CRPQs of
    Sections 3.1.5 and 3.2.2 (l-CRPQs and dl-CRPQs alike) also start from
    these homomorphisms before attaching list bindings per atom.
    """
    schema, rows = _join(
        query, graph, plan, use_index, planner, stats, budget, access
    )
    return _as_dicts(schema, rows)


def _as_dicts(schema: tuple, rows: list[tuple]) -> list[dict]:
    return [dict(zip(schema, row)) for row in rows]


def _join(
    query: "CRPQ | str", graph, plan, use_index, planner, stats, budget, access,
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
            elif planner is not None:
                ordered = make_plan(
                    query, graph, planner, stats=stats, budget=budget
                )
            elif use_index:
                ordered = make_plan(
                    query, graph, "cost", stats=stats, budget=budget
                )
            else:
                ordered = greedy_plan(query, graph)
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
            access = _AtomAccess(
                graph, use_index=use_index, stats=stats, budget=budget
            )
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


def _bound_nodes(term, schema: tuple, rows: list[tuple]):
    """The node ``term`` denotes in each row, as an iterable aligned with
    ``rows`` — its column, or the constant itself over and over — or
    ``None`` for a variable no earlier atom has bound."""
    if not isinstance(term, Var):
        return repeat(term)
    if term in schema:
        return map(itemgetter(schema.index(term)), rows)
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
        reach, starts, ends = access.forward, lefts, rights
    else:
        reach, starts, ends = access.backward, rights, None
    #: start node -> nodes the atom reaches from it: the regex is hashed
    #: (by the access object's own memo) once per distinct start, not once
    #: per row; a bound term that is no node of the graph reaches nothing.
    reached: dict = {}

    def reached_from(start):
        found = reached.get(start)
        if found is None:
            found = reached[start] = (
                reach(regex, start) if graph.has_node(start) else ()
            )
        return found

    if ends is not None:  # both terms bound: the atom only filters
        for row, start, end in zip(rows, starts, ends):
            if tick is not None:
                tick()
            if end in reached_from(start):
                joined.append(row)
        return schema, joined
    schema += (atom.right if lefts is not None else atom.left,)
    for row, start in zip(rows, starts):
        if tick is not None:
            tick()
        for node in reached_from(start):
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
    :class:`BudgetExceeded` carries exactly ``max_rows`` of them.
    """
    if isinstance(query, str):
        from repro.crpq.ast import parse_crpq

        query = parse_crpq(query)
    results: set[tuple] = set()
    try:
        schema, rows = _join(
            query, graph, plan, use_index, planner, stats, budget, access
        )
        if rows:
            head = [schema.index(var) for var in query.head]
            for row in rows:
                results.add(tuple([row[column] for column in head]))
                if budget is not None:
                    budget.check_rows(len(results))
    except BudgetExceeded as exc:
        if budget is not None and exc.limit == "max_rows" and budget.max_rows is not None:
            raise exc.attach_partial(set(islice(results, budget.max_rows)))
        raise exc.attach_partial(set(results))
    return results
