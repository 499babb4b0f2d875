"""EXPLAIN and PROFILE: inspect plans and executions from the CLI.

``repro explain`` answers *what would the engine do* — the chosen plan with
per-step cost and cardinality estimates, without executing anything beyond
planning itself (which compiles automata through the LRU cache and builds
the CSR snapshot, both of which evaluation would need anyway).  ``repro
profile`` answers *what did it do* — it executes the query under an enabled
:class:`~repro.engine.tracing.Tracer` and reports the span tree (wall times,
per-atom estimated vs. actual cardinalities) together with the run's
:class:`~repro.engine.stats.EngineStats` including the derived block.

Both accept the two query syntaxes the CLI speaks: a Datalog-style CRPQ
(anything containing ``:-``) or a bare RPQ regular expression.
"""

from __future__ import annotations

from repro.engine.stats import EngineStats
from repro.engine.tracing import Tracer, use_tracer
from repro.graph.edge_labeled import EdgeLabeledGraph


def query_kind(query: str) -> str:
    """``"crpq"`` for Datalog-style text (contains ``:-``), else ``"rpq"``."""
    return "crpq" if ":-" in query else "rpq"


def _graph_summary(graph: EdgeLabeledGraph) -> dict:
    return {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "labels": sorted(map(str, graph.labels)),
    }


def explain_query(
    query: str,
    graph: EdgeLabeledGraph,
    *,
    planner: str = "cost",
    budget=None,
) -> dict:
    """The plan (with estimates) the engine would run — no execution.

    CRPQs report one entry per planned atom: access path, estimated access
    cost under bound-variable propagation, and the estimated size of the
    atom's full relation.  RPQs report the compiled automaton's shape and
    the cardinality model's pair/source/target estimates for the one-sweep
    evaluation.  A ``budget`` is checked while the atoms are planned.
    """
    from repro.engine import kernel
    from repro.engine.cardinality import (
        CardinalityModel,
        first_labels,
        last_labels,
    )

    report: dict = {
        "kind": query_kind(query),
        "query": query,
        "graph": _graph_summary(graph),
    }
    if report["kind"] == "crpq":
        from repro.crpq.ast import parse_crpq
        from repro.crpq.planning import explain_steps, make_plan

        parsed = parse_crpq(query)
        ordered = make_plan(parsed, graph, planner, budget=budget)
        steps = explain_steps(ordered, graph)
        report["planner"] = planner
        report["head"] = [repr(var) for var in parsed.head]
        report["steps"] = [step.as_dict() for step in steps]
        return report

    model = CardinalityModel(graph)
    compiled = kernel.compile_query(query, graph)
    report["automaton"] = {
        "states": compiled.nfa.num_states,
        "alphabet": len(compiled.alphabet),
    }
    report["estimates"] = {
        "pairs": round(model.pair_estimate(compiled), 4),
        "sources": round(model.source_count(compiled), 4),
        "targets": round(model.target_count(compiled), 4),
    }
    report["first_labels"] = sorted(map(str, first_labels(compiled)))
    report["last_labels"] = sorted(map(str, last_labels(compiled)))
    report["steps"] = [
        {
            "atom": query,
            "access": "full",
            "estimated_cost": round(model.pair_estimate(compiled), 4),
            "estimated_pairs": round(model.pair_estimate(compiled), 4),
        }
    ]
    return report


def render_explain(report: dict) -> str:
    """Human-readable plan tree for :func:`explain_query` output."""
    graph = report["graph"]
    lines = [
        f"{report['kind'].upper()} {report['query']}",
        f"  graph: {graph['nodes']} nodes, {graph['edges']} edges, "
        f"{len(graph['labels'])} labels",
    ]
    if report["kind"] == "rpq":
        automaton = report["automaton"]
        estimates = report["estimates"]
        lines.append(
            f"  automaton: {automaton['states']} states over "
            f"{automaton['alphabet']}-label alphabet"
        )
        lines.append(
            f"  first labels: {', '.join(report['first_labels']) or '(epsilon)'}"
            f"   last labels: {', '.join(report['last_labels']) or '(epsilon)'}"
        )
        lines.append(
            f"  estimated: {estimates['pairs']} pairs from "
            f"{estimates['sources']} sources to {estimates['targets']} targets"
        )
    else:
        lines.append(f"  planner: {report['planner']}   head: ({', '.join(report['head'])})")
    lines.append("  plan:")
    for position, step in enumerate(report["steps"], start=1):
        lines.append(
            f"    {position}. {step['atom']}"
            f"\n       access={step['access']}"
            f"  est_cost={step['estimated_cost']}"
            f"  est_pairs={step['estimated_pairs']}"
        )
    return "\n".join(lines)


def profile_query(
    query: str,
    graph: EdgeLabeledGraph,
    *,
    planner: "str | None" = None,
) -> dict:
    """Execute ``query`` under an enabled tracer and report everything.

    The returned dict carries the answer count, the full span trees (each
    ``crpq.atom`` span holds ``estimated_cost``/``estimated_pairs`` next to
    ``actual_cardinality``), and the run's engine stats with the derived
    block — the machine-readable shape behind ``repro profile --json``.
    """
    stats = EngineStats()
    tracer = Tracer()
    with use_tracer(tracer):
        if query_kind(query) == "crpq":
            from repro.crpq.evaluation import evaluate_crpq

            answers = evaluate_crpq(query, graph, planner=planner, stats=stats)
        else:
            from repro.rpq.evaluation import evaluate_rpq

            answers = evaluate_rpq(query, graph, stats=stats)
    return {
        "kind": query_kind(query),
        "query": query,
        "graph": _graph_summary(graph),
        "answers": len(answers),
        "spans": tracer.as_dicts(),
        "stats": stats.as_dict(),
        "_tracer": tracer,
        "_stats": stats,
    }


def render_profile(report: dict) -> str:
    """Span tree + stats text for :func:`profile_query` output."""
    tracer = report["_tracer"]
    lines = [
        f"{report['kind'].upper()} {report['query']}",
        f"  answers: {report['answers']}",
        "",
        tracer.render(),
    ]
    return "\n".join(lines)
