"""Command-line interface: run the paper's query languages on JSON graphs.

Examples (``fig2`` / ``fig3`` name the paper's built-in bank graphs; any
other value is read as a graph JSON file in the
:mod:`repro.graph.serialize` format)::

    python -m repro rpq fig2 "Transfer*"
    python -m repro rpq mygraph.json "a.(a+b)*" --source v0
    python -m repro crpq fig2 "q(x,y) :- Transfer(x,y), Transfer(y,x)"
    python -m repro paths fig3 "Transfer+" a3 a5 --mode simple
    python -m repro dlrpq fig3 "(_)[Transfer][amount < 4500000](_)" a3 a4
    python -m repro experiment E14
"""

from __future__ import annotations

import argparse
import sys

from repro.graph.edge_labeled import EdgeLabeledGraph


def _load_graph(spec: str) -> EdgeLabeledGraph:
    if spec == "fig2":
        from repro.graph.datasets import figure2_graph

        return figure2_graph()
    if spec == "fig3":
        from repro.graph.datasets import figure3_graph

        return figure3_graph()
    from repro.errors import GraphError
    from repro.graph.serialize import loads

    try:
        with open(spec, encoding="utf-8") as handle:
            return loads(handle.read())
    except (OSError, ValueError, GraphError) as exc:
        raise SystemExit(f"error: cannot load graph {spec!r}: {exc}") from None


def _named_graphs(specs):
    """``(name, graph)`` for each ``--graphs NAME=FILE`` entry, in order."""
    for spec in specs or ():
        name, _, path = spec.partition("=")
        if not path:
            raise SystemExit(
                f"--graphs entries must be name=path.json, got {spec!r}"
            )
        yield name, _load_graph(path)


def _engine_options(args: argparse.Namespace):
    """The ``--stats`` counters or None; ``--no-index`` refuses a budget."""
    from repro.engine.stats import EngineStats

    stats = getattr(args, "stats", False)
    limits = [value for value in _limits(args).values() if value is not None]
    if getattr(args, "no_index", False) and (stats or limits):
        raise SystemExit("--no-index takes no --timeout, --max-rows, "
                         "--max-states or --stats (the reference has none)")
    return EngineStats() if stats else None


def _limits(args: argparse.Namespace) -> dict:
    """What the ``--timeout/--max-rows/--max-states`` flags ask for."""
    return {
        name: getattr(args, name, None)
        for name in ("timeout", "max_rows", "max_states")
    }


def _make_budget(args: argparse.Namespace):
    """The query budget the limit flags ask for, or None when none were
    given; a limit out of range is a ``bad_request``."""
    from repro.engine.limits import make_budget
    from repro.server.protocol import BadRequestError

    try:
        return make_budget(**_limits(args))
    except ValueError as exc:
        raise BadRequestError(str(exc)) from None


def _params(op: str, args: argparse.Namespace) -> dict:
    """The request parameters of ``op`` that ``args`` carries: each one the
    op table declares that is also the name of a flag or argument."""
    from repro.server.protocol import OP_TABLE

    return {
        name: getattr(args, name)
        for name in OP_TABLE[op].params
        if hasattr(args, name)
    }


def _print_tuples(rows) -> None:
    """One tab-separated line per row, in ``repr`` order of the tuples."""
    for row in sorted(map(tuple, rows), key=repr):
        print("\t".join(map(str, row)))


def _print_paths(paths) -> None:
    for path in paths:
        print(" -> ".join(map(str, path)))


def _print_bindings(bindings) -> None:
    """One line per dl-RPQ binding: its path, then its list variables."""
    for binding in bindings:
        lists = {name: tuple(values) for name, values in binding["lists"].items()}
        suffix = f"   lists: {lists}" if lists else ""
        print(" -> ".join(map(str, binding["path"])) + suffix)


#: Each answering op's row printer and what the local verb's stderr summary
#: counts (the result field holding the rows is the op table's ``answer``).
_ANSWERS = {
    "rpq": (_print_tuples, "pairs"),
    "crpq": (_print_tuples, "rows"),
    "paths": (_print_paths, "paths ({mode})"),
    "dlrpq": (_print_bindings, "path bindings ({mode})"),
}


def _report_trip(args: argparse.Namespace, exc) -> int:
    """Print a query verb's budget trip — its partial answers and which limit
    tripped — however the query ran; 2 is the partial-result exit code."""
    from repro.engine.explain import query_kind

    if exc.partial:
        op = query_kind(args.query) if args.command == "query" else args.command
        _ANSWERS[op][0](exc.partial)
    details = ", ".join(
        f"{key}={value}" for key, value in sorted(exc.details().items())
    )
    print(f"# budget exceeded ({details}); answers above are partial",
          file=sys.stderr)
    return 2


def _reference(request, graph) -> dict:
    """``--no-index``: the answer of ``request`` from :mod:`repro.reference`,
    under the result key the handler uses."""
    from repro import reference

    args = request.args
    if request.op == "rpq":
        sources = None if args["source"] is None else [args["source"]]
        return {"pairs": reference.rpq_pairs(args["query"], graph, sources)}
    if request.op == "crpq":
        return {"rows": reference.crpq_answers(args["query"], graph)}
    paths = reference.matching_paths(
        args["query"], graph, args["source"], args["target"], args["mode"],
        args["limit"],
    )
    return {"paths": [path.objects for path in paths]}


def _cmd_local(args: argparse.Namespace) -> int:
    """``rpq|crpq|paths|dlrpq|explain`` on a graph in this process: the
    served op's request, checked by the op table and answered by the
    handler the server runs (no answer cache, no admission)."""
    import json

    from repro.server.protocol import OP_TABLE, Request, check_request
    from repro.server.service import QueryService

    graph = _load_graph(args.graph)
    stats = _engine_options(args)
    request = check_request(Request(args.command, params=_params(args.command, args)))
    if getattr(args, "no_index", False):
        result = _reference(request, graph)
    else:
        result = QueryService.evaluate(request, graph, stats, _make_budget(args))
    if request.op == "explain":
        from repro.engine.explain import render_explain

        report = result["report"]
        print(json.dumps(report, indent=2, sort_keys=True) if args.json
              else render_explain(report))
        return 0
    printer, summary = _ANSWERS[request.op]
    rows = result[OP_TABLE[request.op].answer]
    printer(rows)
    print(f"# {len(rows)} {summary.format(**request.args)}", file=sys.stderr)
    if stats is not None:
        print(stats.render(), file=sys.stderr)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.engine.explain import profile_query, render_profile

    if getattr(args, "shards", None):
        return _profile_via_shards(args)
    graph = _load_graph(args.graph)
    report = profile_query(args.query, graph, planner=args.planner)
    stats = report.pop("_stats")
    if args.json:
        report.pop("_tracer")
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        print(render_profile(report))
        print(stats.render(), file=sys.stderr)
    return 0


def _profile_via_shards(args: argparse.Namespace) -> int:
    """Profile a query over a shard fleet: one stitched cross-process tree.

    The coordinator roots the trace (``coordinator.rpq`` over per-round
    ``coordinator.round`` spans); every shard's ``server.request`` subtree
    comes back grafted under its round with shard id, wire bytes and
    latency attribution (DESIGN.md §12).
    """
    import json

    from repro.engine.explain import query_kind
    from repro.engine.tracing import Tracer

    op = query_kind(args.query)
    tracer = Tracer()
    outcome, code = _on_shards(args, op, _params(op, args), tracer)
    if code is not None:
        return code
    result, metrics = outcome
    _write_shard_trace(tracer, args.trace_out, drain=False)
    if args.json:
        print(
            json.dumps(
                {
                    "count": result["count"],
                    "spans": tracer.as_dicts(),
                    "coordinator_metrics": metrics,
                },
                indent=2,
                sort_keys=True,
                default=str,
            )
        )
        return 0
    print(tracer.render())
    print(f"# {result['count']} answers", file=sys.stderr)
    return 0


def _first_result_mismatch(log, expected, actual) -> str:
    """Describe the first query whose batch answers differ from the seed."""
    from repro.engine.kernel import query_text

    for position, (want, got) in enumerate(zip(expected, actual)):
        if want == got:
            continue
        entry = log[position]
        expression = entry[1] if isinstance(entry, tuple) else entry
        differing = sorted(want ^ got, key=repr)[0]
        side = "missing from batch" if differing in want else "extra in batch"
        return (
            f"query #{position} {query_text(expression)!r}: "
            f"first differing answer {differing!r} ({side}; "
            f"seed={len(want)} answers, batch={len(got)})"
        )
    return "result lists differ in length"


def _cmd_workload_run(args: argparse.Namespace) -> int:
    import json

    from repro.engine.stats import EngineStats
    from repro.workloads.querylog import generate_query_log
    from repro.workloads.runner import run_query_log, run_query_log_sequential

    if args.graph == "random":
        from repro.graph.generators import random_graph

        labels = tuple(args.labels.split(",")) if args.labels else tuple("abcdefgh")
        graph = random_graph(
            args.nodes, args.edges, labels=labels, seed=args.graph_seed
        )
    else:
        graph = _load_graph(args.graph)
        labels = (
            tuple(args.labels.split(","))
            if args.labels
            else tuple(sorted(map(str, graph.labels)))
        )
    log = generate_query_log(args.queries, labels=labels, seed=args.log_seed)

    tracing = bool(args.trace_out) or args.slow_log > 0
    if tracing:
        from repro.engine.tracing import Tracer, use_tracer

        tracer_scope = use_tracer(Tracer())
    else:
        from contextlib import nullcontext

        tracer_scope = nullcontext()
    # The stats object lives out here so that an interrupt landing outside
    # the evaluation loop (during parse/compile, say) still has telemetry to
    # flush — whatever was folded in before the signal.
    stats = EngineStats()
    report = None
    try:
        with tracer_scope:
            report = run_query_log(
                graph,
                log,
                slow_log=args.slow_log,
                stats=stats,
                budget=_make_budget(args),
            )
    except KeyboardInterrupt:
        pass
    interrupted = report is None or report.interrupted

    if report is not None:
        digest = report.summary()
        if not args.stats:
            digest.pop("engine_stats", None)
    else:
        digest = {"interrupted": True, "engine_stats": stats.as_dict()}
    if args.trace_out:
        timings = report.timings if report is not None else []
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            for entry in timings:
                handle.write(json.dumps(entry, sort_keys=True, default=str) + "\n")
        digest["trace_out"] = args.trace_out
        print(
            f"# wrote {len(timings)} query traces to {args.trace_out}",
            file=sys.stderr,
        )
    if args.metrics_out:
        from repro.engine.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.fold_stats(stats)
        histogram = report.latency_histogram if report is not None else None
        if histogram is not None:
            registry.histogram(
                "query_latency_seconds", histogram.bounds
            ).merge(histogram)
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(registry.render_prometheus())
        digest["metrics_out"] = args.metrics_out
    if interrupted:
        # Partial flush done; the conventional 128+SIGINT exit code tells
        # scripts the run was cut short but telemetry survived.
        print(json.dumps(digest, indent=2, sort_keys=True))
        print("# interrupted: partial telemetry flushed", file=sys.stderr)
        return 130
    if args.baseline:
        baseline = run_query_log_sequential(graph, log)
        if baseline.results != report.results:
            detail = _first_result_mismatch(log, baseline.results, report.results)
            print(
                f"BASELINE MISMATCH: batch answers differ — {detail}",
                file=sys.stderr,
            )
            return 1
        digest["baseline_wall_seconds"] = round(baseline.wall_seconds, 6)
        digest["speedup_vs_seed"] = round(
            baseline.wall_seconds / max(report.wall_seconds, 1e-9), 2
        )
    print(json.dumps(digest, indent=2, sort_keys=True))
    if args.stats:
        print(report.stats.render(), file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.server.admission import AdmissionController
    from repro.server.app import QueryServer
    from repro.server.service import GraphCatalog, QueryService

    catalog = GraphCatalog.with_builtins(
        args.data_dir, max_resident_edges=args.max_resident_edges
    )
    for name, graph in _named_graphs(args.graphs):
        catalog.register(name, graph)
    admission = AdmissionController(
        max_concurrency=args.max_concurrency,
        max_queue=args.max_queue,
        queue_timeout=args.queue_timeout,
        query_timeout=args.query_timeout,
        max_request_bytes=args.max_request_bytes,
    )
    service = QueryService(catalog, answer_cache_size=args.answer_cache)
    server = QueryServer(
        service,
        host=args.host,
        port=args.port,
        admission=admission,
        metrics_out=args.metrics_out,
        trace_out=args.trace_out,
        announce=True,
    )
    try:
        asyncio.run(server.serve())
    except OSError as exc:
        # A taken port (or unroutable host) must be a clean one-line
        # failure, not a traceback: supervisors — including the shard
        # launcher — read this line to report *which* worker failed.
        print(
            f"error: cannot bind {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    print("# drained cleanly", file=sys.stderr)
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    """Offline store maintenance: import/export/ls/compact on a data dir."""
    import json

    from repro.errors import StorageError
    from repro.storage.store import GraphStore

    try:
        with GraphStore(args.data_dir) as store:
            if args.store_command == "import":
                graph = _load_graph(args.file)
                info = store.put_graph(args.name, graph)
                print(
                    f"imported {args.name!r}: {info['nodes']} nodes, "
                    f"{info['edges']} edges, version {info['version']}",
                    file=sys.stderr,
                )
            elif args.store_command == "export":
                from repro.graph.serialize import dumps

                text = dumps(store.load_graph(args.name), indent=2) + "\n"
                if args.file == "-":
                    sys.stdout.write(text)
                else:
                    with open(args.file, "w", encoding="utf-8") as handle:
                        handle.write(text)
            elif args.store_command == "ls":
                manifest = store.manifest()
                if args.json:
                    print(json.dumps(manifest, indent=2, sort_keys=True))
                else:
                    for info in manifest:
                        print(
                            f"{info['name']}\t{info['kind']}\t"
                            f"nodes={info['nodes']}\tedges={info['edges']}\t"
                            f"version={info['version']}\t"
                            f"journal={info['journal_records']}"
                        )
            elif args.store_command == "compact":
                names = [args.name] if args.name else store.names()
                for name in names:
                    records = store.graph_info(name)["journal_records"]
                    info = store.compact(name)
                    seconds = store.counters()["compact_seconds_last"]
                    print(
                        f"compacted {name!r}: version {info['version']}, "
                        f"{records} records folded in {seconds * 1000:.1f} ms, "
                        f"journal empty",
                        file=sys.stderr,
                    )
            else:  # pragma: no cover - argparse enforces the choices
                raise SystemExit(f"unknown store command {args.store_command!r}")
    except StorageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _parse_address(spec: str) -> tuple[str, int]:
    host, _, port = spec.rpartition(":")
    if not host:
        host = "127.0.0.1"
    return host, int(port)


def _connect(spec: str, retry=None):
    from repro.server.client import ServerClient

    return ServerClient(*_parse_address(spec), retry=retry)


def _cmd_shard_serve(args: argparse.Namespace) -> int:
    """Launch a shard fleet, distribute the graphs, and run until signaled."""
    import json
    import signal
    import threading

    from repro.distributed import (
        FleetSupervisor,
        ShardCoordinator,
        ShardLauncher,
        ShardStartupError,
    )

    ports = None
    if args.ports:
        ports = [int(part) for part in args.ports.split(",") if part]
    launcher = ShardLauncher(
        args.shards,
        host=args.host,
        ports=ports,
        query_timeout=args.query_timeout,
    )
    supervisor = None
    if args.heartbeat_interval > 0:
        supervisor = FleetSupervisor(
            launcher,
            heartbeat_interval=args.heartbeat_interval,
            max_restarts=args.max_restarts,
        )
    try:
        # The supervisor's start() also brings the fleet up; only the
        # prober thread is deferred until the graphs are distributed, so
        # a restart during distribution cannot race the initial uploads.
        addresses = launcher.start()
    except ShardStartupError as exc:
        # The launcher relays the failed worker's own one-line error, so
        # this names both the shard and why it could not come up.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    distributed = []
    try:
        with ShardCoordinator(
            addresses,
            hedge_after=args.hedge_after,
            allow_degraded=args.allow_degraded,
            supervisor=supervisor,
        ) as coordinator:
            for name, graph in _named_graphs(args.graphs):
                if args.replicated:
                    info = coordinator.replicate_graph(name, graph)
                else:
                    info = coordinator.partition_graph(
                        name, graph, strategy=args.partition
                    )
                distributed.append(info)
            if supervisor is not None:
                supervisor.on_restart = coordinator.notify_restart
                supervisor.start()
            print(
                json.dumps(
                    {
                        "event": "cluster",
                        "shards": [
                            {"host": host, "port": port}
                            for host, port in addresses
                        ],
                        "graphs": distributed,
                        "supervised": supervisor is not None,
                    },
                    sort_keys=True,
                ),
                flush=True,
            )
            stop = threading.Event()
            dumper = None
            if args.metrics_out:
                def _dump_fleet_metrics() -> None:
                    merged = coordinator.cluster_metrics(
                        include_coordinator=False
                    )
                    with open(args.metrics_out, "w", encoding="utf-8") as handle:
                        handle.write(merged.render_prometheus())

                def _dump_loop() -> None:
                    # The coordinator sits idle here (the main thread only
                    # waits on the stop event), so this thread is its sole
                    # user — the not-thread-safe contract holds.
                    while True:
                        try:
                            _dump_fleet_metrics()
                        except OSError:
                            pass  # a torn shard mid-dump; next tick retries
                        if stop.wait(args.metrics_interval):
                            return

                dumper = threading.Thread(
                    target=_dump_loop, name="repro-metrics-dump", daemon=True
                )
                dumper.start()
            for signum in (signal.SIGINT, signal.SIGTERM):
                signal.signal(signum, lambda _signum, _frame: stop.set())
            stop.wait()
            if dumper is not None:
                dumper.join(timeout=args.metrics_interval + 5.0)
                try:
                    _dump_fleet_metrics()  # final dump while shards live
                except OSError:
                    pass
    finally:
        if supervisor is not None:
            supervisor.stop()
        else:
            launcher.stop()
    print("# cluster stopped", file=sys.stderr)
    return 0


def _on_fleet(args: argparse.Namespace, run, tracer=None, **options):
    """``(run(coordinator), None)`` with a coordinator over the ``--shards``
    fleet, or ``(None, 1)`` once a fleet failure — ``shard_unavailable``, an
    unreachable shard, a typed shard error — is reported on stderr."""
    from contextlib import nullcontext

    from repro.distributed import ShardCoordinator
    from repro.engine.tracing import use_tracer
    from repro.server.client import ConnectionLost, ServerError
    from repro.server.protocol import ShardUnavailableError

    addresses = [_parse_address(part) for part in args.shards.split(",") if part]
    try:
        with use_tracer(tracer) if tracer is not None else nullcontext(), \
                ShardCoordinator(addresses, **options) as coordinator:
            return run(coordinator), None
    except ShardUnavailableError as exc:
        print(f"error [shard_unavailable]: {exc.message}", file=sys.stderr)
        if exc.details.get("retry_after"):
            print(f"# retry after {exc.details['retry_after']}s", file=sys.stderr)
    except ServerError as exc:
        print(f"error [{exc.code}]: {exc.message}", file=sys.stderr)
    except (ConnectionLost, OSError) as exc:
        print(f"error: cannot reach shard fleet: {exc}", file=sys.stderr)
    return None, 1


def _on_shards(
    args: argparse.Namespace, op: str, params: dict, tracer=None, **options
):
    """:func:`_on_fleet` running one ``op`` request: ``args.graph`` is put
    on the fleet first — partitioned by ``--partition``, or replicated with
    ``--replicated`` — and rounds slower than ``--slow-round-ms`` logged;
    the outcome is the coordinator's result dict and its metrics."""
    from repro.server.protocol import Request

    budget = _make_budget(args)
    graph = _load_graph(args.graph)
    name = f"cli:{args.graph}"

    def distribute_then_execute(coordinator):
        if getattr(args, "replicated", False):
            coordinator.replicate_graph(name, graph)
        else:
            coordinator.partition_graph(name, graph, strategy=args.partition)
        request = Request(op, params={**params, "graph": name})
        return coordinator.execute(request, budget), coordinator.metrics.as_dict()

    return _on_fleet(
        args, distribute_then_execute, tracer,
        slow_round_ms=args.slow_round_ms, **options,
    )


def _write_shard_trace(tracer, path, drain=True) -> None:
    """Append the stitched span trees to ``--trace-out`` (if given)."""
    if tracer is not None and path:
        written = tracer.write_jsonl(path, drain=drain)
        print(f"# wrote {written} span trees to {path}", file=sys.stderr)


def _answer_on_shards(args: argparse.Namespace, op: str, params: dict):
    """The coordinator's result dict of ``op`` on the ``--shards`` fleet
    (``None`` once a fleet failure is reported)."""
    from repro.engine.tracing import Tracer

    tracer = Tracer() if args.trace_out else None
    outcome, _code = _on_shards(
        args, op, params, tracer,
        hedge_after=args.hedge_after, allow_degraded=args.allow_degraded,
    )
    if outcome is None:
        return None
    _write_shard_trace(tracer, args.trace_out)
    return outcome[0]


def _answer_on_server(args: argparse.Namespace, op: str, params: dict):
    """The result dict of ``op`` from the ``--connect`` server (``None``
    once its error is reported; a budget trip raises, as a local one does)."""
    from repro.server.client import RetryPolicy, ServerError
    from repro.server.protocol import budget_trip

    retry = (
        RetryPolicy(max_attempts=args.retries) if args.retries > 1 else None
    )
    try:
        with _connect(args.connect, retry=retry) as client:
            return client.request(op, **params)
    except ServerError as exc:
        trip = budget_trip(exc.code, exc.message, exc.details)
        if trip is not None:
            raise trip from None
        print(f"error [{exc.code}]: {exc.message}", file=sys.stderr)
    except OSError as exc:  # ConnectionLost included
        print(f"error: cannot reach server {args.connect}: {exc}",
              file=sys.stderr)
    return None


def _cmd_cluster_stats(args: argparse.Namespace) -> int:
    """Fetch and merge every shard's metrics registry (exactly)."""
    import json

    # This coordinator exists only to ask; its own (empty) registry would
    # just add zero-count noise.
    merged, code = _on_fleet(
        args, lambda coordinator: coordinator.cluster_metrics(include_coordinator=False)
    )
    if code is not None:
        return code
    if args.json:
        text = json.dumps(merged.as_dict(), indent=2, sort_keys=True) + "\n"
    else:
        text = merged.render_prometheus()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"# wrote merged fleet metrics to {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    """Run one query against a *running* server (``--connect host:port``)
    or a shard fleet (``--shards host:port,host:port,...``): one request,
    answered by the server or by the fleet's coordinator, printed one way."""
    import json

    from repro.engine.explain import query_kind
    from repro.server.protocol import OP_TABLE

    op = "explain" if args.explain else query_kind(args.query)
    params = {
        name: value for name, value in _params(op, args).items()
        if value is not None
    }
    answer = _answer_on_shards if args.shards else _answer_on_server
    result = answer(args, op, params)
    if result is None:
        return 1
    if result.get("degraded"):
        print(
            "# degraded: served from the coordinator's local copy "
            "(every replica was down)",
            file=sys.stderr,
        )
    if args.json or args.explain:
        print(json.dumps(result, indent=2, sort_keys=True, default=str))
        return 0
    _print_tuples(result[OP_TABLE[op].answer])
    print(f"# {result['count']} answers", file=sys.stderr)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import run_all, run_experiment

    if args.id.lower() == "all":
        for result in run_all():
            print(result.render())
            print()
        return 0
    print(run_experiment(args.id).render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Graph query engines from 'Querying Graph Data: Where "
        "We Are and Where To Go' (PODS Companion 2025).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_engine_flags(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--stats",
            action="store_true",
            help="print engine counters/timers (cache hits, nodes expanded, "
            "phase times) to stderr after the results",
        )
        subparser.add_argument(
            "--no-index",
            action="store_true",
            help="answer with repro.reference, the naive seed pipeline the "
            "engine is tested against (takes no budget flags or --stats)",
        )

    def add_budget_flags(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="wall-clock budget; on expiry, print the partial answers "
            "found so far and exit 2",
        )
        subparser.add_argument(
            "--max-rows", type=int, default=None, metavar="N",
            help="stop after N answer rows (exit 2 with exactly N rows)",
        )
        subparser.add_argument(
            "--max-states", type=int, default=None, metavar="N",
            help="cap on product-graph states visited (memory guard)",
        )

    def add_fleet_flags(subparser: argparse.ArgumentParser) -> None:
        """What ``--shards`` runs take beside the fleet's addresses."""
        subparser.add_argument(
            "--partition", default="hash", choices=("hash", "edge-cut"),
            help="with --shards: the partitioning strategy (default hash)",
        )
        subparser.add_argument(
            "--trace-out", metavar="FILE.jsonl",
            help="with --shards: trace the scatter-gather and append the "
            "stitched cross-process span trees, one JSON tree per line",
        )
        subparser.add_argument(
            "--slow-round-ms", type=float, default=None, metavar="MS",
            help="with --shards: log a structured record for every frontier "
            "round slower than MS milliseconds",
        )

    def add_replica_flags(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--replicated", action="store_true",
            help="upload full replicas to every shard instead of partitioning "
            "(read-throughput mode: whole queries route to one replica)",
        )
        subparser.add_argument(
            "--hedge-after", type=float, default=None, metavar="SECONDS",
            help="race a replicated read at the next rendezvous replica after "
            "this many seconds without an answer (default: no hedging)",
        )
        subparser.add_argument(
            "--allow-degraded", action="store_true",
            help="when every replica of a graph is down, serve replicated "
            "reads from the coordinator's retained copy marked "
            "'degraded: true' instead of failing (never cached)",
        )

    def add_path_args(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument("source")
        subparser.add_argument("target")
        subparser.add_argument(
            "--mode", default="shortest",
            choices=("all", "shortest", "simple", "trail"),
        )
        subparser.add_argument("--limit", type=int, default=None)

    rpq = commands.add_parser("rpq", help="evaluate an RPQ ([[R]]_G pairs)")
    rpq.add_argument("graph", help="fig2, fig3, or a graph JSON file")
    rpq.add_argument("query", help="regular path query, e.g. 'Transfer*'")
    rpq.add_argument("--source", help="restrict to one source node")
    add_engine_flags(rpq)
    add_budget_flags(rpq)
    rpq.set_defaults(handler=_cmd_local)

    crpq = commands.add_parser("crpq", help="evaluate a CRPQ (Datalog syntax)")
    crpq.add_argument("graph")
    crpq.add_argument("query", help="e.g. 'q(x,y) :- Transfer(x,y), owner(y,z)'")
    add_engine_flags(crpq)
    add_budget_flags(crpq)
    crpq.set_defaults(handler=_cmd_local)

    paths = commands.add_parser("paths", help="enumerate matching paths")
    paths.add_argument("graph")
    paths.add_argument("query")
    add_path_args(paths)
    add_engine_flags(paths)
    add_budget_flags(paths)
    paths.set_defaults(handler=_cmd_local)

    dlrpq = commands.add_parser(
        "dlrpq", help="evaluate a dl-RPQ with data tests (Section 3.2.1)"
    )
    dlrpq.add_argument("graph")
    dlrpq.add_argument("query", help="e.g. '(_)[Transfer][amount < 4500000](_)'")
    add_path_args(dlrpq)
    add_budget_flags(dlrpq)
    dlrpq.set_defaults(handler=_cmd_local)

    experiment = commands.add_parser(
        "experiment", help="run a DESIGN.md experiment (E1..E27 or 'all')"
    )
    experiment.add_argument("id")
    experiment.set_defaults(handler=_cmd_experiment)

    explain = commands.add_parser(
        "explain",
        help="show the plan (with cost/cardinality estimates) without "
        "executing — RPQ regex or Datalog-style CRPQ",
    )
    explain.add_argument("graph", help="fig2, fig3, or a graph JSON file")
    explain.add_argument("query", help="RPQ regex, or CRPQ if it contains ':-'")
    explain.add_argument(
        "--planner",
        default="cost",
        choices=("cost", "greedy"),
        help="atom ordering to explain for CRPQs (default: cost)",
    )
    explain.add_argument(
        "--json", action="store_true", help="machine-readable plan report"
    )
    explain.set_defaults(handler=_cmd_local)

    profile = commands.add_parser(
        "profile",
        help="execute a query under the tracer and print its span tree "
        "(wall times, counters, estimated vs. actual cardinalities)",
    )
    profile.add_argument("graph", help="fig2, fig3, or a graph JSON file")
    profile.add_argument("query", help="RPQ regex, or CRPQ if it contains ':-'")
    profile.add_argument(
        "--planner",
        default=None,
        choices=("cost", "greedy"),
        help="CRPQ atom ordering (default: the engine's cost planner)",
    )
    profile.add_argument(
        "--json",
        action="store_true",
        help="print spans + engine stats (with the derived block) as JSON",
    )
    profile.add_argument(
        "--shards", metavar="H:P,H:P,...",
        help="profile against a running shard fleet instead: the graph is "
        "partitioned across it and the stitched cross-process span tree "
        "(coordinator rounds + per-shard frontier steps) is rendered",
    )
    add_fleet_flags(profile)
    profile.set_defaults(handler=_cmd_profile)

    workload = commands.add_parser(
        "workload",
        help="workload-scale execution of synthetic query logs "
        "(the Section 6.2 log study, batched)",
    )
    workload_commands = workload.add_subparsers(dest="workload_command", required=True)
    wrun = workload_commands.add_parser(
        "run",
        help="generate a query log and evaluate it through the batch executor",
    )
    wrun.add_argument("graph", help="fig2, fig3, a graph JSON file, or 'random'")
    wrun.add_argument(
        "--queries", type=int, default=100, help="log size (default 100)"
    )
    wrun.add_argument("--log-seed", type=int, default=0, help="query-log RNG seed")
    wrun.add_argument(
        "--labels",
        help="comma-separated query labels (default: the graph's labels; "
        "for 'random', the 8-letter benchmark alphabet)",
    )
    wrun.add_argument(
        "--nodes", type=int, default=150, help="'random' graph: node count"
    )
    wrun.add_argument(
        "--edges", type=int, default=1600, help="'random' graph: edge count"
    )
    wrun.add_argument(
        "--graph-seed", type=int, default=0, help="'random' graph: RNG seed"
    )
    wrun.add_argument(
        "--baseline",
        action="store_true",
        help="also run the sequential seed path, verify identical answers, "
        "and report the speedup",
    )
    wrun.add_argument(
        "--stats",
        action="store_true",
        help="include aggregated engine counters/timers in the report",
    )
    wrun.add_argument(
        "--trace-out",
        metavar="FILE.jsonl",
        help="trace every unique query and write one JSON record per line "
        "({query, source, seconds, trace}) to this file",
    )
    wrun.add_argument(
        "--slow-log",
        type=int,
        default=0,
        metavar="N",
        help="keep the N slowest queries (with full traces) and list them "
        "in the report digest",
    )
    wrun.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write the merged latency histogram and engine counters in "
        "Prometheus text exposition format",
    )
    add_budget_flags(wrun)
    wrun.set_defaults(handler=_cmd_workload_run)

    serve = commands.add_parser(
        "serve",
        help="run the resident query service (JSON-lines TCP + HTTP "
        "/query /healthz /metrics; SIGTERM drains gracefully)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7687,
        help="listening port (0 picks a free port; the bound address is "
        "announced as a JSON line on stdout)",
    )
    serve.add_argument(
        "--graphs", nargs="*", metavar="NAME=FILE.json",
        help="extra graphs to preload next to the built-in fig2/fig3",
    )
    serve.add_argument(
        "--max-concurrency", type=int, default=8,
        help="worker slots: queries executing at once (default 8)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=32,
        help="requests allowed to wait for a slot before fast rejection",
    )
    serve.add_argument(
        "--queue-timeout", type=float, default=2.0,
        help="seconds a queued request may wait before the typed "
        "'overloaded' rejection",
    )
    serve.add_argument(
        "--query-timeout", "--default-timeout", dest="query_timeout",
        type=float, default=30.0,
        help="default per-query wall-clock budget in seconds (requests may "
        "ask for less via their 'timeout' parameter, never more)",
    )
    serve.add_argument(
        "--max-request-bytes", type=int, default=1 << 20,
        help="request size limit (default 1 MiB)",
    )
    serve.add_argument(
        "--answer-cache", type=int, default=512,
        help="answer-cache entries (default 512)",
    )
    serve.add_argument(
        "--metrics-out", metavar="FILE",
        help="write the Prometheus exposition here on graceful drain",
    )
    serve.add_argument(
        "--trace-out", metavar="FILE.jsonl",
        help="enable the span tracer and stream server.request trees here",
    )
    serve.add_argument(
        "--data-dir", metavar="DIR",
        help="durable catalog directory (SQLite-backed; graphs survive "
        "restarts, uploads and mutations write through, SIGTERM drain "
        "flushes the journal)",
    )
    serve.add_argument(
        "--max-resident-edges", type=int, metavar="N",
        help="LRU budget for lazily-loaded label segments per stored graph "
        "(default: unbounded; only meaningful with --data-dir)",
    )
    serve.set_defaults(handler=_cmd_serve)

    store = commands.add_parser(
        "store",
        help="maintain a durable catalog directory offline "
        "(import/export/ls/compact)",
    )
    store_commands = store.add_subparsers(
        dest="store_command", required=True, metavar="COMMAND"
    )
    store_import = store_commands.add_parser(
        "import", help="snapshot a graph (file or fig2/fig3) into the store"
    )
    store_import.add_argument("--data-dir", required=True, metavar="DIR")
    store_import.add_argument("name", help="catalog name to store under")
    store_import.add_argument("file", help="graph JSON file, or fig2/fig3")
    store_export = store_commands.add_parser(
        "export", help="write a stored graph as JSON (snapshot ⊕ journal)"
    )
    store_export.add_argument("--data-dir", required=True, metavar="DIR")
    store_export.add_argument("name")
    store_export.add_argument("file", help="output path, or - for stdout")
    store_ls = store_commands.add_parser(
        "ls", help="list the store manifest (kind, counts, versions)"
    )
    store_ls.add_argument("--data-dir", required=True, metavar="DIR")
    store_ls.add_argument("--json", action="store_true")
    store_compact = store_commands.add_parser(
        "compact", help="fold the mutation journal back into the snapshot"
    )
    store_compact.add_argument("--data-dir", required=True, metavar="DIR")
    store_compact.add_argument("name", nargs="?", help="one graph (default: all)")
    store.set_defaults(handler=_cmd_store)

    shard_serve = commands.add_parser(
        "shard-serve",
        help="launch N shard workers (each a full 'repro serve'), "
        "distribute the given graphs across them, and run until SIGTERM",
    )
    shard_serve.add_argument(
        "--shards", type=int, default=2, metavar="N",
        help="number of shard worker processes (default 2)",
    )
    shard_serve.add_argument("--host", default="127.0.0.1")
    shard_serve.add_argument(
        "--ports", metavar="P1,P2,...",
        help="comma-separated worker ports (default: OS-assigned); the "
        "bound cluster is announced as a JSON line on stdout",
    )
    shard_serve.add_argument(
        "--graphs", nargs="*", metavar="NAME=FILE.json",
        help="graphs to distribute across the fleet at startup",
    )
    shard_serve.add_argument(
        "--partition", default="hash", choices=("hash", "edge-cut"),
        help="partitioning strategy for the distributed graphs",
    )
    shard_serve.add_argument(
        "--query-timeout", type=float, default=30.0,
        help="per-query wall-clock budget each worker enforces",
    )
    shard_serve.add_argument(
        "--metrics-out", metavar="FILE",
        help="periodically write the merged fleet metrics (Prometheus "
        "text exposition) to this file",
    )
    shard_serve.add_argument(
        "--metrics-interval", type=float, default=5.0, metavar="SECONDS",
        help="seconds between fleet metrics dumps (default 5)",
    )
    shard_serve.add_argument(
        "--heartbeat-interval", type=float, default=1.0, metavar="SECONDS",
        help="seconds between fleet health probes; a worker missing 3 "
        "probes (or whose process exited) is restarted on its announced "
        "port and re-seeded; 0 disables supervision (default 1)",
    )
    shard_serve.add_argument(
        "--max-restarts", type=int, default=3, metavar="N",
        help="restart budget per worker per 60s window; a worker "
        "crash-looping past it is left down (default 3)",
    )
    add_replica_flags(shard_serve)
    shard_serve.set_defaults(handler=_cmd_shard_serve)

    query = commands.add_parser(
        "query",
        help="send one query to a running server (repro serve) and print "
        "its answers",
    )
    target = query.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "--connect", metavar="HOST:PORT",
        help="server address, e.g. 127.0.0.1:7687",
    )
    target.add_argument(
        "--shards", metavar="H:P,H:P,...",
        help="shard fleet addresses: the graph argument (fig2/fig3/file) "
        "is partitioned across the fleet and the query runs scatter-gather",
    )
    add_fleet_flags(query)
    add_replica_flags(query)
    query.add_argument(
        "graph",
        help="cataloged graph name (with --connect), or a graph spec "
        "fig2/fig3/file.json to distribute (with --shards)",
    )
    query.add_argument("query", help="RPQ regex, or CRPQ if it contains ':-'")
    query.add_argument("--source", help="restrict the RPQ to one source node")
    query.add_argument(
        "--explain", action="store_true",
        help="ask the server for the plan instead of executing",
    )
    query.add_argument("--json", action="store_true", help="JSON output")
    add_budget_flags(query)
    query.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="retry idempotent requests up to N times on lost connections "
        "or 'overloaded' rejections (exponential backoff with jitter)",
    )
    query.set_defaults(handler=_cmd_query)

    cluster_stats = commands.add_parser(
        "cluster-stats",
        help="fetch every shard's metrics registry and print the exact "
        "merge (Prometheus text, or JSON with --json)",
    )
    cluster_stats.add_argument(
        "--shards", required=True, metavar="H:P,H:P,...",
        help="shard fleet addresses to aggregate",
    )
    cluster_stats.add_argument(
        "--json", action="store_true",
        help="JSON export (counters + bucketed histograms) instead of the "
        "Prometheus text exposition",
    )
    cluster_stats.add_argument(
        "--out", metavar="FILE",
        help="write the exposition to a file instead of stdout",
    )
    cluster_stats.set_defaults(handler=_cmd_cluster_stats)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    from repro.engine.limits import BudgetExceeded
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceeded as exc:
        return _report_trip(args, exc)
    except ReproError as exc:
        from repro.server.protocol import error_envelope

        error = error_envelope(exc)
        print(f"error [{error['code']}]: {error['message']}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via repro.__main__
    raise SystemExit(main())
