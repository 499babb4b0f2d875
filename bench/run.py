"""The repository's benchmark: five workloads, end to end and per layer.

    python3 bench/run.py --seed 0                  # everything, human-readable
    python3 bench/run.py --workload server_point --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --repeat 10               # ten seeds: spreads, bounds

``--trace 0`` is the untraced run that yields the end-to-end metrics;
``--trace 1`` is the separate traced run that yields the per-layer metrics,
writes ``bench/out/trace-<workload>.jsonl`` and prints the flame table.
Without ``--trace`` both are run.  Every metric is printed by name with its
unit, and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")
#: The driver allows a run 180 s; give up (and tear everything down) first.
WATCHDOG_SECONDS = 170


def _bootstrap() -> None:
    """Make ``bench`` and the program under test importable from a bare
    checkout (the driver sets no PYTHONPATH)."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.exit(f"error: the program under test is missing ({source}/repro)")
    for path in (source, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def _pin_hash_seed() -> None:
    """Re-exec with ``PYTHONHASHSEED=0`` (inherited by every server spawned).

    String hashing is randomised per process; set iteration order follows
    it, and with it the CRPQ planner's tie-breaks and binding order, so the
    kernel's exact counts differ from process to process unless it is pinned.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


class WatchdogExpired(BaseException):
    """Raised by SIGALRM; a BaseException so no ``except Exception`` in a
    workload swallows it and every ``finally`` still runs."""


def _on_alarm(signum, frame):
    raise WatchdogExpired(f"run exceeded {WATCHDOG_SECONDS} s")


def _workloads() -> dict:
    """Workload name -> ``(module, full sizes)``."""
    from bench import durable, lib_relation, server_point, shard_partitioned

    return {
        "lib_relation": (lib_relation, lib_relation.Sizes()),
        "server_point": (server_point, server_point.Sizes()),
        "shard_partitioned": (shard_partitioned, shard_partitioned.Sizes()),
        "store_mutate_read": (durable, durable.MUTATE_READ),
        "store_write_burst": (durable, durable.WRITE_BURST),
    }


def _check_expected(workload: str, seed: int, exact: dict, notes: list) -> bool:
    """For the pinned seed, the exact counts must equal the committed ones."""
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        expected = json.load(handle)
    if seed != expected["seed"]:
        return True
    pinned = expected["workloads"].get(workload, {})  # none yet while re-pinning
    changed = {
        key: (pinned[key], exact[key])
        for key in pinned
        if key in exact and exact[key] != pinned[key]
    }
    for key, (want, got) in changed.items():
        notes.append(f"expected.json: {workload}.{key} was {want}, now {got}")
    return not changed


def run_one(
    workload: str, seed: int, seconds: float, trace: int,
    sizes=None, out_dir: str = OUT_DIR,
) -> dict:
    """One run of one workload; the contract's result object plus notes.

    ``sizes=None`` is the full size, for which the committed exact counts
    of ``bench/expected.json`` are enforced.
    """
    from bench import catalog, durable
    from bench.spans import flame_table, span_cost_seconds

    module, full_sizes = _workloads()[workload]
    full_size = sizes is None
    sizes = sizes if sizes is not None else full_sizes
    # only the durable workloads need a place for their data directory
    extra = {"out_dir": out_dir} if module is durable else {}
    notes: list[str] = []
    os.makedirs(out_dir, exist_ok=True)

    if trace == 0:
        result = module.run_untraced(seed, seconds, sizes, **extra)
        metrics = result["metrics"]
        units = catalog.END_TO_END_UNITS
        exact = {"answer_rows": result["answer_rows"]} if "answer_rows" in result else {}
        samples = result.get("samples", {})
        notes.append(
            "samples: " + ", ".join(f"{kind}={count}" for kind, count in samples.items())
        )
    else:
        result = module.run_traced(seed, sizes, **extra)
        recorder = result["recorder"]
        layer_seconds = recorder.layer_self_seconds()
        # What the client waited beyond the replayed work (socket, event
        # loop, admission, worker hop, scheduling): the in-process replay
        # cannot see it, so the workload books it to the layer that spent it.
        for layer, seconds in result["remainders"].items():
            layer_seconds[layer] = layer_seconds.get(layer, 0.0) + seconds
        layer_seconds = dict(sorted(layer_seconds.items(), key=lambda kv: -kv[1]))
        attributed = {
            layer: value for layer, value in layer_seconds.items() if layer != "bench"
        }
        total = sum(attributed.values()) or 1.0
        metrics = {name: 0.0 for name, _unit, _better in catalog.PER_LAYER}
        metrics.update(result["metrics"])
        for layer in catalog.LAYERS:
            metrics[f"self_share.{layer}"] = attributed.get(layer, 0.0) / total
        metrics["bench.trace_overhead_share"] = (
            len(recorder.spans) * span_cost_seconds() / max(result["replay_wall"], 1e-9)
        )
        units = catalog.PER_LAYER_UNITS
        exact = result["exact"]
        trace_path = os.path.join(out_dir, f"trace-{workload}.jsonl")
        recorder.write_jsonl(trace_path)
        notes.append(f"trace: {len(recorder.spans)} spans -> {os.path.relpath(trace_path, ROOT)}")
        notes.append("flame table (self time per layer, replayed sample):")
        notes.append(flame_table(layer_seconds))
        notes.append("exact counts: " + json.dumps(exact, sort_keys=True))

    unknown = set(metrics) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from bench/catalog.py: {sorted(unknown)}")
    correct = result["failed"] == 0 and result.get("acked_writes_lost", 0) == 0
    if full_size and exact:
        correct = _check_expected(workload, seed, exact, notes) and correct
    return {
        "workload": workload,
        "trace": trace,
        "correct": correct,
        "attempted": max(int(result["attempted"]), 1),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
        "exact": exact,
        "notes": notes,
    }


def _failed_to_start(workload: str, trace: int, error: BaseException) -> dict:
    """A workload that cannot run counts as entirely failed; the others
    still run."""
    return {
        "workload": workload,
        "trace": trace,
        "correct": False,
        "attempted": 1,
        "failed": 1,
        "metrics": {},
        "exact": {},
        "notes": [f"could not run: {error!r}"],
    }


def _guarded(workload: str, seed: int, seconds: float, trace: int) -> dict:
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WATCHDOG_SECONDS)
    try:
        return run_one(workload, seed, seconds, trace)
    except (Exception, WatchdogExpired) as error:  # noqa: BLE001 - reported below
        traceback.print_exc(file=sys.stderr)
        return _failed_to_start(workload, trace, error)
    finally:
        signal.alarm(0)


def _print_run(result: dict) -> None:
    kind = "traced, per-layer" if result["trace"] else "untraced, end-to-end"
    print(f"== {result['workload']} ({kind}) ==")
    for name, entry in result["metrics"].items():
        print(f"{name:<52} {entry['value']:>16.6g} {entry['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"{'failed_share':<52} {share:>16.6g} ratio   "
          f"({result['failed']} of {result['attempted']})")
    for note in result["notes"]:
        print(note if note.startswith("  ") else f"# {note}")


def _contract_line(result: dict) -> str:
    return json.dumps(
        {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


# ----------------------------------------------------------------------
# several runs: each one a fresh process, as the driver runs them
# ----------------------------------------------------------------------
def _child(workload: str, seed: int, seconds: float, trace: int, relay: bool) -> "dict | None":
    """One run in its own process; its result line, or ``None`` if it died.

    A fresh process per run keeps one run's caches, heap and peak memory out
    of the next, and a workload that crashes cannot take the others along.
    """
    command = [
        sys.executable, os.path.join(BENCH_DIR, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = done.stdout.splitlines()
    if relay:
        print("\n".join(lines[:-1]))
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def _run_all(workloads, traces, seed: int, seconds: float) -> int:
    """Several workloads or both kinds of run; one combined result line."""
    results = {
        (workload, trace): _child(workload, seed, seconds, trace, relay=True)
        for workload in workloads
        for trace in traces
    }
    ran = [result for result in results.values() if result is not None]
    died = len(results) - len(ran)
    print(json.dumps({
        "correct": not died and all(result["correct"] for result in ran),
        "attempted": sum(result["attempted"] for result in ran) + died,
        "failed": sum(result["failed"] for result in ran) + died,
        "metrics": {
            f"{workload}:{name}": entry
            for (workload, _trace), result in results.items() if result is not None
            for name, entry in result["metrics"].items()
        },
    }))
    return 1 if died else 0


def _repeat(workloads, seed: int, seconds: float, count: int,
            write_bounds: bool, against: "str | None") -> int:
    """``count`` untraced runs per workload on ``count`` seeds.

    Prints median, quartiles and spread per (workload, metric) pair and the
    bound the spread implies, and saves the set to ``bench/out/``.  With
    ``against`` (an earlier saved set) each pair's median is compared with
    that set's under the pair's bound in ``bench/bounds.json``.
    """
    from bench import catalog
    from bench.measure import quartile_spread

    stated = {name: bound for name, _unit, _better, bound in catalog.END_TO_END}
    pairs: dict[str, dict] = {}
    medians: dict[str, dict] = {}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        for offset in range(count):
            result = _child(workload, seed + offset, seconds, 0, relay=False)
            if result is None:
                print(f"# {workload} seed {seed + offset}: no result", file=sys.stderr)
                return 1
            if not result["correct"]:
                print(f"# {workload} seed {seed + offset}: incorrect", file=sys.stderr)
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
        print(f"== {workload}: {count} runs ==")
        pairs[workload], medians[workload] = {}, {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            pair = catalog.pair_bound(stated[name], quartile_spread(series))
            pairs[workload][name] = pair
            medians[workload][name] = median
            flag = "  UNRESOLVED: spread too wide to gate" if pair.get("unresolved") else ""
            print(
                f"{name:<12} median {median:>11.6g}  q1 {q1:>11.6g}  q3 {q3:>11.6g}"
                f"  spread {pair['spread']:6.3f} -> bound {pair['bound']:5.3f} "
                f"{catalog.END_TO_END_UNITS[name]}{flag}"
            )
            print(f"{'':<12} " + " ".join(f"{value:.4g}" for value in series))

    os.makedirs(OUT_DIR, exist_ok=True)
    saved = os.path.join(OUT_DIR, f"repeat-seed{seed}-x{count}.json")
    with open(saved, "w", encoding="utf-8") as handle:
        json.dump({"medians": medians, "pairs": pairs}, handle, indent=2)
    print(f"# saved {os.path.relpath(saved, ROOT)}")
    if write_bounds:
        _write_bounds(pairs, [seed, seed + count - 1], seconds)
    return _compare(against, medians, pairs) if against else 0


def _write_bounds(pairs: dict, seeds: list, seconds: float) -> None:
    """Fold one set's pairs into ``bench/bounds.json`` and re-render
    ``BENCHMARK.json``.

    The host is quiet for some stretches and noisy for others, and a bound
    has to hold in both: per pair the file keeps the widest spread any
    recorded set has seen.  Delete it to start over.
    """
    from bench import catalog

    recorded = {"sets": [], "pairs": {}}
    if os.path.exists(catalog.BOUNDS_PATH):
        with open(catalog.BOUNDS_PATH, encoding="utf-8") as handle:
            recorded = json.load(handle)
    for workload, metrics in pairs.items():
        kept = recorded["pairs"].setdefault(workload, {})
        for name, pair in metrics.items():
            if name not in kept or pair["spread"] > kept[name]["spread"]:
                kept[name] = pair
    recorded["sets"].append(
        {"seeds": seeds, "seconds": seconds, "workloads": sorted(pairs)}
    )
    with open(catalog.BOUNDS_PATH, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=2, sort_keys=True)
        handle.write("\n")
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as handle:
        json.dump(catalog.benchmark_json(), handle, indent=2)
        handle.write("\n")


def _compare(against: str, medians: dict, pairs: dict) -> int:
    """This set's medians against an earlier set's, pair by pair; 1 if any
    is worse by more than its bound.  A pair whose run-to-run spread in
    either set is wider than its bound is unresolved, not unchanged."""
    from bench import catalog

    with open(against, encoding="utf-8") as handle:
        earlier = json.load(handle)
    bounds = catalog.load_bounds()
    better = {name: direction for name, _unit, direction, _bound in catalog.END_TO_END}
    worse_pairs = 0
    print(f"== against {against}: share by which each median got worse ==")
    for workload, metrics in medians.items():
        for name, median in metrics.items():
            before = earlier["medians"][workload][name]
            change = (median - before) / before
            worse = change if better[name] == "lower" else -change
            bound = bounds[workload][name]["bound"]
            spread = max(
                pairs[workload][name]["spread"], earlier["pairs"][workload][name]["spread"]
            )
            if spread > bound:
                verdict = f"unresolved (spread {spread:.3f} > bound)"
            elif worse > bound:
                verdict = "WORSE"
                worse_pairs += 1
            else:
                verdict = "ok"
            print(f"{workload:<18} {name:<12} {worse:+7.3f}  bound {bound:5.3f}  {verdict}")
    return 1 if worse_pairs else 0


def _write_expected(seed: int) -> int:
    """Re-pin ``bench/expected.json`` from a traced run of every workload."""
    workloads = {}
    for workload in _workloads():
        result = _guarded(workload, seed, 0, 1)
        _print_run(result)
        if result["failed"]:
            print(f"# {workload} failed; expected.json not written", file=sys.stderr)
            return 1
        workloads[workload] = result["exact"]
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"seed": seed, "workloads": workloads}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    _bootstrap()
    from bench import catalog

    names = [name for name, _why in catalog.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS,
                        help="how long an untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0 = end-to-end run, 1 = per-layer traced run (default: both)")
    parser.add_argument("--repeat", type=int, metavar="N",
                        help="N untraced runs per workload on N seeds; print spreads")
    parser.add_argument("--write-bounds", action="store_true",
                        help="with --repeat: write bench/bounds.json and BENCHMARK.json")
    parser.add_argument("--against", metavar="FILE",
                        help="with --repeat: compare medians with an earlier saved set")
    parser.add_argument("--write-expected", action="store_true",
                        help="re-pin bench/expected.json from a traced run of --seed")
    args = parser.parse_args(argv)

    workloads = [args.workload] if args.workload else names
    if args.write_expected:
        return _write_expected(args.seed)
    if args.repeat:
        return _repeat(
            workloads, args.seed, args.seconds, args.repeat, args.write_bounds, args.against
        )

    if args.workload is None or args.trace is None:
        traces = (0, 1) if args.trace is None else (args.trace,)
        return _run_all(workloads, traces, args.seed, args.seconds)
    result = _guarded(args.workload, args.seed, args.seconds, args.trace)
    _print_run(result)
    print(_contract_line(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    _pin_hash_seed()
    sys.exit(main())
