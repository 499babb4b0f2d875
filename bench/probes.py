"""Per-layer probes: time one layer's public functions on a workload's own
inputs, outside the replayed operations (they feed metrics, not the flame
table).  Each returns ``{metric name: value}``."""

from __future__ import annotations

import time

from repro.engine.cache import alphabet_for, compile_uncached
from repro.engine.csr import CSRGraph
from repro.engine.intern import Interner
from repro.engine.partition import make_shard_map, partition_graph
from repro.graph.serialize import graph_from_dict, graph_to_dict
from repro.regex.parser import parse_regex

from bench import measure

REPEATS = 3


def timed(function, *args):
    """``(seconds, result)`` of one call."""
    started = time.perf_counter()
    result = function(*args)
    return time.perf_counter() - started, result


def _median_seconds(function, *args) -> float:
    return measure.median(timed(function, *args)[0] for _ in range(REPEATS))


def compile_probe(graph, texts) -> dict:
    """Parse, Glushkov construction and int lowering, per distinct query."""
    interner = Interner(graph)
    parse, build, lower = [], [], []
    for text in sorted(set(texts)):
        seconds, regex = timed(parse_regex, text)
        parse.append(seconds)
        seconds, compiled = timed(compile_uncached, regex, alphabet_for(regex, graph))
        build.append(seconds)
        lower.append(timed(compiled.int_plan, interner)[0])
    return {
        "regex.parse_us": measure.us(measure.median(parse)),
        "automata.glushkov_us": measure.us(measure.median(build)),
        "engine.cache.int_plan_us": measure.us(measure.median(lower)),
    }


def csr_probe(graph) -> dict:
    """Cold interner and CSR builds (what every write forces on the next
    read) and the snapshot's size."""
    csr = CSRGraph(graph)
    row_bytes = sum(
        len(array) * array.itemsize
        for rows in (csr.out_rows, csr.in_rows)
        for pair in rows
        for array in pair
    )
    return {
        "engine.intern.build_ms": measure.ms(_median_seconds(Interner, graph)),
        "engine.csr.build_ms": measure.ms(_median_seconds(CSRGraph, graph)),
        "engine.csr.bytes_per_edge": row_bytes / max(graph.num_edges, 1),
    }


def serialize_probe(graph) -> dict:
    document = graph_to_dict(graph)
    return {
        "graph.serialize.to_dict_ms": measure.ms(_median_seconds(graph_to_dict, graph)),
        "graph.serialize.from_dict_ms": measure.ms(
            _median_seconds(graph_from_dict, document)
        ),
    }


def partition_probe(graph, shards: int, strategy: str) -> dict:
    shard_map = make_shard_map(graph, shards, strategy)
    parts = partition_graph(graph, shard_map)
    edges = [part.num_edges for part in parts]
    cut = sum(
        shard_map.shard_of(src) != shard_map.shard_of(tgt)
        for _edge, src, tgt, _label in graph.iter_edge_records()
    )
    return {
        "engine.partition.partition_ms": measure.ms(
            _median_seconds(partition_graph, graph, shard_map)
        ),
        "engine.partition.edge_balance": max(edges) / (sum(edges) / len(edges)),
        "engine.partition.cut_share": cut / max(graph.num_edges, 1),
    }
