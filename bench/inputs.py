"""Seeded input generation: graphs, query logs, operation streams, edits.

Everything here is a pure function of its ``seed``; the program under test
receives only what these functions return (graphs, query strings, edit
dicts).

What the seed varies and what it does not.  The *shape mix* of the query
log is part of each workload's definition, like its graph size: it is drawn
once from ``workloads.querylog.generate_query_log`` with the fixed
:data:`SHAPE_SEED`, so every seed runs the same number of single labels,
chains, starred disjunctions and nested expressions.  The seed draws the
*instance*: the graph's edges, which graph label each Zipf popularity rank
maps to, the order of the log, the sources, the popularity ranking of the
server's working set and the edits.  (``random_graph`` labels edges
uniformly, so permuting labels keeps every instance statistically alike —
that is what lets ten seeds agree within the benchmark's bounds.)
"""

from __future__ import annotations

import random
from itertools import accumulate

from repro.graph.generators import random_graph
from repro.regex.ast import to_string
from repro.workloads.querylog import generate_query_log

LABELS = tuple(f"p{index}" for index in range(8))

#: Seed of the query-log *shape* draw (see the module docstring).
SHAPE_SEED = 62

#: Edge density of every benchmark graph: 8 edges per node over 8 labels,
#: i.e. each single-label subgraph sits at the critical mean degree 1, a
#: two-label disjunction at 2 (giant component), as in the issue's sizes.
EDGES_PER_NODE = 8

#: CRPQ templates: the conjunctive queries the paper's examples and the
#: repository's own CRPQ benchmark use, with their labels abstracted to
#: ``{a}``, ``{b}``, ``{c}`` and instantiated by label rotation.  In order:
#: Example 13's triangle q1 and its q2 (two attributes of a node reached by
#: a one-or-two-step path), the two-cycle of Section 3's homomorphism
#: example, ``benchmarks/bench_crpq.py``'s starred atom ending in a
#: constant, and Example 17's pair of attributes joined by a ``+`` path.
CRPQ_TEMPLATES = (
    "q(x1, x2, x3) :- {a}(x1, x2), {b}(x1, x3), {c}(x2, x3)",
    "q(x, x1, x2) :- {a}(y, x1), {b}(y, x2), ({c}.{c}?)(x, y)",
    "q(x, y) :- {a}(x, y), {b}(y, x)",
    "q(x, z) :- {a}*(x, y), {b}(y, z), {c}(z, 'v0')",
    "q(x1, x2) :- {a}(y1, x1), {a}(y2, x2), {b}+(y1, y2)",
)


def graph_for(seed: int, nodes: int):
    return random_graph(nodes, nodes * EDGES_PER_NODE, labels=LABELS, seed=seed)


def permuted_labels(seed: int) -> list[str]:
    labels = list(LABELS)
    random.Random(f"labels-{seed}").shuffle(labels)
    return labels


def query_log(seed: int, count: int) -> list[str]:
    """``count`` RPQ texts: fixed shape mix, seeded labels and order."""
    log = generate_query_log(count, labels=permuted_labels(seed), seed=SHAPE_SEED)
    texts = [to_string(regex) for _shape, regex in log]
    random.Random(f"order-{seed}").shuffle(texts)
    return texts


def crpq_queries(seed: int, rotations: int) -> list[str]:
    """Every template instantiated over ``rotations`` label rotations."""
    labels = permuted_labels(seed)
    queries = []
    for template in CRPQ_TEMPLATES:
        for rotation in range(rotations):
            a, b, c = (labels[(rotation + k) % len(labels)] for k in range(3))
            queries.append(template.format(a=a, b=b, c=c))
    return queries


def lib_ops(seed: int, rpq_count: int, crpq_rotations: int) -> list[tuple[str, str]]:
    """The ``lib_relation`` pass: ``(kind, query text)`` in a seeded order."""
    ops = [("rpq", text) for text in query_log(seed, rpq_count)]
    ops += [("crpq", text) for text in crpq_queries(seed, crpq_rotations)]
    random.Random(f"lib-{seed}").shuffle(ops)
    return ops


def is_single_label(query: str) -> bool:
    """Single labels are the cheap, instance-stable op every set-up checks
    its first answer with."""
    return query in LABELS


def point_pairs(seed: int, nodes: int, count: int) -> list[tuple[str, str]]:
    """``count`` distinct ``(query, source)`` pairs, in popularity order.

    The pair at popularity rank ``i`` has the ``i``-th shape of the fixed
    :data:`SHAPE_SEED` draw, so every seed gives the popular ranks (which
    the cache keeps) and the long tail (which it keeps evicting) the same
    shape mix — mostly single labels, a thin starred tail; the seed draws
    labels and sources.  (``count`` must leave the most popular label, a
    fifth of all pairs, enough distinct sources: at most ``4 * nodes``.)
    """
    if count > 4 * nodes:
        raise ValueError("point_pairs: too many pairs for so few nodes")
    rng = random.Random(f"pairs-{seed}")
    shapes = generate_query_log(count, labels=permuted_labels(seed), seed=SHAPE_SEED)
    pairs: dict[tuple[str, str], None] = {}
    for _shape, regex in shapes:
        query = to_string(regex)
        while True:
            pair = (query, f"v{rng.randrange(nodes)}")
            if pair not in pairs:
                break
        pairs[pair] = None
    return list(pairs)


def zipf_stream(seed, population: int, exponent: float = 1.0):
    """An endless stream of indices ``0..population-1`` with Zipf weights
    (index = popularity rank), drawn in seeded chunks."""
    rng = random.Random(f"zipf-{seed}")
    cumulative = list(
        accumulate(1.0 / (rank + 1) ** exponent for rank in range(population))
    )
    indices = range(population)
    while True:
        yield from rng.choices(indices, cum_weights=cumulative, k=4096)


def shard_ops(
    seed: int, nodes: int, count: int, batch_sources: int
) -> list[tuple[str, tuple[str, ...]]]:
    """``count`` distinct ``(query, sources)`` ops in a seeded order.

    Four ops in five have one source, every fifth has ``batch_sources``;
    which shape runs at which width is fixed by :data:`SHAPE_SEED`.  The
    seed draws labels, sources and order.
    """
    shapes = generate_query_log(count, labels=permuted_labels(seed), seed=SHAPE_SEED)
    rng = random.Random(f"shard-{seed}")
    ops: dict[tuple, None] = {}
    for position, (_shape, regex) in enumerate(shapes):
        query = to_string(regex)
        width = min(batch_sources, nodes) if position % 5 == 4 else 1
        while True:
            sources = tuple(
                sorted(f"v{index}" for index in rng.sample(range(nodes), width))
            )
            if (query, sources) not in ops:
                break
        ops[(query, sources)] = None
    ordered = list(ops)
    rng.shuffle(ordered)
    return ordered


def store_blocks(seed: int, nodes: int, reads: int, writes: int, edits: int):
    """An endless stream of ``(reads, write batches)`` blocks.

    A block is ``reads`` single-source ``(query, source)`` reads followed by
    ``writes`` batches of ``edits`` fresh ``add_edge`` edits each (new edge
    ids, existing endpoints, uniform labels — the same law ``random_graph``
    draws from).  The reads walk the fixed :data:`SHAPE_SEED` shape
    sequence, so every seed reads the same shape mix in the same order; the
    seed draws labels, sources and edits.
    """
    rng = random.Random(f"store-{seed}")
    shapes = generate_query_log(4096, labels=permuted_labels(seed), seed=SHAPE_SEED)
    queries = [to_string(regex) for _shape, regex in shapes]
    position = serial = 0
    while True:
        block_reads = []
        for _ in range(reads):
            block_reads.append(
                (queries[position % len(queries)], f"v{rng.randrange(nodes)}")
            )
            position += 1
        batches = []
        for _ in range(writes):
            batch = []
            for _ in range(edits):
                batch.append(
                    {
                        "kind": "add_edge",
                        "id": f"w{serial}",
                        "src": f"v{rng.randrange(nodes)}",
                        "tgt": f"v{rng.randrange(nodes)}",
                        "label": rng.choice(LABELS),
                    }
                )
                serial += 1
            batches.append(batch)
        yield block_reads, batches
