"""Frontier wire codec and the shard-side step of the partitioned sweep.

The distributed RPQ evaluation (DESIGN.md §11) is the kernel's
origin-tracking sweep cut along shard boundaries.  A product pair
``(node, state)`` is a **packed int code** ``(position << state_bits) |
state_int`` over two *shared* orderings every process derives
independently:

* the **node order**: graph nodes sorted by ``repr`` — the same order
  :mod:`repro.graph.serialize` writes, identical in the coordinator and in
  every shard because each shard subgraph holds the full node set;
* the **state order**: the trimmed Glushkov NFA's states sorted by
  ``repr`` (:func:`repro.engine.cache.number_states`, the one numbering the
  coordinator's :func:`automaton_plan` and a shard's
  :class:`~repro.engine.cache.IntPlan` both use).  The automaton itself is
  a pure function of (regex text, alphabet), so the coordinator ships the
  *global* alphabet in every request — a shard compiling over only its
  local labels would trim differently and misnumber states.

A **frontier** maps codes to **origin bitmasks** (bit ``i`` = "reachable
from the ``i``-th source of the query"; the coordinator numbers them and a
shard only ever ORs and forwards them), exactly the kernel's multi-source
sweep state.  On the wire, a frontier is the sorted code list delta-encoded
(small ints, cheap JSON) plus a parallel list of hex masks.

:func:`local_frontier_step` is what the ``frontier_step`` protocol op runs
on a shard.  It owns no search of its own: it translates the received
codes from shared positions to the interner ids of the graph's CSR
snapshot, runs :func:`repro.engine.kernel.sweep_layers` — the relation
loop the single-node sweep runs — with this shard's ownership table, and
translates the answers and the cross-shard pairs back.  A step therefore
expands each code it reaches once, in the automaton's layer order, and
hands a cross pair the complete mask it reached within the step; the
layers order work inside this process only, so what the shards and the
coordinator exchange is the same codes and masks either way.  The
translation tables are derived once per snapshot (:func:`_numbering`),
not per step.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.engine.cache import DEFAULT_CACHE, CompiledQuery, number_states
from repro.engine.csr import CSRGraph, get_csr
from repro.engine.faults import fault_point
from repro.engine.kernel import sweep_layers
from repro.graph.edge_labeled import EdgeLabeledGraph, ObjectId


def node_order(graph: EdgeLabeledGraph) -> list[ObjectId]:
    """The shared node numbering: nodes sorted by ``repr``.

    Deterministic across processes (unlike ``iter_nodes`` order or interner
    ids) as long as node ids repr identically — which JSON-native ids, the
    only ones that survive the protocol, do.
    """
    return sorted(graph.iter_nodes(), key=repr)


class AutomatonPlan(NamedTuple):
    """A compiled query plus what the coordinator packs seed codes with."""

    compiled: CompiledQuery
    state_bits: int
    initial: tuple[int, ...]


def automaton_plan(query: str, alphabet, stats=None) -> AutomatonPlan:
    """Compile ``query`` over exactly ``alphabet`` with shared numbering.

    Every participant (coordinator and all shards) compiles the same query
    text over the same alphabet and numbers the states through
    :func:`~repro.engine.cache.number_states`, so the resulting state ints
    agree bit-for-bit; ``state_bits`` travels in each request as a cheap
    divergence check.
    """
    compiled = DEFAULT_CACHE.compile(query, frozenset(alphabet), stats=stats)
    _, state_bits, initial = number_states(compiled)
    return AutomatonPlan(compiled, state_bits, initial)


# ----------------------------------------------------------------------
# wire codec
# ----------------------------------------------------------------------
def encode_pairs(mapping: "dict[int, int]") -> dict:
    """``{code: mask}`` as sorted delta-encoded codes + parallel hex masks."""
    codes = sorted(mapping)
    deltas = []
    previous = 0
    for code in codes:
        deltas.append(code - previous)
        previous = code
    return {
        "codes": deltas,
        "masks": [format(mapping[code], "x") for code in codes],
    }


def decode_pairs(payload: dict) -> "dict[int, int]":
    """Invert :func:`encode_pairs` (raises ValueError on malformed input)."""
    if not isinstance(payload, dict):
        raise ValueError("frontier payload must be an object")
    deltas = payload.get("codes", [])
    masks = payload.get("masks", [])
    if not isinstance(deltas, list) or not isinstance(masks, list):
        raise ValueError("frontier 'codes' and 'masks' must be lists")
    if len(deltas) != len(masks):
        raise ValueError("frontier codes/masks length mismatch")
    mapping: dict[int, int] = {}
    code = 0
    for delta, mask in zip(deltas, masks):
        if not isinstance(delta, int) or isinstance(delta, bool):
            raise ValueError("frontier codes must be integers")
        code += delta
        if code < 0:
            raise ValueError("frontier codes must be non-negative")
        if not isinstance(mask, str):
            raise ValueError("frontier masks must be hex strings")
        mapping[code] = int(mask, 16)
    return mapping


def encode_mask(mask: int) -> str:
    """A bitmask as lowercase hex (ownership masks on the wire)."""
    return format(mask, "x")


def decode_mask(text) -> int:
    if not isinstance(text, str):
        raise ValueError("mask must be a hex string")
    return int(text, 16)


# ----------------------------------------------------------------------
# the shard-side step
# ----------------------------------------------------------------------
class _Numbering(NamedTuple):
    """One snapshot's shared node numbering against its interner ids."""

    owned_mask: int
    #: shared position -> interner id
    id_of: list[int]
    #: interner id -> shared position
    position_of: list[int]
    #: interner id -> 1 where this shard owns the node
    owned: bytes


def _numbering(csr: CSRGraph, owned_mask: int) -> _Numbering:
    """The numbering held with ``csr``, derived when absent.

    The ``repr`` sort of every node is most of what a step on a light
    frontier would cost, and it depends only on the snapshot's node list:
    it is computed once and kept on the snapshot, so it lasts exactly as
    long as the snapshot does (:func:`~repro.engine.csr.get_csr` makes a
    new one when the graph is written) and every partitioned graph a
    process holds has its own.  A shard is only ever sent its own
    ownership mask; a different one simply derives again.  Racing requests
    compute equal values and publish with one assignment.
    """
    held = csr.shard_numbering
    if held is not None and held.owned_mask == owned_mask:
        return held
    nodes = csr.interner.nodes
    id_of = sorted(range(len(nodes)), key=lambda node: repr(nodes[node]))
    position_of = [0] * len(nodes)
    for position, node in enumerate(id_of):
        position_of[node] = position
    owned = bytes((owned_mask >> position) & 1 for position in position_of)
    held = csr.shard_numbering = _Numbering(owned_mask, id_of, position_of, owned)
    return held


def local_frontier_step(
    graph: EdgeLabeledGraph,
    query: str,
    alphabet,
    state_bits: int,
    owned_mask: int,
    frontier: "dict[int, int]",
    *,
    stats=None,
    budget=None,
) -> dict:
    """Advance ``frontier`` to a local fixpoint over this shard's edges.

    ``frontier`` maps packed codes (owned by this shard) to the origin
    masks the coordinator found *novel*.  The kernel's relation loop runs
    from them over the graph's CSR rows with this shard's ownership table, so
    expansion stays within the owned node set: a successor owned elsewhere
    leaves the loop as a cross pair instead of being expanded.  A seed this
    shard does not own never enters the loop: it is an answer if its state
    is final, bounced back in ``cross``, and counted in ``bounced`` (the
    coordinator treats any as a desynchronized exchange).  Returns
    ``answers`` (node position -> origin mask for final-state pairs),
    ``cross`` (code -> origin mask for other shards), and expansion
    counters; the origin bits are opaque here.

    Raises ValueError when ``state_bits`` disagrees with the automaton this
    shard compiles — the divergence tripwire for a coordinator and shard
    that somehow built different automata — or when a code names a node
    position or a state that does not exist.
    """
    fault_point("shard.frontier_step")
    compiled = DEFAULT_CACHE.compile(query, frozenset(alphabet), stats=stats)
    csr = get_csr(graph, stats)
    plan = compiled.int_plan(csr.interner)
    if plan.state_bits != state_bits:
        raise ValueError(
            f"automaton mismatch: coordinator packed {state_bits} state bits, "
            f"shard compiled {plan.state_bits}"
        )
    _, id_of, position_of, owned = _numbering(csr, owned_mask)
    state_mask = plan.state_mask
    num_nodes = len(id_of)
    num_states = plan.num_states
    finals_mask = plan.finals_mask

    # Everything between here and the encoding is in interner-id space.
    seeds: list[tuple[int, int]] = []
    answer_masks: dict[int, int] = {}
    cross: dict[int, int] = {}
    bounced = 0
    for code, mask in frontier.items():
        position = code >> state_bits
        state = code & state_mask
        if not 0 <= position < num_nodes:
            raise ValueError(
                f"frontier code {code} names node position {position}; "
                f"the graph has {num_nodes} nodes"
            )
        if state >= num_states:
            raise ValueError(
                f"frontier code {code} names state {state}; "
                f"the automaton has {num_states} states"
            )
        if not mask:
            continue
        node = id_of[position]
        seed = (node << state_bits) | state
        if owned[node]:
            seeds.append((seed, mask))
        else:
            if (finals_mask >> state) & 1:
                answer_masks[node] = answer_masks.get(node, 0) | mask
            cross[seed] = mask
            bounced += 1
    expanded, relaxed, _rows = sweep_layers(
        plan, csr.out_rows, seeds, answer_masks,
        budget.tick if budget is not None else None, None,
        owned=owned, cross=cross,
    )
    answers = {position_of[node]: mask for node, mask in answer_masks.items()}
    cross = {
        (position_of[code >> state_bits] << state_bits) | (code & state_mask): mask
        for code, mask in cross.items()
    }
    if stats is not None:
        stats.count("frontier_steps")
        stats.count("frontier_expanded", expanded)
        stats.count("frontier_relaxed", relaxed)
        if bounced:
            stats.count("frontier_bounced", bounced)
    return {
        "answers": encode_pairs(answers),
        "cross": encode_pairs(cross),
        "expanded": expanded,
        "relaxed": relaxed,
        "bounced": bounced,
        "state_bits": state_bits,
    }
