"""Catch-up differential: a caught-up CSR snapshot ≡ a freshly built one.

``get_csr`` no longer rebuilds after a write: it derives the snapshot of
the current version from the stale one and the records added since
(``CSRGraph.caught_up``).  Hypothesis interleaves every mutator the graphs
have — ``add_node``, ``add_edge`` (old and new labels, old and new
endpoints, parallel edges, self-loops), ``set_property``, node-label
refinement — with ``get_csr`` calls at random points and checks, after
every call:

* the caught-up snapshot equals a fresh ``CSRGraph(graph)`` as
  per-(node, label) out- and in-multisets, with equal ``num_nodes``,
  ``num_edges`` and ``version`` (int numberings may differ, so snapshots
  are compared decoded);
* every snapshot handed out earlier is bit-for-bit what it was when it was
  returned — catch-up writes no array, list or dict an older snapshot can
  reach — and still decodes to the graph of its own version;
* ``evaluate_rpq`` agrees with the naive ``use_index=False`` oracle;
* an ``IntPlan`` lowered before a write that keeps the label set is the
  same object after it, and is replaced when a label is added.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import kernel
from repro.engine.csr import CSRGraph, get_csr
from repro.engine.stats import EngineStats
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.graph.property_graph import PropertyGraph
from repro.rpq.evaluation import evaluate_rpq

NODES = [f"v{i}" for i in range(7)]
LABELS = "abcd"
QUERIES = ("a", "a.b*", "(a+d)*.c", "_*", "!{a}.d")

_node = st.sampled_from(NODES)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("csr")),
        st.tuples(st.just("node"), _node, st.sampled_from([None, "L", "M"])),
        st.tuples(st.just("edge"), _node, _node, st.sampled_from(LABELS)),
        st.tuples(st.just("prop"), st.integers(0, 50), st.sampled_from("pq"),
                  st.integers(0, 3)),
    ),
    max_size=25,
)


def decoded(csr: CSRGraph) -> dict:
    """The snapshot as ``{(direction, node, label): multiset of neighbours}``
    over node and label *objects*, plus its scalars."""
    interner = csr.interner
    rows: dict = {"nodes": Counter(interner.nodes), "edges": csr.num_edges,
                  "version": csr.version}
    assert csr.num_nodes == interner.num_nodes == len(interner.nodes)
    assert len(csr.out_rows) == len(csr.in_rows) == interner.num_labels
    for direction, table in (("out", csr.out_rows), ("in", csr.in_rows)):
        for label_int, (offsets, targets) in enumerate(table):
            assert len(offsets) == csr.num_nodes + 1
            assert offsets[0] == 0 and offsets[-1] == len(targets)
            for node_int in range(csr.num_nodes):
                run = targets[offsets[node_int] : offsets[node_int + 1]]
                if run:
                    key = (direction, interner.node(node_int), interner.label(label_int))
                    rows[key] = Counter(interner.node(t) for t in run)
    return rows


def frozen(csr: CSRGraph) -> tuple:
    """Every byte a snapshot can reach, copied."""
    interner = csr.interner
    return (
        csr.version, csr.num_nodes, csr.num_edges,
        [(o.tobytes(), t.tobytes()) for o, t in csr.out_rows],
        [(o.tobytes(), t.tobytes()) for o, t in csr.in_rows],
        interner.version, interner.uid, list(interner.nodes),
        list(interner.labels), dict(interner._node_ids), dict(interner._label_ids),
    )


def apply(graph, step, serial: int) -> None:
    kind = step[0]
    is_property = isinstance(graph, PropertyGraph)
    if kind == "node":
        if is_property:
            graph.add_node(step[1], label=step[2])  # may refine a label
        else:
            graph.add_node(step[1])
    elif kind == "edge":
        graph.add_edge(f"e{serial}", step[1], step[2], step[3])
    elif kind == "prop" and is_property:
        objects = sorted(graph.nodes) + sorted(graph.edges)
        if objects:
            graph.set_property(objects[step[1] % len(objects)], step[2], step[3])


@settings(max_examples=150, deadline=None)
@given(steps=_steps, property_graph=st.booleans(), warm=st.booleans())
def test_caught_up_snapshot_equals_fresh_build(steps, property_graph, warm):
    graph = PropertyGraph() if property_graph else EdgeLabeledGraph()
    if warm:
        graph.add_edge("seed0", "v0", "v1", "a")
        graph.add_edge("seed1", "v0", "v1", "a")  # parallel
        graph.add_edge("seed2", "v1", "v1", "b")  # self-loop
    stats = EngineStats()
    handed_out = []  # (snapshot, its bytes, its decoding) at hand-out time
    for serial, step in enumerate(steps + [("csr",)]):
        if step[0] != "csr":
            apply(graph, step, serial)
            continue
        csr = get_csr(graph, stats)
        assert csr.version == graph.version
        assert csr.num_nodes == graph.num_nodes
        assert csr.num_edges == graph.num_edges
        assert decoded(csr) == decoded(CSRGraph(graph))
        handed_out.append((csr, frozen(csr), decoded(csr)))
        for query in QUERIES:
            assert evaluate_rpq(query, graph) == evaluate_rpq(
                query, graph, use_index=False
            )
    assert stats.get("csr_builds") == 1  # everything after the first is a patch
    versions = {snapshot.version for snapshot, _, _ in handed_out}
    assert stats.get("csr_patches") == len(versions) - 1
    for snapshot, its_bytes, its_decoding in handed_out:
        assert frozen(snapshot) == its_bytes
        assert decoded(snapshot) == its_decoding


@settings(max_examples=100, deadline=None)
@given(steps=_steps)
def test_int_plan_survives_label_preserving_writes(steps):
    graph = PropertyGraph()
    graph.add_edge("seed0", "v0", "v1", "a")
    graph.add_edge("seed1", "v1", "v2", "b")
    compiled = kernel.compile_query("a.b*", graph)
    plan = compiled.int_plan(get_csr(graph).interner)
    for serial, step in enumerate(steps):
        labels = graph.labels
        apply(graph, step, serial)
        interner = get_csr(graph).interner
        after = compiled.int_plan(interner)
        if graph.labels == labels:
            assert after is plan
        else:
            assert after is not plan
            assert after.interner_uid == interner.uid
        plan = after
        assert evaluate_rpq("a.b*", graph) == evaluate_rpq(
            "a.b*", graph, use_index=False
        )
