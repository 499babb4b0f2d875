"""Fold-in-place compaction ≡ replay: hypothesis edit sequences.

``GraphStore.compact`` folds the journal tail into the node and edge tables
instead of rewriting the snapshot from a replayed graph.  The replay
(``load_graph``: the records through the graph's own mutators) is the
independent statement of what ``snapshot ⊕ journal`` means; these tests
hold the fold to it on edit sequences that exercise every journal rule:
node label refinement, property merges on nodes and on edges (old and
journaled ones), edges whose endpoints only the journal creates, several
batches, and edits buffered while the compaction runs.

After ``compact``: the stored graph equals the live one, the manifest's
counts and ``snapshot_version`` are exact, the journal is empty, and the
partial readers (``read_nodes``, ``read_segment``, ``label_counts``,
``graph_info``), which fold the same tail over the same rows, return what
they returned before.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.graph.property_graph import PropertyGraph
from repro.storage.store import GraphStore

from .test_store import assert_same_graph

NODES = [f"n{i}" for i in range(6)]
LABELS = ["Transfer", "Owns", 7, ""]

_node = st.sampled_from(NODES)
_props = st.dictionaries(
    st.sampled_from(["p", "q", 3]), st.one_of(st.integers(0, 5), st.none()),
    max_size=2,
)
_edits = st.lists(
    st.one_of(
        st.tuples(st.just("flush")),
        st.tuples(st.just("node"), _node, st.sampled_from([None, "Account", "Bank"]),
                  _props),
        st.tuples(st.just("edge"), _node, _node, st.sampled_from(LABELS), _props),
        st.tuples(st.just("prop"), st.integers(0, 50), st.sampled_from(["p", "z"]),
                  st.integers(0, 5)),
    ),
    max_size=20,
)


def apply(graph, edit, serial: int) -> None:
    kind = edit[0]
    is_property = isinstance(graph, PropertyGraph)
    if kind == "node":
        if is_property:
            graph.add_node(edit[1], label=edit[2], properties=edit[3])
        else:
            graph.add_node(edit[1])
    elif kind == "edge":
        if is_property:
            graph.add_edge(f"e{serial}", edit[1], edit[2], edit[3], properties=edit[4])
        else:
            graph.add_edge(f"e{serial}", edit[1], edit[2], edit[3])
    elif kind == "prop" and is_property:
        objects = sorted(graph.nodes) + sorted(graph.edges)
        if objects:
            graph.set_property(objects[edit[1] % len(objects)], edit[2], edit[3])


def partial_reads(store, name: str) -> dict:
    """What the journal-folding readers return, order-insensitively."""
    labels = store.labels(name)
    info = store.graph_info(name)
    return {
        "nodes": sorted(store.read_nodes(name), key=repr),
        "segments": {
            label: sorted(store.read_segment(name, label), key=repr)
            for label in labels
        },
        "label_counts": store.label_counts(name),
        "counts": (info["nodes"], info["edges"], info["version"]),
    }


@settings(max_examples=120, deadline=None)
@given(
    property_graph=st.booleans(),
    before=_edits,
    journaled=_edits,
    during=_edits,
)
def test_compact_equals_replay(property_graph, before, journaled, during):
    graph = PropertyGraph() if property_graph else EdgeLabeledGraph()
    serial = 0
    for edit in before:  # what the snapshot holds
        apply(graph, edit, serial)
        serial += 1
    with GraphStore(":memory:", compact_every=0) as store:
        store.put_graph("g", graph)
        store.attach("g", graph)
        for edit in journaled:  # the tail, in as many batches as it flushes
            if edit[0] == "flush":
                store.flush("g")
            else:
                apply(graph, edit, serial)
                serial += 1
        store.flush("g")
        assert_same_graph(graph, store.load_graph("g"))
        reads_before = partial_reads(store, "g")
        journaled_version = graph.version

        # Edits buffered while the compaction runs: its own flush commits
        # what is buffered when it starts; whatever arrives after that must
        # survive into the next batch.  Patching the instance's flush puts
        # the late edits exactly between the flush and the fold.
        flush = store.flush

        def flush_then_mutate(name=None, *, _compact=True):
            nonlocal serial
            count = flush(name, _compact=_compact)
            for edit in during:
                apply(graph, edit, serial)
                serial += 1
            return count

        store.flush = flush_then_mutate
        info = store.compact("g")
        store.flush = flush

        assert store.journal_rows("g") == 0
        assert info["journal_records"] == 0
        assert info["version"] == info["snapshot_version"] == journaled_version
        assert partial_reads(store, "g") == reads_before
        assert (info["nodes"], info["edges"]) == reads_before["counts"][:2]
        compacted = store.load_graph("g")
        assert (compacted.num_nodes, compacted.num_edges) == (
            info["nodes"], info["edges"]
        )

        store.flush("g")  # the edits made during the compaction
        assert_same_graph(graph, store.load_graph("g"))
        final = store.compact("g")
        assert final["version"] == final["snapshot_version"] == graph.version
        assert (final["nodes"], final["edges"]) == (graph.num_nodes, graph.num_edges)
        assert store.journal_rows("g") == 0
        assert_same_graph(graph, store.load_graph("g"))


def test_compaction_touches_only_the_rows_the_tail_names(store):
    """The fold's cost follows the journal: rows it does not name keep their
    rowids (an untouched row is neither deleted nor rewritten), and an
    endpoint the tail merely mentions is not rewritten either."""
    graph = PropertyGraph()
    for i in range(50):
        graph.add_edge(f"e{i}", f"n{i}", f"n{i + 1}", "a", properties={"w": i})
    store.put_graph("g", graph)
    store.attach("g", graph)

    def rowids(table):
        return dict(
            store._conn.execute(f"SELECT id, rowid FROM {table} WHERE graph='g'")
        )

    nodes_before, edges_before = rowids("nodes"), rowids("edges")
    graph.add_edge("new", "n3", "fresh", "b")
    graph.set_property("e7", "w", -1)
    graph.add_node("n9", label="Refined")
    store.flush("g")
    store.compact("g")
    nodes_after, edges_after = rowids("nodes"), rowids("edges")
    changed_nodes = {k for k in nodes_after if nodes_after[k] != nodes_before.get(k)}
    changed_edges = {k for k in edges_after if edges_after[k] != edges_before.get(k)}
    assert changed_nodes == {'"fresh"', '"n9"'}  # not "n3": mentioned, unchanged
    assert changed_edges == {'"new"', '"e7"'}
    assert_same_graph(graph, store.load_graph("g"))


def test_store_counters_follow_flushes_and_compactions(store, plain):
    store.put_graph("p", plain)
    store.attach("p", plain)
    assert store.counters()["flushes"] == 0
    plain.add_edge("e3", "z", "w", "c")  # 2 records: the new node, the edge
    plain.add_edge("e4", "w", "x", "c")
    assert store.flush("p") == 3
    assert store.flush("p") == 0  # nothing buffered: not a flush
    plain.add_edge("e5", "x", "x", "c")
    store.compact("p")  # flushes the fourth record itself, folds all four
    counters = store.counters()
    assert counters["flushes"] == 2
    assert counters["records_flushed"] == 4
    assert counters["compactions"] == 1
    assert counters["records_folded"] == 4
    assert 0 < counters["compact_seconds_last"] == counters["compact_seconds_total"]
    store.compact("p")
    assert store.counters()["compactions"] == 2
    assert store.counters()["records_folded"] == 4
