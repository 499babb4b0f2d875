"""Storage chaos: a journal-write fault never loses or duplicates records.

``storage.journal_write`` sits in :meth:`GraphStore.flush` *before* the
commit, so an armed fault models a failed disk write.  The contract:

* error arming — flush raises, the buffer is untouched, and after the
  fault clears a retry commits every record exactly once;
* drop arming — flush reports 0 written and keeps the buffer (a silent
  transient failure the next flush repairs);
* the service's mutate barrier surfaces the fault to the caller while the
  in-memory edit stays applied — the next flush makes it durable.

``storage.compact`` sits inside :meth:`GraphStore.compact`'s fold
transaction, after the folded rows are written and before the journal is
deleted — the worst moment for a failure.  The contract: the transaction
rolls back whole, ``snapshot ⊕ journal`` still loads to the live graph, and
the next compaction folds the same tail.
"""

import pytest

from repro.engine.faults import FaultError
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.graph.property_graph import PropertyGraph
from repro.server.protocol import Request
from repro.server.service import GraphCatalog, QueryService
from repro.storage.store import GraphStore


def seeded_store():
    graph = EdgeLabeledGraph()
    graph.add_edge("e1", "x", "y", "a")
    store = GraphStore(":memory:")
    store.put_graph("g", graph)
    store.attach("g", graph)
    return store, graph


class TestJournalWriteFaults:
    def test_error_keeps_buffer_and_retry_commits_once(self, faults):
        store, graph = seeded_store()
        with store:
            graph.add_edge("e2", "y", "z", "a")
            graph.add_edge("e3", "z", "w", "b")
            pending = store.pending("g")
            assert pending == 4  # 2 edges + 2 auto-created endpoints

            faults.arm("storage.journal_write", error=FaultError)
            with pytest.raises(FaultError):
                store.flush("g")
            assert store.pending("g") == pending  # nothing drained
            assert store.journal_rows("g") == 0  # nothing committed

            assert store.flush("g") == pending  # fault cleared: retry works
            assert store.pending("g") == 0
            loaded = store.load_graph("g")
            assert loaded.edges == graph.edges  # exactly once, no dupes
            assert loaded.version == graph.version

    def test_drop_reports_zero_and_keeps_buffer(self, faults):
        store, graph = seeded_store()
        with store:
            graph.add_edge("e2", "y", "z", "a")
            pending = store.pending("g")

            faults.arm("storage.journal_write", drop=True)
            assert store.flush("g") == 0
            assert store.pending("g") == pending

            assert store.flush("g") == pending
            assert "e2" in store.load_graph("g").edges

    def test_faulted_auto_flush_recovers_on_next_threshold(self, faults):
        graph = EdgeLabeledGraph()
        graph.add_edge("e0", "n0", "n1", "a")
        with GraphStore(":memory:", flush_every=2, compact_every=0) as store:
            store.put_graph("g", graph)
            store.attach("g", graph)
            faults.arm("storage.journal_write", drop=True)
            graph.add_edge("e1", "n0", "n1", "a")
            graph.add_edge("e2", "n1", "n0", "a")  # threshold: flush dropped
            assert store.pending("g") == 2
            graph.add_edge("e3", "n0", "n0", "a")  # threshold again, disarmed
            assert store.pending("g") == 0
            assert store.load_graph("g").edges == graph.edges

    def test_close_after_fault_still_drains(self, faults):
        store, graph = seeded_store()
        graph.add_edge("e2", "y", "z", "a")
        faults.arm("storage.journal_write", drop=True)
        assert store.flush("g") == 0
        store.close()  # the drain's own flush runs after the fault cleared
        # :memory: dies with the connection, so re-check through a file store
        # is done in the service test below; here the contract is just that
        # close() did not raise and drained the buffer.


class TestCompactionFaults:
    def mutated_property_store(self, data_dir):
        graph = PropertyGraph()
        graph.add_node("a1", label="Account", properties={"owner": "Megan"})
        graph.add_edge("t1", "a1", "a2", "Transfer", properties={"amount": 1})
        store = GraphStore(data_dir)
        store.put_graph("g", graph)
        store.attach("g", graph)
        graph.add_edge("t2", "a2", "a3", "Transfer")  # a3: journal-created
        graph.add_node("a2", label="Account")  # refines a snapshot row
        graph.set_property("t1", "amount", 2)  # rewrites a snapshot row
        graph.set_property("a1", "owner", "Jay")
        store.flush("g")
        return store, graph

    def test_failed_fold_rolls_back_and_leaves_the_journal(self, tmp_path, faults):
        store, graph = self.mutated_property_store(str(tmp_path / "data"))
        with store:
            rows_before = store.journal_rows("g")
            info_before = store.graph_info("g")

            faults.arm("storage.compact", error=FaultError)
            with pytest.raises(FaultError):
                store.compact("g")
            assert faults.passages["storage.compact"] == 1
            assert store.counters()["compactions"] == 0

            # nothing of the half-done fold is visible: same journal, same
            # manifest, and the snapshot rows the fold rewrote are back
            assert store.journal_rows("g") == rows_before
            assert store.graph_info("g") == info_before
            assert info_before["snapshot_version"] < info_before["version"]
            (stored_props,) = store._conn.execute(
                "SELECT props FROM edges WHERE graph='g' AND id='\"t1\"'"
            ).fetchone()
            assert stored_props == '[["amount",1]]'  # the rewrite was undone
            loaded = store.load_graph("g")
            assert loaded.edges == graph.edges and loaded.nodes == graph.nodes
            assert loaded.properties("t1") == {"amount": 2}
            assert loaded.node_label("a2") == "Account"
            assert loaded.version == graph.version

            # the fault cleared: the same tail folds
            info = store.compact("g")
            assert store.journal_rows("g") == 0
            assert info["snapshot_version"] == info["version"] == graph.version
            loaded = store.load_graph("g")
            assert loaded.edges == graph.edges and loaded.nodes == graph.nodes
            assert loaded.properties("a1") == {"owner": "Jay"}

    def test_failed_fold_survives_a_reopen(self, tmp_path, faults):
        """A crash at the fault site is a rollback the next process sees."""
        data_dir = str(tmp_path / "data")
        store, graph = self.mutated_property_store(data_dir)
        faults.arm("storage.compact", error=FaultError)
        with pytest.raises(FaultError):
            store.compact("g")
        graph.detach_journal()
        store.close()
        with GraphStore(data_dir) as reopened:
            assert reopened.journal_rows("g") > 0
            loaded = reopened.load_graph("g")
            assert loaded.edges == graph.edges and loaded.nodes == graph.nodes
            assert loaded.properties("t1") == {"amount": 2}
            assert loaded.version == graph.version

    def test_auto_compaction_fault_keeps_the_acknowledged_write(self, faults):
        """The 64th flush's compaction fails after its batch committed: the
        caller sees the fault, the write is durable, the next flush retries
        the compaction."""
        graph = EdgeLabeledGraph()
        graph.add_edge("e0", "n0", "n1", "a")
        with GraphStore(":memory:", compact_every=2) as store:
            store.put_graph("g", graph)
            store.attach("g", graph)
            graph.add_edge("e1", "n1", "n2", "a")
            store.flush("g")
            graph.add_edge("e2", "n2", "n3", "b")
            faults.arm("storage.compact", error=FaultError)
            with pytest.raises(FaultError):
                store.flush("g")  # commits the batch, then compaction faults
            assert store.pending("g") == 0
            assert store.journal_rows("g") == 2
            assert store.load_graph("g").edges == graph.edges
            graph.add_edge("e3", "n3", "n0", "b")
            store.flush("g")  # third batch: compaction retried, succeeds
            assert store.journal_rows("g") == 0
            loaded = store.load_graph("g")
            assert loaded.edges == graph.edges
            assert loaded.version == graph.version


class TestMutateBarrierUnderFaults:
    def test_mutate_surfaces_fault_then_next_flush_repairs(self, tmp_path, faults):
        service = QueryService(GraphCatalog(str(tmp_path / "data")))
        try:
            graph = EdgeLabeledGraph()
            graph.add_edge("e1", "x", "y", "a")
            service.catalog.register("g", graph)

            faults.arm("storage.journal_write", error=FaultError)
            with pytest.raises(FaultError):
                service.execute(Request(op="graphs.mutate", params={
                    "graph": "g",
                    "edits": [{"kind": "add_edge", "id": "e2", "src": "y",
                               "tgt": "z", "label": "a"}],
                }))
            # the edit applied in memory (queries see it) ...
            answer = service.execute(Request(
                op="rpq", params={"graph": "g", "query": "a"}
            ))
            assert ["y", "z"] in answer["pairs"]
            # ... but is not yet durable
            assert service.catalog.store.journal_rows("g") == 0
            # the next barrier (clean flush) makes it durable exactly once
            assert service.catalog.flush("g") > 0
            reopened = GraphStore(str(tmp_path / "data"))
            try:
                loaded = reopened.load_graph("g")
                assert "e2" in loaded.edges
                assert loaded.version == graph.version
            finally:
                reopened.close()
        finally:
            service.close()
