"""Durable catalog + service: lazy entries, write-through mutation, restart.

These are the in-process halves of the acceptance story (the subprocess
restart/crash tests live in test_restart.py / test_crash.py): a catalog
opened on a data dir serves the stored graphs lazily with answers identical
to memory-only operation, ``graphs.mutate`` is write-through and
cache-coherent, and ``with_builtins`` never clobbers a mutated builtin.
"""

import pytest

from repro.graph.property_graph import PropertyGraph
from repro.server.app import ServerThread
from repro.server.client import ServerClient
from repro.server.protocol import BadRequestError, Request
from repro.server.service import GraphCatalog, QueryService


def bank_graph():
    graph = PropertyGraph()
    graph.add_node("a1", label="Account", properties={"owner": "Megan"})
    graph.add_node("a2", label="Account", properties={"owner": "Jay"})
    graph.add_edge("t1", "a1", "a2", "Transfer", properties={"amount": 10})
    graph.add_edge("t2", "a2", "a1", "Transfer", properties={"amount": 3})
    return graph


def rpq(service, graph, query):
    return service.execute(
        Request(op="rpq", params={"graph": graph, "query": query})
    )


def mutate(service, graph, edits):
    return service.execute(
        Request(op="graphs.mutate", params={"graph": graph, "edits": edits})
    )


class TestDurableCatalog:
    def test_register_reopen_serves_lazily(self, tmp_path):
        data_dir = str(tmp_path / "data")
        catalog = GraphCatalog(data_dir)
        assert catalog.durable
        catalog.register("bank", bank_graph())
        version = catalog.get("bank").version
        catalog.close()

        reopened = GraphCatalog(data_dir)
        try:
            entry = reopened.get("bank")
            assert not entry.resident  # manifest only — nothing faulted in
            # durable version survives the restart; only the process-local
            # generation differs
            assert entry.version[1] == version[1]
            info = entry.info()
            assert info["kind"] == "property"
            assert info["nodes"] == 2 and info["edges"] == 2
            assert info["labels"] == ["Transfer"]
        finally:
            reopened.close()

    def test_memory_only_catalog_has_no_store(self):
        catalog = GraphCatalog()
        assert not catalog.durable
        assert catalog.store is None
        assert catalog.storage_info() is None
        assert catalog.flush() == 0

    def test_drop_removes_durable_state(self, tmp_path):
        data_dir = str(tmp_path / "data")
        catalog = GraphCatalog(data_dir)
        try:
            catalog.register("bank", bank_graph())
            catalog.drop("bank")
            assert catalog.names() == []
            assert catalog.store.names() == []
        finally:
            catalog.close()

    def test_with_builtins_seeds_once(self, tmp_path):
        data_dir = str(tmp_path / "data")
        catalog = GraphCatalog.with_builtins(data_dir)
        assert sorted(catalog.names()) == ["fig2", "fig3"]
        catalog.close()
        reopened = GraphCatalog.with_builtins(data_dir)
        try:
            assert sorted(reopened.names()) == ["fig2", "fig3"]
            assert not reopened.get("fig2").resident
        finally:
            reopened.close()

    def test_storage_info_counts_entries(self, tmp_path):
        data_dir = str(tmp_path / "data")
        catalog = GraphCatalog(data_dir, max_resident_edges=123)
        try:
            catalog.register("bank", bank_graph())
            info = catalog.storage_info()
            assert info["data_dir"] == data_dir
            assert info["resident_graphs"] == 1  # just-registered stays live
            assert info["lazy_graphs"] == 0
            assert info["max_resident_edges"] == 123
        finally:
            catalog.close()


class TestDurableService:
    def test_lazy_answers_match_memory_only(self, tmp_path):
        """The whole service path over a lazy entry ≡ memory-only service."""
        data_dir = str(tmp_path / "data")
        catalog = GraphCatalog(data_dir)
        catalog.register("bank", bank_graph())
        catalog.close()

        memory = QueryService(GraphCatalog())
        memory.catalog.register("bank", bank_graph())
        durable = QueryService(GraphCatalog(data_dir))
        try:
            for op, query in (
                ("rpq", "Transfer"),
                ("rpq", "Transfer*"),
                ("rpq", "_*"),
                ("rpq", "!{Transfer}"),
                ("rpq", "Missing+"),
                ("crpq", "q(x,y) :- Transfer(x,z), Transfer(z,y)"),
            ):
                expected = memory.execute(
                    Request(op=op, params={"graph": "bank", "query": query})
                )
                got = durable.execute(
                    Request(op=op, params={"graph": "bank", "query": query})
                )
                assert got == expected, (op, query)
            assert not durable.catalog.get("bank").resident  # never faulted in full
        finally:
            durable.close()

    def test_mutate_is_write_through_and_cache_coherent(self, tmp_path):
        data_dir = str(tmp_path / "data")
        service = QueryService(GraphCatalog(data_dir))
        try:
            service.catalog.register("bank", bank_graph())
            before = rpq(service, "bank", "Transfer")
            assert before["count"] == 2
            version_before = service.catalog.get("bank").version

            result = mutate(service, "bank", [
                {"kind": "add_node", "id": "a3", "label": "Account"},
                {"kind": "add_edge", "id": "t3", "src": "a2", "tgt": "a3",
                 "label": "Transfer", "properties": {"amount": 99}},
                {"kind": "set_property", "id": "t3", "name": "memo",
                 "value": "rent"},
            ])
            assert result["applied"] == 3
            assert tuple(result["version"]) > version_before

            after = rpq(service, "bank", "Transfer")
            assert after["count"] == 3  # no stale cached answer
            # the durability barrier already ran: a second store sees t3
            reopened = GraphCatalog(data_dir)
            try:
                graph = reopened.get("bank").graph
                assert "t3" in graph.edges
                assert graph.properties("t3") == {"amount": 99, "memo": "rent"}
                assert graph.version == service.catalog.get("bank").version[1]
            finally:
                reopened.close()
        finally:
            service.close()

    def test_mutate_materializes_lazy_entry(self, tmp_path):
        data_dir = str(tmp_path / "data")
        catalog = GraphCatalog(data_dir)
        catalog.register("bank", bank_graph())
        catalog.close()

        service = QueryService(GraphCatalog(data_dir))
        try:
            entry = service.catalog.get("bank")
            assert not entry.resident
            mutate(service, "bank", [
                {"kind": "add_edge", "id": "t9", "src": "a1", "tgt": "a1",
                 "label": "Transfer"},
            ])
            assert entry.resident  # writes need the real graph in memory
            assert rpq(service, "bank", "Transfer")["count"] == 3
        finally:
            service.close()

    def test_mutate_on_memory_only_catalog(self):
        service = QueryService(GraphCatalog())
        service.catalog.register("bank", bank_graph())
        result = mutate(service, "bank", [
            {"kind": "add_edge", "id": "t3", "src": "a1", "tgt": "a9",
             "label": "Transfer"},
        ])
        assert result["applied"] == 1
        assert rpq(service, "bank", "Transfer")["count"] == 3

    def test_mutate_rejects_malformed_edits(self):
        service = QueryService(GraphCatalog())
        service.catalog.register("bank", bank_graph())
        with pytest.raises(BadRequestError):
            mutate(service, "bank", "not-a-list")
        with pytest.raises(BadRequestError):
            mutate(service, "bank", [{"kind": "add_edge", "id": "t3"}])
        with pytest.raises(BadRequestError):
            mutate(service, "bank", [{"kind": "sideways"}])

    def test_mutate_applied_prefix_survives_bad_edit(self, tmp_path):
        """An invalid edit mid-batch leaves the applied prefix durable."""
        data_dir = str(tmp_path / "data")
        service = QueryService(GraphCatalog(data_dir))
        try:
            service.catalog.register("bank", bank_graph())
            with pytest.raises(BadRequestError):
                mutate(service, "bank", [
                    {"kind": "add_edge", "id": "t3", "src": "a1", "tgt": "a9",
                     "label": "Transfer"},
                    {"kind": "broken"},
                ])
            # the prefix both applied and flushed
            assert rpq(service, "bank", "Transfer")["count"] == 3
            reopened = GraphCatalog(data_dir)
            try:
                assert "t3" in reopened.get("bank").graph.edges
            finally:
                reopened.close()
        finally:
            service.close()

    def test_stats_report_storage(self, tmp_path):
        service = QueryService(GraphCatalog(str(tmp_path / "data")))
        try:
            storage = service.stats()["storage"]
            assert storage["data_dir"] == str(tmp_path / "data")
        finally:
            service.close()
        assert "storage" not in QueryService(GraphCatalog()).stats()

    def test_stats_count_writes_and_csr_patches(self, tmp_path):
        """The write path's counters reach the ``stats`` op: the store's
        flushes and compactions under ``storage``, and the engine's one full
        CSR build plus one catch-up patch per read-after-write."""
        service = QueryService(GraphCatalog(str(tmp_path / "data")))
        service.catalog.store.compact_every = 2
        try:
            service.catalog.register("bank", bank_graph())
            read = Request(op="rpq", params={"graph": "bank", "query": "Transfer*"})
            service.execute(read)
            for number in range(2):
                service.execute(Request(op="graphs.mutate", params={
                    "graph": "bank",
                    "edits": [{"kind": "add_edge", "id": f"w{number}", "src": "a1",
                               "tgt": "a2", "label": "Transfer"}],
                }))
                service.execute(read)
            stats = service.stats()
            storage = stats["storage"]
            assert storage["flushes"] == 2
            assert storage["records_flushed"] == 2
            assert storage["compactions"] == 1  # the second batch reached 2
            assert storage["records_folded"] == 2
            assert storage["compact_seconds_total"] > 0
            counters = stats["metrics"]["counters"]
            assert counters["engine_csr_builds"] == 1
            assert counters["engine_csr_patches"] == 2
        finally:
            service.close()


class TestServerRoundTrip:
    def test_client_mutate_round_trip(self, tmp_path):
        data_dir = str(tmp_path / "data")
        service = QueryService(GraphCatalog.with_builtins(data_dir))
        with ServerThread(service=service) as harness:
            client = ServerClient(*harness.address)
            client.upload_graph("bank", bank_graph())
            assert client.rpq("bank", "Transfer")["count"] == 2
            result = client.mutate("bank", [
                {"kind": "add_edge", "id": "t3", "src": "a1", "tgt": "a9",
                 "label": "Transfer"},
            ])
            assert result["applied"] == 1
            assert client.rpq("bank", "Transfer")["count"] == 3
            client.close()
        # drain closed the service; reopen the dir and check durability
        reopened = GraphCatalog(data_dir)
        try:
            assert "t3" in reopened.get("bank").graph.edges
        finally:
            reopened.close()
