"""Tests for the resident service layer: catalog, answer cache, execution.

The acceptance-critical behaviour locked in here: the answer cache is keyed
on graph *version*, so mutating or re-uploading a graph can never serve a
stale answer.
"""

import pytest

from repro.graph.datasets import figure2_graph
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.graph.serialize import graph_to_dict
from repro.server.protocol import (
    BadRequestError,
    GraphNotFoundError,
    Request,
)
from repro.server.service import AnswerCache, GraphCatalog, QueryService


def chain(*labels):
    """A path graph n0 -L1-> n1 -L2-> n2 ... (one edge per label)."""
    graph = EdgeLabeledGraph()
    for index, label in enumerate(labels):
        graph.add_edge(f"e{index}", f"n{index}", f"n{index + 1}", label)
    return graph


class TestGraphCatalog:
    def test_register_and_get(self):
        catalog = GraphCatalog()
        entry = catalog.register("toy", chain("a"))
        assert catalog.get("toy") is entry
        assert "toy" in catalog
        assert len(catalog) == 1
        assert catalog.names() == ["toy"]

    def test_with_builtins_has_paper_graphs(self):
        catalog = GraphCatalog.with_builtins()
        names = catalog.names()
        assert names == ["fig2", "fig3"]
        info = {entry["name"]: entry for entry in catalog.list_info()}
        assert info["fig2"]["kind"] == "edge_labeled"
        assert info["fig3"]["kind"] == "property"
        assert "Transfer" in info["fig2"]["labels"]

    def test_missing_graph_is_typed_error(self):
        catalog = GraphCatalog()
        with pytest.raises(GraphNotFoundError) as excinfo:
            catalog.get("nope")
        assert excinfo.value.details["graph"] == "nope"
        with pytest.raises(GraphNotFoundError):
            catalog.drop("nope")

    def test_replacement_bumps_generation(self):
        catalog = GraphCatalog()
        first = catalog.register("g", chain("a"))
        second = catalog.register("g", chain("a"))
        # identical graphs, but the catalog-wide generation separates them
        assert second.generation > first.generation
        assert first.version != second.version

    def test_invalid_registrations_rejected(self):
        catalog = GraphCatalog()
        with pytest.raises(BadRequestError):
            catalog.register("", chain("a"))
        with pytest.raises(BadRequestError):
            catalog.register("g", {"nodes": []})


class TestAnswerCache:
    def test_hit_miss_counters(self):
        cache = AnswerCache(maxsize=4)
        assert cache.get(("g", (1, 0), "rpq", "a", "{}")) is None
        cache.put(("g", (1, 0), "rpq", "a", "{}"), {"count": 1})
        assert cache.get(("g", (1, 0), "rpq", "a", "{}")) == {"count": 1}
        info = cache.info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_lru_eviction_order(self):
        cache = AnswerCache(maxsize=2)
        cache.put(("g", (1, 0), "rpq", "a", "{}"), 1)
        cache.put(("g", (1, 0), "rpq", "b", "{}"), 2)
        # touch 'a' so 'b' becomes the eviction candidate
        assert cache.get(("g", (1, 0), "rpq", "a", "{}")) == 1
        cache.put(("g", (1, 0), "rpq", "c", "{}"), 3)
        assert cache.get(("g", (1, 0), "rpq", "b", "{}")) is None
        assert cache.get(("g", (1, 0), "rpq", "a", "{}")) == 1
        assert cache.info()["evictions"] == 1

    def test_invalidate_graph_drops_only_that_name(self):
        cache = AnswerCache()
        cache.put(("g", (1, 0), "rpq", "a", "{}"), 1)
        cache.put(("g", (1, 0), "rpq", "b", "{}"), 2)
        cache.put(("h", (2, 0), "rpq", "a", "{}"), 3)
        assert cache.invalidate_graph("g") == 2
        assert len(cache) == 1
        assert cache.get(("h", (2, 0), "rpq", "a", "{}")) == 3

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            AnswerCache(0)


def rpq_request(graph="fig2", query="Transfer", **extra):
    params = {"graph": graph, "query": query, **extra}
    return Request(op="rpq", params=params)


class TestQueryService:
    def test_rpq_result_shape(self):
        service = QueryService()
        result = service.execute(rpq_request())
        assert result["op"] == "rpq"
        assert result["count"] == len(result["pairs"]) > 0
        assert result["graph"] == "fig2"
        assert len(result["graph_version"]) == 2

    def test_repeat_query_hits_answer_cache(self):
        service = QueryService()
        cold = service.execute(rpq_request(query="Transfer*"))
        warm = service.execute(rpq_request(query="Transfer*"))
        assert warm == cold
        info = service.answer_cache.info()
        assert info["hits"] == 1 and info["misses"] == 1
        metrics = service.metrics.as_dict()
        assert metrics["counters"]["server_answer_cache_hits"] == 1
        assert metrics["counters"]["server_answer_cache_misses"] == 1

    def test_mutation_invalidates_via_version_key(self):
        """The acceptance criterion: mutate a cataloged graph between two
        identical queries — the second answer must reflect the mutation."""
        catalog = GraphCatalog()
        graph = chain("a")
        catalog.register("g", graph)
        service = QueryService(catalog)
        first = service.execute(rpq_request(graph="g", query="a"))
        assert first["count"] == 1
        graph.add_edge("extra", "n9", "n10", "a")  # bumps graph.version
        second = service.execute(rpq_request(graph="g", query="a"))
        assert second["count"] == 2
        assert second["graph_version"] != first["graph_version"]
        # both executions were cache misses: the key moved with the version
        assert service.answer_cache.info()["hits"] == 0

    def test_upload_replaces_and_drops_stale_entries(self):
        service = QueryService(GraphCatalog())
        upload = Request(
            op="graphs.upload",
            params={"name": "g", "graph": graph_to_dict(chain("a"))},
        )
        service.execute(upload)
        service.execute(rpq_request(graph="g", query="a"))
        assert len(service.answer_cache) == 1
        info = service.execute(
            Request(
                op="graphs.upload",
                params={"name": "g", "graph": graph_to_dict(chain("a", "a"))},
            )
        )
        assert info["cache_entries_dropped"] == 1
        assert len(service.answer_cache) == 0
        result = service.execute(rpq_request(graph="g", query="a"))
        assert result["count"] == 2

    def test_distinct_options_are_distinct_cache_entries(self):
        service = QueryService()
        service.execute(rpq_request(query="Transfer"))
        service.execute(rpq_request(query="Transfer", source="a1"))
        info = service.answer_cache.info()
        assert info["misses"] == 2 and info["size"] == 2

    def test_crpq_and_explain(self):
        service = QueryService()
        crpq = service.execute(
            Request(
                op="crpq",
                params={
                    "graph": "fig2",
                    "query": "Ans(x, y) :- Transfer(x, y)",
                },
            )
        )
        assert crpq["op"] == "crpq" and crpq["count"] > 0
        explain = service.execute(
            Request(op="explain", params={"graph": "fig2", "query": "Transfer*"})
        )
        assert explain["op"] == "explain"
        assert "report" in explain

    def test_dlrpq_requires_property_graph(self):
        service = QueryService()
        with pytest.raises(BadRequestError):
            service.execute(
                Request(
                    op="dlrpq",
                    params={
                        "graph": "fig2",
                        "query": "Transfer",
                        "source": "a1",
                        "target": "a2",
                    },
                )
            )

    def test_unknown_graph_is_typed(self):
        service = QueryService()
        with pytest.raises(GraphNotFoundError):
            service.execute(rpq_request(graph="missing"))

    def test_stats_shape(self):
        service = QueryService()
        service.execute(rpq_request())
        stats = service.stats()
        assert stats["uptime_seconds"] >= 0
        assert {g["name"] for g in stats["graphs"]} == {"fig2", "fig3"}
        assert "answer_cache" in stats and "compile_cache" in stats
        assert stats["metrics"]["counters"]["server_requests_total"] == 1

    def test_upload_rejects_non_document(self):
        service = QueryService()
        with pytest.raises(BadRequestError):
            service.execute(
                Request(op="graphs.upload", params={"name": "g", "graph": "nope"})
            )

    def test_fig2_ownership_query_matches_paper(self):
        """Figure 2's running example: accounts reachable by Transfer+ from
        a blocked account — computed through the service path."""
        service = QueryService()
        result = service.execute(rpq_request(query="Transfer+", source="a4"))
        targets = {pair[1] for pair in result["pairs"]}
        assert targets  # a4 reaches other accounts in the cycle
        direct = figure2_graph()
        assert targets <= set(direct.nodes)


ONE_CHEAP = "(_) ([Transfer](_))* [Transfer][amount < 4500000](_) ([Transfer](_))*"
PATHS = {"graph": "fig2", "query": "Transfer+", "source": "a3", "target": "a5"}
DLRPQ = {"graph": "fig3", "query": ONE_CHEAP, "source": "a3", "target": "a5"}
CRPQ = {"graph": "fig2", "query": "Ans(x, y) :- Transfer(x, y)"}
EDGE = {"kind": "add_edge", "id": "t99", "src": "a1", "tgt": "a2", "label": "Transfer"}


class TestMalformedQueryParams:
    """A node parameter that is not a JSON scalar, or a limit that is not a
    non-negative integer, is a ``bad_request`` naming the parameter — not the
    ``internal`` error the evaluator's ``TypeError`` used to become."""

    @pytest.mark.parametrize(
        ("op", "params", "bad"),
        [
            ("paths", {**PATHS, "limit": "3"}, "limit"),
            ("paths", {**PATHS, "limit": -1}, "limit"),
            ("paths", {**PATHS, "limit": True}, "limit"),
            ("paths", {**PATHS, "source": ["a3"]}, "source"),
            ("paths", {**PATHS, "source": {"id": "a3"}}, "source"),
            ("paths", {**PATHS, "target": ["a5"]}, "target"),
            ("rpq", {"graph": "fig2", "query": "Transfer", "source": ["a3"]}, "source"),
            ("dlrpq", {**DLRPQ, "source": ["a3"]}, "source"),
            ("dlrpq", {**DLRPQ, "source": {"id": "a3"}}, "source"),
            ("dlrpq", {**DLRPQ, "limit": "2"}, "limit"),
            ("rpq", {"graph": ["fig2"], "query": "Transfer"}, "graph"),
            ("paths", {**PATHS, "graph": {"name": "fig2"}}, "graph"),
            ("dlrpq", {**DLRPQ, "graph": ["fig3"]}, "graph"),
            ("explain", {"graph": ["fig2"], "query": "Transfer"}, "graph"),
            ("graphs.mutate", {"graph": ["fig2"], "edits": []}, "graph"),
            ("crpq", {**CRPQ, "planner": "bogus"}, "planner"),
            ("crpq", {**CRPQ, "planner": 3}, "planner"),
            ("explain", {**CRPQ, "planner": "bogus"}, "planner"),
            ("explain", {"graph": "fig2", "query": "Transfer", "planner": 3}, "planner"),
            ("graphs.mutate", {"graph": "fig2", "edits": [{**EDGE, "id": [1]}]}, "edits"),
            ("graphs.mutate", {"graph": "fig2", "edits": [{**EDGE, "src": {"id": "a1"}}]}, "edits"),
            ("graphs.mutate", {"graph": "fig2", "edits": [{**EDGE, "label": ["Transfer"]}]}, "edits"),
        ],
    )
    def test_is_a_bad_request_naming_the_parameter(self, op, params, bad):
        service = QueryService()
        with pytest.raises(BadRequestError) as excinfo:
            service.execute(Request(op=op, params=params))
        assert excinfo.value.details["param"] == bad
        assert bad in excinfo.value.message

    def test_well_formed_values_still_answer(self):
        service = QueryService()
        assert service.execute(Request(op="paths", params={**PATHS, "limit": None}))[
            "count"
        ] == 1
        assert service.execute(Request(op="paths", params={**PATHS, "limit": 0}))[
            "paths"
        ] == []
        assert service.execute(Request(op="dlrpq", params={**DLRPQ, "limit": 2}))[
            "count"
        ] >= 1
        everything = service.execute(rpq_request(source=None))
        assert everything["count"] == len(service.execute(rpq_request())["pairs"])


class TestTraceHandling:
    """The server half of cross-process trace propagation (DESIGN.md §12)."""

    CTX = {"trace_id": "ab" * 16, "span_id": "cd" * 8}

    def _service(self):
        catalog = GraphCatalog()
        catalog.register("toy", chain("a", "b"))
        return QueryService(catalog)

    def _rpq(self, trace=None, query="a b"):
        params = {"graph": "toy", "query": query}
        if trace is not None:
            params["trace"] = dict(trace)
        return Request(op="rpq", id="r1", params=params)

    def test_traced_request_returns_remote_child_subtree(self):
        from repro.engine.tracing import NULL_TRACER, get_tracer

        service = self._service()
        result = service.execute(self._rpq(trace=self.CTX))
        (tree,) = result["trace_spans"]
        assert tree["name"] == "server.request"
        assert tree["trace_id"] == self.CTX["trace_id"]
        assert tree["parent_span_id"] == self.CTX["span_id"]
        assert tree["attributes"]["op"] == "rpq"
        assert tree["attributes"]["cache_hit"] is False
        # The per-request ephemeral tracer unwound with the request:
        # process-wide tracing stays off.
        assert get_tracer() is NULL_TRACER

    def test_child_spans_inherit_the_remote_trace_id(self):
        service = self._service()
        result = service.execute(self._rpq(trace=self.CTX))
        (tree,) = result["trace_spans"]
        assert tree["children"], "the rpq evaluation should open kernel spans"

        def walk(node):
            yield node
            for child in node.get("children", ()):
                yield from walk(child)

        for node in walk(tree):
            assert node["trace_id"] == self.CTX["trace_id"]

    def test_untraced_request_carries_no_spans(self):
        service = self._service()
        result = service.execute(self._rpq())
        assert "trace_spans" not in result

    def test_trace_is_not_part_of_the_cache_key(self):
        service = self._service()
        service.execute(self._rpq())  # miss, populates the cache
        other = {"trace_id": "ef" * 16, "span_id": "01" * 8}
        result = service.execute(self._rpq(trace=other))
        assert service.metrics.counters["server_answer_cache_hits"] == 1
        (tree,) = result["trace_spans"]
        assert tree["attributes"]["cache_hit"] is True

    def test_cache_never_holds_trace_spans(self):
        service = self._service()
        traced = service.execute(self._rpq(trace=self.CTX))  # miss + cache write
        assert "trace_spans" in traced
        replay = service.execute(self._rpq())  # hit, no trace context
        assert service.metrics.counters["server_answer_cache_hits"] == 1
        assert "trace_spans" not in replay

    @pytest.mark.parametrize(
        "trace",
        [
            "not-an-object",
            {"trace_id": 7, "span_id": "a"},
            {"trace_id": "a"},
            {"span_id": "b"},
        ],
    )
    def test_malformed_trace_is_bad_request(self, trace):
        service = self._service()
        with pytest.raises(BadRequestError):
            service.execute(
                Request(
                    op="rpq",
                    params={"graph": "toy", "query": "a", "trace": trace},
                )
            )

    def test_cluster_metrics_op_returns_lossless_dump(self):
        from repro.engine.metrics import MetricsRegistry

        service = self._service()
        service.execute(self._rpq())
        payload = service.execute(Request(op="cluster_metrics"))["metrics"]
        assert payload["counters"]["server_requests_rpq"] == 1
        # Raw bucket counts, not the cumulative view: merging is exact.
        clone = MetricsRegistry().merge_dump(payload)
        assert clone.dump()["histograms"] == payload["histograms"]
