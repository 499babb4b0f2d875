"""Tests for the hierarchical span tracer (``repro.engine.tracing``).

The concurrency tests are the load-bearing ones: the batch executor fans
queries out over a thread pool, and each worker must grow its own span tree
— a span started on one thread must never become the child of a span open
on another thread.
"""

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.engine.batch import BatchExecutor
from repro.engine.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    render_span_dict,
    span_tree_dict,
    use_thread_tracer,
    use_tracer,
)
from repro.graph.generators import random_graph
from repro.workloads.querylog import generate_query_log

LABELS = ("a", "b", "c")


def spans_by_name(root, name):
    return [span for span in root.walk() if span.name == name]


class TestSpanBasics:
    def test_span_records_interval_and_attributes(self):
        tracer = Tracer()
        with tracer.span("outer", query="a*") as outer:
            with tracer.span("inner") as inner:
                inner.set(answers=3)
        assert tracer.roots == [outer]
        assert outer.children == [inner]
        assert inner.parent is outer
        assert outer.attributes == {"query": "a*"}
        assert inner.attributes == {"answers": 3}
        assert outer.end is not None and inner.end is not None

    def test_nesting_invariant_child_interval_within_parent(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    time.sleep(0.001)
        (root,) = tracer.roots
        for span in root.walk():
            for child in span.children:
                assert child.start >= span.start
                assert child.end <= span.end

    def test_span_finishes_on_exception(self):
        tracer = Tracer()
        try:
            with tracer.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        (root,) = tracer.roots
        assert root.end is not None
        assert tracer.current() is None

    def test_sibling_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [span.name for span in tracer.roots] == ["first", "second"]

    def test_as_dict_round_trips_through_json(self):
        tracer = Tracer()
        with tracer.span("outer", query="a"):
            with tracer.span("inner", answers=1):
                pass
        payload = json.loads(json.dumps(tracer.as_dicts()))
        assert payload[0]["name"] == "outer"
        assert payload[0]["children"][0]["attributes"]["answers"] == 1

    def test_render_indents_children(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        text = tracer.render()
        lines = text.splitlines()
        assert lines[0].startswith("outer")
        assert lines[1].startswith("  inner")
        assert "ms" in lines[0]

    def test_annotate_targets_current_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.annotate(flag=True)
        assert tracer.roots[0].attributes == {"flag": True}
        tracer.annotate(ignored=1)  # no current span: no-op, no error

    def test_write_jsonl(self, tmp_path):
        tracer = Tracer()
        with tracer.span("one"):
            pass
        with tracer.span("two"):
            pass
        path = tmp_path / "traces.jsonl"
        assert tracer.write_jsonl(str(path)) == 2
        lines = path.read_text().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["one", "two"]

    def test_write_jsonl_drains_by_default(self, tmp_path):
        """Regression: a resident server flushing periodically must write
        each tree exactly once, not re-export its whole history."""
        tracer = Tracer()
        with tracer.span("first"):
            pass
        path = tmp_path / "traces.jsonl"
        assert tracer.write_jsonl(str(path)) == 1
        assert tracer.roots == []
        # Second flush with nothing new: writes nothing, no duplicates.
        assert tracer.write_jsonl(str(path)) == 0
        with tracer.span("second"):
            pass
        assert tracer.write_jsonl(str(path)) == 1
        names = [
            json.loads(line)["name"] for line in path.read_text().splitlines()
        ]
        assert names == ["first", "second"]

    def test_write_jsonl_without_roots_does_not_touch_file(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        assert Tracer().write_jsonl(str(path)) == 0
        assert not path.exists()

    def test_write_jsonl_snapshot_mode_keeps_roots(self, tmp_path):
        tracer = Tracer()
        with tracer.span("kept"):
            pass
        path = tmp_path / "traces.jsonl"
        assert tracer.write_jsonl(str(path), drain=False) == 1
        assert [root.name for root in tracer.roots] == ["kept"]
        # Snapshot mode re-writes on the next call — that is the contract.
        assert tracer.write_jsonl(str(path), drain=False) == 1
        assert len(path.read_text().splitlines()) == 2

    def test_drain_roots_empties_the_tracer(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        drained = tracer.drain_roots()
        assert [span.name for span in drained] == ["a"]
        assert tracer.roots == []
        assert tracer.drain_roots() == []


class TestTraceIdentity:
    def test_root_draws_fresh_ids_and_children_inherit(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert len(outer.trace_id) == 32
        assert len(outer.span_id) == 16
        assert outer.parent_span_id is None
        assert inner.trace_id == outer.trace_id
        assert inner.parent_span_id == outer.span_id
        assert inner.span_id != outer.span_id

    def test_distinct_roots_get_distinct_trace_ids(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        first, second = tracer.roots
        assert first.trace_id != second.trace_id

    def test_adopt_remote_joins_the_callers_trace(self):
        tracer = Tracer()
        context = {"trace_id": "f" * 32, "span_id": "1" * 16}
        with tracer.span("server.request") as root:
            root.adopt_remote(context)
            with tracer.span("child") as child:
                pass
        assert root.trace_id == context["trace_id"]
        assert root.parent_span_id == context["span_id"]
        # adopt_remote ran before the child opened, so it inherited the
        # remote trace id.
        assert child.trace_id == context["trace_id"]

    def test_adopt_remote_ignores_malformed_fields(self):
        span = Span("x")
        original = (span.trace_id, span.parent_span_id)
        span.adopt_remote({"trace_id": 7, "span_id": ""})
        assert (span.trace_id, span.parent_span_id) == original

    def test_trace_context_reflects_current_span(self):
        tracer = Tracer()
        assert tracer.trace_context() is None
        with tracer.span("outer") as outer:
            context = tracer.trace_context()
            assert context == {
                "trace_id": outer.trace_id,
                "span_id": outer.span_id,
            }
        assert tracer.trace_context() is None
        assert NULL_TRACER.trace_context() is None

    def test_graft_appears_in_dict_and_render(self):
        tracer = Tracer()
        remote = {
            "name": "frontier_step",
            "duration_ms": 1.5,
            "attributes": {"shard": 0},
            "children": [],
        }
        with tracer.span("round") as span:
            span.graft(remote)
        tree = span.as_dict()
        assert tree["children"][-1]["name"] == "frontier_step"
        text = span.render()
        assert "frontier_step" in text
        assert "shard=0" in text

    def test_render_span_dict_round_trips_render_style(self):
        tracer = Tracer()
        with tracer.span("outer", q="a*"):
            with tracer.span("inner"):
                pass
        tree = tracer.as_dicts()[0]
        text = render_span_dict(tree)
        lines = text.splitlines()
        assert lines[0].startswith("outer")
        assert lines[1].startswith("  inner")


class TestSpanTreeDict:
    def _wide_span(self, children):
        tracer = Tracer()
        with tracer.span("root") as root:
            for index in range(children):
                with tracer.span(f"child-{index}"):
                    pass
        return root

    def test_uncapped_tree_is_lossless(self):
        root = self._wide_span(5)
        tree = span_tree_dict(root)
        assert tree["name"] == "root"
        assert len(tree["children"]) == 5
        assert "spans_truncated" not in tree["attributes"]
        assert tree["span_id"] == root.span_id

    def test_cap_drops_children_and_marks_ancestor(self):
        root = self._wide_span(10)
        tree = span_tree_dict(root, max_spans=4)
        assert len(tree["children"]) == 3  # root + 3 children == 4 spans
        assert tree["attributes"]["spans_truncated"] == 7

    def test_cap_counts_grafted_subtrees(self):
        root = self._wide_span(2)
        root.graft({"name": "remote", "children": [{"name": "r2", "children": []}]})
        full = span_tree_dict(root)
        assert [child["name"] for child in full["children"]] == [
            "child-0",
            "child-1",
            "remote",
        ]
        capped = span_tree_dict(root, max_spans=3)
        assert capped["attributes"]["spans_truncated"] == 2


class TestThreadOverride:
    def test_thread_override_wins_over_process_tracer(self):
        process_tracer = Tracer()
        request_tracer = Tracer()
        with use_tracer(process_tracer):
            assert get_tracer() is process_tracer
            with use_thread_tracer(request_tracer):
                assert get_tracer() is request_tracer
            assert get_tracer() is process_tracer
        assert get_tracer() is NULL_TRACER

    def test_thread_override_is_thread_scoped(self):
        request_tracer = Tracer()
        seen = {}

        def observe():
            seen["other"] = get_tracer()

        with use_thread_tracer(request_tracer):
            worker = threading.Thread(target=observe)
            worker.start()
            worker.join()
            assert get_tracer() is request_tracer
        assert seen["other"] is NULL_TRACER

    def test_thread_override_restores_on_exception(self):
        try:
            with use_thread_tracer(Tracer()):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        assert get_tracer() is NULL_TRACER

    def test_thread_override_nests(self):
        outer, inner = Tracer(), Tracer()
        with use_thread_tracer(outer):
            with use_thread_tracer(inner):
                assert get_tracer() is inner
            assert get_tracer() is outer


class TestNullTracer:
    def test_disabled_by_default(self):
        assert get_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled

    def test_null_span_yields_none_and_allocates_nothing(self):
        first = NULL_TRACER.span("x", a=1)
        second = NULL_TRACER.span("y")
        assert first is second  # one shared no-op context manager
        with first as span:
            assert span is None
        assert NULL_TRACER.current() is None
        assert NULL_TRACER.render() == ""
        assert NULL_TRACER.as_dicts() == []

    def test_use_tracer_installs_and_restores(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_use_tracer_restores_on_exception(self):
        try:
            with use_tracer(Tracer()):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        assert get_tracer() is NULL_TRACER


class TestThreadIsolation:
    def test_threads_never_interleave_spans(self):
        """Two workers' trees stay disjoint even with forced overlap."""
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def work(name):
            with tracer.span(f"outer-{name}"):
                barrier.wait(timeout=5)  # both outers open concurrently
                with tracer.span(f"inner-{name}"):
                    time.sleep(0.005)
                barrier.wait(timeout=5)

        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(work, ["a", "b"]))

        assert sorted(root.name for root in tracer.roots) == [
            "outer-a",
            "outer-b",
        ]
        for root in tracer.roots:
            suffix = root.name.rsplit("-", 1)[1]
            assert [child.name for child in root.children] == [f"inner-{suffix}"]

    def test_batch_executor_workers_get_per_query_trees(self):
        graph = random_graph(30, 120, labels=LABELS, seed=5)
        log = [regex for _shape, regex in generate_query_log(24, labels=LABELS, seed=4)]
        tracer = Tracer()
        with use_tracer(tracer):
            batch = BatchExecutor().run(graph, log)

        roots = [root for root in tracer.roots if root.name == "batch.query"]
        assert len(roots) == batch.num_unique
        for root in roots:
            # Nesting invariant: every child interval inside its parent.
            for span in root.walk():
                for child in span.children:
                    assert child.start >= span.start
                    assert child.end <= span.end
            # Every span below a batch.query root describes that one query:
            # the kernel spans' query attribute matches the root's.
            query = root.attributes["query"]
            for span in root.walk():
                attr = span.attributes.get("query")
                if attr is not None and span.name in (
                    "rpq.evaluate",
                    "kernel.compile",
                    "kernel.evaluate_sweep",
                ):
                    assert attr == query, (
                        f"span {span.name} of query {attr!r} interleaved "
                        f"into the tree of {query!r}"
                    )

    def test_batch_executor_trace_dicts_align_with_timings(self):
        graph = random_graph(20, 60, labels=LABELS, seed=6)
        with use_tracer(Tracer()):
            batch = BatchExecutor().run(graph, ["a.b", "c*", ("a", "v0")])
        assert len(batch.timings) == 3
        for entry in batch.timings:
            assert entry["trace"] is not None
            assert entry["trace"]["attributes"]["query"] == entry["query"]
            assert entry["seconds"] >= 0


class TestSubclassContract:
    @staticmethod
    def _public_methods(cls):
        return {
            name
            for name in dir(cls)
            if not name.startswith("_") and callable(getattr(cls, name))
        }

    def test_null_tracer_mirrors_tracer_api(self):
        """Full-parity contract, computed not enumerated: every public
        method of Tracer exists on NullTracer (and vice versa), so call
        sites never need isinstance guards.  A method added to one class
        but not the other fails this test by construction."""
        assert self._public_methods(Tracer) == self._public_methods(NullTracer)
        for attr in ("enabled", "roots"):
            assert hasattr(NullTracer(), attr) and hasattr(Tracer(), attr)

    def test_null_tracer_returns_nothing_happened_values(self, tmp_path):
        null = NullTracer()
        assert null.trace_context() is None
        assert null.drain_roots() == []
        path = tmp_path / "never.jsonl"
        assert null.write_jsonl(str(path)) == 0
        assert not path.exists()

    def test_span_walk_is_depth_first(self):
        root = Span("root")
        child = Span("child", parent=root)
        root.children.append(child)
        grand = Span("grand", parent=child)
        child.children.append(grand)
        assert [span.name for span in root.walk()] == ["root", "child", "grand"]
