"""Unit tests for the span tracer (repro.obs.tracer)."""

from __future__ import annotations

import os
import threading

from repro import obs
from repro.obs.tracer import _SpanScope  # noqa: F401 - existence check


class TestDisabled:
    def test_disabled_trace_span_returns_shared_null_scope(self):
        scope = obs.trace_span("anything", category="x", cost=1)
        assert scope is obs.NULL_SCOPE
        assert obs.trace_span_detached("other", parent=3) is obs.NULL_SCOPE
        with scope as span:
            span.set(more=2)  # no-op, no error
        assert obs.get_tracer().drain() == []

    def test_tracing_enabled_reflects_configuration(self):
        assert not obs.tracing_enabled()
        obs.configure_tracing(True)
        assert obs.tracing_enabled()
        obs.configure_tracing(False)
        assert not obs.tracing_enabled()


class TestRecording:
    def test_span_records_identity_timing_and_attrs(self):
        obs.configure_tracing(True)
        with obs.trace_span("work", category="test", size=3) as span:
            span.set(cost=7)
        (recorded,) = obs.get_tracer().drain()
        assert recorded.name == "work"
        assert recorded.category == "test"
        assert recorded.attrs == {"size": 3, "cost": 7}
        assert recorded.pid == os.getpid()
        assert recorded.tid == threading.get_ident() & 0xFFFFFFFF
        assert recorded.duration >= 0.0
        assert recorded.parent_id is None

    def test_nested_spans_chain_parents_through_the_thread_stack(self):
        obs.configure_tracing(True)
        with obs.trace_span("outer"):
            with obs.trace_span("middle"):
                with obs.trace_span("inner"):
                    pass
        by_name = {span.name: span for span in obs.get_tracer().drain()}
        assert by_name["outer"].parent_id is None
        assert by_name["middle"].parent_id == by_name["outer"].span_id
        assert by_name["inner"].parent_id == by_name["middle"].span_id

    def test_sibling_threads_get_independent_stacks(self):
        obs.configure_tracing(True)

        def worker():
            with obs.trace_span("child"):
                pass

        with obs.trace_span("parent"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        by_name = {span.name: span for span in obs.get_tracer().drain()}
        # the other thread's stack is empty: no cross-thread parenting
        assert by_name["child"].parent_id is None

    def test_detached_span_uses_explicit_parent_and_skips_the_stack(self):
        obs.configure_tracing(True)
        with obs.trace_span("outer"):
            parent_id = obs.get_tracer().current_span_id()
            with obs.trace_span_detached("job-a", parent=parent_id):
                # a detached span must NOT become the stack parent of
                # spans opened while it is live
                with obs.trace_span("stacked"):
                    pass
        by_name = {span.name: span for span in obs.get_tracer().drain()}
        assert by_name["job-a"].parent_id == by_name["outer"].span_id
        assert by_name["stacked"].parent_id == by_name["outer"].span_id

    def test_exception_inside_span_sets_error_attr_and_pops_stack(self):
        obs.configure_tracing(True)
        try:
            with obs.trace_span("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        with obs.trace_span("after"):
            pass
        by_name = {span.name: span for span in obs.get_tracer().drain()}
        assert by_name["boom"].attrs["error"] == "ValueError"
        assert by_name["after"].parent_id is None

    def test_bounded_buffer_drops_and_counts_overflow(self):
        obs.configure_tracing(True, max_spans=4)
        try:
            for i in range(7):
                with obs.trace_span(f"s{i}"):
                    pass
            tracer = obs.get_tracer()
            assert len(tracer.spans()) == 4
            assert tracer.dropped == 3
            assert [span.name for span in tracer.drain()] == [
                "s3", "s4", "s5", "s6",
            ]
        finally:
            obs.configure_tracing(False, max_spans=obs.DEFAULT_MAX_SPANS)


class TestScopeAndSpill:
    def test_trace_scope_restores_prior_state_and_env(self):
        os.environ.pop(obs.ENV_TRACE, None)
        with obs.trace_scope():
            assert obs.tracing_enabled()
            assert os.environ[obs.ENV_TRACE] == "1"
        assert not obs.tracing_enabled()
        assert obs.ENV_TRACE not in os.environ

    def test_trace_scope_exports_spill_dir_for_workers(self, tmp_path):
        spill = str(tmp_path / "spill")
        with obs.trace_scope(spill_dir=spill):
            assert os.environ[obs.ENV_TRACE] == spill
            with obs.trace_span("work"):
                pass
        # exit flushed to the spill file
        spans = obs.read_spill_spans(spill)
        assert [span.name for span in spans] == ["work"]

    def test_trace_scope_exit_leaves_no_spill_handle_open(self, tmp_path):
        with obs.trace_scope(spill_dir=str(tmp_path / "spill")):
            with obs.trace_span("work"):
                pass
        assert obs.get_tracer()._spill_handle is None

    def test_a_second_scope_spills_into_its_own_directory(self, tmp_path):
        # the append handle belongs to one spill directory; kept open, the
        # second scope's spans would land in the first scope's file
        for name in ("first", "second"):
            spill = str(tmp_path / name)
            with obs.trace_scope(spill_dir=spill):
                with obs.trace_span(name):
                    pass
            assert [span.name for span in obs.read_spill_spans(spill)] == [name]

    def test_flush_appends_jsonl_and_roundtrips(self, tmp_path):
        spill = str(tmp_path)
        obs.configure_tracing(True, spill_dir=spill)
        with obs.trace_span("one", category="c", answer=42):
            pass
        assert obs.get_tracer().flush() == 1
        with obs.trace_span("two"):
            pass
        assert obs.get_tracer().flush() == 1
        spans = obs.read_spill_spans(spill)
        assert [span.name for span in spans] == ["one", "two"]
        assert spans[0].attrs == {"answer": 42}
        assert spans[0].category == "c"

    def test_flush_without_spill_dir_keeps_spans_buffered(self):
        obs.configure_tracing(True)
        with obs.trace_span("kept"):
            pass
        assert obs.get_tracer().flush() == 0
        assert [span.name for span in obs.get_tracer().drain()] == ["kept"]

    def test_read_spill_spans_skips_corrupt_lines(self, tmp_path):
        spill = str(tmp_path)
        obs.configure_tracing(True, spill_dir=spill)
        with obs.trace_span("good"):
            pass
        obs.get_tracer().flush()
        path = tmp_path / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as handle:
            handle.write("not json\n{\"also\": \"bad\"}\n")
        spans = obs.read_spill_spans(spill)
        assert [span.name for span in spans] == ["good"]
