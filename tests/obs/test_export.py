"""Chrome trace-event export, validation and the progress renderer."""

from __future__ import annotations

import io
import json

from repro import obs
from repro.obs.export import (
    chrome_trace_events,
    span_tree_errors,
    validate_chrome_trace,
)
from repro.obs.progress import ProgressRenderer


def _traced_nest():
    obs.configure_tracing(True)
    with obs.trace_span("outer", category="session", jobs=2):
        with obs.trace_span("inner", category="pipeline"):
            pass
    return obs.collect_spans()


class TestChromeTrace:
    def test_events_carry_phase_timing_and_span_identity(self):
        spans = _traced_nest()
        events = chrome_trace_events(spans)
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(meta) == 1  # one process_name row per pid
        assert {e["name"] for e in complete} == {"outer", "inner"}
        by_name = {e["name"]: e for e in complete}
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer["cat"] == "session"
        assert outer["args"]["jobs"] == 2
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]
        # ts is microseconds relative to the earliest span
        assert min(e["ts"] for e in complete) == 0.0
        assert all(e["dur"] >= 0.0 for e in complete)

    def test_write_and_validate_roundtrip(self, tmp_path):
        spans = _traced_nest()
        path = str(tmp_path / "trace.json")
        assert obs.write_chrome_trace(path, spans) == 2
        ok, errors = obs.validate_chrome_trace_file(path)
        assert ok, errors
        document = json.load(open(path))
        assert document["displayTimeUnit"] == "ms"

    def test_validator_rejects_malformed_documents(self):
        assert not validate_chrome_trace([])[0]
        assert not validate_chrome_trace({"traceEvents": "nope"})[0]
        ok, errors = validate_chrome_trace(
            {"traceEvents": [{"name": "x", "ph": "Z", "pid": "bad", "tid": 0}]}
        )
        assert not ok
        assert any("bad phase" in error for error in errors)
        assert any("pid" in error for error in errors)
        ok, errors = validate_chrome_trace(
            {"traceEvents": [
                {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": -4, "dur": 0}
            ]}
        )
        assert not ok

    def test_empty_trace_exports_no_events(self, tmp_path):
        path = str(tmp_path / "empty.json")
        assert obs.write_chrome_trace(path, []) == 0
        ok, _ = obs.validate_chrome_trace_file(path)
        assert ok

    def test_span_tree_errors_flags_dangling_and_escaping_children(self):
        spans = _traced_nest()
        assert span_tree_errors(spans) == []
        spans[1].parent_id = 999
        assert any("dangling" in error for error in span_tree_errors(spans))

    def test_export_trace_metrics_formats(self, tmp_path):
        obs.configure_tracing(True)
        obs.count("cache.hit", 3)
        obs.observe("stage_time", 0.5)
        json_path = str(tmp_path / "metrics.json")
        assert obs.export_trace(json_path, fmt="metrics-json") == 2
        data = json.load(open(json_path))
        assert data["counters"]["cache.hit"] == 3.0
        assert data["histograms"]["stage_time"]["count"] == 1.0
        text_path = str(tmp_path / "metrics.txt")
        assert obs.export_trace(text_path, fmt="metrics") == 2
        text = open(text_path).read()
        assert "cache.hit" in text and "p99" in text


class TestChromeTraceFile:
    def test_traces_a_region_and_writes_the_merged_file(self, tmp_path):
        path = str(tmp_path / "out.json")
        with obs.chrome_trace_file(path) as trace:
            assert obs.tracing_enabled()
            with obs.trace_span("region"):
                pass
        assert not obs.tracing_enabled()
        assert trace.span_count == 1
        ok, errors = obs.validate_chrome_trace_file(path)
        assert ok, errors


class TestProgressRenderer:
    def test_renders_nothing_when_stream_is_not_a_tty(self):
        stream = io.StringIO()  # isatty() -> False
        progress = ProgressRenderer(stream=stream)
        progress.update(1, 4, current="x")
        progress.close()
        assert stream.getvalue() == ""

    def test_forced_enabled_renders_and_closes_with_newline(self):
        stream = io.StringIO()
        progress = ProgressRenderer(stream=stream, enabled=True)
        progress.update(1, 4, current="spmv · baseline", cache_hits=1)
        progress.update(2, 4)
        progress.close()
        out = stream.getvalue()
        assert "[1/4]" in out and "[2/4]" in out
        assert "spmv · baseline" in out
        assert out.endswith("\n")
        # closing twice adds nothing
        progress.close()
        assert stream.getvalue() == out

    def test_attach_drives_updates_from_session_events(self):
        from repro.exec import RunPlan, Session
        from repro.experiments.parallel import ExperimentJob
        from repro.experiments.runner import ExperimentConfig
        from repro.dag.generators import spmv

        config = ExperimentConfig(
            name="progress-test", num_processors=2, ilp_time_limit=1.0
        )
        jobs = [
            ExperimentJob.make(spmv(3, seed=s), config, member="bspg+clairvoyant")
            for s in (1, 2)
        ]
        stream = io.StringIO()
        progress = ProgressRenderer(stream=stream, enabled=True)
        session = Session()
        progress.attach(session)
        session.run(RunPlan.from_jobs(jobs))
        progress.close()
        out = stream.getvalue()
        assert "[1/2]" in out and "[2/2]" in out
        assert "bspg+clairvoyant" in out
