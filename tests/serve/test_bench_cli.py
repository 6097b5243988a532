"""Bench + CLI tests: the JSON SLO summary is byte-identical per seed."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.experiments.reporting import format_slo_table
from repro.serve import run_serve_bench

BENCH_ARGS = dict(seed=7, requests=500, rate=6.0, limit=2)


class TestRunServeBench:
    def test_summary_is_deterministic_and_wall_clock_free(self):
        one = run_serve_bench(**BENCH_ARGS)
        two = run_serve_bench(**BENCH_ARGS, workers=4)
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
        assert one["slo"]["requests"] == 500
        assert one["trace_digest"]
        # nothing in the summary may be wall clock: it must survive a
        # round-trip through JSON bit-exactly on any machine
        assert json.loads(json.dumps(one)) == one

    def test_different_seeds_produce_different_traces(self):
        one = run_serve_bench(**{**BENCH_ARGS, "seed": 1})
        two = run_serve_bench(**{**BENCH_ARGS, "seed": 2})
        assert one["trace_digest"] != two["trace_digest"]

    def test_cache_hot_trace_solves_few_distinct_jobs(self):
        summary = run_serve_bench(**BENCH_ARGS)
        assert summary["slo"]["distinct_jobs"] <= 6
        assert summary["slo"]["cache_hit_rate"] > 0.95


class TestServeBenchCli:
    def _run(self, tmp_path, name, *extra):
        out = tmp_path / name
        code = main([
            "serve", "bench", "--seed", "7", "--requests", "500",
            "--rate", "6", "--limit", "2", "--output", str(out), *extra,
        ])
        assert code == 0
        return out.read_bytes()

    def test_two_runs_diff_byte_for_byte_clean(self, tmp_path, capsys):
        first = self._run(tmp_path, "one.json")
        second = self._run(tmp_path, "two.json", "--workers", "4")
        assert first == second
        out = capsys.readouterr().out
        assert "trace digest:" in out
        assert "requests per pipeline spec:" in out

    @pytest.mark.parametrize("flag, value, message", [
        ("--rate", "nan", "rate must be finite"),
        ("--requests", "0", "arrival trace needs at least 1 request"),
        ("--servers", "0", "service needs at least 1 virtual server"),
    ], ids=["rate-nan", "requests-0", "servers-0"])
    def test_non_finite_rate_fails_without_writing_output(
        self, tmp_path, flag, value, message
    ):
        """A bad flag value prints one ``error:`` line on stderr and exits
        2, the ``repro lint`` usage convention, with no traceback, nothing
        on stdout and neither the summary nor the trace written."""
        out = tmp_path / "s.json"
        trace = tmp_path / "t.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "bench", "--seed", "3",
             "--requests", "200", "--limit", "2", flag, value,
             "--output", str(out), "--trace", str(trace)],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 2
        assert proc.stderr == f"error: {message}\n"
        assert "Traceback" not in proc.stdout + proc.stderr
        assert proc.stdout == ""
        assert not out.exists()
        assert not trace.exists()

    def test_json_mode_prints_the_summary(self, tmp_path, capsys):
        self._run(tmp_path, "one.json", "--json")
        out = capsys.readouterr().out
        summary = json.loads(out[: out.rindex("}") + 1])
        assert summary["bench"] == "serve"
        assert summary["slo"]["requests"] == 500


class TestFormatSloTable:
    def test_renders_metrics_and_spec_breakdown(self):
        summary = run_serve_bench(**BENCH_ARGS)["slo"]
        table = format_slo_table(summary, title="serve")
        assert "latency_p99" in table
        assert "deadline_miss_rate" in table
        for spec in summary["spec_requests"]:
            assert spec in table

    def test_title_and_empty_breakdown_are_optional(self):
        table = format_slo_table({"requests": 3, "latency_p50": 0.5})
        assert "requests" in table and "serve" not in table
