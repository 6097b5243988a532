"""CLI tests for the observability wiring: --trace on exec run /
pipeline run / serve bench, --progress, and the obs export command."""

import json

import pytest

from repro import cli, obs
from repro.exceptions import ConfigurationError


class TestExecRunTrace:
    def test_trace_writes_a_valid_chrome_trace(self, tmp_path, capsys):
        trace = tmp_path / "out.json"
        exit_code = cli.main([
            "exec", "run",
            "--pipeline", "baseline|race(ilp@bnb,ilp@scipy)",
            "--limit", "1", "--node-limit", "5", "--time-limit", "1",
            "--trace", str(trace),
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "chrome trace written to" in out
        ok, errors = obs.validate_chrome_trace_file(str(trace))
        assert ok, errors
        document = json.load(open(trace))
        names = {
            event["name"] for event in document["traceEvents"]
            if event["ph"] == "X"
        }
        assert {
            "session.run", "session.job", "pipeline", "stage",
            "race.branch", "ilp.solve",
        } <= names
        # tracing is off again once the command returns
        assert not obs.tracing_enabled()

    def test_traced_results_byte_identical_to_untraced(self, tmp_path, capsys):
        common = [
            "exec", "run", "--pipeline", "bspg+clairvoyant",
            "--limit", "2", "--time-limit", "1",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        traced = tmp_path / "traced.jsonl"
        untraced = tmp_path / "untraced.jsonl"
        assert cli.main(common + [
            "--results", str(traced), "--trace", str(tmp_path / "t.json"),
        ]) == 0
        assert cli.main(common + ["--results", str(untraced)]) == 0
        capsys.readouterr()
        assert traced.read_bytes() == untraced.read_bytes()

    def test_progress_flag_is_silent_off_tty(self, capsys):
        exit_code = cli.main([
            "exec", "run", "--pipeline", "bspg+clairvoyant",
            "--limit", "1", "--time-limit", "1", "--progress",
        ])
        assert exit_code == 0
        assert capsys.readouterr().err == ""


class TestPipelineRunTrace:
    def test_trace_captures_stage_and_solver_spans(self, tmp_path, capsys):
        trace = tmp_path / "pipe.json"
        exit_code = cli.main([
            "pipeline", "run", "--spec", "baseline|ilp@scipy",
            "--generator", "spmv", "--size", "3", "--time-limit", "1",
            "--trace", str(trace),
        ])
        assert exit_code == 0
        ok, errors = obs.validate_chrome_trace_file(str(trace))
        assert ok, errors
        document = json.load(open(trace))
        names = {
            event["name"] for event in document["traceEvents"]
            if event["ph"] == "X"
        }
        assert {"pipeline", "stage", "ilp.solve"} <= names

    def test_each_traced_run_in_one_process_writes_its_spans(self, tmp_path, capsys):
        # every --trace run spills into its own temporary directory; the
        # second run in a process must not append to the first's, deleted,
        # spill file and write an empty trace
        for name in ("first.json", "second.json"):
            trace = tmp_path / name
            assert cli.main([
                "pipeline", "run", "--spec", "bspg+clairvoyant",
                "--generator", "spmv", "--size", "3",
                "--trace", str(trace),
            ]) == 0
            events = json.load(open(trace))["traceEvents"]
            assert any(event["ph"] == "X" for event in events)


class TestServeBenchTrace:
    def test_traced_summary_identical_to_untraced(self, tmp_path, capsys):
        common = [
            "serve", "bench", "--seed", "3", "--requests", "200",
            "--limit", "2",
        ]
        traced = tmp_path / "traced.json"
        untraced = tmp_path / "untraced.json"
        assert cli.main(common + [
            "--output", str(traced), "--trace", str(tmp_path / "t.json"),
        ]) == 0
        assert cli.main(common + ["--output", str(untraced)]) == 0
        capsys.readouterr()
        assert traced.read_bytes() == untraced.read_bytes()
        document = json.load(open(tmp_path / "t.json"))
        names = {
            event["name"] for event in document["traceEvents"]
            if event["ph"] == "X"
        }
        assert {"serve.run", "serve.simulate", "serve.execute"} <= names


class TestObsExport:
    def _spill_a_run(self, spill, monkeypatch):
        monkeypatch.setenv(obs.ENV_TRACE, str(spill))
        # the CLI process would self-configure at import; do it explicitly
        obs.configure_tracing(True, spill_dir=str(spill))
        assert cli.main([
            "exec", "run", "--pipeline", "bspg+clairvoyant",
            "--limit", "1", "--time-limit", "1",
        ]) == 0
        obs.flush_observability()
        obs.configure_tracing(False, spill_dir=None)

    def test_export_chrome_trace_from_spill_dir(
        self, tmp_path, capsys, monkeypatch
    ):
        spill = tmp_path / "spill"
        self._spill_a_run(spill, monkeypatch)
        out_path = tmp_path / "merged.json"
        assert cli.main([
            "obs", "export", "--spill", str(spill),
            "--output", str(out_path),
        ]) == 0
        assert "exported" in capsys.readouterr().out
        ok, errors = obs.validate_chrome_trace_file(str(out_path))
        assert ok, errors

    def test_export_metrics_table_prints_to_stdout(
        self, tmp_path, capsys, monkeypatch
    ):
        spill = tmp_path / "spill"
        self._spill_a_run(spill, monkeypatch)
        assert cli.main([
            "obs", "export", "--spill", str(spill), "--format", "metrics",
        ]) == 0
        out = capsys.readouterr().out
        assert "histograms:" in out or "counters:" in out

    def test_export_without_spill_dir_errors_clearly(self, monkeypatch):
        monkeypatch.delenv(obs.ENV_TRACE, raising=False)
        with pytest.raises(ConfigurationError, match="spill"):
            cli.main(["obs", "export", "--output", "x.json"])
