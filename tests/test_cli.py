"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro import cli
from repro.dag import io as dag_io
from repro.dag.generators import spmv


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_schedule_defaults(self):
        args = cli.build_parser().parse_args(["schedule"])
        assert args.generator == "spmv"
        assert args.processors == 2
        assert args.method == "baseline"

    def test_experiment_arguments(self):
        args = cli.build_parser().parse_args(["experiment", "--table", "4", "--limit", "2"])
        assert args.table == 4
        assert args.limit == 2
        assert args.workers == 1
        assert args.cache_dir is None
        assert args.resume is False

    def test_experiment_engine_arguments(self):
        args = cli.build_parser().parse_args([
            "experiment", "--workers", "4", "--cache-dir", "/tmp/c",
            "--results", "r.jsonl", "--resume", "--node-limit", "500",
        ])
        assert args.workers == 4
        assert args.cache_dir == "/tmp/c"
        assert args.results == "r.jsonl"
        assert args.resume is True
        assert args.node_limit == 500

    def test_portfolio_arguments(self):
        args = cli.build_parser().parse_args([
            "portfolio", "--members", "bspg+clairvoyant,ilp", "--limit", "3",
            "--workers", "2",
        ])
        assert args.members == "bspg+clairvoyant,ilp"
        assert args.limit == 3
        assert args.workers == 2
        assert args.backend is None
        assert args.prune_gap == 0.0
        assert args.no_prune is False

    def test_backend_arguments(self):
        for command in (["schedule"], ["experiment"], ["portfolio"]):
            args = cli.build_parser().parse_args(command + ["--backend", "auto"])
            assert args.backend == "auto"

    def test_unknown_backend_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["portfolio", "--backend", "gurobi"])

    def test_prune_arguments(self):
        args = cli.build_parser().parse_args([
            "portfolio", "--prune-gap", "0.25", "--no-prune",
        ])
        assert args.prune_gap == 0.25
        assert args.no_prune is True


class TestScheduleCommand:
    def test_baseline_with_generator(self, capsys):
        exit_code = cli.main([
            "schedule", "--generator", "spmv", "--size", "4", "--processors", "2",
            "--method", "baseline", "--render",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "synchronous cost" in out
        assert "superstep" in out
        assert "makespan" in out  # Gantt chart rendered

    def test_schedule_from_dag_file_and_output(self, tmp_path, capsys):
        dag_path = tmp_path / "dag.json"
        dag_io.save_json(spmv(4, seed=2), dag_path)
        out_path = tmp_path / "schedule.json"
        exit_code = cli.main([
            "schedule", "--dag-file", str(dag_path), "--processors", "2",
            "--method", "baseline", "--output", str(out_path),
        ])
        assert exit_code == 0
        data = json.loads(out_path.read_text())
        assert data["instance"]["num_processors"] == 2
        assert data["supersteps"]

    def test_unknown_generator_exits(self):
        with pytest.raises(SystemExit):
            cli.main(["schedule", "--generator", "quantum"])

    def test_practical_method(self, capsys):
        exit_code = cli.main([
            "schedule", "--generator", "kmeans", "--size", "8",
            "--method", "practical", "--latency", "5",
        ])
        assert exit_code == 0
        assert "asynchronous cost" in capsys.readouterr().out


class TestDatasetCommand:
    def test_tiny_listing(self, capsys):
        exit_code = cli.main(["dataset", "--which", "tiny"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "bicgstab" in out
        assert "spmv_N6" in out

    def test_small_listing(self, capsys):
        exit_code = cli.main(["dataset", "--which", "small", "--scale", "default"])
        assert exit_code == 0
        assert "simple_pagerank" in capsys.readouterr().out


class TestExperimentCommand:
    def test_table1_tiny_run(self, capsys):
        exit_code = cli.main([
            "experiment", "--table", "1", "--limit", "1", "--time-limit", "0.5",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "geometric-mean" in out
        assert "engine:" in out

    def test_table1_cached_rerun_is_free(self, tmp_path, capsys):
        argv = [
            "experiment", "--table", "1", "--limit", "1", "--time-limit", "0.5",
            "--cache-dir", str(tmp_path),
        ]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert "1 executed, 0 cache hits" in first
        assert cli.main(argv) == 0
        second = capsys.readouterr().out
        assert "0 executed, 1 cache hits" in second
        # the cached run reports the exact same table
        assert first.split("engine:")[0] == second.split("engine:")[0]


class TestPortfolioCommand:
    def test_portfolio_run_prints_winners(self, capsys):
        exit_code = cli.main([
            "portfolio", "--members", "bspg+clairvoyant,cilk+lru",
            "--limit", "2", "--workers", "2", "--time-limit", "0.5",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "winner" in out
        assert "wins per member" in out
        assert "engine:" in out

    def test_portfolio_rejects_unknown_member(self):
        # unknown names warn and are skipped; an all-unknown list still fails
        with pytest.warns(UserWarning, match="ignoring unknown portfolio member"):
            with pytest.raises(Exception):
                cli.main(["portfolio", "--members", "quantum", "--limit", "1"])

    def test_portfolio_reports_backend_and_pruning(self, capsys):
        exit_code = cli.main([
            "portfolio", "--members", "bspg+clairvoyant,cilk+lru",
            "--limit", "1", "--time-limit", "0.5", "--backend", "auto",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "ilp backend: auto" in out
        assert "bound pruning:" in out

    def test_portfolio_no_prune_flag(self, capsys):
        exit_code = cli.main([
            "portfolio", "--members", "bspg+clairvoyant",
            "--limit", "1", "--time-limit", "0.5", "--no-prune",
        ])
        assert exit_code == 0
        assert "bound pruning: disabled" in capsys.readouterr().out


class TestBackendPlumbing:
    def test_env_backend_threads_into_experiment_config(self, monkeypatch):
        from repro.pipeline import ExperimentConfig
        from repro.ilp import ENV_BACKEND

        monkeypatch.setenv(ENV_BACKEND, "bnb")
        config = ExperimentConfig()
        assert config.ilp_backend == "bnb"
        assert config.ilp_config().backend == "bnb"

    def test_unknown_env_backend_warns_and_falls_back(self, monkeypatch):
        from repro.pipeline import ExperimentConfig
        from repro.ilp import ENV_BACKEND

        monkeypatch.setenv(ENV_BACKEND, "cplex")
        with pytest.warns(UserWarning, match="unknown ILP backend 'cplex'"):
            config = ExperimentConfig()
        assert config.ilp_backend == "scipy"

    def test_cli_backend_overrides_env(self, monkeypatch, capsys):
        from repro.ilp import ENV_BACKEND

        monkeypatch.setenv(ENV_BACKEND, "bnb")
        exit_code = cli.main([
            "portfolio", "--members", "bspg+clairvoyant",
            "--limit", "1", "--time-limit", "0.5", "--backend", "scipy",
        ])
        assert exit_code == 0
        assert "ilp backend: scipy" in capsys.readouterr().out

    def test_schedule_command_accepts_backend(self, capsys):
        exit_code = cli.main([
            "schedule", "--generator", "spmv", "--size", "3", "--processors", "1",
            "--method", "ilp", "--time-limit", "1", "--backend", "auto",
        ])
        assert exit_code == 0
        assert "synchronous cost" in capsys.readouterr().out

    def test_bsp_ilp_member_honours_configured_backend(self):
        """The two-stage bsp-ilp member's first-stage ILP must solve with the
        configured backend — its engine cache key claims it does."""
        from repro import obs
        from repro.dag.generators import chain_dag
        from repro.pipeline import ExperimentConfig, run_member

        with obs.Meter() as meter:
            run_member(
                chain_dag(4),
                ExperimentConfig(ilp_backend="bnb", ilp_time_limit=5.0),
                "bsp-ilp+lru",
            )
        assert [backend for backend, _ in meter.solves] == ["bnb"]

    def test_backend_job_keys_differ(self):
        """Jobs solved by different backends never collide in the cache."""
        from repro.exec import ExperimentJob
        from repro.pipeline import ExperimentConfig

        dag = spmv(3, seed=0)
        scipy_job = ExperimentJob.make(
            dag, ExperimentConfig(ilp_backend="scipy"), member="ilp")
        bnb_job = ExperimentJob.make(
            dag, ExperimentConfig(ilp_backend="bnb"), member="ilp")
        assert scipy_job.key() != bnb_job.key()


class TestConfigurationErrors:
    """A bad flag value that only the program can judge raises
    :class:`~repro.exceptions.ConfigurationError` out of :func:`cli.main`;
    ``python -m repro.cli`` reports it like an argparse usage error."""

    PROCESSORS = "num_processors must be at least 1, got 0"
    EXEC = ["exec", "run", "--pipeline", "bspg+clairvoyant", "--limit", "1"]

    @pytest.mark.parametrize("argv, message", [
        (EXEC + ["--budget", "-1"], "--budget must be positive (seconds)"),
        (EXEC + ["--spawn-shards", "0"], "--spawn-shards must be >= 1"),
        (EXEC + ["--shard-id", "1"], "--shard-id requires --shards N"),
        (["exec", "run", "--pipeline", "nosuch", "--limit", "1"],
         "no valid pipeline specs left after skipping malformed "
         "--pipeline/--members values; see 'repro pipeline list'"),
        (EXEC + ["--processors", "0"], PROCESSORS),
        (["portfolio", "--members", "bspg+clairvoyant", "--limit", "1",
          "--processors", "0"], PROCESSORS),
        (["schedule", "--processors", "0"], PROCESSORS),
        (["pipeline", "run", "--spec", "bspg+clairvoyant", "--processors", "0"],
         PROCESSORS),
    ], ids=["budget", "spawn-shards", "shard-id", "no-spec", "exec-processors",
            "portfolio-processors", "schedule-processors", "pipeline-processors"])
    def test_exits_2_with_one_error_line(self, tmp_path, argv, message):
        """Exit code 2, one ``error:`` line on stderr, no traceback, and no
        trace file from ``--trace`` (on the commands that take one)."""
        trace = tmp_path / "t.json"
        if argv[0] in ("exec", "pipeline"):
            argv = argv + ["--trace", str(trace)]
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 2, proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert errors == [f"error: {message}"]
        assert "Traceback" not in proc.stdout + proc.stderr
        assert not trace.exists()
