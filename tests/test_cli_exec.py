"""CLI tests for the exec sub-command (the Session-backed execution core),
the --budget flag, and the sweep syntax in --pipeline flags."""

import pytest

from repro import cli


class TestExecRun:
    def test_streams_and_reduces_a_race_pipeline(self, capsys):
        exit_code = cli.main([
            "exec", "run",
            "--pipeline", "baseline|race(ilp@scipy,ilp@bnb)",
            "--limit", "2", "--node-limit", "5", "--time-limit", "1",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        # streaming lines, the canonical (sorted) race spec, and the table
        assert "[  1/2]" in out
        assert "race(ilp@bnb,ilp@scipy)" in out
        assert "winner" in out
        assert "session: 2 jobs: 2 executed" in out

    def test_race_winner_identical_under_both_backend_orderings(self, capsys):
        outputs = []
        for spec in ("baseline|race(ilp@scipy,ilp@bnb)",
                     "baseline|race(ilp@bnb,ilp@scipy)"):
            assert cli.main([
                "exec", "run", "--pipeline", spec,
                "--limit", "2", "--node-limit", "5", "--time-limit", "1",
            ]) == 0
            out = capsys.readouterr().out
            outputs.append([
                line for line in out.splitlines()
                if "cost=" in line or "race[" in line
            ])
        assert outputs[0] == outputs[1]

    def test_budget_threads_into_every_stage_and_the_spec(self, capsys):
        exit_code = cli.main([
            "exec", "run", "--pipeline", "bspg+clairvoyant|refine(budget=50)",
            "--limit", "1", "--time-limit", "1", "--budget", "30",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "bspg+clairvoyant(budget=30s)|refine(budget=30s,budget=50)" in out
        assert "stage budget: 30s" in out

    def test_sweep_syntax_expands_to_member_families(self, capsys):
        exit_code = cli.main([
            "exec", "run", "--pipeline", "refine(seed={1,2,3})",
            "--members", "bspg+clairvoyant",
            "--limit", "1", "--time-limit", "1",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        for seed in (1, 2, 3):
            assert f"refine(seed={seed})" in out
        assert "4 pipelines" in out

    def test_cache_makes_second_run_free(self, tmp_path, capsys):
        argv = [
            "exec", "run", "--members", "bspg+clairvoyant,cilk+lru",
            "--limit", "2", "--time-limit", "1",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "4 cache hits" in out
        assert "(cache)" in out

    def test_unknown_members_warn_and_are_skipped(self, capsys):
        with pytest.warns(UserWarning, match="quantum"):
            exit_code = cli.main([
                "exec", "run", "--members", "bspg+clairvoyant,quantum",
                "--limit", "1", "--time-limit", "1",
            ])
        assert exit_code == 0
        assert "1 pipelines" in capsys.readouterr().out

    def test_malformed_sweep_warns_and_is_skipped(self, capsys):
        with pytest.warns(UserWarning, match="malformed"):
            exit_code = cli.main([
                "exec", "run", "--pipeline", "dac(max_part_size={2,4",
                "--members", "bspg+clairvoyant",
                "--limit", "1", "--time-limit", "1",
            ])
        assert exit_code == 0

    def test_all_requested_specs_malformed_errors_instead_of_defaulting(self):
        # an explicitly requested (but entirely malformed) spec list must
        # not silently fall back to the default portfolio
        from repro.exceptions import ConfigurationError

        with pytest.warns(UserWarning, match="malformed"):
            with pytest.raises(ConfigurationError, match="no valid pipeline"):
                cli.main([
                    "exec", "run", "--pipeline", "dac(max_part_size={})",
                    "--limit", "1", "--time-limit", "1",
                ])

    @pytest.mark.parametrize("command", [
        ["exec", "run", "--limit", "1", "--node-limit", "-1"],
        ["experiment", "--limit", "1", "--node-limit", "-1"],
        ["portfolio", "--limit", "1", "--node-limit", "-1"],
        # a dataset --limit below 1 used to slice from the end or run nothing
        ["exec", "run", "--limit", "-2"],
        ["exec", "run", "--limit", "0"],
        ["experiment", "--limit", "0"],
        ["portfolio", "--limit", "0"],
    ])
    def test_negative_node_limit_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(command)
        assert exit_info.value.code == 2
        flag, value = command[-2:]
        bound = {"--node-limit": 0, "--limit": 1}[flag]
        err = capsys.readouterr().err
        assert f"argument {flag}: must be >= {bound}, got {value}" in err


class TestExecSharded:
    ARGS = [
        "--members", "bspg+clairvoyant,cilk+lru",
        "--limit", "2", "--time-limit", "1",
    ]

    def test_spawn_shards_merges_byte_identically(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        single = tmp_path / "single.jsonl"
        merged = tmp_path / "merged.jsonl"
        assert cli.main(["exec", "run", *self.ARGS,
                         "--cache-dir", cache, "--results", str(single)]) == 0
        capsys.readouterr()
        assert cli.main(["exec", "run", *self.ARGS,
                         "--cache-dir", cache, "--results", str(merged),
                         "--spawn-shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 shard process(es)" in out
        assert "(shard 0)" in out and "(shard 1)" in out
        assert "winner" in out  # the portfolio reduction still prints
        assert merged.read_bytes() == single.read_bytes()

    def test_manual_shards_plus_merge_match_single_process(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        single = tmp_path / "single.jsonl"
        manual = tmp_path / "manual.jsonl"
        assert cli.main(["exec", "run", *self.ARGS,
                         "--cache-dir", cache, "--results", str(single)]) == 0
        for shard_id in ("0", "1"):
            assert cli.main(["exec", "run", *self.ARGS,
                             "--cache-dir", cache, "--results", str(manual),
                             "--shards", "2", "--shard-id", shard_id]) == 0
        out = capsys.readouterr().out
        assert "shard 0 of 2" in out and "shard 1 of 2" in out
        assert "repro exec merge" in out
        assert (tmp_path / "manual.jsonl.shard0of2").is_file()
        assert cli.main(["exec", "merge", *self.ARGS,
                         "--results", str(manual), "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "merged 2 shard file(s)" in out
        assert "winner" in out
        assert manual.read_bytes() == single.read_bytes()

    def test_shard_flag_validation(self, tmp_path):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="--shard-id requires"):
            cli.main(["exec", "run", *self.ARGS, "--shard-id", "0"])
        with pytest.raises(ConfigurationError, match="--shards needs --shard-id"):
            cli.main(["exec", "run", *self.ARGS, "--shards", "2"])
        with pytest.raises(ConfigurationError, match="requires --results"):
            cli.main(["exec", "run", *self.ARGS,
                      "--shards", "2", "--shard-id", "0"])
        with pytest.raises(ConfigurationError, match="excludes the"):
            cli.main(["exec", "run", *self.ARGS, "--spawn-shards", "2",
                      "--shards", "2", "--shard-id", "0",
                      "--results", str(tmp_path / "r.jsonl")])
        with pytest.raises(ConfigurationError, match="--results"):
            cli.main(["exec", "merge", *self.ARGS, "--shards", "2"])


class TestPortfolioSweeps:
    def test_pipeline_flag_expands_sweeps(self, capsys):
        exit_code = cli.main([
            "portfolio", "--members", "bspg+clairvoyant",
            "--pipeline", "refine(seed={1,2})",
            "--limit", "1", "--time-limit", "1",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "refine(seed=1)" in out
        assert "refine(seed=2)" in out


class TestPipelineRunSession:
    def test_workers_and_budget_flags(self, capsys):
        exit_code = cli.main([
            "pipeline", "run", "--spec", "baseline|race(ilp@bnb,ilp@scipy)",
            "--generator", "spmv", "--size", "3", "--processors", "2",
            "--time-limit", "1", "--workers", "2", "--budget", "30",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "canonical spec: baseline(budget=30s)|race(ilp@bnb,ilp@scipy,budget=30s)" in out
        assert "race[" in out

    def test_list_documents_race_budget_and_sweeps(self, capsys):
        assert cli.main(["pipeline", "list"]) == 0
        out = capsys.readouterr().out
        assert "race(a,b,...)" in out
        assert "budget=<s>s" in out
        assert "key={a,b,c}" in out
        assert "baseline|race(ilp@bnb,ilp@scipy)" in out
