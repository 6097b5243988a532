"""CLI tests for the pipeline sub-command and the portfolio spec plumbing."""

import json

import pytest

from repro import cli, obs


class TestPipelineList:
    def test_lists_stages_and_member_specs(self, capsys):
        assert cli.main(["pipeline", "list"]) == 0
        out = capsys.readouterr().out
        for stage in ("baseline", "bspg", "ilp", "refine", "dac"):
            assert stage in out
        assert "ilp(warm=objective)" in out     # the legacy 'ilp' member spec
        assert "spec grammar" in out


class TestPipelineRun:
    def test_runs_a_three_stage_spec(self, capsys):
        exit_code = cli.main([
            "pipeline", "run", "--spec", "bspg+clairvoyant|refine|ilp",
            "--generator", "spmv", "--size", "3", "--processors", "2",
            "--time-limit", "1",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "canonical spec: bspg+clairvoyant|refine|ilp" in out
        for token in ("bspg+clairvoyant", "refine", "ilp", "final cost:"):
            assert token in out
        assert "solve(s)" in out  # per-stage telemetry column

    def test_accepts_legacy_member_names(self, capsys):
        exit_code = cli.main([
            "pipeline", "run", "--spec", "cilk+lru",
            "--generator", "spmv", "--size", "3", "--time-limit", "1",
        ])
        assert exit_code == 0
        assert "canonical spec: cilk+lru" in capsys.readouterr().out

    def test_inapplicable_spec_exits_nonzero(self, capsys):
        exit_code = cli.main([
            "pipeline", "run", "--spec", "dfs+clairvoyant",
            "--generator", "spmv", "--size", "3", "--processors", "2",
            "--time-limit", "1",
        ])
        assert exit_code == 1
        assert "inapplicable" in capsys.readouterr().out

    def test_node_limit_bounds_every_ilp_stage(self, capsys, tmp_path):
        command = [
            "pipeline", "run", "--spec", "baseline|ilp", "--generator", "spmv",
            "--size", "3", "--backend", "bnb", "--time-limit", "60",
            "--node-limit", "2",
        ]
        trace = tmp_path / "trace.json"
        reports = []
        for extra in (["--trace", str(trace)], []):
            try:
                assert cli.main([*command, *extra]) == 0
            finally:
                # as the tests/obs fixture does: close the tracer's spill file
                obs.get_tracer().reset()
            out = capsys.readouterr().out
            reports.append([
                line for line in out.splitlines()
                if line.startswith(("status:", "  final cost:"))
            ])
        assert len(reports[0]) == 2 and reports[0] == reports[1]
        events = json.loads(trace.read_text())["traceEvents"]
        solves = [event["args"] for event in events if event["name"] == "ilp.solve"]
        assert solves and all(args["node_limit"] == 2 for args in solves)

    def test_negative_node_limit_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([
                "pipeline", "run", "--spec", "baseline|ilp", "--generator", "spmv",
                "--size", "3", "--node-limit", "-1",
            ])
        assert exit_info.value.code == 2
        assert "argument --node-limit: must be >= 0, got -1" in capsys.readouterr().err

    def test_unknown_spec_raises(self):
        with pytest.raises(Exception):
            cli.main([
                "pipeline", "run", "--spec", "quantum",
                "--generator", "spmv", "--size", "3",
            ])


class TestPortfolioSpecPlumbing:
    def test_pipeline_flag_adds_spec_members(self, capsys):
        exit_code = cli.main([
            "portfolio", "--members", "bspg+clairvoyant",
            "--pipeline", "bspg+clairvoyant|refine",
            "--limit", "1", "--time-limit", "0.5",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "bspg+clairvoyant|refine" in out
        assert "winner" in out

    def test_list_members_prints_spec_table(self, capsys):
        assert cli.main(["portfolio", "--list-members"]) == 0
        out = capsys.readouterr().out
        assert "baseline|ilp(warm=objective)" in out
        assert "dac|refine" in out

    def test_unknown_member_warns_and_is_skipped(self, capsys):
        with pytest.warns(UserWarning, match="ignoring unknown portfolio member"):
            exit_code = cli.main([
                "portfolio", "--members", "bspg+clairvoyant,quantum",
                "--limit", "1", "--time-limit", "0.5",
            ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "quantum" not in out.split("wins per member")[1]

    def test_all_unknown_members_still_fail(self):
        with pytest.warns(UserWarning):
            with pytest.raises(Exception, match="no valid portfolio members"):
                cli.main([
                    "portfolio", "--members", "quantum,warp-drive",
                    "--limit", "1",
                ])

    def test_refine_flag_extends_specs_with_a_refine_stage(self, capsys):
        exit_code = cli.main([
            "portfolio", "--pipeline", "baseline",
            "--members", "cilk+lru", "--refine",
            "--limit", "1", "--time-limit", "0.5",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        # the legacy name got "+refine", the raw spec an explicit "|refine"
        assert "cilk+lru+refine" in out
        assert "baseline|refine" in out

    def test_refine_flag_skips_specs_already_ending_in_refine(self, capsys):
        exit_code = cli.main([
            "portfolio", "--pipeline", "bspg+clairvoyant|refine",
            "--refine", "--limit", "1", "--time-limit", "0.5",
        ])
        assert exit_code == 0
        assert "refine|refine" not in capsys.readouterr().out

    def test_shared_prefix_reuse_reported_in_footer(self, capsys):
        exit_code = cli.main([
            "portfolio", "--members", "bspg+clairvoyant,bspg+clairvoyant+refine",
            "--limit", "2", "--time-limit", "0.5",
        ])
        assert exit_code == 0
        assert "shared-prefix reuse" in capsys.readouterr().out
