"""Tests for the experiment configuration, tables and figures.

ILP-solving runs use very short time limits here: the point is to exercise
the harness end to end (valid schedules, correct bookkeeping), not to obtain
good solutions — that is what the benchmarks are for.
"""

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.figures import RatioSeries, render_figure4, theorem41_comparison
from repro.experiments.runner import (
    ExperimentConfig,
    _env_float,
    _env_int,
    dataset_limit,
    dataset_scale,
    env_bench_workers,
    env_cache_dir,
)
from repro.exec import Session, plan_pipelines
from repro.experiments.tables import (
    ILP_SPEC,
    geomean_summary,
    table3,
    table4_configurations,
)
from repro.dag.generators import fork_join_dag, simple_pagerank
from repro.dag.analysis import assign_random_memory_weights


@pytest.fixture
def tiny_dag():
    dag = fork_join_dag(width=3, stages=1)
    assign_random_memory_weights(dag, seed=1)
    dag.name = "tiny_forkjoin"
    return dag


FAST = ExperimentConfig(name="test", num_processors=2, ilp_time_limit=1.0)


class TestExperimentConfig:
    def test_instance_construction(self, tiny_dag):
        instance = FAST.instance_for(tiny_dag)
        assert instance.num_processors == 2
        assert instance.cache_size == pytest.approx(3.0 * instance.minimum_cache_size())

    def test_variant(self):
        variant = FAST.variant(name="async", synchronous=False, cache_factor=5.0)
        assert variant.synchronous is False
        assert variant.cache_factor == 5.0
        assert FAST.synchronous is True  # original untouched

    def test_negative_node_limit_is_rejected_at_construction(self):
        # it used to be accepted and hashed into job keys, failing only once
        # a job of the plan built its solver options
        with pytest.raises(ConfigurationError, match="node_limit must be None or >= 0, got -1"):
            ExperimentConfig(ilp_node_limit=-1, ilp_backend="bnb")
        with pytest.raises(ConfigurationError, match="got -1"):
            FAST.variant(ilp_node_limit=-1)
        config = ExperimentConfig(ilp_node_limit=0, ilp_backend="bnb")
        results = Session().run(
            plan_pipelines(["bspg+clairvoyant", "baseline|ilp"], [fork_join_dag(width=3, stages=1)], config)
        )
        assert len(results) == 2

    def test_ilp_config_propagates_settings(self):
        config = FAST.variant(allow_recomputation=False, step_cap=8)
        ilp = config.ilp_config()
        assert ilp.allow_recomputation is False
        assert ilp.max_steps == 8
        assert ilp.solver_options.time_limit == 1.0

    def test_table4_configurations(self):
        configs = table4_configurations(FAST)
        assert set(configs) == {"base", "r5", "r1", "p8", "L0", "async"}
        assert configs["r5"].cache_factor == 5.0
        assert configs["p8"].num_processors == 8
        assert configs["L0"].L == 0.0
        assert configs["async"].synchronous is False

    def test_env_knob_helpers(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "paper")
        assert dataset_scale() == "paper"
        monkeypatch.setenv("REPRO_BENCH_SCALE", "bogus")
        with pytest.warns(UserWarning, match="REPRO_BENCH_SCALE"):
            assert dataset_scale() == "default"
        monkeypatch.setenv("REPRO_BENCH_LIMIT", "3")
        assert dataset_limit() == 3
        monkeypatch.setenv("REPRO_BENCH_LIMIT", "xyz")
        with pytest.warns(UserWarning, match="REPRO_BENCH_LIMIT"):
            assert dataset_limit() is None


class TestEnvParsingHelpers:
    """Malformed environment values fall back to the default — loudly."""

    def test_env_float_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert _env_float("REPRO_TEST_KNOB", 2.5) == 2.5

    def test_env_float_parses_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "7.25")
        assert _env_float("REPRO_TEST_KNOB", 2.5) == 7.25

    def test_env_float_malformed_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "fast")
        with pytest.warns(UserWarning, match="REPRO_TEST_KNOB"):
            assert _env_float("REPRO_TEST_KNOB", 2.5) == 2.5

    def test_env_int_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert _env_int("REPRO_TEST_KNOB", 4) == 4
        assert _env_int("REPRO_TEST_KNOB", None) is None

    def test_env_int_parses_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "12")
        assert _env_int("REPRO_TEST_KNOB", None) == 12

    def test_env_int_malformed_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "3.5")
        with pytest.warns(UserWarning, match="REPRO_TEST_KNOB"):
            assert _env_int("REPRO_TEST_KNOB", 9) == 9

    def test_valid_values_do_not_warn(self, monkeypatch, recwarn):
        monkeypatch.setenv("REPRO_TEST_KNOB", "3")
        assert _env_int("REPRO_TEST_KNOB", 1) == 3
        assert _env_float("REPRO_TEST_KNOB", 1.0) == 3.0
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    # REPRO_BENCH_WORKERS / REPRO_CACHE_DIR: the engine/session env knobs
    # follow the same warn-and-fall-back convention as REPRO_ILP_BACKEND
    # and REPRO_BENCH_SCALE
    def test_bench_workers_unset_and_valid(self, monkeypatch, recwarn):
        monkeypatch.delenv("REPRO_BENCH_WORKERS", raising=False)
        assert env_bench_workers() == 1
        assert env_bench_workers(3) == 3
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "4")
        assert env_bench_workers() == 4
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    def test_bench_workers_malformed_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "many")
        with pytest.warns(UserWarning, match="REPRO_BENCH_WORKERS"):
            assert env_bench_workers(2) == 2

    def test_bench_workers_non_positive_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "0")
        with pytest.warns(UserWarning, match="REPRO_BENCH_WORKERS"):
            assert env_bench_workers() == 1
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "-3")
        with pytest.warns(UserWarning, match="REPRO_BENCH_WORKERS"):
            assert env_bench_workers(2) == 2

    def test_cache_dir_unset_and_valid(self, monkeypatch, tmp_path, recwarn):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert env_cache_dir() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        assert env_cache_dir() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "fresh"))
        assert env_cache_dir() == str(tmp_path / "fresh")  # may not exist yet
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert env_cache_dir() == str(tmp_path)
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    def test_cache_dir_existing_file_warns_and_disables(self, monkeypatch, tmp_path):
        not_a_dir = tmp_path / "occupied.json"
        not_a_dir.write_text("{}")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(not_a_dir))
        with pytest.warns(UserWarning, match="REPRO_CACHE_DIR"):
            assert env_cache_dir() is None


class TestRunners:
    def test_run_instance_reports_consistent_costs(self, tiny_dag):
        (result,) = Session().run(plan_pipelines([ILP_SPEC], [tiny_dag], FAST))
        assert result.instance_name == "tiny_forkjoin"
        assert result.baseline_cost > 0
        assert result.ilp_cost <= result.baseline_cost + 1e-9
        assert 0 < result.ratio <= 1.0 + 1e-9

    @pytest.mark.slow
    def test_run_instance_with_baselines_extra_columns(self):
        (result,) = table3(config=FAST.variant(ilp_node_limit=5), limit=1)
        for key in ("weak", "bsp_ilp", "bsp_ilp_plus_ilp"):
            assert key in result.extra_costs
            assert result.extra_costs[key] > 0

    @pytest.mark.slow
    def test_run_divide_and_conquer_instance(self):
        dag = simple_pagerank(num_blocks=3, iterations=2, seed=3)
        assign_random_memory_weights(dag, seed=3)
        dag.name = "tiny_pagerank"
        config = ExperimentConfig(name="dac_test", num_processors=2, cache_factor=5.0, ilp_time_limit=1.0)
        (result,) = Session().run(plan_pipelines(["dac(max_part_size=10)"], [dag], config))
        assert result.baseline_cost > 0
        assert result.ilp_cost > 0
        assert result.extra_costs["parts"] >= 1

    def test_geomean_summary(self, tiny_dag):
        (result,) = Session().run(plan_pipelines([ILP_SPEC], [tiny_dag], FAST))
        summary = geomean_summary({"base": [result]})
        assert summary["base"] == pytest.approx(result.ratio)


class TestFigures:
    def test_theorem41_comparison_growing_gap(self):
        points = theorem41_comparison(sizes=(4, 6, 8), chain_factor=2)
        assert len(points) == 3
        ratios = [p.ratio for p in points]
        assert all(r > 1.0 for r in ratios)
        assert ratios == sorted(ratios)

    def test_ratio_series_statistics(self):
        series = RatioSeries(name="demo", ratios=[0.5, 0.75, 1.0])
        assert series.minimum == 0.5
        assert series.maximum == 1.0
        assert 0.5 <= series.quantile(0.5) <= 1.0
        assert 0.6 < series.geomean < 0.8

    def test_render_figure4_output(self):
        series = {
            "base": RatioSeries("base", [0.8, 0.9]),
            "async": RatioSeries("async", [1.0, 0.95]),
        }
        text = render_figure4(series)
        assert "Figure 4" in text
        assert "base" in text and "async" in text
