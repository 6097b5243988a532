"""Tests for the benchmark datasets and the reporting helpers."""

import pytest

from repro.dag.analysis import minimum_cache_size
from repro.experiments.datasets import (
    small_dataset,
    small_dataset_specs,
    tiny_dataset,
    tiny_dataset_specs,
)
from repro.experiments.reporting import (
    format_results_table,
    results_to_rows,
    summarize_ratios,
    write_csv,
)
from repro.experiments.runner import geometric_mean
from repro.pipeline import InstanceResult
from repro.experiments import paper_reference


class TestDatasets:
    def test_tiny_default_scale_properties(self):
        dags = tiny_dataset(scale="default")
        assert len(dags) >= 12
        for dag in dags:
            assert dag.is_acyclic()
            assert dag.num_nodes >= 10
            assert all(1 <= dag.mu(v) <= 5 for v in dag.nodes)
            assert minimum_cache_size(dag) > 0

    def test_tiny_paper_scale_has_15_instances(self):
        specs = tiny_dataset_specs(scale="paper")
        assert len(specs) == 15
        names = [s.name for s in specs]
        assert "bicgstab" in names and "kNN_N6_K4" in names

    def test_small_dataset_is_larger_than_tiny(self):
        tiny = tiny_dataset(scale="default", limit=3)
        small = small_dataset(scale="default", limit=3)
        assert min(d.num_nodes for d in small) > min(d.num_nodes for d in tiny)

    def test_small_dataset_has_10_specs(self):
        assert len(small_dataset_specs("default")) == 10
        assert len(small_dataset_specs("paper")) == 10

    def test_deterministic_builds(self):
        a = tiny_dataset(scale="default", limit=2)
        b = tiny_dataset(scale="default", limit=2)
        for dag_a, dag_b in zip(a, b):
            assert set(dag_a.edges()) == set(dag_b.edges())
            assert [dag_a.mu(v) for v in dag_a.nodes] == [dag_b.mu(v) for v in dag_b.nodes]

    def test_limit_parameter(self):
        assert len(tiny_dataset(limit=4)) == 4

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            tiny_dataset_specs(scale="huge")
        with pytest.raises(ValueError):
            small_dataset_specs(scale="huge")

    def test_instance_names_match_paper_tables(self):
        names = {s.name for s in tiny_dataset_specs("paper")}
        assert names == set(paper_reference.TABLE1.keys())
        small_names = {s.name for s in small_dataset_specs("paper")}
        assert small_names == set(paper_reference.TABLE2.keys())


def _fake_results():
    return [
        InstanceResult("alpha", 20, baseline_cost=100.0, ilp_cost=80.0),
        InstanceResult("beta", 30, baseline_cost=200.0, ilp_cost=200.0, extra_costs={"weak": 250.0}),
    ]


class TestReporting:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 1.0]) == pytest.approx(1.0)
        assert geometric_mean([0.5, 2.0]) == pytest.approx(1.0)
        assert geometric_mean([]) == 1.0
        assert geometric_mean([4.0]) == pytest.approx(4.0)

    def test_ratio_property(self):
        res = InstanceResult("x", 10, baseline_cost=100.0, ilp_cost=76.0)
        assert res.ratio == pytest.approx(0.76)
        zero = InstanceResult("z", 10, baseline_cost=0.0, ilp_cost=0.0)
        assert zero.ratio == 1.0

    def test_format_results_table(self):
        text = format_results_table(_fake_results(), title="Demo", paper_reference=paper_reference.TABLE1)
        assert "Demo" in text
        assert "alpha" in text
        assert "geometric-mean" in text

    def test_results_to_rows_includes_extras(self):
        rows = results_to_rows(_fake_results())
        assert rows[1]["weak"] == 250.0
        assert rows[0]["ratio"] == pytest.approx(0.8)

    def test_write_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(_fake_results(), path)
        content = path.read_text()
        assert "instance" in content.splitlines()[0]
        assert "alpha" in content
        write_csv([], tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_text() == ""

    def test_summarize_ratios(self):
        summary = summarize_ratios({"base": _fake_results()})
        assert summary["base"] == pytest.approx(geometric_mean([0.8, 1.0]))


class TestPaperReference:
    def test_reference_tables_are_consistent(self):
        assert set(paper_reference.TABLE3_EXTRA) == set(paper_reference.TABLE1)
        for config, table in paper_reference.TABLE4.items():
            assert set(table) == set(paper_reference.TABLE1), config
        assert 0.5 < paper_reference.GEOMEAN_RATIOS["base"] < 1.0

    def test_paper_ilp_never_worse_in_table1(self):
        for base, ilp in paper_reference.TABLE1.values():
            assert ilp <= base
