"""Span bookkeeping, self-time arithmetic and wrapper installation."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from perfbench import run, tracing
from perfbench.tracing import Span

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def span(name, start, end, sid, parent=None, pid=1, **attrs):
    return Span(name, start, end, parent, pid, (pid, sid), dict(attrs))


def test_union_length_merges_overlaps_and_ignores_empty():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 1), (0.5, 2), (3, 4), (5, 5)]) == 3.0


def test_self_time_of_nested_spans():
    spans = [
        span("outer", 0.0, 10.0, 1),
        span("a", 1.0, 3.0, 2, parent=(1, 1)),
        span("b", 2.0, 5.0, 3, parent=(1, 1)),      # overlaps a
        span("leaf", 2.5, 4.5, 4, parent=(1, 3)),   # only b's child
        span("late", 9.0, 12.0, 5, parent=(1, 1)),  # clipped at outer's end
    ]
    selfs = tracing.self_times(spans)
    assert selfs[(1, 1)] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[(1, 2)] == pytest.approx(2.0)
    assert selfs[(1, 3)] == pytest.approx(1.0)
    assert selfs[(1, 4)] == pytest.approx(2.0)


def test_self_time_across_processes():
    # a session in pid 1 whose jobs ran in parallel in pids 2 and 3
    spans = [
        span("exec.session", 0.0, 10.0, 1),
        span("exec.job", 1.0, 6.0, 1, parent=(1, 1), pid=2),
        span("exec.job", 2.0, 8.0, 1, parent=(1, 1), pid=3),
        span("pipeline", 1.5, 5.5, 2, parent=(2, 1), pid=2),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[(1, 1)] == pytest.approx(10.0 - 7.0)
    assert selfs[(2, 1)] == pytest.approx(1.0)
    assert selfs[(3, 1)] == pytest.approx(6.0)


def test_pool_metrics_and_job_percentiles():
    spans = [
        span("exec.session", 0.0, 10.0, 1),
        span("exec.job", 0.0, 4.0, 1, parent=(1, 1), pid=2),
        span("exec.job", 5.0, 9.0, 2, parent=(1, 1), pid=2),
        span("exec.job", 1.0, 9.0, 1, parent=(1, 1), pid=3),
    ]
    m = tracing.layer_metrics(spans, owner=1, workers=2)
    assert m["exec.pool.utilization"] == pytest.approx(16.0 / 20.0)
    assert m["exec.pool.wait_s"] == pytest.approx(1.0)
    assert m["exec.job.calls"] == 3
    assert m["exec.job.p50_ms"] == pytest.approx(4000.0)
    assert m["exec.job.p90_ms"] == pytest.approx(8000.0)
    inline = tracing.layer_metrics(
        [span("exec.session", 0, 2, 1), span("exec.job", 0, 1, 2, parent=(1, 1))],
        owner=1, workers=1,
    )
    assert inline["exec.pool.utilization"] == 0.0


def test_layer_ratios_come_from_span_attributes():
    spans = [
        span("refine", 0, 1, 1, proposals=100.0, accepted=5.0),
        span("ilp.solve", 1, 3, 2, nodes=4.0),
        span("pipeline", 0, 3, 3, prunable=2.0, pruned=1.0, ilp_improved=1.0),
    ]
    m = tracing.layer_metrics(spans, owner=1, workers=1)
    assert m["refine.accept_ratio"] == pytest.approx(0.05)
    assert m["ilp.solve.s_per_node"] == pytest.approx(0.5)
    assert m["ilp.solve.improved_ratio"] == 1.0
    assert m["pipeline.pruned_ratio"] == 0.5


def test_uninstall_restores_every_original_attribute():
    recorder = tracing.Recorder()
    targets = tracing.targets()
    originals = [vars(t.owner)[t.attr] for t in targets]
    with pytest.raises(RuntimeError):
        with tracing.installed(recorder):
            for target, original in zip(targets, originals):
                wrapped = vars(target.owner)[target.attr]
                assert wrapped is not original
                assert wrapped.__wrapped__ is original
            raise RuntimeError("leave the block early")
    for target, original in zip(targets, originals):
        assert vars(target.owner)[target.attr] is original, target.label


def test_wrapped_pipeline_records_nested_layers():
    from repro.experiments.datasets import tiny_dataset
    from repro.pipeline import Pipeline

    (dag,) = tiny_dataset(limit=1)
    recorder = tracing.Recorder()
    with tracing.installed(recorder):
        Pipeline("bspg+lru|refine(budget=50)").run(dag)
    by_name = {s.name: s for s in recorder.spans}
    pipeline = by_name["pipeline"]
    assert pipeline.parent is None
    for name in ("bsp", "cache", "model.validate", "model.cost", "refine"):
        assert by_name[name].parent == pipeline.id, name
    assert by_name["refine"].attrs["proposals"] <= 50


def test_metric_names_units_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert per_layer == list(tracing.PER_LAYER)
    assert end_to_end == list(run.END_TO_END)
    names = [name for name, *_ in per_layer + end_to_end]
    assert len(set(names)) == len(names)
    for name, unit, *_ in per_layer + end_to_end:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    spans = [span("pipeline", 0, 1, 1)]
    computed = set(tracing.layer_metrics(spans, owner=1, workers=1))
    measured_outside = {"dag.generate_s", "trace.overhead_share"}
    assert computed | measured_outside == {name for name, *_ in per_layer}
    for parts in tracing.GATED_COUNTS:
        assert set(parts) <= computed


def test_gate_flags_counts_that_differ_between_traced_passes():
    first = run.Pass(traced=True, layers={"bsp.calls": 10.0, "pipeline.prefix_hits": 0.0})
    moved = run.Pass(traced=True, layers={"bsp.calls": 9.0, "pipeline.prefix_hits": 1.0})
    lost = run.Pass(traced=True, layers={"bsp.calls": 9.0, "pipeline.prefix_hits": 0.0})
    for p in (first, moved, lost):
        for parts in tracing.GATED_COUNTS[1:]:
            p.layers[parts[0]] = 3.0
    _, unstable = run._combine_layers([first, moved])
    assert unstable == []
    _, unstable = run._combine_layers([first, lost])
    assert len(unstable) == 1 and unstable[0].startswith("bsp.calls")


def test_every_per_layer_metric_names_what_it_should_move():
    table = json.loads((ROOT / "perfbench" / "interactions.json").read_text())
    assert list(table["per_layer"]) == [name for name, *_ in tracing.PER_LAYER]
    workloads = {"sweep", "ilp", "serve"}
    end_to_end = {name for name, _ in run.END_TO_END}
    for name, effects in table["per_layer"].items():
        for effect in effects:
            if effect.get("moves") is not None:
                assert effect["moves"] in end_to_end, name
                assert effect["workload"] in workloads, name
            assert set(effect.get("unchanged_on", [])) <= workloads, name
    assert all(gap["name"] and gap["why"] for gap in table["unmeasured"])
