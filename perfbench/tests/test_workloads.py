"""Workload inputs, the output check, and tracing's invisibility."""

from __future__ import annotations

import dataclasses
import math

import pytest

from perfbench import tracing, workloads
from perfbench.workloads import Job, PassOutput, Reference


def slice_of(name):
    """A two-instance slice of each workload (a short trace for serve)."""
    cls = workloads.WORKLOADS[name]
    if name == "serve":
        return cls(seed=3, limit=2, requests=2000)
    return cls(seed=3, limit=2)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_passes_answer_identically(name, tmp_path):
    workload = slice_of(name)
    recorder = tracing.Recorder(checker=workloads.check_pipeline)
    (tmp_path / "checked").mkdir()
    with tracing.installed(recorder):
        checked = workload.collect(workload.execute(tmp_path / "checked"),
                                   tmp_path / "checked")
    reference = Reference.from_checked_pass(workload, checked, recorder)
    assert reference.problems == {}
    assert recorder.spans and recorder.verdicts

    (tmp_path / "plain").mkdir()
    plain = workload.collect(workload.execute(tmp_path / "plain"), tmp_path / "plain")
    assert [j.fingerprint for j in plain.jobs] == [j.fingerprint for j in checked.jobs]
    assert plain.summary == checked.summary
    attempted, failed, messages = reference.score(plain)
    assert (failed, messages) == (0, [])
    assert attempted == sum(reference.weights.values()) > 0
    assert math.isfinite(reference.log_cost_ratio(plain, workload.baselines))


def test_seed_zero_keeps_the_dataset_weights_and_seeds_redraw_them():
    from repro.experiments.datasets import tiny_dataset

    def weights(dags):
        return [[dag.mu(v) for v in dag.nodes] for dag in dags]

    own = weights(tiny_dataset(limit=3))
    assert weights(workloads.Ilp(seed=0, limit=3).dags) == own
    redrawn = weights(workloads.Ilp(seed=7, limit=3).dags)
    assert redrawn != own
    assert weights(workloads.Ilp(seed=7, limit=3).dags) == redrawn


def test_check_flags_a_wrong_cost_and_a_stage_above_its_incumbent():
    from repro.pipeline import Pipeline
    from repro.experiments.datasets import tiny_dataset

    (dag,) = tiny_dataset(limit=1)
    result = Pipeline("bspg+clairvoyant|refine(budget=20)").run(dag)
    assert workloads.check_pipeline(result) == []
    wrong = dataclasses.replace(result, cost=result.cost + 1)
    assert any("recomputed cost" in p for p in workloads.check_pipeline(wrong))
    refine = result.stages[-1]
    worse = dataclasses.replace(
        refine, cost=refine.telemetry["cost_in"] + 1,
        telemetry=dict(refine.telemetry),
    )
    above = dataclasses.replace(result, stages=result.stages[:-1] + [worse])
    assert any("above its incumbent" in p for p in workloads.check_pipeline(above))


def test_score_counts_changed_answers_and_summaries_as_failures():
    weights = {("a", "m"): 1, ("b", "m"): 3}
    reference = Reference(weights, {("a", "m"): "x", ("b", "m"): "y"}, summary="s")
    same = PassOutput([Job("a", "m", "x", 2.0), Job("b", "m", "y", 4.0)], "s")
    assert reference.score(same)[:2] == (4, 0)
    changed = PassOutput([Job("a", "m", "x", 2.0), Job("b", "m", "z", 4.0)], "s")
    assert reference.score(changed)[:2] == (4, 3)
    assert reference.score(dataclasses.replace(same, summary="t"))[:2] == (4, 4)
    bad = dataclasses.replace(reference, problems={("a", "m"): ("invalid",)})
    assert bad.score(same)[:2] == (4, 1)
    ratio = reference.log_cost_ratio(same, {"a": 1.0, "b": 2.0})
    assert ratio == pytest.approx((math.log(2.0) + 3 * math.log(2.0)) / 4)


def test_the_command_line_knows_every_workload():
    from perfbench import run

    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
