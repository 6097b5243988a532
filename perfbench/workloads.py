"""The benchmark's workloads: ``sweep``, ``ilp`` and ``serve``.

Each workload builds its inputs from the seed alone (the program receives
only the generated inputs), runs one *pass* of the program through its
public API, and collects the pass's answered jobs for the output check:

* ``sweep`` — the ``repro portfolio --workers N`` path: ``Portfolio.run``
  over the small dataset at ``scale="paper"`` with the 9 two-stage members
  plus ``bspg+clairvoyant|refine`` (100 jobs) on a ``Session`` with one
  worker slot per CPU, a fresh cache directory and a fresh JSONL file.  No
  solver runs; jobs cross the process pool and both result stores.
* ``ilp`` — the ``repro exec run --pipeline "baseline|ilp" --backend bnb
  --node-limit 2`` path: ``plan_pipelines`` with the CLI's
  ``prune_gap=0.0`` streamed inline through ``Session.stream`` over the
  13-instance tiny dataset.  The node-limited branch and bound walks the
  same tree every run; the time limit is generous so the node limit is
  what binds.
* ``serve`` — ``run_serve_bench`` on a 2*10^5-request cache-hot trace over
  6 tiny templates and 2 virtual servers, inline: the serve layer's own
  Python dominates and only ~18 distinct jobs reach the session.

For ``sweep`` and ``ilp`` the seed re-draws the memory weights of the
dataset's DAGs (seed 0 keeps the dataset's own weights); for ``serve`` it
is the arrival seed.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.two_stage import baseline_schedule
from repro.dag.analysis import assign_random_memory_weights
from repro.exceptions import InvalidScheduleError
from repro.exec import Session, plan_pipelines
from repro.experiments.datasets import small_dataset_specs, tiny_dataset_specs
from repro.experiments.runner import ExperimentConfig
from repro.model.cost import schedule_cost
from repro.model.validation import validate_schedule
from repro.portfolio import Portfolio, resolve_member
from repro.refine import RefineConfig
from repro.serve.bench import run_serve_bench
from repro.serve.service import ServiceConfig

SWEEP_MEMBERS = [
    f"{scheduler}+{policy}"
    for scheduler in ("bspg", "cilk", "etf")
    for policy in ("clairvoyant", "lru", "fifo")
] + ["bspg+clairvoyant|refine"]
ILP_PIPELINE = "baseline|ilp"
ILP_NODE_LIMIT = 2
# generous, so the node limit binds even on a slow or loaded host
ILP_TIME_LIMIT = 60.0
SERVE_REQUESTS = 200_000
SERVE_TEMPLATES = 6
SERVE_SERVERS = 2

JobKey = Tuple[str, str]  # (instance, canonical member spec)


@dataclass
class Job:
    """One answered job of a pass."""

    instance: str
    member: str
    fingerprint: str
    cost: float

    @property
    def key(self) -> JobKey:
        return (self.instance, self.member)


@dataclass
class PassOutput:
    """What one pass answered, in plan order (``summary``: serve only)."""

    jobs: List[Job]
    summary: str = ""


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)


#: ``sweep`` runs one worker slot per CPU, capped so a large host does not
#: fork dozens of interpreter-sized workers per pass
MAX_SWEEP_WORKERS = 8


def dataset(specs, seed: int) -> List:
    """The dataset's DAGs; a non-zero seed re-draws every memory weight."""
    dags = []
    for spec in specs:
        dag = spec.build()
        if seed:
            weight_seed = zlib.crc32(f"{spec.name}:{seed}".encode("utf-8"))
            assign_random_memory_weights(dag, low=1, high=5, seed=weight_seed)
        dags.append(dag)
    return dags


def _job(instance: str, member: str, result) -> Job:
    return Job(
        instance=instance,
        member=member,
        fingerprint=json.dumps(result.fingerprint(), sort_keys=True),
        cost=float(result.extra_costs.get("member_cost", result.ilp_cost)),
    )


class _EventCollector:
    """A session's ``on_event`` observer (``run_serve_bench`` takes it as its
    progress renderer): keeps every result event."""

    def __init__(self) -> None:
        self.events: List = []

    def attach(self, session) -> "_EventCollector":
        session.on_event = lambda event, stats: self.events.append(event)
        return self


def _from_events(events, summary: str = "") -> PassOutput:
    """The answered jobs of a pass's session events, in plan order."""
    events = sorted(events, key=lambda event: event.index)
    return PassOutput(
        [_job(event.instance, event.member, event.result) for event in events],
        summary,
    )


class Workload:
    """Inputs of one workload plus how to run and collect one pass."""

    name = ""
    #: session worker slots (more than one runs jobs on a process pool)
    workers = 1

    def __init__(self, seed: int, limit: Optional[int] = None) -> None:
        self.seed = seed
        self.limit = limit
        self.dags = self.build_dags()
        # the benchmark's own reference: InstanceResult.baseline_cost is
        # each member's own first stage, not the paper's baseline
        self.baselines: Dict[str, float] = {
            dag.name: baseline_schedule(self.config.instance_for(dag)).cost
            for dag in self.dags
        }

    def build_dags(self) -> List:
        raise NotImplementedError

    def execute(self, workdir: Path):
        """One pass of the program (the timed part); returns raw outputs."""
        raise NotImplementedError

    def collect(self, raw, workdir: Path) -> PassOutput:
        """The pass's answered jobs (untimed)."""
        raise NotImplementedError

    def weights(self, recorder) -> Dict[JobKey, int]:
        """Items each job answers (1 per job; requests on ``serve``),
        derived from the checked pass's recorder."""
        raise NotImplementedError


class Sweep(Workload):
    name = "sweep"

    def __init__(self, seed: int, limit: Optional[int] = None) -> None:
        # the `repro portfolio` CLI configuration for these members
        self.config = ExperimentConfig(
            name="portfolio",
            num_processors=4,
            ilp_time_limit=5.0,
            ilp_backend="scipy",
            refine=RefineConfig(enabled=False),
        )
        self.workers = min(nproc(), MAX_SWEEP_WORKERS)
        super().__init__(seed, limit)

    def build_dags(self) -> List:
        return dataset(small_dataset_specs("paper")[: self.limit], self.seed)

    def execute(self, workdir: Path):
        session = Session(
            workers=self.workers,
            cache_dir=workdir / "cache",
            results_path=workdir / "results.jsonl",
        )
        collector = _EventCollector().attach(session)
        Portfolio(config=self.config, prune_gap=0.0).run(
            SWEEP_MEMBERS, self.dags, session=session
        )
        return session, collector.events

    def collect(self, raw, workdir: Path) -> PassOutput:
        session, events = raw
        session.log.close()
        return _from_events(events)

    def weights(self, recorder) -> Dict[JobKey, int]:
        return Counter(
            (dag.name, resolve_member(member))
            for dag in self.dags
            for member in SWEEP_MEMBERS
        )


class Ilp(Workload):
    name = "ilp"

    def __init__(self, seed: int, limit: Optional[int] = None) -> None:
        # the `repro exec run --pipeline "baseline|ilp" --backend bnb
        # --node-limit N` configuration
        self.config = ExperimentConfig(
            name="exec",
            num_processors=4,
            ilp_time_limit=ILP_TIME_LIMIT,
            ilp_node_limit=ILP_NODE_LIMIT,
            ilp_backend="bnb",
        )
        super().__init__(seed, limit)
        self.plan = plan_pipelines([ILP_PIPELINE], self.dags, self.config, prune_gap=0.0)

    def build_dags(self) -> List:
        return dataset(tiny_dataset_specs("default")[: self.limit], self.seed)

    def execute(self, workdir: Path):
        return list(Session(workers=1).stream(self.plan))

    def collect(self, events, workdir: Path) -> PassOutput:
        return _from_events(events)

    def weights(self, recorder) -> Dict[JobKey, int]:
        return Counter(
            (node.job.instance_name, dict(node.job.params)["member"])
            for node in self.plan
        )


class Serve(Workload):
    name = "serve"

    def __init__(
        self, seed: int, limit: Optional[int] = None, requests: int = SERVE_REQUESTS
    ) -> None:
        self.config = ServiceConfig().experiment
        self.requests = requests
        super().__init__(seed, SERVE_TEMPLATES if limit is None else limit)

    def build_dags(self) -> List:
        # the request templates: the arrival config's dataset prefix
        return [spec.build() for spec in tiny_dataset_specs("default")[: self.limit]]

    def execute(self, workdir: Path):
        collector = _EventCollector()
        summary = run_serve_bench(
            seed=self.seed,
            requests=self.requests,
            servers=SERVE_SERVERS,
            limit=self.limit,
            workers=1,
            progress=collector,
        )
        return summary, collector.events

    def collect(self, raw, workdir: Path) -> PassOutput:
        summary, events = raw
        return _from_events(events, json.dumps(summary, sort_keys=True))

    def weights(self, recorder) -> Dict[JobKey, int]:
        (report,) = recorder.reports
        return Counter((record.instance, record.spec) for record in report.records)


WORKLOADS = {cls.name: cls for cls in (Sweep, Ilp, Serve)}


# ----------------------------------------------------------------------
# the output check
# ----------------------------------------------------------------------
def check_pipeline(result) -> List[str]:
    """The output rules one pipeline run breaks (empty when correct):
    the final schedule validates, its recomputed cost equals the reported
    cost, and no ``refine``/``ilp`` stage ends above its incumbent."""
    if result.inapplicable or result.schedule is None:
        return [f"no schedule ({result.inapplicable or 'empty pipeline'})"]
    problems = []
    try:
        validate_schedule(result.schedule)
    except InvalidScheduleError as exc:
        problems.append(f"invalid schedule: {exc}")
    cost = schedule_cost(result.schedule)
    if cost != result.cost:
        problems.append(f"recomputed cost {cost!r} != reported {result.cost!r}")
    for stage in result.stages:
        cost_in = stage.telemetry.get("cost_in")
        if (
            stage.stage.startswith(("refine", "ilp"))
            and not stage.skipped
            and cost_in is not None
            and stage.cost > cost_in
        ):
            problems.append(
                f"stage {stage.stage} ended at {stage.cost!r} above its "
                f"incumbent {cost_in!r}"
            )
    return problems


@dataclass
class Reference:
    """The checked pass: per-job verdicts and fingerprints to compare
    every other pass against."""

    weights: Dict[JobKey, int]
    fingerprints: Dict[JobKey, str]
    problems: Dict[JobKey, Tuple[str, ...]] = field(default_factory=dict)
    summary: str = ""

    @classmethod
    def from_checked_pass(cls, workload: Workload, out: PassOutput, recorder):
        weights = workload.weights(recorder)
        problems: Dict[JobKey, Tuple[str, ...]] = {}
        for verdict in recorder.verdicts:
            key = (verdict.instance, verdict.spec)
            problems[key] = problems.get(key, ()) + verdict.problems
        for key in weights:
            if key not in problems:
                problems[key] = ("no pipeline run was checked",)
        fingerprints = {job.key: job.fingerprint for job in out.jobs}
        for key in weights:
            if key not in fingerprints:
                problems[key] = problems[key] + ("no result",)
        return cls(weights, fingerprints,
                   {k: v for k, v in problems.items() if v}, out.summary)

    def score(self, out: PassOutput) -> Tuple[int, int, List[str]]:
        """``(attempted, failed, messages)`` of one pass: an item fails
        when its job broke an output rule on the checked pass or answered
        differently here; a changed summary fails every item."""
        attempted = sum(self.weights.values())
        if self.summary != out.summary:
            return attempted, attempted, ["summary differs from the checked pass"]
        seen = {job.key: job.fingerprint for job in out.jobs}
        failed = 0
        messages = []
        for key, weight in self.weights.items():
            if key in self.problems:
                failed += weight
                messages.append(f"{key}: {'; '.join(self.problems[key])}")
            elif seen.get(key) != self.fingerprints[key]:
                failed += weight
                messages.append(f"{key}: fingerprint differs from the checked pass")
        return attempted, failed, messages

    def log_cost_ratio(self, out: PassOutput, baselines: Dict[str, float]) -> float:
        """Mean log of final cost / baseline cost over answered items."""
        costs = {job.key: job.cost for job in out.jobs}
        total = weight_sum = 0.0
        for key, weight in self.weights.items():
            cost, base = costs.get(key, math.inf), baselines[key[0]]
            if math.isfinite(cost) and cost > 0 and base > 0:
                total += weight * math.log(cost / base)
                weight_sum += weight
        return total / weight_sum if weight_sum else 0.0
