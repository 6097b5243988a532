"""Mining past results into a per-(feature-bucket, spec) win/cost table.

Every portfolio/exec/serve run since the streaming store landed appends
JSONL records carrying the canonical member spec, the achieved cost and the
per-job solver telemetry.  :func:`mine_history` streams those files
(:func:`repro.exec.store.iter_jsonl_records` — malformed lines
are skipped, nothing is ever held in memory) into a
:class:`LearnedHistory`: per benchmark instance, the best observed cost of
every canonical spec, keyed by the instance's feature bucket
(:func:`repro.learn.features.feature_bucket`).

The history is the single input of both selectors
(:mod:`repro.learn.model`) and of the regret report: the *true best* cost
of an instance is the minimum over all mined specs, so an adaptive run can
report per-instance regret without ever running the exhaustive sweep again.

Determinism contract: the serialized history is **byte-stable** — the JSON
rendering uses sorted keys everywhere, observations deduplicate
order-independently (minimum cost, maximum solver calls), and no wall-clock
quantity (``solve_time``, ``solver_time``) is ever stored.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.dag.graph import ComputationalDag
from repro.exceptions import ConfigurationError
from repro.exec.store import iter_jsonl_records
from repro.learn.features import (
    FEATURE_NAMES,
    SCHEMA_VERSION as FEATURE_SCHEMA_VERSION,
    FeatureVector,
    feature_bucket,
    instance_features,
)
from repro.pipeline import ExperimentConfig

PathLike = Union[str, Path]

#: Version of the serialized history layout.
HISTORY_SCHEMA_VERSION = 1


@dataclass
class MemberObservation:
    """Best observed outcome of one canonical spec on one instance."""

    cost: float
    solver_calls: float = 0.0

    def merge(self, cost: float, solver_calls: float) -> None:
        # order-independent reduction: re-mining the same files in any
        # order (or twice) yields byte-identical tables
        self.cost = min(self.cost, cost)
        self.solver_calls = max(self.solver_calls, solver_calls)


@dataclass
class InstanceHistory:
    """Everything mined about one benchmark instance."""

    bucket: str
    features: List[float]
    num_nodes: int
    members: Dict[str, MemberObservation] = field(default_factory=dict)

    @property
    def best_cost(self) -> float:
        """True-best (minimum mined) cost; ``inf`` with no observations."""
        best = math.inf
        for spec in sorted(self.members):
            best = min(best, self.members[spec].cost)
        return best


@dataclass
class BucketStats:
    """Aggregated win/cost statistics of one spec within one bucket."""

    count: int = 0
    wins: int = 0
    rel_cost_sum: float = 0.0
    solver_calls_sum: float = 0.0

    @property
    def mean_rel_cost(self) -> float:
        return self.rel_cost_sum / self.count if self.count else math.inf

    @property
    def mean_solver_calls(self) -> float:
        return self.solver_calls_sum / self.count if self.count else 0.0

    @property
    def win_rate(self) -> float:
        return self.wins / self.count if self.count else 0.0


@dataclass
class MiningStats:
    """What one :func:`mine_history` pass consumed and skipped."""

    records: int = 0
    observations: int = 0
    skipped_no_member: int = 0
    skipped_unknown_instance: int = 0
    skipped_nonfinite: int = 0

    def describe(self) -> str:
        return (
            f"{self.observations} observation(s) from {self.records} record(s)"
            f" ({self.skipped_no_member} without a member spec, "
            f"{self.skipped_unknown_instance} of unknown instances, "
            f"{self.skipped_nonfinite} non-finite skipped)"
        )


class LearnedHistory:
    """The mined per-instance cost table plus its bucketed aggregation."""

    def __init__(self, processors: int = 4) -> None:
        self.schema_version = HISTORY_SCHEMA_VERSION
        self.feature_schema = FEATURE_SCHEMA_VERSION
        self.processors = int(processors)
        self.instances: Dict[str, InstanceHistory] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def observe(
        self,
        instance: str,
        features: FeatureVector,
        num_nodes: int,
        spec: str,
        cost: float,
        solver_calls: float = 0.0,
    ) -> None:
        """Record one (instance, spec) outcome (deduplicated, order-free)."""
        if not math.isfinite(cost):
            return
        entry = self.instances.get(instance)
        if entry is None:
            entry = InstanceHistory(
                bucket=feature_bucket(features),
                features=[float(v) for v in features.values],
                num_nodes=int(num_nodes),
            )
            self.instances[instance] = entry
        seen = entry.members.get(spec)
        if seen is None:
            entry.members[spec] = MemberObservation(
                cost=float(cost), solver_calls=float(solver_calls)
            )
        else:
            seen.merge(float(cost), float(solver_calls))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_observations(self) -> int:
        return sum(
            len(self.instances[name].members) for name in sorted(self.instances)
        )

    def specs(self) -> List[str]:
        """Every canonical spec with at least one observation (sorted)."""
        seen: List[str] = []
        for name in sorted(self.instances):
            for spec in sorted(self.instances[name].members):
                if spec not in seen:
                    seen.append(spec)
        return sorted(seen)

    def best_cost(self, instance: str) -> Optional[float]:
        """True-best mined cost of ``instance`` (``None`` if unknown)."""
        entry = self.instances.get(instance)
        if entry is None or not entry.members:
            return None
        best = entry.best_cost
        return best if math.isfinite(best) else None

    def bucket_table(self) -> Dict[str, Dict[str, BucketStats]]:
        """``bucket -> spec -> BucketStats`` aggregation of the history.

        Relative costs are computed within each instance (cost over the
        instance's best mined cost), so specs are comparable across
        instances of very different absolute cost.  A spec ties for the win
        when its cost matches the instance best exactly.
        """
        table: Dict[str, Dict[str, BucketStats]] = {}
        for name in sorted(self.instances):
            entry = self.instances[name]
            best = entry.best_cost
            if not math.isfinite(best):
                continue
            per_bucket = table.setdefault(entry.bucket, {})
            for spec in sorted(entry.members):
                observation = entry.members[spec]
                stats = per_bucket.setdefault(spec, BucketStats())
                stats.count += 1
                stats.wins += 1 if observation.cost == best else 0
                stats.rel_cost_sum += (
                    observation.cost / best if best > 0 else 1.0
                )
                stats.solver_calls_sum += observation.solver_calls
        return table

    # ------------------------------------------------------------------
    # serialization (byte-stable)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": self.schema_version,
            "feature_schema": self.feature_schema,
            "feature_names": list(FEATURE_NAMES),
            "processors": self.processors,
            "instances": {
                name: {
                    "bucket": entry.bucket,
                    "features": entry.features,
                    "num_nodes": entry.num_nodes,
                    "members": {
                        spec: {
                            "cost": observation.cost,
                            "solver_calls": observation.solver_calls,
                        }
                        for spec, observation in sorted(entry.members.items())
                    },
                }
                for name, entry in sorted(self.instances.items())
            },
        }

    def to_json(self) -> str:
        """Byte-stable JSON rendering (sorted keys, fixed indent)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def digest(self) -> str:
        """sha256 of the serialized history (the provenance fingerprint)."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def save(self, path: PathLike) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LearnedHistory":
        schema = int(data.get("schema_version", -1))
        if schema != HISTORY_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported history schema version {schema} "
                f"(this build reads version {HISTORY_SCHEMA_VERSION})"
            )
        feature_schema = int(data.get("feature_schema", -1))
        if feature_schema != FEATURE_SCHEMA_VERSION:
            raise ConfigurationError(
                f"history was mined under feature schema {feature_schema}, "
                f"this build computes schema {FEATURE_SCHEMA_VERSION}; "
                f"re-mine the history (repro learn mine)"
            )
        history = cls(processors=int(data.get("processors", 4)))
        for name, entry in dict(data.get("instances", {})).items():
            record = InstanceHistory(
                bucket=str(entry["bucket"]),
                features=[float(v) for v in entry["features"]],
                num_nodes=int(entry["num_nodes"]),
            )
            for spec, observation in dict(entry.get("members", {})).items():
                record.members[str(spec)] = MemberObservation(
                    cost=float(observation["cost"]),
                    solver_calls=float(observation.get("solver_calls", 0.0)),
                )
            history.instances[str(name)] = record
        return history

    @classmethod
    def load(cls, path: PathLike) -> "LearnedHistory":
        """Parse a saved history; malformed files raise
        :class:`~repro.exceptions.ConfigurationError` (callers wanting the
        warn-and-fall-back convention catch it, see the portfolio CLI)."""
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigurationError(f"cannot read history file {path}: {exc}")
        except ValueError as exc:
            raise ConfigurationError(f"malformed history file {path}: {exc}")
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"malformed history file {path}: expected a JSON object"
            )
        try:
            return cls.from_dict(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed history file {path}: {exc}")


def mine_history(
    results_paths: Sequence[PathLike],
    dags: Iterable[ComputationalDag],
    config: ExperimentConfig,
    history: Optional[LearnedHistory] = None,
) -> "tuple[LearnedHistory, MiningStats]":
    """Stream results JSONLs into a :class:`LearnedHistory`.

    ``dags`` supplies the instances whose features the miner can compute;
    records of instances outside this set are counted and skipped (the
    JSONL row alone does not describe the graph).  Only ``portfolio``-kind
    records carrying a ``member`` spec contribute — older files written
    before the spec landed in the record simply mine to nothing, they do
    not error.
    """
    history = history if history is not None else LearnedHistory(
        processors=config.num_processors
    )
    stats = MiningStats()
    known = {dag.name: dag for dag in dags}
    features: Dict[str, FeatureVector] = {}
    for path in results_paths:
        for record in iter_jsonl_records(path):
            stats.records += 1
            spec = record.get("member")
            if not spec:
                stats.skipped_no_member += 1
                continue
            name = str(record.get("instance", ""))
            dag = known.get(name)
            if dag is None:
                stats.skipped_unknown_instance += 1
                continue
            result = record["result"]
            try:
                extra = dict(result.get("extra_costs", {}))
                cost = float(extra.get("member_cost", result["ilp_cost"]))
                solver_calls = float(
                    dict(result.get("solver_stats", {})).get("solver_calls", 0.0)
                )
                num_nodes = int(result.get("num_nodes", dag.num_nodes))
            except (KeyError, TypeError, ValueError):
                stats.skipped_nonfinite += 1
                continue
            if not math.isfinite(cost):
                stats.skipped_nonfinite += 1
                continue
            if name not in features:
                features[name] = instance_features(dag, config)
            history.observe(
                name, features[name], num_nodes, str(spec), cost, solver_calls
            )
            stats.observations += 1
    return history, stats
