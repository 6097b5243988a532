"""Deterministic instance features for learned member selection.

The adaptive portfolio (:mod:`repro.learn.select`) predicts which pipeline
members are worth running on an instance *before* running anything, so the
features it predicts from must be

* **cheap** — nothing here may schedule or solve; every quantity is a
  linear-time pass over the DAG (:mod:`repro.dag.analysis`) or a field of
  the :class:`~repro.pipeline.config.ExperimentConfig`;
* **deterministic** — the vector is a pure function of (DAG, config):
  no wall clock, no randomness, no hash-salted iteration order (all node
  iteration happens over the DAG's ordered node list).

The schema is versioned and ordered: :data:`FEATURE_NAMES` pins the name
and position of every feature, and :meth:`FeatureVector.fingerprint`
hashes ``(schema version, names, rounded values)`` so any drift in the
feature definitions changes the fingerprint (and therefore invalidates
mined histories loudly instead of silently mispredicting).

Coarse log-scale *buckets* (:func:`feature_bucket`) group instances whose
members are expected to behave alike; the history miner aggregates win/cost
statistics per (bucket, canonical spec).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.dag.analysis import (
    critical_path_length,
    minimum_cache_size,
    node_levels,
)
from repro.dag.graph import ComputationalDag
from repro.pipeline import ExperimentConfig

#: Version of the feature-vector schema.  Bump when :data:`FEATURE_NAMES`
#: or any feature definition changes; mined histories carry the version and
#: refuse to mix schemas.
SCHEMA_VERSION = 1

#: Ordered feature names (the stable schema of the vector).
FEATURE_NAMES: Tuple[str, ...] = (
    "nodes",
    "edges",
    "avg_fanout",
    "max_fanout",
    "depth",
    "depth_ratio",
    "sources",
    "sinks",
    "total_work",
    "critical_path",
    "parallelism",
    "total_memory",
    "r0",
    "memory_pressure",
    "processors",
    "g",
    "L",
)


@dataclass(frozen=True)
class FeatureVector:
    """One instance's feature values in :data:`FEATURE_NAMES` order."""

    values: Tuple[float, ...]

    @property
    def names(self) -> Tuple[str, ...]:
        return FEATURE_NAMES

    def __getitem__(self, name: str) -> float:
        return self.values[FEATURE_NAMES.index(name)]

    def to_dict(self) -> Dict[str, float]:
        return {name: value for name, value in zip(FEATURE_NAMES, self.values)}

    def fingerprint(self) -> str:
        """sha256 over (schema version, names, rounded values).

        Values are rounded to 12 significant decimals before hashing so the
        fingerprint is robust to last-bit float formatting differences while
        still detecting any real change of a feature definition.
        """
        payload = [
            SCHEMA_VERSION,
            list(FEATURE_NAMES),
            [round(value, 12) for value in self.values],
        ]
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def instance_features(
    dag: ComputationalDag, config: ExperimentConfig
) -> FeatureVector:
    """The feature vector of one ``(dag, config)`` instance.

    Every quantity is computed by iterating the DAG's *ordered* node list
    (never a set), so the vector is bit-identical across processes, worker
    counts and ``PYTHONHASHSEED`` values.
    """
    nodes = float(dag.num_nodes)
    edges = float(dag.num_edges)
    levels = node_levels(dag)
    depth = float(max(levels.values()) + 1) if levels else 0.0
    max_fanout = 0.0
    for v in dag.nodes:
        max_fanout = max(max_fanout, float(len(dag.children(v))))
    critical_path = critical_path_length(dag)
    total_work = dag.total_work()
    total_memory = dag.total_memory()
    r0 = minimum_cache_size(dag)
    processors = float(config.num_processors)
    # aggregate fast memory of the machine (the paper's r = cache_factor*r0
    # per processor); how far the instance's data footprint exceeds it is
    # the pressure the cache-eviction policies actually feel
    machine_memory = config.cache_factor * r0 * processors
    memory_pressure = total_memory / machine_memory if machine_memory > 0 else 0.0
    return FeatureVector(values=(
        nodes,
        edges,
        edges / nodes if nodes else 0.0,
        max_fanout,
        depth,
        depth / nodes if nodes else 0.0,
        float(len(dag.sources())),
        float(len(dag.sinks())),
        total_work,
        critical_path,
        total_work / critical_path if critical_path > 0 else 1.0,
        total_memory,
        r0,
        memory_pressure,
        processors,
        float(config.g),
        float(config.L),
    ))


def _log2_bucket(value: float) -> int:
    """Coarse log2 bucket of a non-negative magnitude (0 for values < 1)."""
    if value < 1.0:
        return 0
    return int(math.floor(math.log2(value)))


def feature_bucket(features: FeatureVector) -> str:
    """The coarse bucket key the history aggregates under.

    Buckets are deliberately coarse — log2 of the node count, of the
    available parallelism and of the memory pressure, plus the exact
    processor count — so a small mined history still covers unseen
    instances of similar shape.
    """
    return "|".join((
        f"n{_log2_bucket(features['nodes'])}",
        f"par{_log2_bucket(features['parallelism'])}",
        f"mem{_log2_bucket(features['memory_pressure'])}",
        f"P{int(features['processors'])}",
    ))
