"""Benchmark workload datasets.

The paper evaluates on the computational DAG benchmark of [36]: a "tiny"
dataset of 15 DAGs with 40-80 nodes and a "small" dataset (264-464 nodes).
That dataset is not redistributable, so this module regenerates structurally
analogous instances from the workload families it contains (coarse-grained
BiCGSTAB / k-means / Pregel task graphs, fine-grained CG, SpMV, iterated
SpMV and k-NN computations, plus PageRank and sparse-NN inference for the
larger set).

Two scales are provided:

* ``scale="default"`` — reduced instance sizes (roughly 15-60 nodes for the
  tiny set, 70-150 for the small set) so that the ILP experiments finish on a
  laptop-class machine within seconds per instance;
* ``scale="paper"`` — parameters chosen so the node counts match the original
  dataset (40-80 and ~250-460 nodes); use these with generous solver time
  limits to mirror the paper's setup more closely.

Memory weights are drawn uniformly at random from {1, ..., 5} per node with a
per-instance seed, exactly as described in Appendix D.1.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.dag.analysis import assign_random_memory_weights
from repro.dag.graph import ComputationalDag
from repro.dag.generators import (
    bicgstab,
    conjugate_gradient,
    iterated_spmv,
    kmeans,
    knn_iteration,
    pregel,
    simple_pagerank,
    snni_graphchallenge,
    spmv,
)

MEMORY_WEIGHT_SEED = 20250617


@dataclass(frozen=True)
class InstanceSpec:
    """One named benchmark instance: a generator plus its parameters."""

    name: str
    family: str
    builder: Callable[[], ComputationalDag]

    def build(self) -> ComputationalDag:
        """Generate the DAG and attach the random memory weights.

        The per-instance seed uses a *stable* hash of the name (crc32):
        ``hash()`` on strings is salted per process, which silently made the
        "seeded" datasets differ between invocations (and defeated the
        session's cross-run result cache).
        """
        dag = self.builder()
        dag.name = self.name
        seed = MEMORY_WEIGHT_SEED + zlib.crc32(self.name.encode("utf-8")) % 10_000
        assign_random_memory_weights(dag, low=1, high=5, seed=seed)
        return dag


def _tiny_specs_default() -> List[InstanceSpec]:
    return [
        InstanceSpec("bicgstab", "coarse", lambda: bicgstab(iterations=1)),
        InstanceSpec("k-means", "coarse", lambda: kmeans(2, 2, 2)),
        InstanceSpec("pregel", "coarse", lambda: pregel(2, 3)),
        InstanceSpec("spmv_N6", "spmv", lambda: spmv(4, extra_per_row=2, seed=6)),
        InstanceSpec("spmv_N7", "spmv", lambda: spmv(5, extra_per_row=1, seed=7)),
        InstanceSpec("spmv_N10", "spmv", lambda: spmv(6, extra_per_row=1, seed=10)),
        InstanceSpec("CG_N2_K2", "cg", lambda: conjugate_gradient(2, 1, seed=22)),
        InstanceSpec("exp_N4_K2", "exp", lambda: iterated_spmv(3, 2, seed=42)),
        InstanceSpec("exp_N5_K3", "exp", lambda: iterated_spmv(4, 2, extra_per_row=1, seed=53)),
        InstanceSpec("exp_N6_K4", "exp", lambda: iterated_spmv(4, 3, extra_per_row=1, seed=64)),
        InstanceSpec("kNN_N4_K3", "knn", lambda: knn_iteration(3, 2, k=2, seed=43)),
        InstanceSpec("kNN_N5_K3", "knn", lambda: knn_iteration(4, 2, k=2, seed=53)),
        InstanceSpec("kNN_N6_K4", "knn", lambda: knn_iteration(3, 3, k=2, seed=64)),
    ]


def _tiny_specs_paper() -> List[InstanceSpec]:
    return [
        InstanceSpec("bicgstab", "coarse", lambda: bicgstab(iterations=3)),
        InstanceSpec("k-means", "coarse", lambda: kmeans(3, 2, 3)),
        InstanceSpec("pregel", "coarse", lambda: pregel(4, 4)),
        InstanceSpec("spmv_N6", "spmv", lambda: spmv(6, seed=6)),
        InstanceSpec("spmv_N7", "spmv", lambda: spmv(7, seed=7)),
        InstanceSpec("spmv_N10", "spmv", lambda: spmv(10, seed=10)),
        InstanceSpec("CG_N2_K2", "cg", lambda: conjugate_gradient(2, 1, seed=22)),
        InstanceSpec("CG_N3_K1", "cg", lambda: conjugate_gradient(2, 1, seed=31)),
        InstanceSpec("CG_N4_K1", "cg", lambda: conjugate_gradient(2, 2, seed=41)),
        InstanceSpec("exp_N4_K2", "exp", lambda: iterated_spmv(4, 2, seed=42)),
        InstanceSpec("exp_N5_K3", "exp", lambda: iterated_spmv(5, 3, seed=53)),
        InstanceSpec("exp_N6_K4", "exp", lambda: iterated_spmv(6, 4, seed=64)),
        InstanceSpec("kNN_N4_K3", "knn", lambda: knn_iteration(4, 3, k=2, seed=43)),
        InstanceSpec("kNN_N5_K3", "knn", lambda: knn_iteration(5, 3, k=2, seed=53)),
        InstanceSpec("kNN_N6_K4", "knn", lambda: knn_iteration(6, 4, k=2, seed=64)),
    ]


def _small_specs_default() -> List[InstanceSpec]:
    return [
        InstanceSpec("simple_pagerank", "coarse", lambda: simple_pagerank(5, 5, seed=1)),
        InstanceSpec("snni_graphchall.", "coarse", lambda: snni_graphchallenge(4, 6, seed=2)),
        InstanceSpec("spmv_N25", "spmv", lambda: spmv(12, extra_per_row=2, seed=25)),
        InstanceSpec("spmv_N35", "spmv", lambda: spmv(16, extra_per_row=2, seed=35)),
        InstanceSpec("CG_N5_K4", "cg", lambda: conjugate_gradient(2, 2, seed=54)),
        InstanceSpec("CG_N7_K2", "cg", lambda: conjugate_gradient(3, 1, seed=72)),
        InstanceSpec("exp_N10_K8", "exp", lambda: iterated_spmv(5, 4, seed=108)),
        InstanceSpec("exp_N15_K4", "exp", lambda: iterated_spmv(6, 3, seed=154)),
        InstanceSpec("kNN_N10_K8", "knn", lambda: knn_iteration(6, 4, k=2, seed=108)),
        InstanceSpec("kNN_N15_K4", "knn", lambda: knn_iteration(8, 3, k=2, seed=154)),
    ]


def _small_specs_paper() -> List[InstanceSpec]:
    return [
        InstanceSpec("simple_pagerank", "coarse", lambda: simple_pagerank(8, 6, seed=1)),
        InstanceSpec("snni_graphchall.", "coarse", lambda: snni_graphchallenge(6, 8, seed=2)),
        InstanceSpec("spmv_N25", "spmv", lambda: spmv(25, extra_per_row=3, seed=25)),
        InstanceSpec("spmv_N35", "spmv", lambda: spmv(35, extra_per_row=3, seed=35)),
        InstanceSpec("CG_N5_K4", "cg", lambda: conjugate_gradient(3, 2, seed=54)),
        InstanceSpec("CG_N7_K2", "cg", lambda: conjugate_gradient(4, 1, seed=72)),
        InstanceSpec("exp_N10_K8", "exp", lambda: iterated_spmv(8, 6, seed=108)),
        InstanceSpec("exp_N15_K4", "exp", lambda: iterated_spmv(10, 4, seed=154)),
        InstanceSpec("kNN_N10_K8", "knn", lambda: knn_iteration(8, 6, k=3, seed=108)),
        InstanceSpec("kNN_N15_K4", "knn", lambda: knn_iteration(10, 4, k=3, seed=154)),
    ]


def tiny_dataset_specs(scale: str = "default") -> List[InstanceSpec]:
    """Instance specifications of the "tiny" dataset (the main experiments)."""
    if scale == "paper":
        return _tiny_specs_paper()
    if scale == "default":
        return _tiny_specs_default()
    raise ValueError(f"unknown scale {scale!r}; use 'default' or 'paper'")


def small_dataset_specs(scale: str = "default") -> List[InstanceSpec]:
    """Instance specifications of the "small" dataset (divide-and-conquer)."""
    if scale == "paper":
        return _small_specs_paper()
    if scale == "default":
        return _small_specs_default()
    raise ValueError(f"unknown scale {scale!r}; use 'default' or 'paper'")


def tiny_dataset(scale: str = "default", limit: Optional[int] = None) -> List[ComputationalDag]:
    """Build the tiny-dataset DAGs (optionally only the first ``limit``)."""
    specs = tiny_dataset_specs(scale)
    if limit is not None:
        specs = specs[:limit]
    return [spec.build() for spec in specs]


def small_dataset(scale: str = "default", limit: Optional[int] = None) -> List[ComputationalDag]:
    """Build the small-dataset DAGs (optionally only the first ``limit``)."""
    specs = small_dataset_specs(scale)
    if limit is not None:
        specs = specs[:limit]
    return [spec.build() for spec in specs]
