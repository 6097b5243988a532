"""Determinism and schema tests for the instance features (repro.learn)."""

from __future__ import annotations

import os
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from repro.dag.generators import random_layered_dag
from repro.pipeline import ExperimentConfig
from repro.learn import FEATURE_NAMES, feature_bucket, instance_features


CONFIG = ExperimentConfig(name="features-test", num_processors=4)


class TestSchema:
    def test_vector_matches_schema(self, small_spmv):
        vector = instance_features(small_spmv, CONFIG)
        assert len(vector.values) == len(FEATURE_NAMES)
        assert vector.names == FEATURE_NAMES
        assert vector.to_dict() == dict(zip(FEATURE_NAMES, vector.values))

    def test_getitem_by_name(self, small_spmv):
        vector = instance_features(small_spmv, CONFIG)
        assert vector["nodes"] == float(small_spmv.num_nodes)
        assert vector["processors"] == 4.0

    def test_bucket_is_coarse_and_stable(self, small_spmv):
        vector = instance_features(small_spmv, CONFIG)
        bucket = feature_bucket(vector)
        assert bucket.startswith("n") and "|P4" in bucket
        assert bucket == feature_bucket(vector)

    def test_config_enters_the_vector(self, small_spmv):
        base = instance_features(small_spmv, CONFIG)
        other = instance_features(
            small_spmv, ExperimentConfig(name="x", num_processors=8)
        )
        assert base["processors"] != other["processors"]
        assert base.fingerprint() != other.fingerprint()


class TestDeterminism:
    def test_repeated_calls_identical(self, medium_dag):
        first = instance_features(medium_dag, CONFIG)
        second = instance_features(medium_dag, CONFIG)
        assert first.values == second.values
        assert first.fingerprint() == second.fingerprint()

    @settings(max_examples=25, deadline=None)
    @given(
        layers=st.integers(min_value=2, max_value=5),
        width=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_dags_feature_purely(self, layers, width, seed):
        dag = random_layered_dag(
            num_layers=layers, width=width, edge_probability=0.5, seed=seed
        )
        first = instance_features(dag, CONFIG)
        second = instance_features(dag, CONFIG)
        assert first.values == second.values
        assert feature_bucket(first) == feature_bucket(second)

    def test_fingerprint_stable_across_hash_seeds(self):
        """The vector must not depend on PYTHONHASHSEED (set iteration)."""
        script = (
            "from repro.dag.generators import spmv\n"
            "from repro.dag.analysis import assign_random_memory_weights\n"
            "from repro.pipeline import ExperimentConfig\n"
            "from repro.learn import instance_features\n"
            "dag = spmv(5, seed=2)\n"
            "assign_random_memory_weights(dag, seed=3)\n"
            "config = ExperimentConfig(name='hashseed', num_processors=4)\n"
            "print(instance_features(dag, config).fingerprint())\n"
        )
        prints = []
        for hash_seed in ("0", "1", "42"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            out = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            )
            prints.append(out.stdout.strip())
        assert len(set(prints)) == 1, prints
