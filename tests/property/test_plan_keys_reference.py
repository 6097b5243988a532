"""Differential test: :func:`job_keys` against the per-job key it replaced.

A plan's keys used to be hashed one job at a time by ``ExperimentJob.key()``,
which encoded the DAG and the config again for every job.  ``job_keys``
encodes them once per (config object, DAG dict object) pair and adds each
job's kind and params to a copy of that hash state; every key must stay the
same bytes, or every result cache and JSONL file would be orphaned.  The
original method is kept below, verbatim, as the reference.

Hypothesis draws plans whose jobs share and do not share DAG dicts and
configs (equal copies included), params with floats (NaN and infinities
too), ``None``, unicode, quotes and backslashes, and config values that only
``default=repr`` can encode.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import PurePosixPath

from hypothesis import given, settings, strategies as st

from repro.exec import ExperimentJob, job_keys
from repro.pipeline import ExperimentConfig
from repro.refine import RefineConfig


def reference_key(self) -> str:
    """Stable content hash of the job (DAG + config + params)."""
    payload = {
        "kind": self.kind,
        "dag": self.dag_data,
        "config": asdict(self.config),
        "params": [[k, v] for k, v in self.params],
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class OtherKindJob(ExperimentJob):
    """A job kind of its own: the kind is part of the hashed payload."""

    kind = "other"


TRICKY = ['"', "\\", '\\"', "é", "ü\"x'", "🙂", "\ud800", "\x00", "a\nb", ""]
texts = st.one_of(st.text(max_size=8), st.sampled_from(TRICKY))
floats = st.floats(allow_nan=True, allow_infinity=True)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), floats, texts)
values = st.one_of(scalars, st.lists(scalars, max_size=3), st.tuples(scalars, scalars))
node_ids = st.one_of(st.integers(-3, 20), texts)


@st.composite
def dag_dicts(draw):
    ids = draw(st.lists(node_ids, max_size=6, unique_by=repr))
    nodes = [
        {"id": v, "omega": draw(floats), "mu": draw(floats)} for v in ids
    ]
    edges = draw(st.lists(st.lists(node_ids, min_size=2, max_size=2), max_size=6))
    return {"name": draw(texts), "nodes": nodes, "edges": edges}


@st.composite
def configs(draw):
    # ``name`` and ``ilp_backend`` are annotated str, but only the JSON
    # encoding reads them here: a path and a set go through ``default=repr``
    return ExperimentConfig(
        name=draw(st.one_of(texts, st.builds(PurePosixPath, texts))),
        num_processors=draw(st.integers(1, 8)),
        cache_factor=draw(floats),
        g=draw(floats),
        L=draw(floats),
        synchronous=draw(st.booleans()),
        ilp_time_limit=draw(floats),
        ilp_node_limit=draw(st.one_of(st.none(), st.integers(0, 50))),
        ilp_backend=draw(st.one_of(texts, st.frozensets(st.integers(0, 3), max_size=2))),
        step_cap=draw(st.one_of(st.none(), st.integers(0, 9))),
        seed=draw(st.integers()),
        refine=RefineConfig(
            enabled=draw(st.booleans()),
            seed=draw(st.integers(0, 99)),
            strategy=draw(st.sampled_from(["hill", "anneal"])),
        ),
    )


@st.composite
def plans(draw):
    """Jobs over a small pool of shared DAG dicts and configs."""
    dags = draw(st.lists(dag_dicts(), min_size=1, max_size=3))
    cfgs = draw(st.lists(configs(), min_size=1, max_size=3))
    jobs = []
    for _ in range(draw(st.integers(1, 8))):
        dag = draw(st.sampled_from(dags))
        config = draw(st.sampled_from(cfgs))
        if draw(st.booleans()):
            # an equal copy: keyed apart from its original, equal key
            dag = copy.deepcopy(dag)
        params = tuple(draw(st.lists(st.tuples(texts, values), max_size=3)))
        cls = draw(st.sampled_from([ExperimentJob, OtherKindJob]))
        jobs.append(cls(dag_data=dag, config=config, params=params))
    return jobs


@settings(max_examples=150, deadline=None)
@given(plans())
def test_job_keys_match_the_per_job_reference(jobs):
    expected = [reference_key(job) for job in jobs]
    assert job_keys(jobs) == expected
    assert [job.key() for job in jobs] == expected
    # a generator of the same jobs is keyed the same
    assert job_keys(job for job in jobs) == expected


def test_a_job_of_another_type_keys_itself():
    class Keyed:
        def key(self):
            return "its-own-key"

    job = ExperimentJob(
        dag_data={"name": "d", "nodes": [], "edges": []},
        config=ExperimentConfig(ilp_time_limit=1.0, ilp_backend="bnb"),
        params=(("member", "bspg+lru"),),
    )
    assert job_keys([Keyed(), job, Keyed()]) == [
        "its-own-key", reference_key(job), "its-own-key"
    ]
