"""Pinned LP vertices of branch and bound on the ``ilp`` benchmark models.

Branch and bound branches on the most fractional variable of each node's LP
vertex, so a relaxation that returns a different (equally optimal) vertex
walks a different tree, even when every compiled objective and bound stays
the same.  Golden suites do not notice such a change until a node limit
happens to cut the tree where it matters.  These pins do.

The models are the ``repro exec run --pipeline "baseline|ilp" --backend bnb``
configuration on the tiny dataset: P = 4, the dataset's own weights, the
step budget derived from the two-stage baseline, each DAG passed through its
dict form as a job does.  For the root LP and its first (down) child the
test pins a sha256 of the vertex ``x``, the objective and the branching
variable.  The six smallest models run in tier 1, all thirteen under
``slow``.  The prepared LP is held to ``optimize.linprog``: a test-local
relaxation that calls ``linprog`` at every node must hit the same pins.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.core.full_ilp import MbspIlpBuilder, MbspIlpConfig
from repro.core.scheduler import estimate_time_steps
from repro.core.two_stage import baseline_schedule
from repro.dag.io import dag_from_dict, dag_to_dict
from repro.experiments.datasets import tiny_dataset
from repro.pipeline import ExperimentConfig
from repro.ilp import branch_and_bound

#: instance -> ((x sha256, objective, branching variable) of the root LP,
#:              the same of the root's down child), smallest model first
PINS = {
    "bicgstab": (
        ("d7424d55bfd366e4f117d9c33d422fc2d1ebddad4a68a299993798a01a594b22", 0.020833333333333332, 2080),
        ("c8cb77d7177ad5193b5d6b50b299fb360278d590742606dbb6aa60fcad835ee0", 0.022727272727272728, 2619),
    ),
    "pregel": (
        ("328b8757093deeeb918d4c30117c7b99c87b360dc972f685058bdd181ed43b2b", 0.02757352941176471, 2599),
        ("29e620e5cd2f6dff0a992ee1b103ef63c4ff10b4a02466c6b42d7f52fc9c137b", 0.02757352941176471, 2609),
    ),
    "k-means": (
        ("8bfa2c4bd8452a5a71f0b2a3d8616924bedd3b41de40f57dd3e4e4f46deb6582", 0.016447368421052627, 2794),
        ("c982c2fddc5425fca67fb68d050ddb1130473afe6980d25d426f365e993715b2", 0.016891891891891896, 2988),
    ),
    "spmv_N7": (
        ("6d311a4486c929bf0183be2d48546ba8fddfdc62f85d8a88b193d2e15930d65e", 0.03125, 2530),
        ("6175fcb4173a67b503e3d61015a5083b08904bb412e6e886323e27dd03bfe430", 0.03188775510204081, 1296),
    ),
    "spmv_N10": (
        ("ed9f588b5ef223521ed609c7c2426407702d7e2bcd3905d0915b0a1ebe2229ff", 0.03124999999999999, 4505),
        ("85ce773e81c20cfdaae4c6d7be02ef1ef68b990dfb8e3dc995ee22f2ad7621d5", 0.031249999999999972, 2062),
    ),
    "spmv_N6": (
        ("a5e1ba9e7189cc7dda2d0f0b7eeab54f87109a7c6d749b0524281dd8e4247cef", 0.020833333333333332, 3610),
        ("0beaed5f1dafaa7743e5b75d826bef7014b773e112ecdd5b455a7918aa7ffa7e", 0.021367521367521364, 2590),
    ),
    "kNN_N4_K3": (
        ("2efc545df63025c53ad6416f9613869bce22e2b8468629c5d2844760e9fcf556", 0.013888888888888892, 4486),
        ("6025b77f9677160d7c034d920abfdec1dbf0b41bda42bf1401abec36610d1e91", 0.014367816091954025, 5292),
    ),
    "exp_N5_K3": (
        ("de8785c64157ed9ed5eceb17a18e6b52b5f29e00db95a9b18e3d13f08241217d", 0.017857142857142856, 4222),
        ("b24ec143c7fc7751b5eeafad58cb1bdc43831520425a7c48b1abcdf4fc73188d", 0.017857142857142863, 5451),
    ),
    "exp_N4_K2": (
        ("cf94a1658895cc78f5411ad9c0ea8aa5c65cf9a747102d801f89920ed47312d3", 0.011363636363636366, 4486),
        ("e1d706bb8ec6cd84c37c30044f7c756d72f20a58ed088f1addbbe5a9f7a629d4", 0.011755485893416929, 4501),
    ),
    "kNN_N5_K3": (
        ("408e366b6c54db95add44e71c314e537f03664203b319742907260d901340756", 0.01388888888888889, 4630),
        ("48db8d7d90f988556387cf8adb3c2b772a958a79ceaaa948d98f67dd46fe390d", 0.014245014245014242, 7073),
    ),
    "kNN_N6_K4": (
        ("3ea49adab28f3a4417551432a96e898d07ab2f327149ed745bf2716ca1d3cbb8", 0.009615384615384614, 6118),
        ("110cdadcc7b45a647dbc57be8c2f1c05ebbd52b4a96866e53d19f1cd39f4eead", 0.009946949602122016, 6929),
    ),
    "exp_N6_K4": (
        ("99a9c8f3528cb1ddcb0695dce21a0c154a42cf604bb767a4221fa3d7adff1ff9", 0.012499999999999997, 7282),
        ("fb2668701218628748868a4260e5472825f528e5634c70f9d9f095362cfd974d", 0.012820512820512817, 6058),
    ),
    "CG_N2_K2": (
        ("683194dd11ec7479a93d685be5e759a35c8695873142ec9addbf5fb8d31c72aa", 0.016949152542372885, 8302),
        ("c88a7660747cf6d83a0f2138ab3a3a16bf0f65038eab193e15d7184c5cd7ec33", 0.016949152542372885, 11362),
    ),
}
FAST = list(PINS)[:6]
SLOW = list(PINS)[6:]


def ilp_model(name: str):
    """The compiled ``ilp``-benchmark model of tiny-dataset instance ``name``."""
    config = ExperimentConfig(name="exec", num_processors=4)
    (dag,) = [d for d in tiny_dataset() if d.name == name]
    instance = config.instance_for(dag_from_dict(dag_to_dict(dag)))
    baseline = baseline_schedule(instance, synchronous=True)
    builder = MbspIlpBuilder(instance, MbspIlpConfig(synchronous=True))
    model, _ = builder.build(estimate_time_steps(baseline.mbsp_schedule))
    return model.compile()


def linprog_relaxation(compiled):
    """The relaxation as per-node ``optimize.linprog`` calls, for reference,
    with branch and bound's row split (``<=``, negated ``>=``, equality
    rows) as scipy matrices."""
    from scipy import optimize, sparse

    A = compiled.A.tocsr()
    ub_rows, lb_rows, eq_rows = branch_and_bound._split_constraints(compiled)
    A_ub = sparse.vstack([A[ub_rows], -A[lb_rows]])
    b_ub = np.concatenate((compiled.con_ub[ub_rows], -compiled.con_lb[lb_rows]))
    A_eq, b_eq = A[eq_rows], compiled.con_ub[eq_rows]

    def solve(lower, upper):
        res = optimize.linprog(
            c=compiled.c,
            A_ub=A_ub,
            b_ub=b_ub,
            A_eq=A_eq,
            b_eq=b_eq,
            bounds=np.column_stack((lower, np.where(np.isfinite(upper), upper, np.inf))),
            method="highs",
        )
        assert res.status == 0, res.message
        return res.x, float(res.fun)

    return solve


def root_and_down_child(name: str, relaxation=branch_and_bound._relaxation):
    """(x sha256, objective, branching variable) of the root LP and its down child."""
    compiled = ilp_model(name)
    solve = relaxation(compiled)
    int_idx = compiled.integrality.nonzero()[0]
    lower, upper = compiled.var_lb.astype(float), compiled.var_ub.astype(float)
    pins = []
    for _ in range(2):
        x, objective = solve(lower, upper)
        branch = branch_and_bound._most_fractional(x, int_idx)
        pins.append((hashlib.sha256(x.tobytes()).hexdigest(), objective, branch))
        upper = upper.copy()
        upper[branch] = math.floor(x[branch])
    return tuple(pins)


@pytest.mark.parametrize("name", FAST)
def test_lp_vertices_are_pinned(name):
    assert root_and_down_child(name) == PINS[name]


@pytest.mark.slow
@pytest.mark.parametrize("name", SLOW)
def test_lp_vertices_are_pinned_on_larger_models(name):
    assert root_and_down_child(name) == PINS[name]


def test_linprog_relaxation_hits_the_same_pins():
    assert root_and_down_child("bicgstab", linprog_relaxation) == PINS["bicgstab"]
