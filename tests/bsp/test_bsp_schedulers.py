"""Unit and integration tests for the BSP schedulers (greedy, Cilk, DFS, ILP)."""

import numpy as np
import pytest

from repro.bsp.cilk import cilk_bsp_schedule, simulate_work_stealing
from repro.bsp.dfs import dfs_bsp_schedule, dfs_order
from repro.bsp.greedy import GreedyBspParameters, greedy_bsp_schedule
from repro.bsp.ilp import BspIlpConfig, ilp_bsp_schedule
from repro.bsp.superstepify import placement_from_bsp, superstepify
from repro.dag.generators import chain_dag, fork_join_dag, random_layered_dag, spmv
from repro.dag.graph import ComputationalDag
from repro.exceptions import ScheduleError
from repro.ilp import SolverOptions


DAGS = [
    ("spmv", lambda: spmv(4, seed=1)),
    ("layered", lambda: random_layered_dag(4, 3, seed=2)),
    ("chain", lambda: chain_dag(8)),
    ("forkjoin", lambda: fork_join_dag(3, 2)),
]


@pytest.mark.parametrize("name,builder", DAGS)
@pytest.mark.parametrize("num_procs", [1, 2, 4])
class TestGreedyScheduler:
    def test_produces_valid_schedule(self, name, builder, num_procs):
        dag = builder()
        schedule = greedy_bsp_schedule(dag, num_procs)
        schedule.validate()
        computable = [v for v in dag.nodes if not dag.is_source(v)]
        assert len(schedule.assignment) == len(computable)

    def test_all_processors_in_range(self, name, builder, num_procs):
        dag = builder()
        schedule = greedy_bsp_schedule(dag, num_procs)
        assert all(0 <= a.processor < num_procs for a in schedule.assignment.values())


class TestGreedySchedulerBehaviour:
    def test_chain_stays_on_one_processor(self):
        dag = chain_dag(10)
        schedule = greedy_bsp_schedule(dag, 4)
        procs = {schedule.processor_of(v) for v in dag.nodes if not dag.is_source(v)}
        assert len(procs) == 1
        assert schedule.num_supersteps == 1

    def test_parallel_work_is_distributed(self):
        dag = random_layered_dag(3, 8, edge_probability=0.2, seed=1)
        schedule = greedy_bsp_schedule(dag, 4)
        work = schedule.work_per_processor()
        assert sum(1 for w in work if w > 0) >= 2

    def test_custom_parameters(self):
        dag = spmv(5, seed=2)
        params = GreedyBspParameters(locality_weight=0.0, balance_weight=5.0)
        schedule = greedy_bsp_schedule(dag, 4, parameters=params)
        schedule.validate()


class TestWorkStealing:
    def test_trace_covers_all_nodes(self, medium_dag):
        trace = simulate_work_stealing(medium_dag, 3, seed=1)
        computable = [v for v in medium_dag.nodes if not medium_dag.is_source(v)]
        assert set(trace.placement) == set(computable)
        assert len(trace.order) == len(computable)
        assert trace.makespan > 0

    def test_finish_times_respect_precedence(self, medium_dag):
        trace = simulate_work_stealing(medium_dag, 3, seed=1)
        for u, v in medium_dag.edges():
            if u in trace.finish_time and v in trace.finish_time:
                assert trace.finish_time[u] <= trace.finish_time[v] - medium_dag.omega(v) + 1e-9

    def test_deterministic_for_fixed_seed(self, medium_dag):
        t1 = simulate_work_stealing(medium_dag, 3, seed=5)
        t2 = simulate_work_stealing(medium_dag, 3, seed=5)
        assert t1.placement == t2.placement

    def test_single_processor_no_steals(self, medium_dag):
        trace = simulate_work_stealing(medium_dag, 1, seed=0)
        assert trace.steals == 0

    def test_cilk_bsp_schedule_valid(self, medium_dag):
        schedule = cilk_bsp_schedule(medium_dag, 3, seed=2)
        schedule.validate()


class TestDfs:
    def test_order_is_topological(self, medium_dag):
        order = dfs_order(medium_dag)
        position = {v: i for i, v in enumerate(order)}
        for u, v in medium_dag.edges():
            if medium_dag.is_source(u):
                continue
            assert position[u] < position[v]

    def test_order_covers_all_computable_nodes(self, medium_dag):
        order = dfs_order(medium_dag)
        computable = [v for v in medium_dag.nodes if not medium_dag.is_source(v)]
        assert sorted(map(str, order)) == sorted(map(str, computable))

    def test_dfs_schedule_single_superstep(self, small_spmv):
        schedule = dfs_bsp_schedule(small_spmv)
        schedule.validate()
        assert schedule.num_supersteps == 1
        assert schedule.num_processors == 1


class TestSuperstepify:
    def test_cross_processor_dependencies_cross_supersteps(self, diamond_dag):
        placement = {"b": 0, "c": 1, "d": 0}
        order = ["b", "c", "d"]
        schedule = superstepify(diamond_dag, placement, order, 2)
        schedule.validate()
        assert schedule.superstep_of("d") > schedule.superstep_of("c")

    def test_same_processor_dependencies_share_superstep(self, diamond_dag):
        placement = {"b": 0, "c": 0, "d": 0}
        schedule = superstepify(diamond_dag, placement, ["b", "c", "d"], 1)
        assert schedule.num_supersteps == 1

    def test_missing_placement_rejected(self, diamond_dag):
        with pytest.raises(ScheduleError):
            superstepify(diamond_dag, {"b": 0}, ["b", "c", "d"], 1)

    def test_non_topological_order_rejected(self, diamond_dag):
        placement = {"b": 0, "c": 0, "d": 0}
        with pytest.raises(ScheduleError):
            superstepify(diamond_dag, placement, ["d", "b", "c"], 1)

    def test_placement_roundtrip(self, medium_dag):
        bsp = greedy_bsp_schedule(medium_dag, 3)
        placement, order = placement_from_bsp(bsp)
        rebuilt = superstepify(medium_dag, placement, order, 3)
        rebuilt.validate()
        for v in placement:
            assert rebuilt.processor_of(v) == placement[v]


class TestIlpBspScheduler:
    def test_small_instance_valid_and_not_worse_than_greedy(self, diamond_dag):
        from repro.bsp.cost import bsp_cost
        from repro.bsp.greedy import greedy_bsp_schedule

        config = BspIlpConfig(solver_options=SolverOptions(time_limit=5))
        schedule = ilp_bsp_schedule(diamond_dag, 2, g=1, L=2, config=config)
        schedule.validate()
        greedy = greedy_bsp_schedule(diamond_dag, 2)
        assert bsp_cost(schedule, 1, 2) <= bsp_cost(greedy, 1, 2) + 1e-6

    def test_falls_back_gracefully_on_tiny_budget(self, small_spmv):
        config = BspIlpConfig(solver_options=SolverOptions(time_limit=0.01))
        schedule = ilp_bsp_schedule(small_spmv, 2, config=config)
        schedule.validate()

    def test_never_costlier_than_greedy(self, monkeypatch):
        """A solve stopped at a limit may return a poor incumbent; the
        scheduler then keeps the greedy schedule."""
        from repro.bsp import ilp as bsp_ilp
        from repro.bsp.cost import bsp_cost
        from repro.ilp import IlpSolution, SolutionStatus

        dag = ComputationalDag("fan-out")
        dag.add_node("src", omega=0, mu=1)
        for v in range(4):
            dag.add_node(v, omega=10, mu=1)
            dag.add_edge("src", v)

        def serial(model, options=None, backend=None):
            # P = S = 2 columns: x (node-major over (p, s)) 0..15, work 16-17,
            # need of the source 18-19, used 20-21; every node in (0, 0)
            values = np.zeros(22)
            values[[0, 4, 8, 12]] = 1.0
            values[[16, 18, 20]] = [40.0, 1.0, 1.0]
            assert model.compile().is_feasible(values)
            return IlpSolution(status=SolutionStatus.FEASIBLE, objective=40.0, values=values)

        monkeypatch.setattr(bsp_ilp, "solve", serial)
        schedule = ilp_bsp_schedule(dag, 2, g=0, L=0, config=BspIlpConfig(max_supersteps=2))
        schedule.validate()
        greedy = greedy_bsp_schedule(dag, 2, g=0)
        assert bsp_cost(greedy, 0, 0) == 20.0
        assert bsp_cost(schedule, 0, 0) == 20.0
