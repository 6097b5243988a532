"""ILP-based BSP scheduler (the paper's "stronger baseline" first stage).

The BSP scheduling problem itself (ignoring memory constraints) is formulated
as an ILP, similarly to [36]: binary variables assign every computable node to
a (processor, superstep) pair, the work cost of a superstep is the maximum
processor work, and communicated values are charged ``g * mu`` whenever a
value is needed on a processor that did not compute it.  The number of
supersteps is fixed up front (taken from a greedy schedule plus slack).

The memory bound ``r`` plays no role here — that is exactly why the paper uses
this scheduler only as the first stage of a *two-stage* baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from repro.dag.graph import ComputationalDag
from repro.exceptions import ScheduleError
from repro.ilp import IlpModel, SolverOptions, solve
from repro.bsp.cost import bsp_cost
from repro.bsp.greedy import greedy_bsp_schedule
from repro.bsp.schedule import BspSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


@dataclass
class BspIlpConfig:
    """Configuration of the ILP-based BSP scheduler.

    Attributes
    ----------
    max_supersteps:
        Number of supersteps available to the ILP; ``None`` derives it from a
        greedy schedule (its superstep count plus one).
    solver_options:
        Time limit / gap options passed to the ILP backend.
    backend:
        Any registered ILP backend name — ``"scipy"`` (HiGHS), ``"bnb"``
        (pure-Python branch and bound) or ``"auto"``; ``None`` selects the
        process default (see :mod:`repro.ilp.backends`).
    """

    max_supersteps: Optional[int] = None
    solver_options: SolverOptions = None
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.solver_options is None:
            self.solver_options = SolverOptions(time_limit=20.0)


class IlpBspScheduler:
    """Formulate and solve BSP scheduling as an ILP; fall back to greedy."""

    def __init__(self, config: Optional[BspIlpConfig] = None) -> None:
        self.config = config or BspIlpConfig()

    # ------------------------------------------------------------------
    def schedule(
        self,
        dag: ComputationalDag,
        num_processors: int,
        g: float = 1.0,
        L: float = 0.0,
    ) -> BspSchedule:
        """Return the best BSP schedule found (never worse than the greedy one)."""
        greedy = greedy_bsp_schedule(dag, num_processors, g=g)
        computable = [v for v in dag.nodes if not dag.is_source(v)]
        if not computable:
            return greedy
        num_supersteps = self.config.max_supersteps or (greedy.num_supersteps + 1)
        num_supersteps = max(num_supersteps, 1)

        model, x = self._build_model(dag, num_processors, num_supersteps, g, L)
        solution = solve(model, self.config.solver_options, backend=self.config.backend)
        if not solution.has_solution:
            return greedy
        ilp_schedule = self._extract(dag, x, solution)
        # a limit-stopped solve may return an incumbent costlier than greedy
        if ilp_schedule is None or bsp_cost(ilp_schedule, g, L) > bsp_cost(greedy, g, L):
            return greedy
        return ilp_schedule

    # ------------------------------------------------------------------
    def _build_model(
        self,
        dag: ComputationalDag,
        P: int,
        S: int,
        g: float,
        L: float,
    ) -> Tuple[IlpModel, np.ndarray]:
        """The model and its ``x`` columns, shaped (computable node, P, S)."""
        import numpy as np

        model = IlpModel(f"bsp_ilp_{dag.name}")
        computable = [v for v in dag.nodes if not dag.is_source(v)]
        n = len(computable)
        index = {v: i for i, v in enumerate(computable)}
        # every node with a child sends its value (a child is never a source)
        senders = [u for u in dag.nodes if dag.children(u)]

        # x[i, p, s] = 1 iff node computable[i] runs on processor p in superstep s
        x = np.asarray(model.add_variables("x", n * P * S, 0.0, 1.0, True)).reshape(n, P, S)
        # work[s] bounds the work of every processor in superstep s
        work = np.asarray(model.add_variables("work", S))
        # need[k, p] = 1 iff processor p needs the value of senders[k] without
        # having computed it (covers both non-source values and source loads)
        need = np.asarray(model.add_variables("need", len(senders) * P, 0.0, 1.0, True))
        need = need.reshape(len(senders), P)
        # used[s] = 1 iff superstep s computes anything (charges L, compacts)
        used = np.asarray(model.add_variables("used", S, 0.0, 1.0, True))

        # every node computed exactly once
        model.add_rows(x.reshape(n, P * S), 1.0, lower=1.0, upper=1.0)

        # precedence, per edge u -> v and (p, s): v in (p, s) requires u in
        # an earlier superstep on any processor, or in (p, s) itself
        edges = np.array(
            [(index[u], index[v]) for u, v in dag.edges() if not dag.is_source(u)],
            dtype=np.int64,
        ).reshape(-1, 2)
        tails, heads = edges.T
        p, s, q, t = np.ix_(range(P), range(S), range(P), range(S))
        before = ((t < s) | ((q == p) & (t == s))).reshape(P, S, P * S)
        cols = np.concatenate([
            x[heads][..., None],
            np.broadcast_to(x[tails].reshape(-1, 1, 1, P * S), (len(edges), P, S, P * S)),
        ], axis=-1)
        vals = np.concatenate([np.ones((P, S, 1)), np.where(before, -1.0, 0.0)], axis=-1)
        model.add_rows(
            cols.reshape(-1, 1 + P * S),
            np.broadcast_to(vals, cols.shape).reshape(-1, 1 + P * S),
            upper=0.0,
        )

        # work cost, per (s, p): work[s] >= sum of omega over the cell
        omega = np.array([dag.omega(v) for v in computable], dtype=float)
        cols = np.concatenate([
            np.broadcast_to(work[:, None, None], (S, P, 1)), x.transpose(2, 1, 0),
        ], axis=-1)
        model.add_rows(
            cols.reshape(S * P, 1 + n), np.concatenate([[1.0], -omega]), lower=0.0
        )

        # communicated values, per sender u, p, child v and s:
        # need[u, p] >= x[v, p, s] - sum_t x[u, p, t] (no sum for a source u)
        for k, u in enumerate(senders):
            children = [index[v] for v in dag.children(u)]
            shape = (P, len(children), S)
            own = x[index[u]] if u in index else np.full((P, S), -1)
            cols = np.concatenate([
                np.broadcast_to(need[k][:, None, None, None], shape + (1,)),
                x[children].transpose(1, 0, 2)[..., None],
                np.broadcast_to(own[:, None, None, :], shape + (S,)),
            ], axis=-1)
            vals = np.concatenate([[1.0, -1.0], np.full(S, 1.0 if u in index else 0.0)])
            model.add_rows(cols.reshape(-1, 2 + S), vals, lower=0.0)

        # superstep usage, per s: sum of x[., ., s] <= n * used[s]
        cols = np.concatenate([x.transpose(2, 0, 1).reshape(S, n * P), used[:, None]], axis=1)
        model.add_rows(cols, np.concatenate([np.ones(n * P), [-float(n)]]), upper=0.0)

        mu = np.array([dag.mu(u) for u in senders], dtype=float)
        model.minimize(
            np.concatenate([work, need.ravel(), used]),
            np.concatenate([np.ones(S), np.repeat(mu * g, P), np.full(S, 1.0 * L)]),
        )
        return model, x

    # ------------------------------------------------------------------
    def _extract(
        self,
        dag: ComputationalDag,
        x: np.ndarray,
        solution,
    ) -> Optional[BspSchedule]:
        import numpy as np

        n, P, S = x.shape
        schedule = BspSchedule(dag, P)
        topo_position = {v: i for i, v in enumerate(dag.topological_order())}
        computable = [v for v in dag.nodes if not dag.is_source(v)]
        # each node goes to the first chosen (p, s) in p-major order
        chosen = (solution.values[x] > 0.5).reshape(n, P * S)
        if not chosen.any(axis=1).all():
            return None
        procs, steps = np.divmod(chosen.argmax(axis=1), S)
        # assign in (superstep, topological) order so intra-cell orders respect
        # the precedence constraints
        placements = sorted(
            zip(steps.tolist(), procs.tolist(), computable),
            key=lambda item: (item[0], topo_position[item[2]]),
        )
        for s, p, v in placements:
            schedule.assign(v, p, s)
        try:
            schedule.validate()
        except ScheduleError:
            return None
        return schedule.compact_supersteps()


def ilp_bsp_schedule(
    dag: ComputationalDag,
    num_processors: int,
    g: float = 1.0,
    L: float = 0.0,
    config: Optional[BspIlpConfig] = None,
) -> BspSchedule:
    """Convenience wrapper around :class:`IlpBspScheduler`."""
    return IlpBspScheduler(config).schedule(dag, num_processors, g=g, L=L)
