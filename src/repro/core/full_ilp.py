"""The full ILP formulation of MBSP scheduling (Section 6.1, Appendix C.1).

The formulation follows the paper:

* binary variables ``compute[p, v, t]``, ``save[p, v, t]``, ``load[p, v, t]``
  describe the operations executed in (merged) time step ``t``;
* binary variables ``hasred[p, v, t]`` and ``hasblue[v, t]`` describe the
  pebble configuration at the *beginning* of step ``t`` (``t`` ranges from 0
  to ``T``, index ``T`` being the final configuration);
* the fundamental constraints (1)-(10) of Figure 3 tie operations to pebbles;
* with *step merging* (Section 6.2) a single step may hold several compute
  operations of one processor (when inputs and outputs fit in cache
  together), or several save/load operations;
* the synchronous cost is encoded through phase indicators
  (``compphase``/``commphase``), phase-end indicators and running phase-cost
  accumulators (Appendix C.1.2); the asynchronous cost through per-step
  finishing times and per-node availability times.

Boundary conditions (initial red/blue pebbles, values required in slow memory
at the end) are supported so the same builder serves both the full problem
and the sub-problems of the divide-and-conquer scheduler (Section 6.3).

The builder emits every constraint family as one block of rows over
(step, processor, node) index arrays straight into the model's row store;
no per-term expression objects are built.  **Row order, column order and
every coefficient are a contract**: branch and bound branches on the LP
vertex, and an equally optimal but different vertex (which a re-ordered
but otherwise equal model can yield) walks a different tree.  Coefficients
and folded bounds are therefore computed with the floating-point operations
of the expression-built reference in
``tests/property/test_full_ilp_reference.py``, which holds the builder to
it, and two families keep iterating Python sets: (3) walks
``set(computable_nodes())`` and (10) walks ``required_blue()``.  For
integer node ids that order is fixed; for ``str`` ids (a DAG read from
JSON) it follows ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.dag.graph import NodeId
from repro.exceptions import ConfigurationError
from repro.ilp import INF, IlpModel, SolverOptions
from repro.model.instance import MbspInstance

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


@dataclass
class BoundaryConditions:
    """Initial / terminal pebble requirements of a (sub-)problem.

    Attributes
    ----------
    initial_red:
        Per-processor sets of nodes that already carry a red pebble when the
        schedule starts (leftovers of a previous sub-schedule).
    initial_blue:
        Nodes that carry a blue pebble at the start *in addition to* the DAG's
        source nodes.
    required_blue:
        Nodes that must carry a blue pebble at the end *in addition to* the
        DAG's sink nodes (values consumed by later sub-problems).
    """

    initial_red: Dict[int, Set[NodeId]] = field(default_factory=dict)
    initial_blue: Set[NodeId] = field(default_factory=set)
    required_blue: Set[NodeId] = field(default_factory=set)


@dataclass
class MbspIlpConfig:
    """Configuration of the full MBSP ILP scheduler.

    Attributes
    ----------
    synchronous:
        Encode the synchronous (superstep) cost function; otherwise the
        asynchronous makespan.
    use_step_merging:
        Allow several operations of the same kind per (processor, step)
        (Section 6.2); strongly recommended, reduces the number of steps.
    allow_recomputation:
        When false, add ``sum_{p,t} compute[p,v,t] <= 1`` for every node.
    max_steps:
        Number of ILP time steps ``T``; ``None`` derives it from the initial
        schedule (its merged step count plus ``extra_steps``).
    extra_steps:
        Slack added to the derived number of steps.
    cutoff:
        Optional upper bound on the objective (cost of a known schedule);
        mirrors warm-starting the solver with the baseline.
    warm_start:
        How the scheduler warm-starts the solver from its incumbent schedule:
        ``"objective"`` (the default) passes only the incumbent *cost* (an
        objective cutoff row for HiGHS, an incumbent bound for branch and
        bound); ``"solution"`` additionally encodes the incumbent schedule
        into a full ILP variable assignment (:mod:`repro.core.encoding`) and
        hands it to the backend as ``SolverOptions.warm_start_solution`` —
        the branch-and-bound backend installs it as its initial incumbent.
        When the incumbent schedule cannot be encoded within the step budget
        the scheduler falls back to the objective-only warm start.
    solver_options / backend:
        Passed to :func:`repro.ilp.solve`.  ``backend=None`` selects the
        process default (``REPRO_ILP_BACKEND`` or ``"scipy"``); see
        :mod:`repro.ilp.backends` for the registered names (incl. ``"auto"``).
    """

    synchronous: bool = True
    use_step_merging: bool = True
    allow_recomputation: bool = True
    max_steps: Optional[int] = None
    extra_steps: int = 2
    cutoff: Optional[float] = None
    warm_start: str = "objective"
    solver_options: SolverOptions = None
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.solver_options is None:
            self.solver_options = SolverOptions(time_limit=60.0)
        if self.warm_start not in ("objective", "solution"):
            raise ConfigurationError(
                f"unknown warm_start mode {self.warm_start!r}; "
                f"expected 'objective' or 'solution'"
            )
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigurationError("max_steps must be at least 1")
        if self.extra_steps < 0:
            raise ConfigurationError("extra_steps must be non-negative")


@dataclass
class MbspIlpVariables:
    """Column indices of the decision variables, keyed as in the paper.

    Used in both directions: the schedule *extraction* reads operation
    variables out of a solution, and the schedule→solution *encoder*
    (:mod:`repro.core.encoding`) writes a full variable assignment for a
    known schedule, which is why the auxiliary step/phase/cost variables are
    recorded here as well.  Every value is a column of the compiled model.
    """

    num_steps: int
    compute: Dict[Tuple[int, NodeId, int], int]
    save: Dict[Tuple[int, NodeId, int], int]
    load: Dict[Tuple[int, NodeId, int], int]
    hasred: Dict[Tuple[int, NodeId, int], int]
    hasblue: Dict[Tuple[NodeId, int], int]
    compphase: List[int] = field(default_factory=list)
    commphase: List[int] = field(default_factory=list)
    compends: List[int] = field(default_factory=list)
    commends: List[int] = field(default_factory=list)
    # per-(processor, step) operation-kind indicators (step merging only)
    compstep: Dict[Tuple[int, int], int] = field(default_factory=dict)
    commstep: Dict[Tuple[int, int], int] = field(default_factory=dict)
    # synchronous cost machinery (Appendix C.1.2)
    compinduced: List[int] = field(default_factory=list)
    comminduced: List[int] = field(default_factory=list)
    compuntil: Dict[Tuple[int, int], int] = field(default_factory=dict)
    communtil: Dict[Tuple[int, int], int] = field(default_factory=dict)
    makespan: Optional[int] = None

    # ------------------------------------------------------------------
    # convenience accessors that treat fixed/omitted variables as constants
    # ------------------------------------------------------------------
    def compute_value(self, solution, p: int, v: NodeId, t: int) -> bool:
        return _is_set(solution, self.compute.get((p, v, t)), False)

    def save_value(self, solution, p: int, v: NodeId, t: int) -> bool:
        return _is_set(solution, self.save.get((p, v, t)), False)

    def load_value(self, solution, p: int, v: NodeId, t: int) -> bool:
        return _is_set(solution, self.load.get((p, v, t)), False)

    def hasred_value(self, solution, p: int, v: NodeId, t: int, initial: bool = False) -> bool:
        return _is_set(solution, self.hasred.get((p, v, t)), initial)

    def hasblue_value(self, solution, v: NodeId, t: int, initial: bool = False) -> bool:
        return _is_set(solution, self.hasblue.get((v, t)), initial)


def _is_set(solution, column: Optional[int], default: bool) -> bool:
    """Whether binary ``column`` is 1 in ``solution`` (``default`` without one)."""
    if column is None:
        return default
    if solution.values is None:
        raise ValueError("solution has no variable values")
    return bool(solution.values[column] > 0.5)


class _Rows(NamedTuple):
    """A block of model rows laid out over a grid of row indices.

    ``cols``/``vals`` carry the row grid's shape plus a trailing term axis;
    ``lower``/``upper``/``keep`` carry the row grid's shape.  Absent terms
    are padded with column -1 and coefficient 0, which the model drops.
    """

    cols: np.ndarray
    vals: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    keep: np.ndarray


def _term(cols, vals=1.0):
    """One column per row: ``(cols, vals)`` with a trailing term axis of 1."""
    import numpy as np

    return np.asarray(cols)[..., None], np.asarray(vals, dtype=float)[..., None]


def _rows(*terms, lower=-INF, upper=INF, keep=True) -> _Rows:
    """Rows made of ``terms``, each ``(cols, vals)`` with a trailing term axis."""
    import numpy as np

    shape = np.broadcast_shapes(
        *(np.shape(cols)[:-1] for cols, _ in terms),
        np.shape(lower), np.shape(upper), np.shape(keep),
    )
    cols = [np.broadcast_to(c, shape + np.shape(c)[-1:]) for c, _ in terms]
    vals = [np.broadcast_to(v, col.shape) for col, (_, v) in zip(cols, terms)]
    return _Rows(
        np.concatenate(cols, axis=-1),
        np.concatenate(vals, axis=-1),
        np.broadcast_to(lower, shape),
        np.broadcast_to(upper, shape),
        np.broadcast_to(keep, shape),
    )


def _padded(blocks: Sequence[_Rows]) -> List[_Rows]:
    """``blocks`` with their term axes zero-padded to one width."""
    import numpy as np

    width = max(block.cols.shape[-1] for block in blocks)
    return [
        _rows(
            (block.cols, block.vals),
            (np.full(block.cols.shape[:-1] + (width - block.cols.shape[-1],), -1), 0.0),
            lower=block.lower, upper=block.upper, keep=block.keep,
        )
        for block in blocks
    ]


def _stack(blocks: Sequence[_Rows], axis: int) -> _Rows:
    """Interleave equally shaped row blocks along a new row axis ``axis``."""
    import numpy as np

    return _Rows(*(np.stack(parts, axis=axis) for parts in zip(*_padded(blocks))))


def _concat(blocks: Sequence[_Rows], axis: int) -> _Rows:
    """Join row blocks along the existing row axis ``axis``."""
    import numpy as np

    return _Rows(*(np.concatenate(parts, axis=axis) for parts in zip(*_padded(blocks))))


def _merge_axes(block: _Rows, axis: int) -> _Rows:
    """Merge row axes ``axis`` and ``axis + 1`` into one."""
    def merged(a):
        return a.reshape(a.shape[:axis] + (-1,) + a.shape[axis + 2:])
    return _Rows(*(merged(a) for a in block))


def _emit(model: IlpModel, block: _Rows) -> None:
    """Add the kept rows of ``block`` to ``model`` in C order of its grid."""
    keep = block.keep.reshape(-1)
    width = block.cols.shape[-1]
    model.add_rows(
        block.cols.reshape(-1, width)[keep],
        block.vals.reshape(-1, width)[keep],
        block.lower.reshape(-1)[keep],
        block.upper.reshape(-1)[keep],
    )


@dataclass
class _Grid:
    """Pebbling-variable columns as arrays over (step, processor, node).

    ``compute``/``save``/``load`` have shape (T, P, N); ``hasred`` has shape
    (T + 1, P, N) and ``hasblue`` (T + 1, N).  A fixed state (step 0, or a
    value that is blue from the start) and a missing compute variable (a
    source) hold column -1.
    """

    compute: np.ndarray
    save: np.ndarray
    load: np.ndarray
    hasred: np.ndarray
    hasblue: np.ndarray


class MbspIlpBuilder:
    """Builds the ILP model of an MBSP instance.

    Each constraint family is emitted as one block of rows over index
    arrays (see the module docstring for why the order is a contract).
    """

    def __init__(
        self,
        instance: MbspInstance,
        config: Optional[MbspIlpConfig] = None,
        boundary: Optional[BoundaryConditions] = None,
    ) -> None:
        import numpy as np

        self.instance = instance
        self.config = config or MbspIlpConfig()
        self.boundary = boundary or BoundaryConditions()
        self.dag = instance.dag
        self.P = instance.num_processors
        self.g = instance.g
        self.L = instance.L
        self.r = instance.cache_size

        # the big-M constant of Appendix C.1.2; it only needs to dominate the
        # largest possible accumulated phase cost / finishing time of a single
        # processor, so the total work plus total I/O volume (plus one L) is
        # sufficient — a tight M keeps the LP relaxation strong
        self.big_m = (
            sum(self.dag.omega(v) + 2.0 * self.g * self.dag.mu(v) for v in self.dag.nodes)
            + self.L
            + 1.0
        )
        nodes = self.dag.nodes
        self._mu = np.array([self.dag.mu(v) for v in nodes], dtype=float)
        self._omega = np.array([self.dag.omega(v) for v in nodes], dtype=float)
        computable = set(self.computable_nodes())
        self._computable = np.array([v in computable for v in nodes], dtype=bool)

    # ------------------------------------------------------------------
    def initial_red(self, p: int) -> Set[NodeId]:
        return set(self.boundary.initial_red.get(p, set()))

    def initial_blue(self) -> Set[NodeId]:
        return set(self.dag.sources()) | set(self.boundary.initial_blue)

    def required_blue(self) -> Set[NodeId]:
        return set(self.dag.sinks()) | set(self.boundary.required_blue)

    def computable_nodes(self) -> List[NodeId]:
        return [v for v in self.dag.nodes if not self.dag.is_source(v)]

    # ------------------------------------------------------------------
    def build(self, num_steps: int) -> Tuple[IlpModel, MbspIlpVariables]:
        """Construct the model with ``num_steps`` (merged) time steps."""
        if num_steps < 1:
            raise ConfigurationError("the ILP needs at least one time step")
        model = IlpModel(f"mbsp_ilp_{self.instance.name}")
        variables, grid = self._create_variables(model, num_steps)
        self._add_fundamental_constraints(model, variables, grid)
        if not self.config.allow_recomputation:
            self._add_no_recomputation_constraints(model, grid)
        # either cost encoding returns the objective as {column: coefficient}
        if self.config.synchronous:
            objective = self._add_synchronous_cost(model, variables, grid)
        else:
            objective = self._add_asynchronous_cost(model, variables, grid)
        cols, vals = list(objective), list(objective.values())
        if self.config.cutoff is not None:
            # objective <= cutoff, the bound folded as the reference folds it
            bound = float(self.config.cutoff) + 1e-6
            model.add_rows([cols], [vals], upper=0.0 - (0.0 + -1.0 * bound))
        model.minimize(cols, vals)
        return model, variables

    # ------------------------------------------------------------------
    # variable creation
    # ------------------------------------------------------------------
    def _create_variables(self, model: IlpModel, T: int) -> Tuple[MbspIlpVariables, _Grid]:
        """The pebbling binaries, node by node.

        Per node ``v`` the columns are its operations for every (step,
        processor) — compute (non-sources only), save, load — followed by
        its pebble states for steps 1..T: P ``hasred`` columns, then
        ``hasblue`` unless ``v`` is blue from the start (step 0 is the fixed
        initial configuration and has no columns; the accessors treat
        missing entries as constants).
        """
        import numpy as np

        nodes = self.dag.nodes
        P = self.P
        init_blue = self.initial_blue()
        c = self._computable.astype(np.int64)
        b = np.array([v not in init_blue for v in nodes], dtype=np.int64)
        ops = T * P * (2 + c)
        sizes = ops + T * (P + b)
        columns = model.add_variables("pebbling", int(sizes.sum()), 0.0, 1.0, True)
        base = columns.start + np.cumsum(sizes) - sizes

        # (N, T, P) operation columns and (N, T, P) state columns for t = 1..T
        slot = np.arange(T * P).reshape(T, P)
        first = base[:, None, None] + slot * (2 + c)[:, None, None]
        save = first + c[:, None, None]
        states = (
            (base + ops)[:, None, None]
            + np.arange(T)[:, None] * (P + b)[:, None, None]
            + np.arange(P)
        )
        grid = _Grid(
            compute=np.where(c[:, None, None] == 1, first, -1).transpose(1, 2, 0),
            save=save.transpose(1, 2, 0),
            load=(save + 1).transpose(1, 2, 0),
            hasred=np.concatenate(
                [np.full((1, P, len(nodes)), -1), states.transpose(1, 2, 0)]
            ),
            hasblue=np.concatenate(
                [
                    np.full((1, len(nodes)), -1),
                    np.where(b[:, None] == 1, states[:, :, 0] + P, -1).T,
                ]
            ),
        )
        return MbspIlpVariables(
            num_steps=T,
            compute=_keyed(grid.compute, nodes, 0, keep=self._computable),
            save=_keyed(grid.save, nodes, 0),
            load=_keyed(grid.load, nodes, 0),
            hasred=_keyed(grid.hasred[1:], nodes, 1),
            hasblue={
                (v, t): int(col)
                for i, v in enumerate(nodes)
                if b[i]
                for t, col in enumerate(grid.hasblue[1:, i].tolist(), start=1)
            },
        ), grid

    # ------------------------------------------------------------------
    # fundamental constraints (Figure 3)
    # ------------------------------------------------------------------
    def _add_fundamental_constraints(
        self, model: IlpModel, var: MbspIlpVariables, grid: _Grid
    ) -> None:
        import numpy as np

        dag = self.dag
        nodes = dag.nodes
        T = var.num_steps
        P = self.P
        n = dag.num_nodes
        merging = self.config.use_step_merging
        cmask = self._computable
        after_start = (np.arange(T) >= 1)[:, None, None]
        init_red = np.array(
            [[v in red for v in nodes] for red in map(self.initial_red, range(P))],
            dtype=bool,
        ).reshape(P, len(nodes))
        init_blue = self.initial_blue()
        blue_from_start = np.array([v in init_blue for v in nodes])

        # per (t, p): for every node (1) a load requires a blue pebble and
        # (2) a save requires a red pebble of the same processor — a fixed
        # state of 1 needs no row, a fixed 0 forbids the operation — then
        # (3) every compute requires its parents in cache (or computed in
        # the same merged step), for computable nodes in `set` order
        load_needs_blue = _rows(
            _term(grid.load),
            _term(grid.hasblue[:T, None, :], np.where(after_start, -1.0, 0.0)),
            upper=0.0,
            keep=~blue_from_start,
        )
        save_needs_red = _rows(
            _term(grid.save),
            _term(grid.hasred[:T], np.where(after_start, -1.0, 0.0)),
            upper=0.0,
            keep=after_start | ~init_red,
        )
        per_node = _merge_axes(_stack([load_needs_blue, save_needs_red], axis=3), 2)
        pos = {v: i for i, v in enumerate(nodes)}
        # the row order of (3) is the set's iteration order (module docstring)
        computable = set(self.computable_nodes())
        pairs = [
            (pos[v], pos[u])
            for v in computable  # repro: lint-ignore[REP-D05] — pinned row order
            for u in dag.parents(v)
        ]
        child = np.array([v for v, _ in pairs], dtype=np.int64)
        parent = np.array([u for _, u in pairs], dtype=np.int64)
        merged_parent = merging & cmask[parent]
        parents_in_cache = _rows(
            _term(grid.compute[:, :, child]),
            _term(grid.hasred[:T][:, :, parent], np.where(after_start, -1.0, 0.0)),
            _term(grid.compute[:, :, parent], np.where(merged_parent, -1.0, 0.0)),
            upper=np.where(~after_start & init_red[:, parent], 1.0, 0.0),
        )
        _emit(model, _concat([per_node, parents_in_cache], axis=2))

        # (4) red pebbles can only persist, be computed, or be loaded
        prev_is_variable = (np.arange(1, T + 1) >= 2)[:, None, None]
        _emit(model, _rows(
            _term(grid.hasred[1:]),
            _term(grid.hasred[:T], np.where(prev_is_variable, -1.0, 0.0)),
            _term(grid.compute, np.where(cmask, -1.0, 0.0)),
            _term(grid.load, -1.0),
            upper=np.where(~prev_is_variable & init_red, 1.0, 0.0),
        ))

        # (5) blue pebbles can only persist or be saved
        _emit(model, _rows(
            _term(grid.hasblue[1:]),
            _term(grid.hasblue[:T], np.where(prev_is_variable[:, :, 0], -1.0, 0.0)),
            (grid.save.transpose(0, 2, 1), -1.0),
            upper=0.0,
            keep=~blue_from_start,
        ))

        # (6) one kind of operation per processor and step
        computes = (grid.compute, np.where(cmask, 1.0, 0.0))
        communications = (np.concatenate([grid.save, grid.load], axis=2), 1.0)
        if merging:
            kinds = model.add_variables("stepkind", 2 * T * P, 0.0, 1.0, True)
            compstep = np.asarray(kinds[0::2]).reshape(T, P)
            commstep = compstep + 1
            var.compstep = _keyed_steps(compstep)
            var.commstep = _keyed_steps(commstep)
            _emit(model, _stack([
                _rows(computes, _term(compstep, -(1.0 * n)), upper=0.0),
                _rows(communications, _term(commstep, -(1.0 * (2 * n))), upper=0.0),
                _rows(_term(compstep), _term(commstep), upper=1.0),
            ], axis=2))
        else:
            _emit(model, _rows(communications, computes, upper=1.0))

        # (7) the memory bound; with merging, outputs produced in the step
        # must fit together with the cached inputs (Section 6.2).  Bounds
        # fold the constants exactly as the reference does: the start
        # state's cached weight accumulates node by node
        mu = self._mu
        r = float(self.r)
        bound = 0.0 - (0.0 + -1.0 * r)
        start_usage = []
        for p in range(P):
            constant = 0.0
            for i, v in enumerate(nodes):
                constant += self.dag.mu(v) * (1.0 if init_red[p, i] else 0.0)
            start_usage.append(0.0 - (constant + -1.0 * r))
        cached = _rows((grid.hasred[1:].transpose(1, 0, 2), mu), upper=bound)
        in_step = _rows(
            (grid.hasred[:T].transpose(1, 0, 2), np.where(after_start[:, 0], mu, 0.0)),
            (grid.compute.transpose(1, 0, 2), np.where(cmask, mu, 0.0)),
            (grid.load.transpose(1, 0, 2), mu),
            upper=np.where(after_start[:, 0, 0], bound, np.array(start_usage)[:, None]),
        )
        _emit(model, _concat([cached, in_step], axis=1))

        # (8), (9): the initial configuration is already encoded as constants.
        # (10): terminal configuration — required values in slow memory, in
        # `set` order
        terminal = [var.hasblue[v, T] for v in self.required_blue() if v not in init_blue]
        _emit(model, _rows(_term(np.array(terminal, dtype=np.int64)), lower=1.0))

    # ------------------------------------------------------------------
    def _add_no_recomputation_constraints(self, model: IlpModel, grid: _Grid) -> None:
        # sum_{p, t} compute[p, v, t] <= 1, per computable node in DAG order
        T, P, _ = grid.compute.shape
        per_node = grid.compute[:, :, self._computable].transpose(2, 1, 0).reshape(-1, P * T)
        _emit(model, _rows((per_node, 1.0), upper=1.0))

    # ------------------------------------------------------------------
    # synchronous cost (Appendix C.1.2)
    # ------------------------------------------------------------------
    def _add_synchronous_cost(
        self, model: IlpModel, var: MbspIlpVariables, grid: _Grid
    ) -> Dict[int, float]:
        import numpy as np

        T = var.num_steps
        P = self.P
        n = self.dag.num_nodes
        M = self.big_m
        cmask = self._computable

        compphase, commphase, compends, commends = (
            np.asarray(model.add_variables(name, T, 0.0, 1.0, True))
            for name in ("compphase", "commphase", "compends", "commends")
        )
        var.compphase, var.commphase = compphase.tolist(), commphase.tolist()
        var.compends, var.commends = compends.tolist(), commends.tolist()
        has_next = np.arange(T) + 1 < T
        comp_next = np.where(has_next, np.roll(compphase, -1), -1)
        comm_next = np.where(has_next, np.roll(commphase, -1), -1)
        next_coeff = np.where(has_next, 1.0, 0.0)
        _emit(model, _stack([
            _rows(
                (grid.compute.reshape(T, -1), np.tile(np.where(cmask, 1.0, 0.0), P)),
                _term(compphase, -(1.0 * (P * n))),
                upper=0.0,
            ),
            _rows(
                (np.concatenate([grid.save, grid.load], axis=2).reshape(T, -1), 1.0),
                _term(commphase, -(1.0 * (2 * P * n))),
                upper=0.0,
            ),
            _rows(_term(compphase), _term(commphase), upper=1.0),
            # phase-end indicators
            _rows(_term(compends), _term(compphase, -1.0), upper=0.0),
            _rows(_term(commends), _term(commphase, -1.0), upper=0.0),
            _rows(
                _term(compends), _term(compphase, -1.0), _term(comp_next, next_coeff),
                lower=0.0,
            ),
            _rows(
                _term(commends), _term(commphase, -1.0), _term(comm_next, next_coeff),
                lower=0.0,
            ),
        ], axis=1))

        compinduced = np.asarray(model.add_variables("compinduced", T))
        comminduced = np.asarray(model.add_variables("comminduced", T))
        var.compinduced, var.comminduced = compinduced.tolist(), comminduced.tolist()
        until = np.asarray(model.add_variables("until", 2 * P * T))
        compuntil = until[0::2].reshape(P, T)
        communtil = compuntil + 1
        var.compuntil = _keyed_steps(compuntil.T)
        var.communtil = _keyed_steps(communtil.T)

        # running phase costs: until[p, t] >= cost[p, t] + until[p, t-1] - M *
        # (the other kind's phase ends at t); the accumulated cost is
        # charged at the end of a phase
        gm = self.g * self._mu
        has_prev = np.arange(T) >= 1
        prev_coeff = np.where(has_prev, -1.0, 0.0)
        comp_prev = np.where(has_prev, np.roll(compuntil, 1, axis=1), -1)
        comm_prev = np.where(has_prev, np.roll(communtil, 1, axis=1), -1)
        _emit(model, _stack([
            _rows(
                _term(compuntil),
                (grid.compute.transpose(1, 0, 2), np.where(cmask, -self._omega, 0.0)),
                _term(commends, M),
                _term(comp_prev, prev_coeff),
                lower=0.0,
            ),
            _rows(
                _term(communtil),
                (grid.save.transpose(1, 0, 2), -gm),
                (grid.load.transpose(1, 0, 2), -gm),
                _term(compends, M),
                _term(comm_prev, prev_coeff),
                lower=0.0,
            ),
            _rows(
                _term(compinduced), _term(compuntil, -1.0), _term(compends, -M),
                lower=0.0 - M,
            ),
            _rows(
                _term(comminduced), _term(communtil, -1.0), _term(commends, -M),
                lower=0.0 - M,
            ),
        ], axis=2))

        objective = {col: 1.0 for col in var.compinduced}
        objective.update((col, 1.0) for col in var.comminduced)
        objective.update((col, 1.0 * self.L) for col in var.commends)
        return objective

    # ------------------------------------------------------------------
    # asynchronous cost (Appendix C.1.2)
    # ------------------------------------------------------------------
    def _add_asynchronous_cost(
        self, model: IlpModel, var: MbspIlpVariables, grid: _Grid
    ) -> Dict[int, float]:
        import numpy as np

        T = var.num_steps
        P = self.P
        n = self.dag.num_nodes
        M = self.big_m

        finishtime = np.asarray(model.add_variables("finishtime", P * T)).reshape(P, T)
        getsblue = np.asarray(model.add_variables("getsblue", n))
        makespan = model.add_variables("makespan", 1)[0]
        var.makespan = makespan

        gm = self.g * self._mu
        step_cost = np.concatenate([np.where(self._computable, -self._omega, 0.0), -gm, -gm])
        # a load cannot finish before the value is available plus the
        # duration of the whole (merged) load operation of this step
        load_coeffs = np.broadcast_to(-gm, (n, n)).copy()
        np.fill_diagonal(load_coeffs, -(gm + M))
        for p in range(P):
            for t in range(T):
                step_ops = np.concatenate(
                    [grid.compute[t, p], grid.save[t, p], grid.load[t, p]]
                )
                previous = finishtime[p, t - 1] if t else -1
                _emit(model, _rows(
                    _term([finishtime[p, t]]),
                    _term([previous], -1.0 if t else 0.0),
                    (step_ops[None], step_cost),
                    lower=0.0,
                ))
                # a save defines when the value becomes available in slow memory
                _emit(model, _rows(
                    _term(getsblue),
                    _term(finishtime[p, t], -1.0),
                    _term(grid.save[t, p], -M),
                    lower=0.0 - M,
                ))
                _emit(model, _rows(
                    _term(finishtime[p, t]),
                    _term(getsblue, -1.0),
                    (np.broadcast_to(grid.load[t, p], (n, n)), load_coeffs),
                    lower=0.0 - M,
                ))
            _emit(model, _rows(
                _term([makespan]), _term([finishtime[p, T - 1]], -1.0), lower=0.0
            ))
        return {makespan: 1.0}


def _keyed(grid: np.ndarray, nodes: Sequence[NodeId], first_step: int, keep=None):
    """``{(p, v, t): column}`` for a (step, processor, node) column grid."""
    T, P, _ = grid.shape
    chosen = [(i, v) for i, v in enumerate(nodes) if keep is None or keep[i]]
    columns = grid[:, :, [i for i, _ in chosen]].transpose(2, 0, 1).ravel().tolist()
    keys = (
        (p, v, t)
        for _, v in chosen
        for t in range(first_step, first_step + T)
        for p in range(P)
    )
    return dict(zip(keys, columns))


def _keyed_steps(grid: np.ndarray) -> Dict[Tuple[int, int], int]:
    """``{(p, t): column}`` for a (step, processor) column grid."""
    return {(p, t): col for t, row in enumerate(grid.tolist()) for p, col in enumerate(row)}
