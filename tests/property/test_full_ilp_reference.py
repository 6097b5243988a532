"""Differential test: the array-built ILP models against their expression-built originals.

``MbspIlpBuilder``, ``IlpBspScheduler._build_model`` and
``ilp_acyclic_bipartition`` emit their rows as blocks of column/coefficient
arrays, set the objective from a column and a coefficient array, and
``IlpModel.compile`` builds the CSR matrix straight from the model's row
store.  All three must reproduce the original models bit for bit, because
branch and bound's LP vertices depend on the row order, the column order
and every coefficient.  The originals are kept below, verbatim, as the
reference implementation:

* the MBSP builder's ``build``, variable creation, constraint families
  (1)-(10), no-recomputation rows and both cost encodings, with the
  ``_hasred_expr``/``_hasblue_expr`` helpers;
* ``IlpBspScheduler._build_model`` and the model-building part of
  ``ilp_acyclic_bipartition``.

They are written in the arithmetic of the expression layer the library
used to have, reproduced here in minimal form (``Variable``, ``LinExpr``,
``Constraint``, ``lin_sum``), against a ``ReferenceIlpModel`` with scalar
variable adders, ``add_constraint``, an expression objective and the
original ``compile``, which walked the ``Constraint`` objects one by one.

Hypothesis draws small DAGs whose weights repeat and include zeros.  The
MBSP models use 1-3 processors, 1-5 steps, g in {0, 1}, both cost models,
with and without step merging, recomputation and a cutoff, and boundary
conditions (initial red pebbles on any processor, required blue values that
are already blue).  The BSP models use 1-3 processors and supersteps, g in
{0, 1, 2.5} and L in {0, 5}; the bipartitions a balance of 0.25 or 0.4;
both take ``int`` or ``str`` node ids.  Every compiled array must be
byte-equal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.bsp.ilp import IlpBspScheduler
from repro.core import acyclic_partition
from repro.core.acyclic_partition import PartitionConfig, ilp_acyclic_bipartition
from repro.core.full_ilp import (
    BoundaryConditions,
    MbspIlpBuilder,
    MbspIlpConfig,
    MbspIlpVariables,
)
from repro.dag.graph import ComputationalDag, NodeId
from repro.exceptions import ConfigurationError
from repro.ilp import (
    INF,
    CompiledModel,
    IlpSolution,
    Sense,
    SolutionStatus,
)
from repro.model.instance import make_instance


# ----------------------------------------------------------------------
# the expression layer the originals were written in, minimal
# ----------------------------------------------------------------------
class Variable:
    """A column of a :class:`ReferenceIlpModel`; arithmetic makes a LinExpr."""

    def __init__(self, index: int, lower: float, upper: float, is_integer: bool) -> None:
        self.index = index
        self.lower = float(lower)
        self.upper = float(upper)
        self.is_integer = bool(is_integer)

    def _expr(self) -> "LinExpr":
        return LinExpr({self.index: 1.0}, 0.0)

    def __add__(self, other) -> "LinExpr":
        return self._expr() + other

    def __sub__(self, other) -> "LinExpr":
        return self._expr() - other

    def __rsub__(self, other) -> "LinExpr":
        return (-1.0 * self._expr()) + other

    def __mul__(self, other) -> "LinExpr":
        return self._expr() * other

    __rmul__ = __mul__

    def __le__(self, other) -> "Constraint":
        return self._expr() <= other

    def __ge__(self, other) -> "Constraint":
        return self._expr() >= other


class LinExpr:
    """``sum_i coeffs[i] * x_i + constant``."""

    def __init__(self, coeffs=None, constant: float = 0.0) -> None:
        self.coeffs: Dict[int, float] = dict(coeffs or {})
        self.constant = float(constant)

    @staticmethod
    def _coerce(value) -> "LinExpr":
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, Variable):
            return value._expr()
        return LinExpr({}, float(value))

    def copy(self) -> "LinExpr":
        return LinExpr(dict(self.coeffs), self.constant)

    def add_term(self, var: Variable, coeff: float) -> "LinExpr":
        if coeff:
            self.coeffs[var.index] = self.coeffs.get(var.index, 0.0) + coeff
        return self

    def add_constant(self, value: float) -> "LinExpr":
        self.constant += value
        return self

    def add_expr(self, other: "LinExpr", scale: float = 1.0) -> "LinExpr":
        for idx, coeff in other.coeffs.items():
            self.coeffs[idx] = self.coeffs.get(idx, 0.0) + scale * coeff
        self.constant += scale * other.constant
        return self

    def __add__(self, other) -> "LinExpr":
        return self.copy().add_expr(LinExpr._coerce(other))

    def __sub__(self, other) -> "LinExpr":
        return self.copy().add_expr(LinExpr._coerce(other), scale=-1.0)

    def __mul__(self, other) -> "LinExpr":
        return LinExpr({k: v * other for k, v in self.coeffs.items()}, self.constant * other)

    __rmul__ = __mul__

    def __le__(self, other) -> "Constraint":
        return Constraint(self - LinExpr._coerce(other), -INF, 0.0)

    def __ge__(self, other) -> "Constraint":
        return Constraint(self - LinExpr._coerce(other), 0.0, INF)

    def __eq__(self, other) -> "Constraint":  # type: ignore[override]
        return Constraint(self - LinExpr._coerce(other), 0.0, 0.0)


@dataclass
class Constraint:
    """``lower <= expr <= upper``; the expression constant folds into the bounds."""

    expr: LinExpr
    lower: float
    upper: float


def lin_sum(items) -> LinExpr:
    out = LinExpr()
    for item in items:
        if isinstance(item, Variable):
            out.add_term(item, 1.0)
        elif isinstance(item, LinExpr):
            out.add_expr(item)
        else:
            out.add_constant(float(item))
    return out


class ReferenceIlpModel:
    """The original model container: one :class:`Variable` per column, one
    :class:`Constraint` per row, an expression objective, and the original
    ``compile``."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: List[Variable] = []
        self.constraints: List[Constraint] = []
        self._objective = LinExpr()
        self._sense = Sense.MINIMIZE

    def _add_variable(self, lower: float, upper: float, is_integer: bool) -> Variable:
        var = Variable(len(self.variables), lower, upper, is_integer)
        self.variables.append(var)
        return var

    def add_binary(self, name: str) -> Variable:
        return self._add_variable(0.0, 1.0, True)

    def add_continuous(self, name: str, lower: float = 0.0, upper: float = INF) -> Variable:
        return self._add_variable(lower, upper, False)

    def add_constraint(self, constraint: Constraint) -> Constraint:
        self.constraints.append(constraint)
        return constraint

    def minimize(self, expr) -> None:
        self._objective = LinExpr._coerce(expr).copy()
        self._sense = Sense.MINIMIZE

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def compile(self) -> CompiledModel:
        """Compile to the sparse arrays used by the solver backends."""
        n = len(self.variables)
        c = np.zeros(n)
        for idx, coeff in self._objective.coeffs.items():
            c[idx] = coeff
        if self._sense is Sense.MAXIMIZE:
            c = -c

        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        con_lb = np.empty(len(self.constraints))
        con_ub = np.empty(len(self.constraints))
        for i, con in enumerate(self.constraints):
            for idx, coeff in con.expr.coeffs.items():
                if coeff:
                    rows.append(i)
                    cols.append(idx)
                    vals.append(coeff)
            # fold the expression constant into the bounds
            con_lb[i] = con.lower - con.expr.constant if con.lower != -INF else -INF
            con_ub[i] = con.upper - con.expr.constant if con.upper != INF else INF
        A = sparse.csr_matrix(
            (vals, (rows, cols)), shape=(len(self.constraints), n), dtype=float
        )
        var_lb = np.array([v.lower for v in self.variables])
        var_ub = np.array([v.upper for v in self.variables])
        integrality = np.array([1 if v.is_integer else 0 for v in self.variables])
        return CompiledModel(
            c=c,
            A=A,
            con_lb=con_lb,
            con_ub=con_ub,
            var_lb=var_lb,
            var_ub=var_ub,
            integrality=integrality,
            objective_constant=self._objective.constant,
            sense=self._sense,
        )


# ----------------------------------------------------------------------
# the expression-built originals, frozen verbatim
# ----------------------------------------------------------------------
class ReferenceMbspIlpBuilder(MbspIlpBuilder):
    """The builder with its original per-expression constraint families."""

    def build(self, num_steps: int) -> Tuple[ReferenceIlpModel, MbspIlpVariables]:
        """Construct the model with ``num_steps`` (merged) time steps."""
        if num_steps < 1:
            raise ConfigurationError("the ILP needs at least one time step")
        model = ReferenceIlpModel(f"mbsp_ilp_{self.instance.name}")
        variables = self._create_variables(model, num_steps)
        self._add_fundamental_constraints(model, variables)
        if not self.config.allow_recomputation:
            self._add_no_recomputation_constraints(model, variables)
        if self.config.synchronous:
            objective = self._add_synchronous_cost(model, variables)
        else:
            objective = self._add_asynchronous_cost(model, variables)
        if self.config.cutoff is not None:
            model.add_constraint(objective <= float(self.config.cutoff) + 1e-6)
        model.minimize(objective)
        return model, variables

    # ------------------------------------------------------------------
    # variable creation
    # ------------------------------------------------------------------
    def _create_variables(self, model: ReferenceIlpModel, T: int) -> MbspIlpVariables:
        dag = self.dag
        compute: Dict[Tuple[int, NodeId, int], Variable] = {}
        save: Dict[Tuple[int, NodeId, int], Variable] = {}
        load: Dict[Tuple[int, NodeId, int], Variable] = {}
        hasred: Dict[Tuple[int, NodeId, int], Variable] = {}
        hasblue: Dict[Tuple[NodeId, int], Variable] = {}

        computable = set(self.computable_nodes())
        init_blue = self.initial_blue()

        for v in dag.nodes:
            for t in range(T):
                for p in range(self.P):
                    if v in computable:
                        compute[p, v, t] = model.add_binary(f"compute_{p}_{v}_{t}")
                    save[p, v, t] = model.add_binary(f"save_{p}_{v}_{t}")
                    load[p, v, t] = model.add_binary(f"load_{p}_{v}_{t}")
            # pebble-state variables for t = 1 .. T (index 0 is the fixed
            # initial configuration and therefore not represented by
            # variables; the accessors treat missing entries as constants)
            for t in range(1, T + 1):
                for p in range(self.P):
                    hasred[p, v, t] = model.add_binary(f"hasred_{p}_{v}_{t}")
                if v in init_blue:
                    # once a value is in slow memory it can stay there forever
                    # at no cost, so its blue indicator is simply fixed to 1
                    continue
                hasblue[v, t] = model.add_binary(f"hasblue_{v}_{t}")
        return MbspIlpVariables(
            num_steps=T,
            compute=compute,
            save=save,
            load=load,
            hasred=hasred,
            hasblue=hasblue,
        )

    # expression helpers treating fixed states as constants ---------------
    def _hasred_expr(self, var: MbspIlpVariables, p: int, v: NodeId, t: int):
        if t == 0:
            return 1.0 if v in self.initial_red(p) else 0.0
        return var.hasred[p, v, t]

    def _hasblue_expr(self, var: MbspIlpVariables, v: NodeId, t: int):
        if v in self.initial_blue():
            return 1.0
        if t == 0:
            return 0.0
        return var.hasblue[v, t]

    # ------------------------------------------------------------------
    # fundamental constraints (Figure 3)
    # ------------------------------------------------------------------
    def _add_fundamental_constraints(self, model: ReferenceIlpModel, var: MbspIlpVariables) -> None:
        dag = self.dag
        T = var.num_steps
        n = dag.num_nodes
        computable = set(self.computable_nodes())
        merging = self.config.use_step_merging

        for t in range(T):
            for p in range(self.P):
                for v in dag.nodes:
                    # (1) a load requires a blue pebble
                    blue = self._hasblue_expr(var, v, t)
                    if isinstance(blue, float):
                        if blue == 0.0:
                            model.add_constraint(var.load[p, v, t] <= 0.0)
                    else:
                        model.add_constraint(var.load[p, v, t] <= blue)
                    # (2) a save requires a red pebble of the same processor
                    red = self._hasred_expr(var, p, v, t)
                    if isinstance(red, float):
                        if red == 0.0:
                            model.add_constraint(var.save[p, v, t] <= 0.0)
                    else:
                        model.add_constraint(var.save[p, v, t] <= red)
                # (3) computes require parents in cache (or computed in the
                # same merged step)
                for v in computable:
                    for u in dag.parents(v):
                        red_u = self._hasred_expr(var, p, u, t)
                        rhs = LinExpr()
                        if isinstance(red_u, float):
                            rhs.add_constant(red_u)
                        else:
                            rhs.add_term(red_u, 1.0)
                        if merging and (p, u, t) in var.compute:
                            rhs.add_term(var.compute[p, u, t], 1.0)
                        model.add_constraint(var.compute[p, v, t] <= rhs)

        # (4) red pebbles can only persist, be computed, or be loaded
        for t in range(1, T + 1):
            for p in range(self.P):
                for v in dag.nodes:
                    rhs = LinExpr()
                    prev_red = self._hasred_expr(var, p, v, t - 1)
                    if isinstance(prev_red, float):
                        rhs.add_constant(prev_red)
                    else:
                        rhs.add_term(prev_red, 1.0)
                    if (p, v, t - 1) in var.compute:
                        rhs.add_term(var.compute[p, v, t - 1], 1.0)
                    rhs.add_term(var.load[p, v, t - 1], 1.0)
                    model.add_constraint(var.hasred[p, v, t] <= rhs)

        # (5) blue pebbles can only persist or be saved
        for t in range(1, T + 1):
            for v in dag.nodes:
                if (v, t) not in var.hasblue:
                    continue  # fixed to 1 (initially blue)
                rhs = LinExpr()
                prev_blue = self._hasblue_expr(var, v, t - 1)
                if isinstance(prev_blue, float):
                    rhs.add_constant(prev_blue)
                else:
                    rhs.add_term(prev_blue, 1.0)
                for p in range(self.P):
                    rhs.add_term(var.save[p, v, t - 1], 1.0)
                model.add_constraint(var.hasblue[v, t] <= rhs)

        # (6) one kind of operation per processor and step
        if merging:
            for t in range(T):
                for p in range(self.P):
                    compstep = model.add_binary(f"compstep_{p}_{t}")
                    commstep = model.add_binary(f"commstep_{p}_{t}")
                    var.compstep[p, t] = compstep
                    var.commstep[p, t] = commstep
                    model.add_constraint(
                        lin_sum(var.compute[p, v, t] for v in computable)
                        <= n * compstep
                    )
                    model.add_constraint(
                        lin_sum(
                            var.save[p, v, t] + var.load[p, v, t] for v in dag.nodes
                        )
                        <= 2 * n * commstep
                    )
                    model.add_constraint(compstep + commstep <= 1)
        else:
            for t in range(T):
                for p in range(self.P):
                    terms = [var.save[p, v, t] + var.load[p, v, t] for v in dag.nodes]
                    terms.extend(var.compute[p, v, t] for v in computable)
                    model.add_constraint(lin_sum(terms) <= 1)

        # (7) the memory bound; with merging, outputs produced in the step
        # must fit together with the cached inputs (Section 6.2)
        for p in range(self.P):
            for t in range(1, T + 1):
                model.add_constraint(
                    lin_sum(
                        self.dag.mu(v) * var.hasred[p, v, t] for v in dag.nodes
                    )
                    <= self.r
                )
            for t in range(T):
                usage = LinExpr()
                for v in dag.nodes:
                    red = self._hasred_expr(var, p, v, t)
                    if isinstance(red, float):
                        usage.add_constant(self.dag.mu(v) * red)
                    else:
                        usage.add_term(red, self.dag.mu(v))
                    if (p, v, t) in var.compute:
                        usage.add_term(var.compute[p, v, t], self.dag.mu(v))
                    usage.add_term(var.load[p, v, t], self.dag.mu(v))
                model.add_constraint(usage <= self.r)

        # (8), (9): the initial configuration is already encoded as constants.
        # (10): terminal configuration — required values in slow memory.
        for v in self.required_blue():
            if v in self.initial_blue():
                continue
            model.add_constraint(var.hasblue[v, T] >= 1.0)

    # ------------------------------------------------------------------
    def _add_no_recomputation_constraints(self, model: ReferenceIlpModel, var: MbspIlpVariables) -> None:
        T = var.num_steps
        for v in self.computable_nodes():
            model.add_constraint(
                lin_sum(var.compute[p, v, t] for p in range(self.P) for t in range(T))
                <= 1
            )

    # ------------------------------------------------------------------
    # synchronous cost (Appendix C.1.2)
    # ------------------------------------------------------------------
    def _add_synchronous_cost(self, model: ReferenceIlpModel, var: MbspIlpVariables) -> LinExpr:
        dag = self.dag
        T = var.num_steps
        n = dag.num_nodes
        computable = set(self.computable_nodes())
        M = self.big_m

        compphase = [model.add_binary(f"compphase_{t}") for t in range(T)]
        commphase = [model.add_binary(f"commphase_{t}") for t in range(T)]
        compends = [model.add_binary(f"compends_{t}") for t in range(T)]
        commends = [model.add_binary(f"commends_{t}") for t in range(T)]
        var.compphase, var.commphase = compphase, commphase
        var.compends, var.commends = compends, commends

        for t in range(T):
            model.add_constraint(
                lin_sum(
                    var.compute[p, v, t] for p in range(self.P) for v in computable
                )
                <= self.P * n * compphase[t]
            )
            model.add_constraint(
                lin_sum(
                    var.save[p, v, t] + var.load[p, v, t]
                    for p in range(self.P)
                    for v in dag.nodes
                )
                <= 2 * self.P * n * commphase[t]
            )
            model.add_constraint(compphase[t] + commphase[t] <= 1)
            # phase-end indicators
            model.add_constraint(compends[t] <= compphase[t])
            model.add_constraint(commends[t] <= commphase[t])
            if t + 1 < T:
                model.add_constraint(compends[t] >= compphase[t] - compphase[t + 1])
                model.add_constraint(commends[t] >= commphase[t] - commphase[t + 1])
            else:
                model.add_constraint(compends[t] >= compphase[t])
                model.add_constraint(commends[t] >= commphase[t])

        compinduced = [model.add_continuous(f"compinduced_{t}") for t in range(T)]
        comminduced = [model.add_continuous(f"comminduced_{t}") for t in range(T)]
        var.compinduced, var.comminduced = compinduced, comminduced

        for p in range(self.P):
            compuntil_prev: Optional[Variable] = None
            communtil_prev: Optional[Variable] = None
            for t in range(T):
                compuntil = model.add_continuous(f"compuntil_{p}_{t}")
                communtil = model.add_continuous(f"communtil_{p}_{t}")
                var.compuntil[p, t] = compuntil
                var.communtil[p, t] = communtil
                comp_cost = lin_sum(
                    dag.omega(v) * var.compute[p, v, t] for v in computable
                )
                comm_cost = lin_sum(
                    self.g * dag.mu(v) * (var.save[p, v, t] + var.load[p, v, t])
                    for v in dag.nodes
                )
                comp_rhs = comp_cost - M * commends[t]
                comm_rhs = comm_cost - M * compends[t]
                if compuntil_prev is not None:
                    comp_rhs = comp_rhs + compuntil_prev
                if communtil_prev is not None:
                    comm_rhs = comm_rhs + communtil_prev
                model.add_constraint(compuntil >= comp_rhs)
                model.add_constraint(communtil >= comm_rhs)
                # the accumulated phase cost is charged at the end of a phase
                model.add_constraint(
                    compinduced[t] >= compuntil - M * (1.0 - compends[t])
                )
                model.add_constraint(
                    comminduced[t] >= communtil - M * (1.0 - commends[t])
                )
                compuntil_prev, communtil_prev = compuntil, communtil

        objective = lin_sum(compinduced) + lin_sum(comminduced) + self.L * lin_sum(commends)
        return objective

    # ------------------------------------------------------------------
    # asynchronous cost (Appendix C.1.2)
    # ------------------------------------------------------------------
    def _add_asynchronous_cost(self, model: ReferenceIlpModel, var: MbspIlpVariables) -> LinExpr:
        dag = self.dag
        T = var.num_steps
        computable = set(self.computable_nodes())
        M = self.big_m

        finishtime = {
            (p, t): model.add_continuous(f"finishtime_{p}_{t}")
            for p in range(self.P)
            for t in range(T)
        }
        getsblue = {v: model.add_continuous(f"getsblue_{v}") for v in dag.nodes}
        makespan = model.add_continuous("makespan")
        var.makespan = makespan

        for p in range(self.P):
            for t in range(T):
                step_cost = LinExpr()
                for v in dag.nodes:
                    if (p, v, t) in var.compute:
                        step_cost.add_term(var.compute[p, v, t], dag.omega(v))
                    step_cost.add_term(var.save[p, v, t], self.g * dag.mu(v))
                    step_cost.add_term(var.load[p, v, t], self.g * dag.mu(v))
                if t == 0:
                    model.add_constraint(finishtime[p, t] >= step_cost)
                else:
                    model.add_constraint(
                        finishtime[p, t] >= finishtime[p, t - 1] + step_cost
                    )
                # a save defines when the value becomes available in slow memory
                for v in dag.nodes:
                    model.add_constraint(
                        getsblue[v]
                        >= finishtime[p, t] - M * (1.0 - var.save[p, v, t])
                    )
                # a load cannot finish before the value is available plus the
                # duration of the whole (merged) load operation of this step
                load_cost = lin_sum(
                    self.g * dag.mu(u) * var.load[p, u, t] for u in dag.nodes
                )
                for v in dag.nodes:
                    model.add_constraint(
                        finishtime[p, t]
                        >= getsblue[v] + load_cost - M * (1.0 - var.load[p, v, t])
                    )
            model.add_constraint(makespan >= finishtime[p, T - 1])
        return LinExpr({makespan.index: 1.0}, 0.0)


def reference_bsp_ilp_model(dag, P, S, g, L):
    """``IlpBspScheduler._build_model`` as it was written in expressions."""
    model = ReferenceIlpModel(f"bsp_ilp_{dag.name}")
    computable = [v for v in dag.nodes if not dag.is_source(v)]

    # x[v, p, s] = 1 iff node v is computed on processor p in superstep s
    x = {}
    for v in computable:
        for p in range(P):
            for s in range(S):
                x[v, p, s] = model.add_binary(f"x_{v}_{p}_{s}")
    # every node computed exactly once
    for v in computable:
        model.add_constraint(
            lin_sum(x[v, p, s] for p in range(P) for s in range(S)) == 1
        )
    # precedence: v in (p, s) requires u earlier, or same (p, s)
    for u, v in dag.edges():
        if dag.is_source(u):
            continue
        for p in range(P):
            for s in range(S):
                earlier = lin_sum(
                    x[u, q, t] for q in range(P) for t in range(s)
                )
                model.add_constraint(x[v, p, s] <= earlier + x[u, p, s])
    # work cost per superstep
    work = [model.add_continuous(f"work_{s}") for s in range(S)]
    for s in range(S):
        for p in range(P):
            model.add_constraint(
                work[s]
                >= lin_sum(dag.omega(v) * x[v, p, s] for v in computable)
            )
    # communicated values: value u needed on processor p that did not
    # compute it (covers both non-source values and source loads)
    comm_terms = []
    for u in dag.nodes:
        children = [v for v in dag.children(u) if not dag.is_source(v)]
        if not children:
            continue
        for p in range(P):
            need = model.add_binary(f"need_{u}_{p}")
            for v in children:
                for s in range(S):
                    if dag.is_source(u):
                        model.add_constraint(need >= x[v, p, s])
                    else:
                        model.add_constraint(
                            need
                            >= x[v, p, s]
                            - lin_sum(x[u, p, t] for t in range(S))
                        )
            comm_terms.append(dag.mu(u) * need)
    # superstep usage (to charge L per used superstep and compact solutions)
    used = [model.add_binary(f"used_{s}") for s in range(S)]
    n = len(computable)
    for s in range(S):
        model.add_constraint(
            lin_sum(x[v, p, s] for v in computable for p in range(P))
            <= n * used[s]
        )
    objective = lin_sum(work) + g * lin_sum(comm_terms) + L * lin_sum(used)
    model.minimize(objective)
    return model, x


def reference_acyclic_bipartition_model(dag, lo, hi):
    """The model ``ilp_acyclic_bipartition`` built in expressions."""
    model = ReferenceIlpModel(f"acyclic_bipartition_{dag.name}")
    y = {v: model.add_binary(f"y_{v}") for v in dag.nodes}
    cut = {}
    for u, v in dag.edges():
        # quotient acyclicity: edges may only go from part 0 to part 1
        model.add_constraint(y[u] <= y[v])
        z = model.add_binary(f"cut_{u}_{v}")
        model.add_constraint(z >= y[v] - y[u])
        cut[u, v] = z
    size_part1 = lin_sum(y.values())
    model.add_constraint(size_part1 >= lo)
    model.add_constraint(size_part1 <= hi)
    model.minimize(lin_sum(cut.values()))
    return model


# ----------------------------------------------------------------------
# inputs and comparisons
# ----------------------------------------------------------------------
@st.composite
def tie_heavy_dags(draw):
    """Small random DAGs whose weights repeat and include zeros."""
    n = draw(st.integers(min_value=2, max_value=9))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    weights = st.sampled_from([0, 0, 1, 2, 3])
    dag = ComputationalDag("tie-heavy")
    for v in range(n):
        dag.add_node(v, omega=draw(weights), mu=draw(weights))
    for v in range(1, n):
        if rng.random() < 0.2:
            continue  # another source
        for u in rng.sample(range(v), min(v, rng.randint(1, 3))):
            dag.add_edge(u, v)
    return dag


@st.composite
def boundaries(draw, dag: ComputationalDag, processors: int):
    """Boundary conditions: initial red pebbles on any processor, extra
    initial blue values, and required blue values that may already be blue."""
    if not draw(st.booleans()):
        return None
    nodes = st.sets(st.sampled_from(dag.nodes))
    initial_red = {p: draw(nodes) for p in range(processors) if draw(st.booleans())}
    initial_blue = draw(nodes)
    required_blue = draw(nodes) | set(draw(st.sampled_from([[], sorted(initial_blue)])))
    return BoundaryConditions(
        initial_red=initial_red, initial_blue=initial_blue, required_blue=required_blue
    )


settings_grid = st.fixed_dictionaries({
    "processors": st.integers(min_value=1, max_value=3),
    "steps": st.integers(min_value=1, max_value=5),
    "g": st.sampled_from([0.0, 1.0]),
    "L": st.sampled_from([0.0, 10.0]),
    "synchronous": st.booleans(),
    "use_step_merging": st.booleans(),
    "allow_recomputation": st.booleans(),
    "cutoff": st.sampled_from([None, 0.0, 37.5]),
})


def assert_byte_equal(new: CompiledModel, ref: CompiledModel) -> None:
    for name in ("c", "con_lb", "con_ub", "var_lb", "var_ub", "integrality"):
        a, b = getattr(new, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    for name in ("indptr", "indices", "data"):
        a, b = getattr(new.A, name), getattr(ref.A, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert new.A.shape == ref.A.shape
    assert repr(new.objective_constant) == repr(ref.objective_constant)
    assert new.sense is ref.sense


def both_models(dag, setting, boundary):
    instance = make_instance(
        dag, num_processors=setting["processors"], g=setting["g"], L=setting["L"]
    )
    config = MbspIlpConfig(
        synchronous=setting["synchronous"],
        use_step_merging=setting["use_step_merging"],
        allow_recomputation=setting["allow_recomputation"],
        cutoff=setting["cutoff"],
    )
    new, variables = MbspIlpBuilder(instance, config, boundary).build(setting["steps"])
    ref, ref_variables = ReferenceMbspIlpBuilder(instance, config, boundary).build(setting["steps"])
    return new, variables, ref, ref_variables


class TestMbspModelMatchesReference:
    @given(st.data(), tie_heavy_dags(), settings_grid)
    @settings(max_examples=120, deadline=None)
    def test_compiled_model_is_byte_identical(self, data, dag, setting):
        boundary = data.draw(boundaries(dag, setting["processors"]))
        new, variables, ref, ref_variables = both_models(dag, setting, boundary)
        compiled = new.compile()
        assert_byte_equal(compiled, ref.compile())
        assert (new.num_variables, new.num_constraints) == (ref.num_variables, ref.num_constraints)
        assert new.statistics()["nonzeros"] == compiled.A.nnz
        # every variable handle names the reference's column
        for family in ("compute", "save", "load", "hasred", "hasblue", "compstep",
                       "commstep", "compuntil", "communtil"):
            expected = {key: var.index for key, var in getattr(ref_variables, family).items()}
            assert getattr(variables, family) == expected, family
        for family in ("compphase", "commphase", "compends", "commends",
                       "compinduced", "comminduced"):
            expected = [var.index for var in getattr(ref_variables, family)]
            assert getattr(variables, family) == expected, family
        assert variables.makespan == (
            None if ref_variables.makespan is None else ref_variables.makespan.index
        )

    def test_solution_accessors_read_columns(self):
        dag = ComputationalDag("chain")
        for v in range(3):
            dag.add_node(v, omega=1, mu=1)
        dag.add_edge(0, 1)
        dag.add_edge(1, 2)
        instance = make_instance(dag, num_processors=2)
        builder = MbspIlpBuilder(instance, boundary=BoundaryConditions(initial_red={1: {0}}))
        model, variables = builder.build(2)
        values = np.zeros(model.num_variables)
        values[variables.compute[1, 2, 1]] = 1.0
        values[variables.hasred[0, 1, 2]] = 1.0
        solution = IlpSolution(status=SolutionStatus.FEASIBLE, values=values)
        assert variables.compute_value(solution, 1, 2, 1)
        assert not variables.compute_value(solution, 0, 2, 1)
        assert not variables.compute_value(solution, 0, 0, 0)  # a source: no column
        assert variables.hasred_value(solution, 0, 1, 2)
        assert variables.hasred_value(solution, 1, 0, 0, initial=True)  # fixed state
        assert variables.hasblue_value(solution, 0, 1, initial=True)  # blue from the start


def with_ids(dag: ComputationalDag, ids: type) -> ComputationalDag:
    """``dag`` with ``int`` node ids, or relabeled to ``str`` ids."""
    return dag if ids is int else dag.relabeled({v: f"n{v}" for v in dag.nodes})


class TestRowByRowModelsMatchReference:
    """The two small builders, once written one ``Constraint`` at a time."""

    @given(
        tie_heavy_dags(),
        st.sampled_from([int, str]),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.sampled_from([0.0, 1.0, 2.5]),
        st.sampled_from([0.0, 5.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_bsp_ilp(self, dag, ids, processors, supersteps, g, L):
        dag = with_ids(dag, ids)
        model, x = IlpBspScheduler()._build_model(dag, processors, supersteps, g, L)
        ref, ref_x = reference_bsp_ilp_model(dag, processors, supersteps, g, L)
        assert_byte_equal(model.compile(), ref.compile())
        assert model.statistics()["nonzeros"] == model.compile().A.nnz
        computable = [v for v in dag.nodes if not dag.is_source(v)]
        assert {
            (v, p, s): int(x[i, p, s])
            for i, v in enumerate(computable)
            for p in range(processors)
            for s in range(supersteps)
        } == {key: var.index for key, var in ref_x.items()}

    @given(tie_heavy_dags(), st.sampled_from([int, str]), st.sampled_from([0.25, 0.4]))
    @settings(max_examples=60, deadline=None)
    def test_acyclic_bipartition(self, dag, ids, balance):
        dag = with_ids(dag, ids)
        models = []

        def capture(model, *args, **kwargs):
            models.append(model)
            return IlpSolution(status=SolutionStatus.NO_SOLUTION)

        with mock.patch.object(acyclic_partition, "solve", capture):
            ilp_acyclic_bipartition(dag, PartitionConfig(use_ilp=True, balance_fraction=balance))
        n = dag.num_nodes
        assert len(models) == (1 if n >= 4 else 0)
        for model in models:
            lo = max(1, int(balance * n))
            ref = reference_acyclic_bipartition_model(dag, lo, n - lo)
            assert_byte_equal(model.compile(), ref.compile())
