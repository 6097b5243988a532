"""The ILP model container and its compilation to sparse-matrix form.

An :class:`IlpModel` keeps its columns and rows in one flat array store in
insertion order.  Rows arrive either one :class:`~repro.ilp.expr.Constraint`
at a time (:meth:`IlpModel.add_constraint`) or as index/coefficient blocks
(:meth:`IlpModel.add_rows`); :meth:`IlpModel.compile` builds the CSR matrix
straight from the store.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy import sparse

from repro.exceptions import IlpError
from repro.ilp.expr import INF, Constraint, LinExpr, Variable


class Sense(enum.Enum):
    """Optimization direction."""

    MINIMIZE = 1
    MAXIMIZE = -1


@dataclass
class CompiledModel:
    """Arrays describing the model in the form consumed by solver backends.

    ``A`` is a CSR matrix of constraint coefficients; the model is
    ``minimize c @ x`` subject to ``con_lb <= A x <= con_ub`` and
    ``var_lb <= x <= var_ub`` with ``x_i`` integer where ``integrality_i = 1``.
    (Maximization objectives are compiled by negating ``c``.)
    """

    c: np.ndarray
    A: sparse.csr_matrix
    con_lb: np.ndarray
    con_ub: np.ndarray
    var_lb: np.ndarray
    var_ub: np.ndarray
    integrality: np.ndarray
    objective_constant: float
    sense: Sense

    @property
    def num_variables(self) -> int:
        return int(self.c.shape[0])

    def objective_value(self, values: np.ndarray) -> float:
        """Objective of a variable assignment in the *original* model space."""
        sign = 1.0 if self.sense is Sense.MINIMIZE else -1.0
        return sign * float(self.c @ np.asarray(values, dtype=float)) + self.objective_constant

    def is_feasible(self, values: Sequence[float], tol: float = 1e-6) -> bool:
        """Whether ``values`` satisfies bounds, integrality and constraints.

        Used to vet externally supplied warm-start solutions before a solver
        backend installs them as the initial incumbent.  Violations within
        ``tol`` (absolute) are accepted.
        """
        x = np.asarray(values, dtype=float)
        if x.shape != (self.num_variables,):
            return False
        if np.any(x < self.var_lb - tol) or np.any(x > self.var_ub + tol):
            return False
        integers = self.integrality.astype(bool)
        if integers.any() and np.any(np.abs(x[integers] - np.round(x[integers])) > tol):
            return False
        if self.A.shape[0]:
            row_values = np.asarray(self.A @ x).ravel()
            lb_ok = np.where(np.isfinite(self.con_lb), row_values >= self.con_lb - tol, True)
            ub_ok = np.where(np.isfinite(self.con_ub), row_values <= self.con_ub + tol, True)
            if not (np.all(lb_ok) and np.all(ub_ok)):
                return False
        return True


class IlpModel:
    """A mixed-integer linear program under construction.

    Columns and rows live in one flat array store, in insertion order.  A
    column is a lower bound, an upper bound and an integrality flag; a row
    is a run of (column, coefficient) pairs plus its lower and upper bound.
    Both ways of adding rows feed the same store: :meth:`add_constraint`
    folds one :class:`Constraint` into a row (zero coefficients dropped, the
    expression constant moved into the bounds), and :meth:`add_rows` appends
    a block of rows given as index/coefficient arrays.  :meth:`compile`
    turns the store into CSR form without visiting any per-row object.

    Example
    -------
    >>> m = IlpModel("example")
    >>> x = m.add_binary("x")
    >>> y = m.add_continuous("y", lower=0, upper=10)
    >>> m.add_constraint(2 * x + y <= 5)
    >>> m.minimize(y - 3 * x)
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        #: the :class:`Constraint` objects passed to :meth:`add_constraint`
        #: (rows added through :meth:`add_rows` have none)
        self.constraints: List[Constraint] = []
        self._col_names: List[str] = []
        self._col_lb = array("d")
        self._col_ub = array("d")
        self._col_integer = array("b")
        self._row_cols = array("q")
        self._row_vals = array("d")
        self._row_len = array("q")
        self._row_lb = array("d")
        self._row_ub = array("d")
        self._objective: LinExpr = LinExpr()
        self._sense: Sense = Sense.MINIMIZE
        self._compiled: Optional[CompiledModel] = None

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------
    def add_variables(
        self, name: str, count: int, lower: float = 0.0, upper: float = INF,
        is_integer: bool = False,
    ) -> range:
        """Add ``count`` columns with equal bounds; returns their indices."""
        if lower > upper:
            raise IlpError(f"variables {name!r}: lower bound {lower} exceeds upper bound {upper}")
        start = len(self._col_lb)
        self._col_names.extend([name] * count)
        self._col_lb.extend([float(lower)] * count)
        self._col_ub.extend([float(upper)] * count)
        self._col_integer.extend([int(bool(is_integer))] * count)
        self._compiled = None
        return range(start, start + count)

    def _add_variable(self, name: str, lower: float, upper: float, is_integer: bool) -> Variable:
        var = Variable(len(self._col_lb), name, lower, upper, is_integer)
        self.add_variables(name, 1, var.lower, var.upper, var.is_integer)
        return var

    def add_binary(self, name: str) -> Variable:
        """Add a binary (0/1) variable."""
        return self._add_variable(name, 0.0, 1.0, True)

    def add_integer(self, name: str, lower: float = 0.0, upper: float = INF) -> Variable:
        """Add a general integer variable."""
        return self._add_variable(name, lower, upper, True)

    def add_continuous(self, name: str, lower: float = 0.0, upper: float = INF) -> Variable:
        """Add a continuous variable."""
        return self._add_variable(name, lower, upper, False)

    @property
    def variables(self) -> List[Variable]:
        """A :class:`Variable` view of every column, built on access."""
        return [
            Variable(index, name, lower, upper, bool(integer))
            for index, (name, lower, upper, integer) in enumerate(
                zip(self._col_names, self._col_lb, self._col_ub, self._col_integer)
            )
        ]

    @property
    def num_variables(self) -> int:
        return len(self._col_lb)

    @property
    def num_constraints(self) -> int:
        return len(self._row_len)

    @property
    def num_binary_variables(self) -> int:
        integer = np.array(self._col_integer, dtype=bool)
        return int(np.count_nonzero(integer & (np.array(self._col_ub) <= 1.0)))

    # ------------------------------------------------------------------
    # constraints and objective
    # ------------------------------------------------------------------
    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Add a constraint built with ``<=``, ``>=`` or ``==``."""
        if not isinstance(constraint, Constraint):
            raise IlpError(
                "add_constraint expects a Constraint (built from a comparison of "
                f"linear expressions), got {constraint!r}"
            )
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        expr = constraint.expr
        terms = [(idx, coeff) for idx, coeff in expr.coeffs.items() if coeff]
        self._row_cols.extend(idx for idx, _ in terms)
        self._row_vals.extend(coeff for _, coeff in terms)
        self._row_len.append(len(terms))
        # fold the expression constant into the bounds
        self._row_lb.append(constraint.lower - expr.constant if constraint.lower != -INF else -INF)
        self._row_ub.append(constraint.upper - expr.constant if constraint.upper != INF else INF)
        self._compiled = None
        return constraint

    def add_rows(self, cols, vals, lower=-INF, upper=INF) -> None:
        """Append a block of rows ``lower <= sum_k vals[i, k] x[cols[i, k]] <= upper``.

        ``cols`` is an integer array of shape (rows, terms) and ``vals``
        broadcasts to it; ``lower``/``upper`` broadcast to (rows,).  Zero
        coefficients are dropped, so a row shorter than the block pads with
        zeros.  The non-zero columns of one row must be distinct.
        """
        cols = np.asarray(cols, dtype=np.int64)
        num_rows = cols.shape[0]
        vals = np.broadcast_to(np.asarray(vals, dtype=float), cols.shape)
        keep = vals != 0.0
        kept = cols[keep]
        if kept.size and (kept.min() < 0 or kept.max() >= self.num_variables):
            raise IlpError(
                "add_rows: a non-zero coefficient names a column outside "
                f"0..{self.num_variables - 1}"
            )
        self._row_cols.frombytes(kept.tobytes())
        self._row_vals.frombytes(np.ascontiguousarray(vals[keep]).tobytes())
        self._row_len.frombytes(keep.sum(axis=1, dtype=np.int64).tobytes())
        for store, bound in ((self._row_lb, lower), (self._row_ub, upper)):
            store.frombytes(np.broadcast_to(np.asarray(bound, dtype=float), (num_rows,)).tobytes())
        self._compiled = None

    def minimize(self, expr) -> None:
        """Set a minimization objective."""
        self._objective = LinExpr._coerce(expr).copy()
        self._sense = Sense.MINIMIZE
        self._compiled = None

    def maximize(self, expr) -> None:
        """Set a maximization objective."""
        self._objective = LinExpr._coerce(expr).copy()
        self._sense = Sense.MAXIMIZE
        self._compiled = None

    @property
    def objective(self) -> LinExpr:
        return self._objective

    @property
    def sense(self) -> Sense:
        return self._sense

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def compile(self) -> CompiledModel:
        """Compile to the sparse arrays used by the solver backends.

        The result is memoized (and invalidated by every mutation — adding
        variables or constraints, setting the objective), so the warm-start
        schedule encoder's feasibility vetting and the solver backend's own
        compile of the same model share one build of the matrix.
        """
        if self._compiled is not None:
            return self._compiled
        n = self.num_variables
        c = np.zeros(n)
        for idx, coeff in self._objective.coeffs.items():
            c[idx] = coeff
        if self._sense is Sense.MAXIMIZE:
            c = -c

        indptr = np.zeros(self.num_constraints + 1, dtype=np.int64)
        np.cumsum(np.array(self._row_len, dtype=np.int64), out=indptr[1:])
        A = sparse.csr_matrix(
            (np.array(self._row_vals), np.array(self._row_cols, dtype=np.int64), indptr),
            shape=(self.num_constraints, n),
        )
        A.sort_indices()
        self._compiled = CompiledModel(
            c=c,
            A=A,
            con_lb=np.array(self._row_lb),
            con_ub=np.array(self._row_ub),
            var_lb=np.array(self._col_lb),
            var_ub=np.array(self._col_ub),
            integrality=np.array(self._col_integer, dtype=int),
            objective_constant=self._objective.constant,
            sense=self._sense,
        )
        return self._compiled

    # ------------------------------------------------------------------
    def statistics(self) -> Dict[str, int]:
        """Model size statistics (for logging and tests)."""
        integers = int(np.count_nonzero(np.array(self._col_integer)))
        return {
            "variables": self.num_variables,
            "binaries": self.num_binary_variables,
            "integers": integers,
            "continuous": self.num_variables - integers,
            "constraints": self.num_constraints,
            "nonzeros": len(self._row_cols),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.statistics()
        return (
            f"IlpModel({self.name!r}, vars={stats['variables']}, "
            f"cons={stats['constraints']})"
        )
