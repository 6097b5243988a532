"""The ILP model container and its compilation to sparse-matrix form.

An :class:`IlpModel` keeps its columns and rows in one flat array store in
insertion order.  Columns arrive in equal-bound blocks
(:meth:`IlpModel.add_variables`), rows as index/coefficient blocks
(:meth:`IlpModel.add_rows`), and the objective as one column/coefficient
array pair (:meth:`IlpModel.minimize` / :meth:`IlpModel.maximize`);
:meth:`IlpModel.compile` builds the CSR matrix straight from the store, as
a :class:`CsrMatrix` of numpy arrays.  Importing this module loads
neither numpy nor scipy: numpy is imported by the methods that build or
read arrays, and :meth:`CsrMatrix.tocsr` loads ``scipy.sparse`` only for a
caller that asks for a scipy matrix.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.exceptions import IlpError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np
    from scipy import sparse

INF = float("inf")

#: ``np.iinfo(np.int32).max``
_INT32_MAX = 2**31 - 1


def index_dtype(*extents: int) -> type:
    """scipy.sparse's index dtype for a matrix of these sizes and nonzero
    count: ``int32`` while every index and count fits, else ``int64``."""
    import numpy as np

    return np.int32 if max(extents, default=0) <= _INT32_MAX else np.int64


def _entry_rows(indptr: np.ndarray) -> np.ndarray:
    """The row of every stored entry of a CSR matrix with row pointer ``indptr``."""
    import numpy as np

    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """A sparse matrix in CSR form, held in numpy arrays.

    Row ``i`` stores ``data[indptr[i]:indptr[i + 1]]`` in the columns
    ``indices[indptr[i]:indptr[i + 1]]``; :meth:`IlpModel.compile` sorts the
    columns within each row and gives the index arrays scipy's dtype
    (:func:`index_dtype`).  The solver backends read only ``indptr``,
    ``indices``, ``data`` and ``shape``, so a ``scipy.sparse.csr_matrix``
    serves them as well.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: Tuple[int, int]

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indptr[-1])

    def __matmul__(self, x) -> np.ndarray:
        """``A @ x`` as scipy's ``csr_matvec`` computes it: ``np.bincount``
        adds each row's products ``data * x[indices]`` in storage order onto
        0.0, so the sums are the same floats."""
        import numpy as np

        weights = self.data * np.asarray(x, dtype=float)[self.indices]
        return np.bincount(_entry_rows(self.indptr), weights=weights, minlength=self.shape[0])

    def toarray(self) -> np.ndarray:
        """The dense matrix (repeated entries of a row add up)."""
        import numpy as np

        dense = np.zeros(self.shape)
        np.add.at(dense, (_entry_rows(self.indptr), self.indices), self.data)
        return dense

    def tocsr(self) -> "sparse.csr_matrix":
        """The same matrix as a ``scipy.sparse.csr_matrix`` sharing these
        arrays (imports ``scipy.sparse``)."""
        from scipy import sparse

        return sparse.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)


class Sense(enum.Enum):
    """Optimization direction."""

    MINIMIZE = 1
    MAXIMIZE = -1


@dataclass
class CompiledModel:
    """Arrays describing the model in the form consumed by solver backends.

    ``A`` is the CSR matrix of constraint coefficients, a :class:`CsrMatrix`
    (``A.tocsr()`` gives it as a scipy matrix); the model is
    ``minimize c @ x`` subject to ``con_lb <= A x <= con_ub`` and
    ``var_lb <= x <= var_ub`` with ``x_i`` integer where ``integrality_i = 1``.
    (Maximization objectives are compiled by negating ``c``.)  The backends
    read only ``A``'s ``indptr``, ``indices``, ``data`` and ``shape``, so a
    ``scipy.sparse.csr_matrix`` works as ``A`` too.
    """

    c: np.ndarray
    A: CsrMatrix
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
        import numpy as np

        sign = 1.0 if self.sense is Sense.MINIMIZE else -1.0
        return sign * float(self.c @ np.asarray(values, dtype=float)) + self.objective_constant

    def is_feasible(self, values: Sequence[float], tol: float = 1e-6) -> bool:
        """Whether ``values`` satisfies bounds, integrality and constraints.

        Used to vet externally supplied warm-start solutions before a solver
        backend installs them as the initial incumbent.  Violations within
        ``tol`` (absolute) are accepted.
        """
        import numpy as np

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
    :meth:`add_variables` appends a block of equally bounded columns,
    :meth:`add_rows` a block of rows given as index/coefficient arrays, and
    :meth:`minimize`/:meth:`maximize` set the objective from a column array
    and a coefficient array.  :meth:`compile` turns the store into CSR form.

    Example
    -------
    >>> m = IlpModel("example")
    >>> x = m.add_variables("x", 1, lower=0, upper=1, is_integer=True)[0]
    >>> y = m.add_variables("y", 1, lower=0, upper=10)[0]
    >>> m.add_rows([[x, y]], [[2.0, 1.0]], upper=5.0)  # 2x + y <= 5
    >>> m.minimize([y, x], [1.0, -3.0])  # y - 3x
    >>> compiled = m.compile()
    >>> compiled.A.toarray().tolist(), compiled.c.tolist()
    ([[2.0, 1.0]], [-3.0, 1.0])
    >>> m.statistics()["binaries"], m.statistics()["continuous"]
    (1, 1)
    """

    def __init__(self, name: str = "model") -> None:
        import numpy as np

        self.name = name
        self._col_lb = array("d")
        self._col_ub = array("d")
        self._col_integer = array("b")
        self._row_cols = array("q")
        self._row_vals = array("d")
        self._row_len = array("q")
        self._row_lb = array("d")
        self._row_ub = array("d")
        self._obj_cols = np.zeros(0, dtype=np.int64)
        self._obj_vals = np.zeros(0)
        self._obj_constant = 0.0
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
        self._col_lb.extend([float(lower)] * count)
        self._col_ub.extend([float(upper)] * count)
        self._col_integer.extend([int(bool(is_integer))] * count)
        self._compiled = None
        return range(start, start + count)

    @property
    def num_variables(self) -> int:
        return len(self._col_lb)

    @property
    def num_constraints(self) -> int:
        return len(self._row_len)

    @property
    def num_binary_variables(self) -> int:
        import numpy as np

        integer = np.array(self._col_integer, dtype=bool)
        return int(np.count_nonzero(integer & (np.array(self._col_ub) <= 1.0)))

    # ------------------------------------------------------------------
    # constraints and objective
    # ------------------------------------------------------------------
    def add_rows(self, cols, vals, lower=-INF, upper=INF) -> None:
        """Append a block of rows ``lower <= sum_k vals[i, k] x[cols[i, k]] <= upper``.

        ``cols`` is an integer array of shape (rows, terms) and ``vals``
        broadcasts to it; ``lower``/``upper`` broadcast to (rows,).  Zero
        coefficients are dropped, so a row shorter than the block pads with
        zeros.  The non-zero columns of one row must be distinct
        (:meth:`compile` rejects a repeat).
        """
        import numpy as np

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

    def minimize(self, cols, vals, constant: float = 0.0) -> None:
        """Minimize ``sum_k vals[k] x[cols[k]] + constant``."""
        self._set_objective(Sense.MINIMIZE, cols, vals, constant)

    def maximize(self, cols, vals, constant: float = 0.0) -> None:
        """Maximize ``sum_k vals[k] x[cols[k]] + constant``."""
        self._set_objective(Sense.MAXIMIZE, cols, vals, constant)

    def _set_objective(self, sense: Sense, cols, vals, constant: float) -> None:
        """Set the objective; ``vals`` broadcasts to ``cols``, whose entries
        must be distinct columns of the model."""
        import numpy as np

        cols = np.asarray(cols, dtype=np.int64).reshape(-1)
        vals = np.broadcast_to(np.asarray(vals, dtype=float), cols.shape)
        if cols.size and (cols.min() < 0 or cols.max() >= self.num_variables):
            raise IlpError(
                f"objective: a column lies outside 0..{self.num_variables - 1}"
            )
        ordered = np.sort(cols)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if repeated.size:
            raise IlpError(f"objective: column {repeated[0]} is named twice")
        self._obj_cols = cols.copy()
        self._obj_vals = vals.copy()
        self._obj_constant = float(constant)
        self._sense = sense
        self._compiled = None

    @property
    def sense(self) -> Sense:
        return self._sense

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def compile(self) -> CompiledModel:
        """Compile to the sparse arrays used by the solver backends.

        The result is memoized (and invalidated by every mutation — adding
        variables or rows, setting the objective), so the warm-start
        schedule encoder's feasibility vetting and the solver backend's own
        compile of the same model share one build of the matrix.
        """
        import numpy as np

        if self._compiled is not None:
            return self._compiled

        m, n = self.num_constraints, self.num_variables
        c = np.zeros(n)
        c[self._obj_cols] = self._obj_vals
        if self._sense is Sense.MAXIMIZE:
            c = -c

        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.array(self._row_len, dtype=np.int64), out=indptr[1:])
        indices = np.array(self._row_cols, dtype=np.int64)
        # the columns of each row in ascending order; a stable sort keeps a
        # repeated column's entries in insertion order until the check below
        order = np.argsort(_entry_rows(indptr) * n + indices, kind="stable")
        dtype = index_dtype(len(indices), m, n)
        A = CsrMatrix(
            indptr=indptr.astype(dtype),
            indices=indices[order].astype(dtype),
            data=np.array(self._row_vals)[order],
            shape=(m, n),
        )
        _reject_repeated_columns(A)
        self._compiled = CompiledModel(
            c=c,
            A=A,
            con_lb=np.array(self._row_lb),
            con_ub=np.array(self._row_ub),
            var_lb=np.array(self._col_lb),
            var_ub=np.array(self._col_ub),
            integrality=np.array(self._col_integer, dtype=int),
            objective_constant=self._obj_constant,
            sense=self._sense,
        )
        return self._compiled

    # ------------------------------------------------------------------
    def statistics(self) -> Dict[str, int]:
        """Model size statistics (for logging and tests)."""
        import numpy as np

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


def _reject_repeated_columns(A: CsrMatrix) -> None:
    """Raise :class:`IlpError` if a row of ``A`` (indices sorted) names a
    column twice; a backend would read such a row as a model error."""
    import numpy as np

    pairs = np.flatnonzero(A.indices[1:] == A.indices[:-1])
    rows = np.searchsorted(A.indptr, pairs, side="right") - 1
    within = pairs + 1 < A.indptr[rows + 1]
    if within.any():
        first = int(np.argmax(within))
        raise IlpError(
            f"row {rows[first]} names column {A.indices[pairs[first]]} more than once"
        )
