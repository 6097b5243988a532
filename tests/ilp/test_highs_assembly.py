"""The arrays handed to HiGHS are the ones scipy used to build.

Both backends assemble HiGHS's matrices from the compiled model's CSR
arrays in numpy: branch and bound the column-wise ``linprog`` LP
(``_PreparedLp``), the scipy backend the row-wise MILP with its optional
cutoff row (``_highs_lp``).  The references below are verbatim copies of
the scipy-built originals.  A recording stand-in for the binding's
``HighsLp`` keeps every value assigned to it, so the test compares what
each side hands HiGHS, dtypes included: on the ``ilp`` benchmark models,
and under hypothesis on random models with no rows, with only equality
rows, with infinite bounds and with maximize objectives that have zero
coefficients (``-0.0`` after negation).

Two more properties hold the CSR value type to scipy: ``compile`` gives
the arrays ``scipy.sparse.csr_matrix`` gives (sorted columns, int32
indices), and ``is_feasible`` gives the verdict built on scipy's matvec,
also for values exactly on a row bound.
"""

from __future__ import annotations

import dataclasses
import sys
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp import INF, CompiledModel, IlpModel, Sense, branch_and_bound, scipy_backend
from repro.ilp.scipy_backend import highs_binding

from test_bnb_lp_pins import PINS, ilp_model


# ----------------------------------------------------------------------
# the scipy-built originals, frozen verbatim
# ----------------------------------------------------------------------
def _split_constraints(compiled: CompiledModel):
    """Convert two-sided row bounds into the A_ub / A_eq form of ``linprog``."""
    if compiled.A.shape[0] == 0:
        return None, None, None, None
    from scipy import sparse

    lb, ub = compiled.con_lb, compiled.con_ub
    eq_mask = np.isfinite(lb) & np.isfinite(ub) & (np.abs(ub - lb) < 1e-12)
    ub_mask = np.isfinite(ub) & ~eq_mask
    lb_mask = np.isfinite(lb) & ~eq_mask

    A_eq = compiled.A[eq_mask] if eq_mask.any() else None
    b_eq = ub[eq_mask] if eq_mask.any() else None

    ub_rows = []
    ub_rhs = []
    if ub_mask.any():
        ub_rows.append(compiled.A[ub_mask])
        ub_rhs.append(ub[ub_mask])
    if lb_mask.any():
        ub_rows.append(-compiled.A[lb_mask])
        ub_rhs.append(-lb[lb_mask])
    if ub_rows:
        A_ub = sparse.vstack(ub_rows)
        b_ub = np.concatenate(ub_rhs)
    else:
        A_ub, b_ub = None, None
    return A_ub, b_ub, A_eq, b_eq


def _replace_inf(values: np.ndarray) -> np.ndarray:
    """``values`` with every infinity replaced by HiGHS's own (as linprog does)."""
    out = np.array(values, dtype=float)
    infinite = np.isinf(out)
    out[infinite] = np.sign(out[infinite]) * highs_binding().kHighsInf
    return out


class ReferencePreparedLp:
    """The parent's ``_PreparedLp.__init__``."""

    def __init__(self, compiled: CompiledModel) -> None:
        from scipy import sparse

        _highs = highs_binding()
        n = int(compiled.c.shape[0])
        A_ub, b_ub, A_eq, b_eq = _split_constraints(compiled)
        b_ub = np.zeros(0) if b_ub is None else b_ub
        b_eq = np.zeros(0) if b_eq is None else b_eq
        empty = sparse.coo_array((0, n))
        blocks = [empty if a is None else sparse.coo_array(a, dtype=float) for a in (A_ub, A_eq)]
        A = sparse.csc_array(sparse.vstack(blocks))
        self.num_ub = len(b_ub)
        self.rhs = _replace_inf(np.concatenate((b_ub, b_eq)))
        lp = _highs.HighsLp()
        lp.num_col_ = n
        lp.num_row_ = A.shape[0]
        lp.a_matrix_.num_col_ = n
        lp.a_matrix_.num_row_ = A.shape[0]
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.col_cost_ = np.array(compiled.c, dtype=float)
        lp.row_lower_ = _replace_inf(np.concatenate((np.full(len(b_ub), -np.inf), b_eq)))
        lp.row_upper_ = self.rhs
        lp.a_matrix_.start_ = A.indptr
        lp.a_matrix_.index_ = A.indices
        lp.a_matrix_.value_ = A.data
        self.lp = lp


def reference_highs_lp(compiled: CompiledModel, cutoff: Optional[float]):
    """The parent's ``_highs_lp``."""
    from scipy import sparse

    _highs = highs_binding()
    rows = compiled.A.tocsr() if compiled.A.shape[0] else None
    con_lb = np.asarray(compiled.con_lb, dtype=float)
    con_ub = np.asarray(compiled.con_ub, dtype=float)
    if cutoff is not None:
        cut_row = sparse.csr_matrix(compiled.c.reshape(1, -1))
        rows = cut_row if rows is None else sparse.vstack([rows, cut_row], format="csr")
        con_lb = np.append(con_lb, -np.inf)
        con_ub = np.append(con_ub, float(cutoff))

    inf = float(_highs.kHighsInf)
    clip = lambda a: np.clip(np.asarray(a, dtype=float), -inf, inf)
    lp = _highs.HighsLp()
    lp.num_col_ = int(compiled.c.shape[0])
    lp.num_row_ = 0 if rows is None else int(rows.shape[0])
    lp.col_cost_ = np.asarray(compiled.c, dtype=float)
    lp.col_lower_ = clip(compiled.var_lb)
    lp.col_upper_ = clip(compiled.var_ub)
    lp.row_lower_ = clip(con_lb)
    lp.row_upper_ = clip(con_ub)
    if rows is not None:
        matrix = lp.a_matrix_
        matrix.format_ = _highs.MatrixFormat.kRowwise
        matrix.start_ = np.asarray(rows.indptr, dtype=np.int32)
        matrix.index_ = np.asarray(rows.indices, dtype=np.int32)
        matrix.value_ = np.asarray(rows.data, dtype=float)
    lp.integrality_ = np.array(
        [
            _highs.HighsVarType.kInteger if flag else _highs.HighsVarType.kContinuous
            for flag in np.asarray(compiled.integrality).astype(bool)
        ]
    )
    return lp


def reference_compile(self: IlpModel) -> CompiledModel:
    """The parent's ``IlpModel.compile`` (unmemoized, without the
    repeated-column check): ``A`` is a ``scipy.sparse.csr_matrix``."""
    from scipy import sparse

    n = self.num_variables
    c = np.zeros(n)
    c[self._obj_cols] = self._obj_vals
    if self._sense is Sense.MAXIMIZE:
        c = -c

    indptr = np.zeros(self.num_constraints + 1, dtype=np.int64)
    np.cumsum(np.array(self._row_len, dtype=np.int64), out=indptr[1:])
    A = sparse.csr_matrix(
        (np.array(self._row_vals), np.array(self._row_cols, dtype=np.int64), indptr),
        shape=(self.num_constraints, n),
    )
    A.sort_indices()
    return CompiledModel(
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


def reference_is_feasible(compiled: CompiledModel, values, tol: float = 1e-6) -> bool:
    """The parent's ``CompiledModel.is_feasible`` on a scipy ``A``."""
    x = np.asarray(values, dtype=float)
    if x.shape != (compiled.num_variables,):
        return False
    if np.any(x < compiled.var_lb - tol) or np.any(x > compiled.var_ub + tol):
        return False
    integers = compiled.integrality.astype(bool)
    if integers.any() and np.any(np.abs(x[integers] - np.round(x[integers])) > tol):
        return False
    if compiled.A.shape[0]:
        row_values = np.asarray(compiled.A @ x).ravel()
        lb_ok = np.where(np.isfinite(compiled.con_lb), row_values >= compiled.con_lb - tol, True)
        ub_ok = np.where(np.isfinite(compiled.con_ub), row_values <= compiled.con_ub + tol, True)
        if not (np.all(lb_ok) and np.all(ub_ok)):
            return False
    return True


# ----------------------------------------------------------------------
# a binding whose HighsLp records what it is given
# ----------------------------------------------------------------------
class RecordingBinding:
    """The real binding, except that ``HighsLp()`` is a plain namespace
    keeping every value assigned to it (and to its ``a_matrix_``)."""

    def __init__(self, real) -> None:
        self._real = real

    def HighsLp(self):
        return SimpleNamespace(a_matrix_=SimpleNamespace())

    def __getattr__(self, name):
        return getattr(self._real, name)


@contextmanager
def recording_binding():
    """Both backends and the references above see a :class:`RecordingBinding`."""
    binding = RecordingBinding(scipy_backend.highs_binding())
    modules = (scipy_backend, branch_and_bound, sys.modules[__name__])
    saved = [module.highs_binding for module in modules]
    for module in modules:
        module.highs_binding = lambda: binding
    try:
        yield binding
    finally:
        for module, loader in zip(modules, saved):
            module.highs_binding = loader


def handed(lp) -> dict:
    """Every value assigned to a recorded ``HighsLp``, matrix fields prefixed."""
    fields = dict(vars(lp))
    matrix = vars(fields.pop("a_matrix_"))
    fields.update({f"a_matrix_.{name}": value for name, value in matrix.items()})
    return fields


def assert_same_lp(new, ref) -> None:
    new, ref = handed(new), handed(ref)
    assert new.keys() == ref.keys()
    for name, expected in ref.items():
        value = new[name]
        if isinstance(expected, np.ndarray):
            assert isinstance(value, np.ndarray), name
            assert (value.dtype, value.shape) == (expected.dtype, expected.shape), name
            if expected.dtype == object:
                assert list(value) == list(expected), name
            else:
                assert value.tobytes() == expected.tobytes(), name
        else:
            assert value == expected, name


def with_scipy_matrix(compiled: CompiledModel) -> CompiledModel:
    """``compiled`` with ``A`` as the scipy matrix the references index."""
    return dataclasses.replace(compiled, A=compiled.A.tocsr())


def assert_same_assembly(compiled: CompiledModel, cutoffs) -> None:
    ref_compiled = with_scipy_matrix(compiled)
    with recording_binding():
        new, ref = branch_and_bound._PreparedLp(compiled), ReferencePreparedLp(ref_compiled)
        assert_same_lp(new.lp, ref.lp)
        assert new.num_ub == ref.num_ub
        assert new.rhs.tobytes() == ref.rhs.tobytes()
        for cutoff in cutoffs:
            assert_same_lp(
                scipy_backend._highs_lp(compiled, cutoff),
                reference_highs_lp(ref_compiled, cutoff),
            )


# ----------------------------------------------------------------------
# the ilp benchmark models
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(PINS))
def test_benchmark_models_hand_highs_the_same_arrays(name):
    assert_same_assembly(ilp_model(name), (None, 123.5))


def test_a_scipy_matrix_still_serves_as_A():
    compiled = ilp_model("bicgstab")
    scipy_compiled = with_scipy_matrix(compiled)
    with recording_binding():
        assert_same_lp(
            branch_and_bound._PreparedLp(scipy_compiled).lp,
            branch_and_bound._PreparedLp(compiled).lp,
        )
        assert_same_lp(
            scipy_backend._highs_lp(scipy_compiled, 99.0),
            scipy_backend._highs_lp(compiled, 99.0),
        )


# ----------------------------------------------------------------------
# random models
# ----------------------------------------------------------------------
BOUNDS = {
    "le": (-INF, 4.0),
    "ge": (-3.0, INF),
    "range": (-2.0, 5.0),
    "eq": (1.0, 1.0),
    "free": (-INF, INF),
}


@st.composite
def random_models(draw):
    """A small model: rows of every kind (or none, or only equalities), in
    unsorted column order with zero coefficients, columns with finite and
    infinite bounds, and either objective sense with zero coefficients."""
    n = draw(st.integers(min_value=1, max_value=6))
    model = IlpModel("random")
    for _ in range(n):
        lower = draw(st.sampled_from([-INF, -2.0, 0.0]))
        upper = draw(st.sampled_from([INF, 1.0, 3.0]))
        model.add_variables("x", 1, lower, upper, is_integer=draw(st.booleans()))
    shape = draw(st.sampled_from(["mixed", "no rows", "equality only"]))
    kinds = {"mixed": list(BOUNDS), "no rows": [], "equality only": ["eq"]}[shape]
    rows = draw(st.integers(min_value=1, max_value=5)) if kinds else 0
    coefficient = st.sampled_from([0.0, 1.0, -1.0, 2.5, -0.5, 3.0])
    for _ in range(rows):
        cols = draw(st.permutations(range(n)))[: draw(st.integers(min_value=1, max_value=n))]
        vals = draw(st.lists(coefficient, min_size=len(cols), max_size=len(cols)))
        lower, upper = BOUNDS[draw(st.sampled_from(kinds))]
        model.add_rows([cols], [vals], lower=lower, upper=upper)
    objective = draw(st.lists(st.sampled_from([0.0, 1.0, -2.0, 0.5]), min_size=n, max_size=n))
    if draw(st.booleans()):
        model.maximize(range(n), objective)
    else:
        model.minimize(range(n), objective)
    return model


@given(random_models(), st.sampled_from([0.0, -1.5, 7.25]))
@settings(max_examples=150, deadline=None)
def test_random_models_hand_highs_the_same_arrays(model, cutoff):
    assert_same_assembly(model.compile(), (None, cutoff))


@given(random_models())
@settings(max_examples=150, deadline=None)
def test_compiled_arrays_are_scipys(model):
    compiled, reference = model.compile(), reference_compile(model)
    A, ref = compiled.A, reference.A
    for name in ("indptr", "indices", "data"):
        value, expected = getattr(A, name), getattr(ref, name)
        assert value.dtype == expected.dtype and value.tobytes() == expected.tobytes(), name
    assert A.shape == ref.shape and A.nnz == ref.nnz
    assert np.array_equal(A.toarray(), ref.toarray())
    x = np.linspace(-1.0, 2.0, model.num_variables)
    assert (A @ x).tobytes() == (ref @ x).tobytes()
    for name in ("c", "con_lb", "con_ub", "var_lb", "var_ub", "integrality"):
        value, expected = getattr(compiled, name), getattr(reference, name)
        assert value.dtype == expected.dtype and value.tobytes() == expected.tobytes(), name


# ----------------------------------------------------------------------
# feasibility
# ----------------------------------------------------------------------
@st.composite
def feasibility_cases(draw):
    """A model with float coefficients, a point ``x`` and row bounds at,
    just inside or just outside each row's value at ``x``, as scipy's
    matvec computes it."""
    n = draw(st.integers(min_value=1, max_value=8))
    finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=64)
    model = IlpModel("feasibility")
    model.add_variables("x", n, -INF, INF)
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        cols = draw(st.permutations(range(n)))[: draw(st.integers(min_value=1, max_value=n))]
        vals = draw(st.lists(finite, min_size=len(cols), max_size=len(cols)))
        model.add_rows([cols], [vals])
    model.minimize([], [])
    compiled = model.compile()
    x = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    tol = draw(st.sampled_from([0.0, 1e-6]))
    exact = compiled.A.tocsr() @ x

    def bound(value, infinite):
        return draw(st.sampled_from([
            infinite, value, np.nextafter(value, INF), np.nextafter(value, -INF),
            value + tol, value - tol,
        ]))

    con_lb = np.array([bound(v, -INF) for v in exact])
    con_ub = np.array([bound(v, INF) for v in exact])
    return dataclasses.replace(compiled, con_lb=con_lb, con_ub=con_ub), x, tol


@given(feasibility_cases())
@settings(max_examples=300, deadline=None)
def test_is_feasible_matches_scipys_matvec(case):
    compiled, x, tol = case
    scipy_A = compiled.A.tocsr()
    assert (compiled.A @ x).tobytes() == (scipy_A @ x).tobytes()
    verdict = reference_is_feasible(with_scipy_matrix(compiled), x, tol)
    assert compiled.is_feasible(x, tol) is verdict


def test_is_feasible_on_a_row_bound():
    model = IlpModel("edge")
    x = model.add_variables("x", 3, -INF, INF)
    model.add_rows([list(x)], [[0.1, 0.2, 0.3]])
    model.minimize([], [])
    compiled = model.compile()
    point = np.array([1.0, 1.0, 1.0])
    value = (compiled.A.tocsr() @ point)[0]
    for lower, upper, expected in (
        (value, value, True),
        (np.nextafter(value, INF), INF, False),
        (-INF, np.nextafter(value, -INF), False),
    ):
        bounded = dataclasses.replace(compiled, con_lb=np.array([lower]), con_ub=np.array([upper]))
        assert bounded.is_feasible(point, tol=0.0) is expected
        assert reference_is_feasible(with_scipy_matrix(bounded), point, tol=0.0) is expected


def test_zero_objective_coefficients_stay_out_of_the_cutoff_row():
    model = IlpModel("negated")
    x = model.add_variables("x", 3, 0, 1, is_integer=True)
    model.add_rows([list(x)], [[1.0, 1.0, 1.0]], upper=2.0)
    model.maximize(list(x), [2.0, 0.0, 1.0])
    compiled = model.compile()
    assert np.signbit(compiled.c[1])  # -0.0
    with recording_binding():
        lp = handed(scipy_backend._highs_lp(compiled, -1.0))
    assert lp["a_matrix_.start_"].tolist() == [0, 3, 5]
    assert lp["a_matrix_.index_"].tolist() == [0, 1, 2, 0, 2]
