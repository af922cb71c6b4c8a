"""LP relaxation solving on one persistent HiGHS model.

The backend converts a :class:`~repro.ilp.model.Model` (ignoring
integrality) into the column-wise matrix form HiGHS expects, once per
:class:`LpRelaxationSolver`, and keeps it in one HiGHS instance from
scipy's bundled bindings (``scipy.optimize._highspy``).  Each
:meth:`LpRelaxationSolver.solve` only writes the column bounds — the
declared bounds plus the branch & bound overrides — then re-passes the
model and runs it.  Passing the model resets the basis, so every node
is the same cold solve :func:`scipy.optimize.linprog`
(``method="highs"``) runs: the options, the status mapping and the
feasibility check mirror linprog's, and ``x``, objective, iteration
count and status are bitwise equal to it.  What the persistent model
saves is linprog's per-call wrapper: input cleaning, option
validation, rebuilding the same matrix and computing marginals nobody
reads.

:func:`solve_with_linprog` keeps the ``linprog`` call as the reference
path.  It serves the parity tests, and every solve when the installed
scipy is too old to ship the bindings (checked once, at import).  The
bindings are a private scipy API, so this is the only module that may
import them.  A solver holds a native handle: it lives for one branch
& bound solve and is never pickled or shared across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_array

from repro.errors import SolverError
from repro.ilp.expr import Variable
from repro.ilp.model import Model, Sense, SolveStatus
from repro.obs import metrics

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError:  # older scipy: no bundled bindings, use linprog
    _highs = None

#: linprog's acceptance tolerance for an optimal point (``_check_result``
#: with its default ``tol=1e-9``): bound violations, negative slack and
#: equality residuals beyond it turn "optimal" into a solver error.
FEASIBILITY_TOLERANCE = float(np.sqrt(1e-9) * 10)

#: A raw relaxation outcome: status (``None`` = solver failure), primal
#: point, minimisation objective, simplex iterations, failure message.
_Outcome = tuple[SolveStatus | None, np.ndarray | None, float | None,
                 int, str]


@dataclass
class LpSolution:
    """Solution of one LP relaxation.

    Attributes:
        status: relaxation outcome.
        objective: objective in the model's sense (``None`` unless
            optimal).
        values: assignment of every model variable.
        iterations: simplex iterations the backend spent (HiGHS
            ``nit``).
    """

    status: SolveStatus
    objective: float | None
    values: dict[Variable, float]
    iterations: int = 0


class LpRelaxationSolver:
    """Reusable LP solver for a fixed model structure.

    The cost vector, the constraint matrix and the row bounds are
    assembled once in the constructor (and handed to HiGHS once); each
    :meth:`solve` call only swaps column bounds, which is what branch &
    bound needs.
    """

    def __init__(self, model: Model) -> None:
        self._variables = list(model.variables)
        self._index = {var: i for i, var in enumerate(self._variables)}
        n = len(self._variables)

        sign = 1.0 if model.sense is Sense.MINIMIZE else -1.0
        self._objective_sign = sign
        self._c = np.zeros(n)
        for var, coef in model.objective.terms.items():
            self._c[self._index[var]] += sign * coef
        self._objective_constant = model.objective.constant
        self._lower = np.array([var.lower for var in self._variables],
                               dtype=float)
        self._upper = np.array([var.upper for var in self._variables],
                               dtype=float)

        # The matrix linprog would build, entry for entry, so HiGHS
        # solves the identical LP: every inequality (">=" negated into
        # "<="), then every equality, with zero coefficients dropped.
        inequalities = []
        equalities = []
        for constraint in model.constraints:
            bound = -constraint.expr.constant
            if constraint.sense == "<=":
                inequalities.append((constraint.expr.terms, False, bound))
            elif constraint.sense == ">=":
                inequalities.append((constraint.expr.terms, True, -bound))
            else:
                equalities.append((constraint.expr.terms, False, bound))
        self._num_inequalities = len(inequalities)
        entries, rows, columns, rhs = [], [], [], []
        for row, (terms, negate, bound) in enumerate(
                inequalities + equalities):
            for var, coef in terms.items():
                if coef != 0:
                    entries.append(-coef if negate else coef)
                    rows.append(row)
                    columns.append(self._index[var])
            rhs.append(bound)
        self._matrix = csc_array(
            (np.array(entries, dtype=float),
             (np.array(rows, dtype=np.int64),
              np.array(columns, dtype=np.int64))),
            shape=(len(rhs), n),
        )
        self._rhs = np.array(rhs, dtype=float)
        self._highs = (_HighsModel(self._c, self._matrix, self._rhs,
                                   self._num_inequalities)
                       if _highs is not None else None)

    @property
    def variables(self) -> list[Variable]:
        """Model variables in column order."""
        return list(self._variables)

    def solve(
        self,
        bound_overrides: Mapping[Variable, tuple[float, float]] | None = None,
    ) -> LpSolution:
        """Solve the LP relaxation, optionally overriding variable bounds.

        Args:
            bound_overrides: per-variable ``(lower, upper)`` replacing
                the declared bounds (used for branching).

        Returns:
            The relaxation solution; objective is in the *model's*
            sense (maximisation objectives are returned un-negated).
        """
        metrics.inc("ilp.lp_solves")
        lower = self._lower.copy()
        upper = self._upper.copy()
        if bound_overrides:
            columns = [self._index[var] for var in bound_overrides]
            pairs = np.array(list(bound_overrides.values()), dtype=float)
            lower[columns] = pairs[:, 0]
            upper[columns] = pairs[:, 1]
        if (lower > upper).any():
            return LpSolution(SolveStatus.INFEASIBLE, None, {})

        if self._highs is not None:
            outcome = self._highs.solve(lower, upper)
        else:
            split = self._num_inequalities
            outcome = solve_with_linprog(
                self._c, self._matrix[:split], self._rhs[:split],
                self._matrix[split:], self._rhs[split:], lower, upper,
            )
        status, x, fun, iterations, message = outcome
        metrics.inc("ilp.lp_iterations", iterations)
        if status is None:
            raise SolverError(f"HiGHS failed: {message}")
        if status is not SolveStatus.OPTIMAL:
            return LpSolution(status, None, {}, iterations=iterations)
        assert x is not None and fun is not None
        values = dict(zip(self._variables, x.tolist()))
        objective = self._objective_sign * fun + self._objective_constant
        return LpSolution(SolveStatus.OPTIMAL, objective, values,
                          iterations=iterations)


def solve_with_linprog(c: np.ndarray, a_ub, b_ub: np.ndarray, a_eq,
                       b_eq: np.ndarray, lower: np.ndarray,
                       upper: np.ndarray) -> _Outcome:
    """Minimise ``c @ x`` with :func:`scipy.optimize.linprog` (HiGHS).

    The reference the persistent model must match bitwise: ``a_ub`` /
    ``a_eq`` may be dense or sparse and may have no rows.
    """
    bounds = [(low, None if high == float("inf") else high)
              for low, high in zip(lower.tolist(), upper.tolist())]
    result = linprog(
        c,
        A_ub=a_ub if len(b_ub) else None,
        b_ub=b_ub if len(b_ub) else None,
        A_eq=a_eq if len(b_eq) else None,
        b_eq=b_eq if len(b_eq) else None,
        bounds=bounds,
        method="highs",
    )
    iterations = int(getattr(result, "nit", 0) or 0)
    status = {0: SolveStatus.OPTIMAL, 2: SolveStatus.INFEASIBLE,
              3: SolveStatus.UNBOUNDED}.get(result.status)
    if status is not SolveStatus.OPTIMAL:
        return status, None, None, iterations, result.message
    return status, result.x, float(result.fun), iterations, ""


class _HighsModel:
    """One HiGHS instance holding the relaxation, re-run per bound set.

    Options are the ones ``linprog(method="highs")`` sets: presolve on,
    the dual simplex, no output, no debug checks.
    """

    def __init__(self, c: np.ndarray, matrix: csc_array,
                 rhs: np.ndarray, num_inequalities: int) -> None:
        num_rows, num_cols = matrix.shape
        row_lower = rhs.copy()
        row_lower[:num_inequalities] = -np.inf
        lp = _highs.HighsLp()
        lp.num_col_ = num_cols
        lp.num_row_ = num_rows
        lp.a_matrix_.num_col_ = num_cols
        lp.a_matrix_.num_row_ = num_rows
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = matrix.indptr
        lp.a_matrix_.index_ = matrix.indices
        lp.a_matrix_.value_ = matrix.data
        lp.col_cost_ = c
        lp.row_lower_ = _highs_infinity(row_lower)
        lp.row_upper_ = _highs_infinity(rhs)
        self._lp = lp
        self._rhs = rhs
        self._num_inequalities = num_inequalities

        options = _highs.HighsOptions()
        options.presolve = "on"
        options.simplex_strategy = int(
            _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        )
        options.highs_debug_level = int(
            _highs.HighsDebugLevel.kHighsDebugLevelNone
        )
        options.output_flag = False
        options.log_to_console = False
        self._solver = _highs._Highs()
        if self._solver.passOptions(options) == _highs.HighsStatus.kError:
            raise SolverError("HiGHS rejected the linprog options")

    def solve(self, lower: np.ndarray, upper: np.ndarray) -> _Outcome:
        """Cold-solve the LP under column bounds *lower*/*upper*.

        Statuses map as in linprog: infeasible or a model error is
        ``INFEASIBLE``, unbounded is ``UNBOUNDED``, optimal is
        ``OPTIMAL`` once the point passes the feasibility check, and
        anything else (unbounded-or-infeasible, limits, a failed run)
        is a solver failure.
        """
        statuses = _highs.HighsModelStatus
        solver = self._solver
        self._lp.col_lower_ = _highs_infinity(lower)
        self._lp.col_upper_ = _highs_infinity(upper)
        if solver.passModel(self._lp) == _highs.HighsStatus.kError:
            return SolveStatus.INFEASIBLE, None, None, 0, "model error"
        ran = solver.run() != _highs.HighsStatus.kError
        status = solver.getModelStatus()
        message = solver.modelStatusToString(status)
        info = solver.getInfo() if ran else None
        iterations = (int(info.simplex_iteration_count
                          or info.ipm_iteration_count)
                      if info is not None else 0)
        if status in (statuses.kInfeasible, statuses.kModelError):
            return SolveStatus.INFEASIBLE, None, None, iterations, message
        if status == statuses.kUnbounded:
            return SolveStatus.UNBOUNDED, None, None, iterations, message
        if info is None or status != statuses.kOptimal:
            return None, None, None, iterations, message

        solution = solver.getSolution()
        x = np.array(solution.col_value)
        fun = info.objective_function_value
        residual = self._rhs - np.array(solution.row_value)
        slack = residual[:self._num_inequalities]
        con = residual[self._num_inequalities:]
        tol = FEASIBILITY_TOLERANCE
        feasible = not (
            np.isnan(x).any() or np.isnan(fun)
            or np.isnan(slack).any() or np.isnan(con).any()
        ) and bool(
            np.all((x >= lower - tol) & (x <= upper + tol))
            and not (slack < -tol).any()
            and not (np.abs(con) > tol).any()
        )
        if not feasible:
            return (None, None, None, iterations,
                    "the optimal point violates the constraints beyond "
                    f"{tol:.2E}")
        return SolveStatus.OPTIMAL, x, fun, iterations, message


def _highs_infinity(values: np.ndarray) -> np.ndarray:
    """A copy of *values* with each infinity as HiGHS's ``kHighsInf``."""
    values = values.copy()
    infinite = np.isinf(values)
    values[infinite] = np.sign(values[infinite]) * _highs.kHighsInf
    return values
