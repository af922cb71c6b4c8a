"""LP relaxation solving via :func:`scipy.optimize.linprog` (HiGHS).

The backend converts a :class:`~repro.ilp.model.Model` (ignoring
integrality) into the matrix form HiGHS expects.  Bound overrides allow
the branch & bound solver to fix/branch variables without rebuilding the
matrices for every node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.optimize import linprog

from repro.errors import SolverError
from repro.ilp.expr import Variable
from repro.ilp.model import Model, Sense, SolveStatus
from repro.obs import metrics


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

    The constraint matrices are assembled once in the constructor; each
    :meth:`solve` call only swaps variable bounds, which is what branch &
    bound needs.
    """

    def __init__(self, model: Model) -> None:
        self._model = model
        self._variables = list(model.variables)
        self._index = {var: i for i, var in enumerate(self._variables)}
        n = len(self._variables)

        sign = 1.0 if model.sense is Sense.MINIMIZE else -1.0
        self._objective_sign = sign
        self._c = np.zeros(n)
        for var, coef in model.objective.terms.items():
            self._c[self._index[var]] += sign * coef
        self._objective_constant = model.objective.constant

        rows_ub: list[np.ndarray] = []
        rhs_ub: list[float] = []
        rows_eq: list[np.ndarray] = []
        rhs_eq: list[float] = []
        for constraint in model.constraints:
            row = np.zeros(n)
            for var, coef in constraint.expr.terms.items():
                row[self._index[var]] += coef
            bound = -constraint.expr.constant
            if constraint.sense == "<=":
                rows_ub.append(row)
                rhs_ub.append(bound)
            elif constraint.sense == ">=":
                rows_ub.append(-row)
                rhs_ub.append(-bound)
            else:
                rows_eq.append(row)
                rhs_eq.append(bound)
        self._a_ub = np.vstack(rows_ub) if rows_ub else None
        self._b_ub = np.array(rhs_ub) if rhs_ub else None
        self._a_eq = np.vstack(rows_eq) if rows_eq else None
        self._b_eq = np.array(rhs_eq) if rhs_eq else None

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
        bounds = []
        overrides = bound_overrides or {}
        for var in self._variables:
            low, high = overrides.get(var, (var.lower, var.upper))
            if low > high:
                return LpSolution(SolveStatus.INFEASIBLE, None, {})
            bounds.append((low, None if high == float("inf") else high))

        result = linprog(
            self._c,
            A_ub=self._a_ub,
            b_ub=self._b_ub,
            A_eq=self._a_eq,
            b_eq=self._b_eq,
            bounds=bounds,
            method="highs",
        )
        iterations = int(getattr(result, "nit", 0) or 0)
        metrics.inc("ilp.lp_iterations", iterations)
        if result.status == 2:
            return LpSolution(SolveStatus.INFEASIBLE, None, {},
                              iterations=iterations)
        if result.status == 3:
            return LpSolution(SolveStatus.UNBOUNDED, None, {},
                              iterations=iterations)
        if result.status != 0:
            raise SolverError(f"HiGHS failed: {result.message}")

        values = {
            var: float(result.x[i]) for i, var in enumerate(self._variables)
        }
        objective = (
            self._objective_sign * float(result.fun)
            + self._objective_constant
        )
        return LpSolution(SolveStatus.OPTIMAL, objective, values,
                          iterations=iterations)
