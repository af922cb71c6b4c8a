"""A small integer-linear-programming toolkit.

The paper solves its allocation problem with a commercial ILP solver
(CPLEX [5]).  This package provides the reproduction's equivalent,
built on HiGHS (through scipy) for LP relaxations:

* :mod:`repro.ilp.expr` / :mod:`repro.ilp.model` — a PuLP-like modelling
  layer (variables, linear expressions, constraints, a model);
* :mod:`repro.ilp.scipy_backend` — LP relaxation solving: one
  persistent HiGHS model per solver, re-solved cold per node and
  bitwise equal to :func:`scipy.optimize.linprog`, which stays as the
  reference and as the fallback for scipy releases without the
  bundled HiGHS bindings;
* :mod:`repro.ilp.branch_and_bound` — exact 0/1 / integer solving by
  best-bound branch & bound with an LP-rounding warm start;
* :mod:`repro.ilp.knapsack` — an exact dynamic-programming 0/1 knapsack
  used by the Steinke baseline.
"""

from repro.ilp.expr import LinExpr, Variable
from repro.ilp.model import (
    Constraint,
    Model,
    Sense,
    SolveResult,
    SolveStatus,
)
from repro.ilp.branch_and_bound import BranchAndBoundSolver
from repro.ilp.knapsack import knapsack_01
from repro.ilp.scipy_backend import LpRelaxationSolver

__all__ = [
    "LinExpr",
    "Variable",
    "Constraint",
    "Model",
    "Sense",
    "SolveResult",
    "SolveStatus",
    "BranchAndBoundSolver",
    "knapsack_01",
    "LpRelaxationSolver",
]
