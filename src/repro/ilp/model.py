"""Optimisation model: variables, constraints, objective, solving."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Union

from repro.errors import SolverError
from repro.ilp.expr import LinExpr, Variable

Number = Union[int, float]


class Sense(enum.Enum):
    """Objective direction."""

    MINIMIZE = "min"
    MAXIMIZE = "max"


class SolveStatus(enum.Enum):
    """Outcome of a solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NODE_LIMIT = "node_limit"
    TIME_LIMIT = "time_limit"
    ERROR = "error"


class Constraint:
    """A linear constraint ``expr (<=|>=|==) 0`` in normalised form."""

    __slots__ = ("expr", "sense", "name")

    def __init__(self, expr: LinExpr, sense: str, name: str = "") -> None:
        if sense not in ("<=", ">=", "=="):
            raise SolverError(f"unknown constraint sense {sense!r}")
        self.expr = expr
        self.sense = sense
        self.name = name

    @staticmethod
    def build(left: LinExpr, sense: str,
              right: Union[LinExpr, Variable, Number]) -> "Constraint":
        """Build ``left sense right`` as ``(left - right) sense 0``."""
        return Constraint(left - right, sense)

    def named(self, name: str) -> "Constraint":
        """Return the same constraint carrying a display name."""
        return Constraint(self.expr, self.sense, name)

    def satisfied_by(self, assignment: Mapping[Variable, float],
                     tolerance: float = 1e-6) -> bool:
        """Whether an assignment satisfies the constraint."""
        value = self.expr.evaluate(assignment)
        if self.sense == "<=":
            return value <= tolerance
        if self.sense == ">=":
            return value >= -tolerance
        return abs(value) <= tolerance

    def __repr__(self) -> str:
        label = f"{self.name}: " if self.name else ""
        return f"{label}{self.expr!r} {self.sense} 0"


@dataclass
class SolveTelemetry:
    """Convergence telemetry of one branch & bound solve.

    Attributes:
        nodes: explored branch & bound nodes.
        max_depth: deepest explored node (0 = root only).
        incumbent_updates: how often a better integral point was found
            (rounding warm start, integral LP nodes and dives).
        dives_attempted: periodic diving-heuristic attempts.
        dives_succeeded: dives that produced a feasible integral point.
        lp_iterations: HiGHS simplex iterations summed over every LP
            relaxation solved.
        best_bound: the proven dual bound in the model's sense.
        trajectory: downsampled ``(node, incumbent, bound)`` points —
            the gap-over-nodes curve ``repro report`` renders.
    """

    nodes: int = 0
    max_depth: int = 0
    incumbent_updates: int = 0
    dives_attempted: int = 0
    dives_succeeded: int = 0
    lp_iterations: int = 0
    best_bound: float | None = None
    trajectory: list[tuple[int, float | None, float | None]] = field(
        default_factory=list
    )

    def as_json(self) -> dict:
        """Plain-dict form for span attributes and run files."""
        return {
            "nodes": self.nodes,
            "max_depth": self.max_depth,
            "incumbent_updates": self.incumbent_updates,
            "dives_attempted": self.dives_attempted,
            "dives_succeeded": self.dives_succeeded,
            "lp_iterations": self.lp_iterations,
            "best_bound": self.best_bound,
            "trajectory": [list(point) for point in self.trajectory],
        }


def relative_gap(objective: float | None,
                 best_bound: float | None) -> float | None:
    """Relative optimality gap ``|obj - bound| / max(1, |obj|)``.

    ``None`` when either side is unknown (no incumbent / no bound).
    """
    if objective is None or best_bound is None:
        return None
    return abs(objective - best_bound) / max(1.0, abs(objective))


@dataclass
class SolveResult:
    """Solution of a model.

    Attributes:
        status: solver outcome.
        objective: objective value (``None`` unless a solution exists).
        values: assignment of every model variable.
        nodes_explored: branch & bound nodes processed (0 for pure LPs).
        best_bound: proven dual bound in the model's sense (equals the
            objective for proven-optimal solves).
        telemetry: convergence telemetry, when the branch & bound
            solver produced it.
    """

    status: SolveStatus
    objective: float | None
    values: dict[Variable, float]
    nodes_explored: int = 0
    best_bound: float | None = None
    telemetry: SolveTelemetry | None = None

    @property
    def is_optimal(self) -> bool:
        """Whether a proven-optimal solution was found."""
        return self.status is SolveStatus.OPTIMAL

    @property
    def gap(self) -> float | None:
        """Relative optimality gap (``None`` when unknown)."""
        return relative_gap(self.objective, self.best_bound)

    def value(self, variable: Variable) -> float:
        """Value of one variable in the solution."""
        if not self.values:
            raise SolverError(f"no solution available ({self.status.value})")
        return self.values[variable]

    def binary_value(self, variable: Variable) -> int:
        """Value of a 0/1 variable, rounded to an exact int."""
        value = self.value(variable)
        rounded = round(value)
        if abs(value - rounded) > 1e-4 or rounded not in (0, 1):
            raise SolverError(
                f"variable {variable.name!r} is not binary-valued: {value}"
            )
        return int(rounded)


class Model:
    """An ILP/LP model.

    Example::

        model = Model("demo", Sense.MINIMIZE)
        x = model.add_binary("x")
        y = model.add_binary("y")
        model.add_constraint(x + y >= 1, "cover")
        model.set_objective(3 * x + 2 * y)
        result = model.solve()
    """

    def __init__(self, name: str = "model",
                 sense: Sense = Sense.MINIMIZE) -> None:
        self.name = name
        self.sense = sense
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self._names: set[str] = set()

    # -- construction ------------------------------------------------------

    def add_variable(self, name: str, lower: float = 0.0,
                     upper: float = float("inf"),
                     is_integer: bool = False) -> Variable:
        """Create and register a variable."""
        if name in self._names:
            raise SolverError(f"duplicate variable name {name!r}")
        variable = Variable(name, lower, upper, is_integer)
        self.variables.append(variable)
        self._names.add(name)
        return variable

    def add_binary(self, name: str) -> Variable:
        """Create a 0/1 variable."""
        return self.add_variable(name, 0.0, 1.0, is_integer=True)

    def add_constraint(self, constraint: Constraint,
                       name: str = "") -> Constraint:
        """Register a constraint (optionally naming it)."""
        if not isinstance(constraint, Constraint):
            raise SolverError(
                "add_constraint expects a Constraint (build one with "
                "<=, >= or == on expressions)"
            )
        if name:
            constraint = constraint.named(name)
        self.constraints.append(constraint)
        return constraint

    def set_objective(self, expression: LinExpr | Variable | float) -> None:
        """Set the objective expression."""
        if isinstance(expression, Variable):
            expression = expression + 0.0
        elif isinstance(expression, (int, float)):
            expression = LinExpr(constant=float(expression))
        self.objective = expression

    # -- queries ------------------------------------------------------------

    @property
    def num_variables(self) -> int:
        """Registered variables."""
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        """Registered constraints."""
        return len(self.constraints)

    @property
    def integer_variables(self) -> list[Variable]:
        """Variables with an integrality requirement."""
        return [v for v in self.variables if v.is_integer]

    def is_feasible(self, assignment: Mapping[Variable, float],
                    tolerance: float = 1e-6) -> bool:
        """Whether an assignment satisfies all constraints and bounds."""
        for variable in self.variables:
            value = assignment[variable]
            if value < variable.lower - tolerance:
                return False
            if value > variable.upper + tolerance:
                return False
            if variable.is_integer and \
                    abs(value - round(value)) > tolerance:
                return False
        return all(
            constraint.satisfied_by(assignment, tolerance)
            for constraint in self.constraints
        )

    # -- solving ------------------------------------------------------------

    def solve(self, solver=None) -> SolveResult:
        """Solve the model.

        Uses the branch & bound solver by default; a pure-LP model (no
        integer variables) is solved by a single LP call either way.
        """
        if solver is None:
            from repro.ilp.branch_and_bound import BranchAndBoundSolver
            solver = BranchAndBoundSolver()
        return solver.solve(self)

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, {self.sense.value}, "
            f"{self.num_variables} vars, {self.num_constraints} cons)"
        )
