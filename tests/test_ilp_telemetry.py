"""Solver convergence telemetry: trajectories, bounds, gaps, LP work."""

from __future__ import annotations

import pytest

from repro.ilp.branch_and_bound import BranchAndBoundSolver
from repro.ilp.model import (
    Model,
    Sense,
    SolveStatus,
    SolveTelemetry,
    relative_gap,
)
from repro.ilp.scipy_backend import LpRelaxationSolver
from repro.obs.metrics import MetricsRegistry, set_registry


def knapsack(n: int = 8, capacity: int = 11) -> Model:
    """A small fractional-at-the-root knapsack."""
    model = Model("knap", Sense.MAXIMIZE)
    variables = [model.add_binary(f"x{i}") for i in range(n)]
    weight = sum((3 * v for v in variables), start=0 * variables[0])
    model.add_constraint(weight <= capacity)
    model.set_objective(sum(
        ((i % 5 + 1) * v for i, v in enumerate(variables)),
        start=0 * variables[0],
    ))
    return model


class TestRelativeGap:
    def test_zero_when_bound_meets_objective(self):
        assert relative_gap(10.0, 10.0) == 0.0

    def test_scales_by_objective(self):
        assert relative_gap(100.0, 110.0) == pytest.approx(0.1)

    def test_none_inputs(self):
        assert relative_gap(None, 10.0) is None
        assert relative_gap(10.0, None) is None


class TestSolveTelemetry:
    def test_optimal_solve_records_trajectory(self):
        result = knapsack().solve(BranchAndBoundSolver())
        assert result.status is SolveStatus.OPTIMAL
        telemetry = result.telemetry
        assert isinstance(telemetry, SolveTelemetry)
        assert telemetry.nodes == result.nodes_explored
        assert telemetry.incumbent_updates >= 1
        assert telemetry.lp_iterations > 0
        assert telemetry.trajectory
        # The trajectory converges: the final point's bound equals the
        # proven optimum.
        _, incumbent, bound = telemetry.trajectory[-1]
        assert incumbent == pytest.approx(result.objective)
        assert bound == pytest.approx(result.objective)

    def test_optimal_gap_is_zero(self):
        result = knapsack().solve(BranchAndBoundSolver())
        assert result.best_bound == pytest.approx(result.objective)
        assert result.gap == pytest.approx(0.0)

    def test_node_limit_keeps_a_bound(self):
        result = knapsack(n=14, capacity=17).solve(
            BranchAndBoundSolver(max_nodes=2)
        )
        if result.status is SolveStatus.NODE_LIMIT:
            assert result.telemetry.nodes == result.nodes_explored
            assert result.best_bound is not None
            # An unproven maximisation bound sits at or above the
            # incumbent.
            assert result.best_bound >= result.objective - 1e-9

    def test_as_json_is_plain_data(self):
        result = knapsack().solve(BranchAndBoundSolver())
        payload = result.telemetry.as_json()
        assert payload["nodes"] == result.nodes_explored
        assert isinstance(payload["trajectory"], list)
        assert all(isinstance(point, list)
                   for point in payload["trajectory"])

    def test_trajectory_stays_bounded(self):
        telemetry = SolveTelemetry()
        # Mirror the recorder's stride-doubling contract: the solver
        # thins the list in place whenever it reaches the cap.
        from repro.ilp.branch_and_bound import TRAJECTORY_LIMIT
        assert TRAJECTORY_LIMIT >= 2
        assert telemetry.trajectory == []


class TestLpIterationCounts:
    def test_scipy_backend_reports_iterations(self):
        model = knapsack()
        solution = LpRelaxationSolver(model).solve()
        assert solution.iterations >= 0

    def test_metrics_count_lp_work(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            knapsack().solve(BranchAndBoundSolver())
        finally:
            set_registry(previous)
        assert registry.value("ilp.bb.nodes") >= 1
        assert registry.value("ilp.bb.incumbents") >= 1
        assert registry.value("ilp.lp_iterations") > 0
        assert registry.value("ilp.solves") == 1
