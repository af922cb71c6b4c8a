"""Parity of the persistent HiGHS model with the ``linprog`` reference.

:class:`~repro.ilp.scipy_backend.LpRelaxationSolver` keeps one HiGHS
model per solver and re-runs it per bound set; the ``linprog`` path is
the reference (and the fallback on scipy releases without the bundled
bindings).  Every comparison here is bitwise: the primal point, the
objective, the iteration count and the status must be identical, on
every node of real CASA branch & bound solves and on edge-case LPs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Workbench, WorkbenchConfig, get_workload
from repro.analysis import wcet
from repro.core.casa import CasaAllocator
from repro.errors import SolverError
from repro.ilp import scipy_backend
from repro.ilp.branch_and_bound import BranchAndBoundSolver
from repro.ilp.model import Model, Sense, SolveStatus
from repro.ilp.scipy_backend import LpRelaxationSolver
from repro.program.executor import execute_program
from repro.traces.layout import LinkedImage
from repro.traces.tracegen import TraceGenConfig, generate_traces

pytestmark = pytest.mark.skipif(
    scipy_backend._highs is None,
    reason="this scipy ships no bundled HiGHS bindings",
)

#: (workload, scratchpad size) pairs: two Table 1 sizes per codec.
CASA_CASES = [("adpcm", 64), ("adpcm", 256), ("g721", 256), ("g721", 512)]


def linprog_solver(model: Model) -> LpRelaxationSolver:
    """A solver forced onto the import-time ``linprog`` fallback."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scipy_backend, "_highs", None)
        return LpRelaxationSolver(model)


def outcome(solver: LpRelaxationSolver, overrides=None):
    """``(status, objective bytes, x bytes, iterations)`` or the error."""
    try:
        solution = solver.solve(overrides)
    except SolverError:
        return SolverError
    x = np.array([solution.values[var] for var in solver.variables]) \
        if solution.values else None
    return (
        solution.status,
        None if solution.objective is None
        else np.float64(solution.objective).tobytes(),
        None if x is None else x.tobytes(),
        solution.iterations,
    )


def assert_parity(model: Model, overrides_list) -> list[SolveStatus]:
    """Solve each override set on both paths; return the statuses."""
    persistent = LpRelaxationSolver(model)
    reference = linprog_solver(model)
    assert persistent._highs is not None
    assert reference._highs is None
    statuses = []
    for overrides in overrides_list:
        result = outcome(persistent, overrides)
        assert result == outcome(reference, overrides), overrides
        statuses.append(result[0])
    return statuses


@pytest.fixture(scope="module")
def casa_models() -> dict[tuple[str, int], Model]:
    models = {}
    for name in sorted({name for name, _ in CASA_CASES}):
        workload = get_workload(name, scale=0.3)
        bench = Workbench(workload.program, WorkbenchConfig(
            cache=workload.cache,
            tracegen=TraceGenConfig(
                line_size=workload.cache.line_size,
                max_trace_size=min(workload.spm_sizes),
            ),
        ))
        for case_name, size in CASA_CASES:
            if case_name == name:
                models[name, size], _ = CasaAllocator().build_model(
                    bench.conflict_graph, size,
                    bench.spm_energy_model(size),
                )
    return models


def recorded_overrides(model: Model, monkeypatch) -> list[dict]:
    """The bound overrides of every LP a branch & bound solve runs."""
    recorded: list[dict] = []
    solve = LpRelaxationSolver.solve

    def recording(self, bound_overrides=None):
        recorded.append(dict(bound_overrides or {}))
        return solve(self, bound_overrides)

    monkeypatch.setattr(LpRelaxationSolver, "solve", recording)
    BranchAndBoundSolver().solve(model)
    monkeypatch.undo()
    return recorded


class TestCasaParity:
    @pytest.mark.parametrize("case", CASA_CASES,
                             ids=lambda case: f"{case[0]}-{case[1]}")
    def test_every_node_matches_linprog(self, case, casa_models,
                                        monkeypatch):
        model = casa_models[case]
        overrides = recorded_overrides(model, monkeypatch)
        assert len(overrides) > 1 and any(overrides)
        assert_parity(model, overrides)


class TestEdgeCaseParity:
    def test_no_constraints(self):
        model = Model("m", Sense.MINIMIZE)
        x = model.add_variable("x", -2.0, 3.0)
        y = model.add_variable("y", 1.0, 4.0)
        model.set_objective(x - 2 * y)
        assert assert_parity(
            model, [None, {x: (0.0, 1.0)}, {y: (2.0, 2.0)}]
        ) == [SolveStatus.OPTIMAL] * 3

    def test_equality_only(self):
        model = Model()
        x = model.add_variable("x", 0, 10)
        y = model.add_variable("y", 0, 10)
        model.add_constraint(x + y == 7)
        model.add_constraint(x - y == 1)
        model.set_objective(x + 3 * y)
        assert assert_parity(model, [None, {x: (5.0, 10.0)}]) == [
            SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE]

    def test_maximise_with_objective_constant(self):
        model = Model("m", Sense.MAXIMIZE)
        x = model.add_binary("x")
        y = model.add_binary("y")
        model.add_constraint(3 * x + 2 * y <= 4)
        model.set_objective(5 * x + 4 * y + 2.5)
        assert assert_parity(
            model, [None, {x: (1.0, 1.0)}, {x: (0.0, 0.0)}]
        ) == [SolveStatus.OPTIMAL] * 3

    def test_minus_infinity_lower_bound(self):
        model = Model()
        x = model.add_variable("x", float("-inf"), 5.0)
        y = model.add_variable("y", 0.0, 2.0)
        model.add_constraint(x + y >= -3)
        model.set_objective(x + y)
        assert assert_parity(
            model, [None, {x: (float("-inf"), -4.0)}]
        ) == [SolveStatus.OPTIMAL] * 2

    def test_unbounded(self):
        model = Model("m", Sense.MAXIMIZE)
        x = model.add_variable("x")
        y = model.add_variable("y")
        model.add_constraint(x - y <= 1)
        model.set_objective(x + y)
        assert assert_parity(model, [None, {y: (0.0, 3.0)}]) == [
            SolveStatus.UNBOUNDED, SolveStatus.OPTIMAL]

    def test_infeasible(self):
        model = Model()
        x = model.add_variable("x", 0, 1)
        y = model.add_variable("y", 0, 1)
        model.add_constraint(x + y >= 5)
        model.set_objective(x + y)
        assert assert_parity(model, [None, {x: (0.0, 0.5)}]) == [
            SolveStatus.INFEASIBLE] * 2

    def test_contradictory_override(self):
        model = Model()
        x = model.add_variable("x", 0, 10)
        model.add_constraint(x >= 1)
        model.set_objective(x)
        assert assert_parity(model, [{x: (5.0, 4.0)}]) == [
            SolveStatus.INFEASIBLE]

    def test_wcet_lps(self, monkeypatch):
        models: list[Model] = []

        class Recording(LpRelaxationSolver):
            def __init__(self, model: Model) -> None:
                models.append(model)
                super().__init__(model)

        monkeypatch.setattr(wcet, "LpRelaxationSolver", Recording)
        program = get_workload("adpcm", scale=0.2).program
        execution = execute_program(program)
        image = LinkedImage(program, generate_traces(
            program, execution.profile,
            TraceGenConfig(line_size=16, max_trace_size=1 << 20),
        ))
        wcet.compute_wcet(program, image)
        monkeypatch.undo()
        assert models
        for model in models:
            assert assert_parity(model, [None]) == [SolveStatus.OPTIMAL]


class TestStateIsolation:
    def test_infeasible_solve_leaves_no_state(self, casa_models):
        model = casa_models["adpcm", 64]
        binaries = model.integer_variables
        # Every object on the scratchpad overflows it: HiGHS itself
        # must prove this infeasible (no contradictory bound).
        overflow = {var: (0.0, 0.0) for var in binaries}
        branch = {binaries[0]: (0.0, 0.0), binaries[-1]: (1.0, 1.0)}
        for first in (None, branch):
            solver = LpRelaxationSolver(model)
            sequence = [first, overflow, first]
            results = [outcome(solver, overrides) for overrides in sequence]
            fresh = [outcome(LpRelaxationSolver(model), overrides)
                     for overrides in sequence]
            assert results[1][0] is SolveStatus.INFEASIBLE
            assert results == fresh
            assert results[0] == results[2]


class TestLinprogFallback:
    @pytest.mark.parametrize("case", [("adpcm", 64), ("g721", 256)],
                             ids=lambda case: f"{case[0]}-{case[1]}")
    def test_branch_and_bound_matches(self, case, casa_models,
                                      monkeypatch):
        model = casa_models[case]
        persistent = BranchAndBoundSolver().solve(model)
        monkeypatch.setattr(scipy_backend, "_highs", None)
        fallback = BranchAndBoundSolver().solve(model)
        assert fallback.status is persistent.status is SolveStatus.OPTIMAL
        assert fallback.objective == persistent.objective
        assert fallback.values == persistent.values
        assert fallback.nodes_explored == persistent.nodes_explored
        assert fallback.gap == persistent.gap
        assert fallback.telemetry == persistent.telemetry
