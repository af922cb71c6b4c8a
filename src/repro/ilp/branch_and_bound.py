"""Exact integer solving: best-bound branch & bound over LP relaxations.

Standard MIP branch & bound:

1. solve the LP relaxation of a node;
2. prune if infeasible or no better than the incumbent;
3. if the relaxation is integral, it becomes the new incumbent;
4. otherwise branch on a most-fractional integer variable, creating a
   floor child and a ceil child.

Nodes are explored best-bound-first (a heap keyed by the parent's LP
bound), so the first time the heap's best bound meets the incumbent the
incumbent is proven optimal.  A rounding heuristic at the root provides
an initial incumbent, which for the paper's allocation ILP (where the
all-ones point — everything stays in the cache — is always feasible)
guarantees the search starts bounded.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass

from repro.ilp.expr import Variable
from repro.ilp.model import (
    Model,
    Sense,
    SolveResult,
    SolveStatus,
    SolveTelemetry,
    relative_gap,
)
from repro.ilp.scipy_backend import LpRelaxationSolver, LpSolution
from repro.obs import metrics
from repro.obs.live import note_phase
from repro.obs.trace import span
from repro.resilience.faults import maybe_inject

#: Tolerance below which a value counts as integral.
INTEGRALITY_TOLERANCE = 1e-6

#: Convergence-trajectory points kept before the sampling stride
#: doubles (bounds the span payload on huge searches).
TRAJECTORY_LIMIT = 256


@dataclass
class _Incumbent:
    objective_key: float  # objective normalised to minimisation
    objective: float
    values: dict[Variable, float]


class BranchAndBoundSolver:
    """Best-bound branch & bound with an LP-rounding warm start.

    Args:
        max_nodes: abort threshold on explored nodes; the best incumbent
            is returned with :attr:`SolveStatus.NODE_LIMIT`.
        absolute_gap: prove optimality once ``best_bound`` is within
            this absolute distance of the incumbent.
        max_seconds: wall-clock budget; when exceeded the best
            incumbent is returned with :attr:`SolveStatus.TIME_LIMIT`
            (``None`` = unlimited).
        warm_start: variable values (by variable *name*) of a known
            feasible point — typically the incumbent of a neighbouring
            sweep step.  If feasible and strictly better than the
            rounding heuristic's point, it seeds the search incumbent,
            tightening the pruning cutoff from node one
            (``ilp.warm_start.hits`` / ``.bound_improvement``).  The
            final optimum is unaffected: the warm point only prunes
            nodes that could not beat it.
    """

    def __init__(self, max_nodes: int = 200_000,
                 absolute_gap: float = 1e-6,
                 relative_gap: float = 0.0,
                 max_seconds: float | None = None,
                 warm_start: dict[str, float] | None = None) -> None:
        self.max_nodes = max_nodes
        self.max_seconds = max_seconds
        self.absolute_gap = absolute_gap
        #: stop once the incumbent is proven within this relative
        #: distance of the best bound (0 = prove exact optimality).
        self.relative_gap = relative_gap
        #: candidate incumbent by variable name (see class docstring).
        self.warm_start = warm_start

    def solve(self, model: Model) -> SolveResult:
        """Solve *model* to proven optimality (or the node limit).

        Emits an ``ilp.solve`` span carrying the convergence telemetry
        (status, nodes, depth, incumbent updates, dive outcomes, LP
        iterations, final gap and the downsampled incumbent/bound
        trajectory ``repro report`` plots), plus the ``ilp.solves``,
        ``ilp.bb.*`` and ``ilp.lp_iterations`` aggregates when
        observability is enabled.
        """
        with span("ilp.solve", variables=len(model.variables),
                  constraints=len(model.constraints)) as solve_span:
            maybe_inject("ilp.solve", variables=len(model.variables))
            note_phase("ilp.solve")
            started = time.perf_counter()
            result = self._solve(model)
            metrics.observe("ilp.solve.seconds",
                            time.perf_counter() - started)
            telemetry = result.telemetry
            assert telemetry is not None
            solve_span.add(status=result.status.name,
                           nodes=result.nodes_explored,
                           objective=result.objective,
                           gap=result.gap,
                           telemetry=telemetry.as_json())
            metrics.inc("ilp.solves")
            metrics.inc("ilp.bb.nodes", result.nodes_explored)
            metrics.inc("ilp.bb.incumbents", telemetry.incumbent_updates)
            metrics.inc("ilp.bb.dives", telemetry.dives_attempted)
            metrics.inc("ilp.bb.dive_hits", telemetry.dives_succeeded)
            metrics.observe("ilp.bb.max_depth", float(telemetry.max_depth))
            if result.gap is not None:
                metrics.set_gauge("ilp.bb.final_gap", result.gap)
            return result

    def _solve(self, model: Model) -> SolveResult:
        telemetry = SolveTelemetry()
        deadline = (time.monotonic() + self.max_seconds
                    if self.max_seconds is not None else None)
        lp = LpRelaxationSolver(model)
        sense_mult = 1.0 if model.sense is Sense.MINIMIZE else -1.0

        root = lp.solve()
        telemetry.lp_iterations += root.iterations
        if root.status is SolveStatus.INFEASIBLE:
            return SolveResult(SolveStatus.INFEASIBLE, None, {},
                               telemetry=telemetry)
        if root.status is SolveStatus.UNBOUNDED:
            return SolveResult(SolveStatus.UNBOUNDED, None, {},
                               telemetry=telemetry)
        assert root.objective is not None

        # Branching weights depend only on the objective: compute them
        # once per solve, not once per node.
        branch_weights = [
            (var, 1.0 + abs(model.objective.coefficient(var)))
            for var in model.integer_variables
        ]
        incumbent = self._rounding_heuristic(model, lp, root, sense_mult)
        if incumbent is not None:
            telemetry.incumbent_updates += 1
        warm = self._warm_incumbent(model, root, sense_mult)
        if warm is not None and (
            incumbent is None
            or warm.objective_key < incumbent.objective_key
        ):
            # How much the warm point tightened the pruning cutoff
            # over the cold start the rounding heuristic would give.
            improvement = (
                incumbent.objective_key - warm.objective_key
                if incumbent is not None else 0.0
            )
            incumbent = warm
            telemetry.incumbent_updates += 1
            metrics.inc("ilp.warm_start.hits")
            metrics.observe("ilp.warm_start.bound_improvement",
                            improvement)

        # Trajectory sampling: every incumbent update is recorded;
        # bound progress is sampled every `stride` nodes, doubling the
        # stride whenever the trajectory hits its size cap.
        stride = 1

        def record_point(nodes: int, bound_key: float | None) -> None:
            nonlocal stride
            telemetry.trajectory.append((
                nodes,
                incumbent.objective if incumbent is not None else None,
                bound_key * sense_mult if bound_key is not None else None,
            ))
            if len(telemetry.trajectory) >= TRAJECTORY_LIMIT:
                del telemetry.trajectory[1::2]
                stride *= 2

        root_key = sense_mult * root.objective
        record_point(0, root_key)

        counter = itertools.count()
        heap: list[tuple[float, int, dict, int]] = []
        heapq.heappush(heap, (root_key, next(counter), {}, 0))
        nodes = 0
        proven_key: float | None = None
        while heap:
            bound_key, _, overrides, depth = heapq.heappop(heap)
            if incumbent is not None:
                cutoff = incumbent.objective_key - self.absolute_gap
                if self.relative_gap > 0.0:
                    cutoff = min(
                        cutoff,
                        incumbent.objective_key
                        - self.relative_gap
                        * abs(incumbent.objective_key),
                    )
                if bound_key >= cutoff:
                    # Best-bound first: nothing better remains.  The
                    # global dual bound is the tighter of the incumbent
                    # (a feasible point) and the best remaining node
                    # bound — only a relative/absolute gap setting can
                    # leave the latter below the incumbent.
                    proven_key = min(bound_key,
                                     incumbent.objective_key)
                    break
            nodes += 1
            if depth > telemetry.max_depth:
                telemetry.max_depth = depth
            if nodes > self.max_nodes:
                # The popped node carries the best remaining bound.
                telemetry.best_bound = bound_key * sense_mult
                record_point(nodes, bound_key)
                return self._finish(SolveStatus.NODE_LIMIT, incumbent,
                                    nodes, telemetry)
            if deadline is not None and time.monotonic() > deadline:
                telemetry.best_bound = bound_key * sense_mult
                record_point(nodes, bound_key)
                return self._finish(SolveStatus.TIME_LIMIT, incumbent,
                                    nodes, telemetry)
            if nodes % stride == 0:
                record_point(nodes, bound_key)

            solution = lp.solve(overrides)
            telemetry.lp_iterations += solution.iterations
            if solution.status is not SolveStatus.OPTIMAL:
                continue
            assert solution.objective is not None
            node_key = sense_mult * solution.objective
            if incumbent is not None and \
                    node_key >= incumbent.objective_key - self.absolute_gap:
                continue

            fractional = self._branching_variable(branch_weights,
                                                  solution)
            if fractional is None:
                incumbent = _Incumbent(node_key, solution.objective,
                                       dict(solution.values))
                telemetry.incumbent_updates += 1
                record_point(nodes, bound_key)
                continue

            # Periodic diving heuristic: fix the integers at their
            # rounded values, re-solve the LP for the continuous
            # variables, and keep the point if feasible.  Strong
            # incumbents early mean aggressive pruning later.
            if nodes % 32 == 1:
                dived = self._try_dive(model, lp, solution, sense_mult,
                                       telemetry)
                if dived is not None and (
                    incumbent is None
                    or dived.objective_key < incumbent.objective_key
                ):
                    incumbent = dived
                    telemetry.incumbent_updates += 1
                    record_point(nodes, bound_key)

            variable, value = fractional
            low, high = overrides.get(
                variable, (variable.lower, variable.upper)
            )
            floor_child = dict(overrides)
            floor_child[variable] = (low, math.floor(value))
            ceil_child = dict(overrides)
            ceil_child[variable] = (math.ceil(value), high)
            for child in (floor_child, ceil_child):
                heapq.heappush(
                    heap, (node_key, next(counter), child, depth + 1)
                )

        if incumbent is None:
            return SolveResult(SolveStatus.INFEASIBLE, None, {},
                               nodes_explored=nodes, telemetry=telemetry)
        # Proven optimal: the dual bound is the last popped bound when
        # the cutoff fired, else the search space is exhausted and the
        # incumbent itself is the bound.
        telemetry.best_bound = (
            proven_key * sense_mult if proven_key is not None
            else incumbent.objective
        )
        record_point(nodes, proven_key if proven_key is not None
                     else incumbent.objective_key)
        return self._finish(SolveStatus.OPTIMAL, incumbent, nodes,
                            telemetry)

    # ------------------------------------------------------------------

    @staticmethod
    def _finish(status: SolveStatus, incumbent: _Incumbent | None,
                nodes: int, telemetry: SolveTelemetry) -> SolveResult:
        telemetry.nodes = nodes
        if incumbent is None:
            return SolveResult(status, None, {}, nodes_explored=nodes,
                               best_bound=telemetry.best_bound,
                               telemetry=telemetry)
        clean = {
            var: (round(val) if var.is_integer else val)
            for var, val in incumbent.values.items()
        }
        return SolveResult(status, incumbent.objective, clean,
                           nodes_explored=nodes,
                           best_bound=telemetry.best_bound,
                           telemetry=telemetry)

    @staticmethod
    def _branching_variable(
        branch_weights: list[tuple[Variable, float]],
        solution: LpSolution,
    ) -> tuple[Variable, float] | None:
        """Pick a fractional integer variable to branch on.

        Fractionality is weighted by ``1 + |objective coefficient|``
        (*branch_weights*, a cheap pseudo-cost proxy): fixing a
        variable the objective cares about moves the node bounds
        further, pruning earlier.
        """
        best: tuple[Variable, float] | None = None
        best_score = 0.0
        values = solution.values
        for variable, weight in branch_weights:
            value = values[variable]
            distance = abs(value - round(value))
            if distance <= INTEGRALITY_TOLERANCE:
                continue
            score = distance * weight
            if score > best_score:
                best_score = score
                best = (variable, value)
        return best

    @staticmethod
    def _try_dive(model: Model, lp: LpRelaxationSolver,
                  solution: LpSolution, sense_mult: float,
                  telemetry: SolveTelemetry) -> _Incumbent | None:
        """Fix integers at rounded values, re-solve for the rest."""
        telemetry.dives_attempted += 1
        overrides = {}
        for var in model.integer_variables:
            value = float(round(solution.values[var]))
            value = min(max(value, var.lower), var.upper)
            overrides[var] = (value, value)
        fixed = lp.solve(overrides)
        telemetry.lp_iterations += fixed.iterations
        if fixed.status is not SolveStatus.OPTIMAL:
            return None
        assert fixed.objective is not None
        if not model.is_feasible(fixed.values):
            return None
        telemetry.dives_succeeded += 1
        return _Incumbent(sense_mult * fixed.objective, fixed.objective,
                          dict(fixed.values))

    def _warm_incumbent(
        self,
        model: Model,
        root: LpSolution,
        sense_mult: float,
    ) -> _Incumbent | None:
        """Evaluate the caller-supplied warm-start point, if any.

        Values are looked up by variable name; variables the caller
        did not pin fall back to their (rounded) root-LP value.  An
        infeasible point is silently discarded — a warm start is an
        optimisation, never a correctness input.
        """
        if not self.warm_start:
            return None
        candidate: dict[Variable, float] = {}
        for var in model.variables:
            value = self.warm_start.get(var.name)
            if value is None:
                value = root.values[var]
            value = float(value)
            if var.is_integer:
                value = float(round(value))
            candidate[var] = min(max(value, var.lower), var.upper)
        if not model.is_feasible(candidate):
            return None
        objective = model.objective.evaluate(candidate)
        return _Incumbent(sense_mult * objective, objective, candidate)

    def _rounding_heuristic(
        self,
        model: Model,
        lp: LpRelaxationSolver,
        root: LpSolution,
        sense_mult: float,
    ) -> _Incumbent | None:
        """Try to build a feasible integral point from the root LP."""
        candidates: list[dict[Variable, float]] = []

        rounded = {
            var: (float(round(val)) if var.is_integer else val)
            for var, val in root.values.items()
        }
        candidates.append(rounded)
        # For problems where pushing every binary to one of its bounds is
        # feasible (the CASA ILP's "all objects stay in cache" point).
        for bound_attr in ("upper", "lower"):
            point = {}
            usable = True
            for var in model.variables:
                value = getattr(var, bound_attr)
                if not math.isfinite(value):
                    usable = False
                    break
                point[var] = float(value)
            if usable:
                candidates.append(point)

        best: _Incumbent | None = None
        for candidate in candidates:
            if not model.is_feasible(candidate):
                continue
            objective = model.objective.evaluate(candidate)
            key = sense_mult * objective
            if best is None or key < best.objective_key:
                best = _Incumbent(key, objective, dict(candidate))
        return best
