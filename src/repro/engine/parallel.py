"""Parallel work-unit execution over ``concurrent.futures``.

The engine schedules one kind of work unit, the
:class:`~repro.engine.grid.GridChunk`: one allocator over a capacity
axis of one workload configuration (a single design point is a
one-size chunk).  :func:`map_points` fans a list of chunks across a
process pool (sweeps are embarrassingly parallel per chunk), falls
back to serial execution when a pool cannot be created, and always
returns results in the order of the input chunks, so parallel output
is indistinguishable from serial output.

Workers run under the parent's :class:`~repro.engine.context.RunContext`,
shipped as one :class:`~repro.engine.context.WorkerSpec`: the same
artifact-store backend (so the expensive allocation-independent stages
are computed once per workbench configuration no matter which worker
gets there first), the same fault plan, heartbeats and run log.  Each
unit returns one :class:`~repro.engine.context.WorkerPayload`, and
:meth:`~repro.engine.context.RunContext.merge` folds the payloads back
in input order.
"""

from __future__ import annotations

import concurrent.futures
import concurrent.futures.process
import pickle
import shutil
import tempfile
import time
from typing import TYPE_CHECKING

from repro.engine.context import RunContext, WorkerPayload, WorkerSpec
from repro.engine.grid import CHUNK_ALGORITHMS, GridChunk, evaluate_chunk
from repro.engine.runner import RunRecord, StageRunner
from repro.errors import ConfigurationError, InjectedFault
from repro.resilience.faults import maybe_inject, set_fault_attempt
from repro.obs import live
from repro.obs.logging import log_event
from repro.obs.metrics import active_registry

if TYPE_CHECKING:
    from repro.core.pipeline import ExperimentResult


def _check_algorithms(units: list[GridChunk]) -> None:
    """Reject an unknown allocator before any work is scheduled."""
    for unit in units:
        if unit.algorithm not in CHUNK_ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {unit.algorithm!r}; choose from "
                f"{CHUNK_ALGORITHMS}"
            )


def _describe_unit(unit: GridChunk) -> str:
    """Short label of a work unit for progress notes and errors."""
    axis = "+".join(str(size) for size in unit.spm_sizes)
    return f"{unit.workload}/{unit.algorithm}@[{axis}]"


def _evaluate_unit(unit: GridChunk, runner: StageRunner | None = None
                   ) -> list["ExperimentResult"]:
    """Evaluate one work unit: the engine's unit boundary.

    Besides evaluating the chunk, this carries the live
    instrumentation: unit start/finish notes to the active progress
    sink (stall detection keys off the start note) and a per-unit
    wall-time observation into the ``chunk.evaluate.seconds``
    percentile histogram.  Both are free when no sink and no registry
    are installed.
    """
    registry = active_registry()
    if live.active_sink() is None and registry is None:
        return evaluate_chunk(unit, runner=runner)
    label = _describe_unit(unit)
    live.note_unit_started(label)
    start = time.perf_counter()
    try:
        result = evaluate_chunk(unit, runner=runner)
    finally:
        seconds = time.perf_counter() - start
        if registry is not None:
            registry.histogram("chunk.evaluate.seconds").observe(seconds)
        live.note_unit_finished(label, seconds)
    return result


#: The worker process's context spec, set by the pool initializer.
_WORKER_SPEC: WorkerSpec | None = None


def _init_worker(spec: WorkerSpec) -> None:
    """Process-pool initializer: install the parent's run context.

    The spec makes the behaviour start-method independent: under
    ``fork`` or ``spawn`` alike, each worker builds its own store over
    the parent's backend, replays the parent's fault plan with fresh
    rule state, beats into the parent's heartbeat directory and
    appends to the parent's run log under the same ``run_id``.
    """
    global _WORKER_SPEC
    _WORKER_SPEC = spec
    spec.install()


def _evaluate_in_worker(task: tuple[GridChunk, int]) -> WorkerPayload:
    """Worker-side evaluation of one work unit.

    *task* is ``(unit, attempt)``; *attempt* is the retry attempt the
    self-healing layer is on (0 for plain :func:`map_points`).  The
    unit runs under fresh trace/metrics/event instruments where the
    parent had them, and their contents ride back in the payload.
    """
    unit, attempt = task
    assert _WORKER_SPEC is not None
    set_fault_attempt(attempt)
    context = _WORKER_SPEC.unit_context()
    record = RunRecord()
    with context.installed():
        result = _evaluate_unit(unit, runner=StageRunner(record=record))
    return context.payload(result, record)


def _start_pool(jobs: int, spec: WorkerSpec
                ) -> concurrent.futures.ProcessPoolExecutor:
    """A worker pool whose initializer is known to have succeeded.

    One round trip proves the workers could install *spec* (a backend
    name unknown to a worker breaks the pool here, before any unit is
    scheduled); the caller then falls back to serial execution.
    """
    maybe_inject("worker.spawn", jobs=jobs)
    pool = concurrent.futures.ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=(spec,),
    )
    try:
        pool.submit(int).result()
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    return pool


def _setup_worker_live() -> tuple[str | None, "live.ProgressBus | None"]:
    """Create a heartbeat directory when a progress bus is installed.

    Returns ``(heartbeat_dir, bus)`` — both ``None`` when live
    telemetry is off (the common case), in which case nothing is
    created and the pool initializer receives ``None``.
    """
    sink = live.active_sink()
    if not isinstance(sink, live.ProgressBus):
        return None, None
    directory = tempfile.mkdtemp(prefix="repro-hb-")
    sink.attach_heartbeat_dir(directory)
    return directory, sink


def _teardown_worker_live(directory: str | None,
                          bus: "live.ProgressBus | None",
                          absorb: bool) -> None:
    """Detach and remove a pooled map's heartbeat directory.

    With ``absorb=True`` (pool completed and its metric payloads were
    merged) the workers' final done-counts fold into the bus so
    progress stays monotone after the files disappear; with ``False``
    (pool failed, serial fallback re-runs everything) the partial
    counts are discarded.
    """
    if directory is None or bus is None:
        return
    if absorb:
        bus.detach_heartbeat_dir()
    else:
        bus.attach_heartbeat_dir(None)
    shutil.rmtree(directory, ignore_errors=True)


def _run_serial(units: list[GridChunk],
                runner: StageRunner | None,
                record: RunRecord | None) -> list[list["ExperimentResult"]]:
    if runner is None:
        runner = StageRunner(record=record)
    return [_evaluate_unit(unit, runner=runner) for unit in units]


def map_points(
    points: list[GridChunk] | tuple[GridChunk, ...],
    jobs: int = 1,
    runner: StageRunner | None = None,
    record: RunRecord | None = None,
) -> list[list["ExperimentResult"]]:
    """Evaluate work units, optionally across a process pool.

    Args:
        points: :class:`~repro.engine.grid.GridChunk` work units, in
            the order results are wanted.
        jobs: worker processes; ``<= 1`` runs serially in-process.
        runner: stage runner for the serial path (ignored when a pool
            is used — each worker builds its own).
        record: run record that receives the merged per-stage counters
            from every worker (or the serial runner).

    Returns:
        One result list per unit (one
        :class:`~repro.core.pipeline.ExperimentResult` per capacity of
        its axis), in input order — identical to a serial run.

    Raises:
        ConfigurationError: for an unknown algorithm.
    """
    units = list(points)
    _check_algorithms(units)
    live.note_total(len(units))
    log_event("map.start", units=len(units), jobs=jobs)
    if jobs <= 1 or len(units) <= 1:
        return _run_serial(units, runner, record)

    heartbeat_dir, bus = _setup_worker_live()
    context = RunContext.current()
    spec = context.worker_spec()
    payloads = None
    if spec is not None:
        try:
            with _start_pool(min(jobs, len(units)), spec) as pool:
                payloads = list(pool.map(
                    _evaluate_in_worker, [(unit, 0) for unit in units]))
        except (OSError, concurrent.futures.process.BrokenProcessPool,
                pickle.PicklingError, InjectedFault):
            pass
    if payloads is None:
        # No usable multiprocessing (restricted sandbox, unpicklable
        # payload, a store the workers cannot rebuild...): degrade to
        # the serial path, same results.
        _teardown_worker_live(heartbeat_dir, bus, absorb=False)
        log_event("map.fallback", mode="serial", units=len(units))
        return _run_serial(units, runner, record)
    context.merge(payloads, record)
    _teardown_worker_live(heartbeat_dir, bus, absorb=True)
    log_event("map.done", units=len(units), jobs=jobs)
    return [payload.result for payload in payloads]
