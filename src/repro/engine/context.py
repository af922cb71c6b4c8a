"""One run context: every process-wide instrument slot as one value.

A run is observed and steered through seven process-global slots —
the default artifact store, the fault plan, the trace collector, the
metrics registry, the cache event recorder, the live progress sink and
the structured run log.  Instrumented code reads each slot as one
module-global load plus a ``None`` check (that is what keeps disabled
telemetry free), so the slots themselves stay where they are.  This
module is the one place that *writes* them:

* :meth:`RunContext.current` snapshots all seven;
* :meth:`RunContext.replace` derives a variant (unnamed fields keep
  their current values);
* :meth:`RunContext.installed` writes all seven for a ``with`` block
  and restores the previous seven on exit, exceptions included;
* :meth:`RunContext.worker_spec` reduces the context to one picklable
  :class:`WorkerSpec` that a pool initializer turns back into a
  worker-side context (:meth:`WorkerSpec.install`);
* :meth:`RunContext.payload` packs one work unit's result with the
  unit's record counts, spans, metrics and events, and
  :meth:`RunContext.merge` folds such payloads back in input order.

The ``set_*`` functions of the slot modules remain the primitives
underneath (tests and outside harnesses may call them); inside the
package only this module does.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.engine import store as _store_module
from repro.engine.store import ArtifactStore, set_default_store
from repro.obs.events import EventRecorder, active_recorder, \
    set_recorder
from repro.obs.live import HeartbeatWriter, ProgressBus, active_sink, \
    set_progress_sink
from repro.obs.logging import RunLog, active_run_log, \
    install_from_spec, set_run_log
from repro.obs.metrics import MetricsRegistry, active_registry, \
    set_registry
from repro.obs.trace import TraceCollector, get_collector, set_collector
from repro.resilience.faults import FaultPlan, active_fault_plan, \
    set_fault_plan

if TYPE_CHECKING:
    from repro.engine.runner import RunRecord


@dataclass(frozen=True)
class WorkerPayload:
    """What one pooled work unit sends back to the parent.

    Attributes:
        result: the unit's result (a result list for a grid chunk).
        counts: the unit's :class:`~repro.engine.runner.RunRecord`
            counters (``RunRecord.as_dict``).
        spans: recorded span events, or ``None`` when tracing is off.
        metrics: metrics-registry snapshot, or ``None`` when off.
        events: cache event-recorder snapshot, or ``None`` when off.
    """

    result: Any
    counts: dict[str, dict[str, float]]
    spans: list[dict] | None = None
    metrics: dict[str, Any] | None = None
    events: dict[str, Any] | None = None


@dataclass(frozen=True)
class RunContext:
    """The seven process-wide instrument slots, as one frozen value.

    ``None`` in a field means the slot is empty: no tracing, no
    metrics, no fault injection and so on.  An empty ``store`` means
    the next :func:`~repro.engine.store.default_store` call creates
    one.
    """

    store: ArtifactStore | None = None
    fault_plan: FaultPlan | None = None
    collector: TraceCollector | None = None
    registry: MetricsRegistry | None = None
    recorder: EventRecorder | None = None
    sink: ProgressBus | HeartbeatWriter | None = None
    run_log: RunLog | None = None

    @classmethod
    def current(cls) -> "RunContext":
        """Snapshot the seven slots as they are installed right now.

        Reads the default-store slot without creating a store, so a
        snapshot never changes what a later ``default_store()`` call
        builds.
        """
        return cls(
            store=_store_module._DEFAULT_STORE,
            fault_plan=active_fault_plan(),
            collector=get_collector(),
            registry=active_registry(),
            recorder=active_recorder(),
            sink=active_sink(),
            run_log=active_run_log(),
        )

    def replace(self, **changes: Any) -> "RunContext":
        """A copy with the named slots changed and the rest kept."""
        return dataclasses.replace(self, **changes)

    def _write(self) -> None:
        set_default_store(self.store)
        set_fault_plan(self.fault_plan)
        set_collector(self.collector)
        set_registry(self.registry)
        set_recorder(self.recorder)
        set_progress_sink(self.sink)
        set_run_log(self.run_log)

    @contextmanager
    def installed(self) -> Iterator["RunContext"]:
        """Install all seven slots; restore the previous ones on exit."""
        previous = RunContext.current()
        self._write()
        try:
            yield self
        finally:
            previous._write()

    # -- worker processes ---------------------------------------------------

    def worker_spec(self) -> "WorkerSpec | None":
        """The picklable form of this context for pool workers.

        The store travels as its backend spec (plus the memory tier's
        limits), the fault plan as its spec string, the run log as
        ``(path, run_id)``; tracing, metrics and event recording
        travel as flags, because every unit gets fresh instruments
        whose contents come back in its :class:`WorkerPayload`.
        Workers report liveness through heartbeat files when the
        progress sink is a bus with a heartbeat directory attached.

        Returns ``None`` when the store cannot be rebuilt in another
        process (its persistent tier is a ready backend object with
        no spec); schedulers then run serially.
        """
        store = None
        if self.store is not None:
            memory = self.store.memory_backend
            if self.store.persistent_backend is not None \
                    and self.store.backend_spec is None:
                return None
            store = (self.store.backend_spec, memory.max_items,
                     memory.max_bytes)
        plan = self.fault_plan
        log = self.run_log
        sink = self.sink
        return WorkerSpec(
            store=store,
            fault_spec=plan.spec() if plan is not None and plan.rules
            else None,
            trace=self.collector is not None,
            metrics=self.registry is not None,
            events=self.recorder is not None,
            heartbeat_dir=sink.heartbeat_dir
            if isinstance(sink, ProgressBus) else None,
            log=(log.path, log.run_id) if log is not None else None,
        )

    def payload(self, result: Any, record: "RunRecord") -> WorkerPayload:
        """Pack *result* with this context's recorded instruments."""
        return WorkerPayload(
            result=result,
            counts=record.as_dict(),
            spans=[event.as_json() for event in self.collector.events()]
            if self.collector is not None else None,
            metrics=self.registry.snapshot()
            if self.registry is not None else None,
            events=self.recorder.snapshot()
            if self.recorder is not None else None,
        )

    def merge(self, payloads: Iterable[WorkerPayload | None],
              record: "RunRecord | None" = None) -> None:
        """Fold worker payloads into this context, in input order.

        Skips ``None`` entries (units that produced no payload).  The
        order is the input order, not completion order, so the merged
        span, metric and event streams are deterministic no matter
        which worker finished first.
        """
        for payload in payloads:
            if payload is None:
                continue
            if record is not None:
                record.merge(payload.counts)
            if self.collector is not None and payload.spans:
                self.collector.merge(payload.spans)
            if self.registry is not None and payload.metrics:
                self.registry.merge(payload.metrics)
            if self.recorder is not None and payload.events:
                self.recorder.merge(payload.events)


@dataclass(frozen=True)
class WorkerSpec:
    """A :class:`RunContext` reduced to what crosses a process boundary.

    Built by :meth:`RunContext.worker_spec`; see there for the fields.
    """

    store: tuple[str | None, int, int | None] | None = None
    fault_spec: str | None = None
    trace: bool = False
    metrics: bool = False
    events: bool = False
    heartbeat_dir: str | None = None
    log: tuple[str, str] | None = None

    def install(self) -> None:
        """Install the worker-side context for this process's lifetime.

        Runs in a pool initializer.  Each slot gets a process-local
        rebuild: a store over the same backend, a fault plan with
        fresh rule state, a heartbeat writer, and the parent's log
        file reopened in append mode under the same ``run_id``
        (:func:`~repro.obs.logging.install_from_spec`).

        Raises:
            UnknownBackendError: if the store's backend name is not
                registered in this process (the pool breaks, and the
                scheduler falls back to serial execution).
        """
        store = None
        if self.store is not None:
            backend, items, budget = self.store
            store = ArtifactStore(memory_items=items, backend=backend,
                                  memory_bytes=budget)
        RunContext(
            store=store,
            fault_plan=FaultPlan.from_spec(self.fault_spec)
            if self.fault_spec else None,
            sink=HeartbeatWriter(self.heartbeat_dir)
            if self.heartbeat_dir else None,
        )._write()
        install_from_spec(self.log)

    def unit_context(self) -> RunContext:
        """The current context with fresh per-unit instruments."""
        return RunContext.current().replace(
            collector=TraceCollector() if self.trace else None,
            registry=MetricsRegistry() if self.metrics else None,
            recorder=EventRecorder() if self.events else None,
        )
