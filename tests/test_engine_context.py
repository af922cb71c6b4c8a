"""The run context: one value that installs, ships and merges all slots."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.engine.context import RunContext
from repro.engine.grid import GridChunk
from repro.engine.parallel import map_points
from repro.engine.runner import RunRecord
from repro.engine.store import ArtifactStore
from repro.obs.events import EventRecorder
from repro.obs.live import ProgressBus
from repro.obs.logging import RunLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceCollector
from repro.resilience.faults import FaultPlan


def full_context(tmp_path, label: str) -> RunContext:
    """A context with every one of the seven slots filled."""
    return RunContext(
        store=ArtifactStore(),
        fault_plan=FaultPlan(),
        collector=TraceCollector(),
        registry=MetricsRegistry(),
        recorder=EventRecorder(),
        sink=ProgressBus(run_id=label),
        run_log=RunLog(str(tmp_path / f"{label}.log"), run_id=label),
    )


def slots(context: RunContext) -> tuple:
    """Identity of every slot, for exact restore comparisons."""
    return (context.store, context.fault_plan, context.collector,
            context.registry, context.recorder, context.sink,
            context.run_log)


class TestInstalled:
    def test_installs_all_seven_slots(self, tmp_path):
        context = full_context(tmp_path, "outer")
        with context.installed():
            assert slots(RunContext.current()) == slots(context)

    def test_restores_all_seven_after_an_exception(self, tmp_path):
        before = RunContext.current()
        with pytest.raises(RuntimeError):
            with full_context(tmp_path, "outer").installed():
                raise RuntimeError("boom")
        assert slots(RunContext.current()) == slots(before)

    def test_nested_contexts_restore_in_order(self, tmp_path):
        before = RunContext.current()
        outer = full_context(tmp_path, "outer")
        inner = full_context(tmp_path, "inner")
        with outer.installed():
            with pytest.raises(ValueError):
                with inner.installed():
                    assert slots(RunContext.current()) == slots(inner)
                    raise ValueError("inner failure")
            assert slots(RunContext.current()) == slots(outer)
        assert slots(RunContext.current()) == slots(before)

    def test_replace_keeps_unnamed_slots(self, tmp_path):
        outer = full_context(tmp_path, "outer")
        registry = MetricsRegistry()
        with outer.installed():
            derived = RunContext.current().replace(registry=registry)
        assert derived.registry is registry
        assert derived.collector is outer.collector
        assert derived.store is outer.store


class TestWorkerSpec:
    def test_spec_is_picklable_and_carries_the_store_backend(
            self, tmp_path):
        context = RunContext(
            store=ArtifactStore(backend="memory:4096"),
            fault_plan=FaultPlan.from_spec("store.read:error@nth=1"),
            collector=TraceCollector(),
        )
        spec = pickle.loads(pickle.dumps(context.worker_spec()))
        assert spec.store[0] is None and spec.store[2] == 4096
        assert spec.fault_spec == context.fault_plan.spec()
        assert spec.trace and not spec.metrics and not spec.events
        disk = RunContext(store=ArtifactStore(cache_dir=tmp_path))
        assert disk.worker_spec().store[0] == f"disk:{tmp_path}"

    def test_unnamed_backend_object_cannot_cross_processes(self):
        from repro.engine.store import KeyValueBackend

        store = ArtifactStore(backend=KeyValueBackend())
        assert RunContext(store=store).worker_spec() is None


#: Two units that share no stage: a parallel run computes exactly what
#: a serial one does, so the merged payloads must agree.
UNITS = [
    GridChunk("tiny", (64, 128), "casa", scale=0.2, seed=0),
    GridChunk("tiny", (64,), "steinke", scale=0.2, seed=1),
]


def observed_run(tmp_path, jobs: int) -> dict:
    """One map under trace, metrics, events and a run log."""
    context = RunContext.current().replace(
        store=ArtifactStore(),
        collector=TraceCollector(),
        registry=MetricsRegistry(),
        recorder=EventRecorder(),
        run_log=RunLog(str(tmp_path / f"jobs{jobs}.log"),
                       run_id=f"jobs{jobs}"),
    )
    record = RunRecord()
    with context.installed():
        results = map_points(UNITS, jobs=jobs, record=record)
    context.run_log.close()
    lines = [json.loads(line) for line in
             (tmp_path / f"jobs{jobs}.log").read_text().splitlines()]
    return {
        "energies": [[r.energy.total for r in unit] for unit in results],
        "record": {stage: (counts["computed"], counts["hits"])
                   for stage, counts in record.as_dict().items()},
        "spans": [event.name for event in context.collector.events()],
        # Timings differ run to run; gauges keep the last write, which
        # is per unit in a worker and per run in the serial path.
        "metrics": {
            name: data
            for name, data in context.registry.snapshot().items()
            if not name.endswith(".seconds") and data["type"] != "gauge"
        },
        "events": context.recorder.total_events,
        "computed": sorted(line["stage"] for line in lines
                           if line["event"] == "stage.computed"),
        "sources": {line["source"].split("-")[0] for line in lines},
        "run_ids": {line["run_id"] for line in lines},
    }


def test_pooled_payloads_merge_like_a_serial_run(tmp_path):
    serial = observed_run(tmp_path, jobs=1)
    pooled = observed_run(tmp_path, jobs=2)
    for key in ("energies", "record", "spans", "metrics", "events",
                "computed"):
        assert pooled[key] == serial[key], key
    assert serial["events"] > 0 and serial["spans"]
    assert pooled["sources"] == {"main", "worker"}
    assert pooled["run_ids"] == {"jobs2"}
