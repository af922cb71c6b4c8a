"""Outside-in layer ledger: spans around each layer's public entry points.

:class:`Tracer` wraps the public entry point of every pipeline layer
from the outside — functions where they are *bound* (every module that
did ``from x import f`` holds its own name), methods on their class —
and records one span per call: name, start, end, parent span and the
identifier of the request or design point it served.  Spans stay in
memory; :meth:`Tracer.dump` writes them out once the run has ended.

A layer's *self time* is the part of the measured window in which its
span is the innermost open one.  For properly nested spans that is the
span's duration minus the part of it that child spans cover, and it
holds across threads as long as calls do not overlap (one caller at a
time), which is how every ledger window is run.  Whatever no span
covers is reported as ``unattributed_s``.
"""

from __future__ import annotations

import contextvars
import functools
import heapq
import importlib
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from common import digest

#: ``(span name, module, function)`` — functions wrapped where bound.
FUNCTIONS = (
    ("workloads.build", "repro.workloads.registry", "get_workload"),
    ("program.execute", "repro.program.executor", "execute_program"),
    ("traces.tracegen", "repro.traces.tracegen", "generate_traces"),
    ("memory.kernel.compile", "repro.memory.kernel.stream",
     "compile_stream"),
    ("memory.kernel.replay", "repro.memory.kernel.vector",
     "simulate_stream"),
    ("memory.kernel.replay", "repro.memory.kernel.grid", "simulate_grid"),
    ("energy", "repro.energy.model", "compute_energy"),
    ("serve.compute", "repro.resilience.healing", "map_points_healed"),
    ("serve.decode", "repro.serve.schema", "request_from_json"),
)

#: ``(span name, module, class, method)`` — methods wrapped on the class.
METHODS = (
    ("traces.layout", "repro.traces.layout", "LinkedImage", "__init__"),
    ("memory.reference", "repro.memory.hierarchy",
     "InstructionMemorySimulator", "run"),
    ("core.conflict_graph", "repro.core.conflict_graph", "ConflictGraph",
     "from_simulation"),
    ("core.allocate.casa", "repro.core.casa", "CasaAllocator", "allocate"),
    ("core.allocate.steinke", "repro.core.steinke", "SteinkeAllocator",
     "allocate"),
    ("core.allocate.ross", "repro.core.ross", "RossLoopCacheAllocator",
     "allocate"),
    ("ilp.lp", "repro.ilp.scipy_backend", "LpRelaxationSolver", "solve"),
    ("ilp.search", "repro.ilp.branch_and_bound", "BranchAndBoundSolver",
     "solve"),
    ("engine.store.get", "repro.engine.store", "ArtifactStore", "get"),
    ("engine.store.put", "repro.engine.store", "ArtifactStore", "put"),
    ("serve.admit", "repro.serve.admission", "AdmissionController",
     "try_admit"),
    ("serve.queue_wait", "repro.serve.batching", "MicroBatcher", "submit"),
    ("serve.handle", "repro.serve.service", "AllocationService", "handle"),
) + tuple(
    ("serve.encode", "repro.serve.schema", cls, "to_json")
    for cls in ("SimulateResponse", "ConflictGraphResponse",
                "AllocateResponse", "EvaluateResponse", "SweepResponse",
                "ErrorResponse", "ShedResponse")
)

#: Client-side span of one HTTP request (recorded by the client).
CLIENT_SPAN = "serve.http"

#: Span name → ledger metric of its self time (default ``<name>.self_s``).
SELF_METRIC = {
    "engine.store.get": "engine.store.get_s",
    "engine.store.put": "engine.store.put_s",
    "serve.queue_wait": "serve.queue_wait_s",
}

#: Every self-time metric the ledger reports, in pipeline order.
SELF_METRICS = tuple(dict.fromkeys(
    SELF_METRIC.get(name, f"{name}.self_s")
    for name in [entry[0] for entry in FUNCTIONS + METHODS]
    + [CLIENT_SPAN]
))

#: Counts taken from the wrapped calls' public return values.
COUNT_METRICS = ("program.blocks", "memory.kernel.fetches",
                 "memory.reference.fetches", "ilp.lp.calls", "ilp.nodes",
                 "workloads.built")


def _fetches(result) -> int:
    if isinstance(result, list):
        return sum(report.total_fetches for report in result)
    return result.total_fetches


#: Span name → ``(count metric, value from the call's return value)``.
COUNTERS = {
    "program.execute": ("program.blocks",
                        lambda result: result.num_block_executions),
    "memory.kernel.replay": ("memory.kernel.fetches", _fetches),
    "memory.reference": ("memory.reference.fetches", _fetches),
    "ilp.lp": ("ilp.lp.calls", lambda result: 1),
    "ilp.search": ("ilp.nodes", lambda result: result.nodes_explored),
    "workloads.build": ("workloads.built", lambda result: 1),
}

#: Identifier of the request or design point the current call serves.
OPERATION = contextvars.ContextVar("perfbench_operation", default=None)

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)


@dataclass
class Span:
    """One recorded call."""

    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    operation: str | None
    thread: str


class Tracer:
    """Installs the layer wrappers and keeps their spans in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {name: 0 for name in COUNT_METRICS}
        self._lock = threading.Lock()
        self._next = 0
        self._undo: list = []

    # -- recording ----------------------------------------------------------

    def record(self, name: str, start: float, end: float,
               operation: str | None = None) -> None:
        """Append one finished span timed by the caller."""
        self._append(self._new_id(), name, start, end, None, operation)

    def _new_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    def _append(self, sid: int, name: str, start: float, end: float,
                parent: int | None, operation: str | None) -> None:
        span = Span(sid, name, start, end, parent, operation,
                    threading.current_thread().name)
        with self._lock:
            self.spans.append(span)

    def _count(self, name: str, result) -> None:
        counter = COUNTERS.get(name)
        if counter is None or result is None:
            return
        metric, value = counter
        amount = value(result)
        with self._lock:
            self.counts[metric] += amount

    def _wrap(self, name: str, func):
        tracer = self

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def async_wrapper(*args, **kwargs):
                parent, sid = _CURRENT.get(), tracer._new_id()
                token = _CURRENT.set(sid)
                start = time.perf_counter()
                try:
                    return await func(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    _CURRENT.reset(token)
                    tracer._append(sid, name, start, end, parent,
                                   OPERATION.get())
            return async_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if name == "serve.decode":
                # The rest of this request's task inherits its id.
                OPERATION.set(digest(args[0]))
            parent, sid = _CURRENT.get(), tracer._new_id()
            token = _CURRENT.set(sid)
            start = time.perf_counter()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
                tracer._append(sid, name, start, end, parent,
                               OPERATION.get())
                tracer._count(name, result)
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer entry point (imports the modules first)."""
        for name, module_name, attr in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for holder in list(sys.modules.values()):
                if getattr(holder, "__name__", "").split(".")[0] \
                        != "repro":
                    continue
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._undo.append((holder, key, original))
        for name, module_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            raw = cls.__dict__.get(attr)
            if raw is None:
                # Inherited: wrap the resolved function on this class.
                func = getattr(cls, attr)
                setattr(cls, attr, self._wrap(name, func))
                self._undo.append((cls, attr, None))
            elif isinstance(raw, classmethod):
                setattr(cls, attr,
                        classmethod(self._wrap(name, raw.__func__)))
                self._undo.append((cls, attr, raw))
            else:
                setattr(cls, attr, self._wrap(name, raw))
                self._undo.append((cls, attr, raw))

    def uninstall(self) -> None:
        """Restore every wrapped binding."""
        for holder, key, original in reversed(self._undo):
            if original is None:
                delattr(holder, key)
            else:
                setattr(holder, key, original)
        self._undo = []

    # -- output -------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (after the run ends)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(span.__dict__) + "\n")


def self_times(spans: list[Span], window_start: float,
               window_end: float) -> dict[str, float]:
    """Per-span-name self time inside ``[window_start, window_end]``.

    Sweeps the window once; each slice of time goes to the innermost
    open span (the one that started last).
    """
    events = []
    for span in spans:
        start = max(span.start, window_start)
        end = min(span.end, window_end)
        if end <= start:
            continue
        events.append((start, 1, span.sid, span))
        events.append((end, 0, span.sid, span))
    events.sort(key=lambda event: (event[0], event[1]))
    totals: dict[str, float] = {}
    open_heap: list[tuple[float, int, Span]] = []
    closed: set[int] = set()
    previous = window_start
    for moment, is_start, sid, span in events:
        while open_heap and open_heap[0][1] in closed:
            heapq.heappop(open_heap)
        if open_heap and moment > previous:
            inner = open_heap[0][2]
            totals[inner.name] = totals.get(inner.name, 0.0) \
                + (moment - previous)
        previous = max(previous, moment)
        if is_start:
            heapq.heappush(open_heap, (-span.start, sid, span))
        else:
            closed.add(sid)
    return totals


def ledger(spans: list[Span], window_start: float, window_end: float
           ) -> dict[str, float]:
    """Every self-time metric plus ``unattributed_s`` for one window."""
    totals = self_times(spans, window_start, window_end)
    out = {metric: 0.0 for metric in SELF_METRICS}
    for name, seconds in totals.items():
        out[SELF_METRIC.get(name, f"{name}.self_s")] += seconds
    wall = window_end - window_start
    out["unattributed_s"] = wall - sum(totals.values())
    return out
