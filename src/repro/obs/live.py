"""Live telemetry: progress bus, heartbeats, watch/telemetry consumers.

Post-hoc spans and metrics answer "what happened"; this module answers
"what is happening *right now*" for multi-minute sweeps:

* a **progress-sink protocol** — module-level :func:`note_unit_started`
  / :func:`note_unit_finished` / :func:`note_phase` / :func:`note_total`
  helpers that instrumented code calls unconditionally; like spans and
  metrics they cost one global read and one ``None`` comparison when no
  sink is installed (:func:`set_progress_sink`);
* :class:`ProgressBus` — the parent-process sink: thread-safe unit
  done/total accounting, the current engine stage, and worker liveness
  with stall detection after a configurable heartbeat timeout;
* :class:`HeartbeatWriter` — the worker-process sink: writes one small
  atomic JSON heartbeat file per worker (unit boundaries and
  rate-limited phase changes) that the parent bus folds into its
  :meth:`ProgressBus.snapshot`, because pool workers only ship their
  span/metrics payload when a task *completes*;
* consumers of :class:`ProgressSnapshot` — :class:`WatchRenderer`
  (single-line in-terminal progress + ETA, ``--watch``),
  :class:`TelemetryWriter` (periodic ``telemetry.jsonl`` export,
  ``--telemetry``) and :func:`render_prometheus` (text exposition for
  the future ``repro serve`` scrape endpoint, ``--prom``).

Percentiles shown live come from two places merged at snapshot time:
the parent's active :class:`~repro.obs.metrics.MetricsRegistry` (serial
work) and the per-worker cumulative ``*.seconds`` histograms carried in
heartbeat files (pooled work, whose registries merge only at the end).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import threading
import time
from typing import Any, TextIO

from repro.obs import metrics as metrics_mod
from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = [
    "WorkerHealth",
    "ProgressSnapshot",
    "ProgressBus",
    "HeartbeatWriter",
    "TelemetryWriter",
    "WatchRenderer",
    "set_progress_sink",
    "active_sink",
    "note_unit_started",
    "note_unit_finished",
    "note_phase",
    "note_total",
    "render_prometheus",
    "format_watch_line",
]

#: Default seconds a worker's current unit may run before it is
#: flagged as stalled on the bus.
DEFAULT_STALL_TIMEOUT = 30.0

#: Suffix identifying duration histograms surfaced as live percentiles.
SECONDS_SUFFIX = ".seconds"


@dataclasses.dataclass
class WorkerHealth:
    """Liveness of one executor (``main`` or a pool worker)."""

    name: str
    units_done: int
    current: str | None
    busy_s: float
    beat_age_s: float
    status: str  # "ok" | "stalled" | "idle"

    def to_json(self) -> dict[str, Any]:
        """Plain-dict form for telemetry export."""
        return {
            "name": self.name,
            "units_done": self.units_done,
            "current": self.current,
            "busy_s": round(self.busy_s, 6),
            "beat_age_s": round(self.beat_age_s, 6),
            "status": self.status,
        }


@dataclasses.dataclass
class ProgressSnapshot:
    """One point-in-time view of a run's progress and health."""

    ts: float
    run_id: str | None
    stage: str | None
    done: int
    total: int
    elapsed_s: float
    rate_ups: float
    eta_s: float | None
    workers: list[WorkerHealth]
    percentiles: dict[str, dict[str, float]]
    counters: dict[str, float]

    @property
    def stalled(self) -> list[WorkerHealth]:
        """The workers currently flagged as stalled."""
        return [w for w in self.workers if w.status == "stalled"]

    def to_json(self) -> dict[str, Any]:
        """JSON-able dict, one ``telemetry.jsonl`` record."""
        return {
            "kind": "snapshot",
            "ts": round(self.ts, 6),
            "run_id": self.run_id,
            "stage": self.stage,
            "done": self.done,
            "total": self.total,
            "elapsed_s": round(self.elapsed_s, 6),
            "rate_ups": round(self.rate_ups, 6),
            "eta_s": None if self.eta_s is None else round(self.eta_s, 3),
            "workers": [w.to_json() for w in self.workers],
            "percentiles": self.percentiles,
            "counters": self.counters,
        }


def _summaries_from_registry(registry: MetricsRegistry
                             ) -> dict[str, dict[str, float]]:
    """p50/p90/p99/max summaries of every ``*.seconds`` histogram."""
    out: dict[str, dict[str, float]] = {}
    for name in registry.names():
        if not name.endswith(SECONDS_SUFFIX):
            continue
        histogram = registry.histogram(name)
        if not histogram.count:
            continue
        summary = histogram.summary()
        out[name[: -len(SECONDS_SUFFIX)]] = {
            key: round(value, 6) for key, value in summary.items()
        }
    return out


class ProgressBus:
    """Thread-safe progress accounting for one run (parent process).

    Engine code reports through the module-level sink helpers; live
    consumers poll :meth:`snapshot` from their own threads.  When a
    heartbeat directory is attached (pooled runs), worker heartbeat
    files contribute done-counts, current-unit liveness and duration
    histograms to every snapshot.
    """

    def __init__(self, run_id: str | None = None,
                 stall_timeout: float = DEFAULT_STALL_TIMEOUT) -> None:
        self.run_id = run_id
        self.stall_timeout = stall_timeout
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._done = 0
        self._total = 0
        self._stage: str | None = None
        self._phase: str | None = None
        self._current: str | None = None
        self._current_since = 0.0
        self._heartbeat_dir: str | None = None
        self._workers_final: bool = False

    # -- sink protocol ---------------------------------------------------

    def add_total(self, count: int) -> None:
        """Register *count* more scheduled units."""
        with self._lock:
            self._total += count

    def unit_started(self, label: str) -> None:
        """Mark *label* as the unit now executing in this process."""
        with self._lock:
            self._current = label
            self._current_since = time.monotonic()

    def unit_finished(self, label: str, seconds: float) -> None:
        """Mark one unit done (*seconds* of wall time)."""
        with self._lock:
            self._done += 1
            self._current = None

    def phase(self, name: str) -> None:
        """Record the fine-grained activity inside the current unit."""
        self._phase = name

    def stage(self, name: str) -> None:
        """Record the coarse engine stage currently running."""
        self._stage = name

    # -- heartbeat directory --------------------------------------------

    @property
    def heartbeat_dir(self) -> str | None:
        """The attached worker heartbeat directory, if any."""
        return self._heartbeat_dir

    def attach_heartbeat_dir(self, path: str | None) -> None:
        """Fold worker heartbeat files under *path* into snapshots."""
        with self._lock:
            self._heartbeat_dir = path
            self._workers_final = False

    def detach_heartbeat_dir(self) -> None:
        """Fold final worker done-counts in and stop scanning the dir.

        Called when a pooled map completes: the heartbeat files are
        about to be deleted, so their done-counts transfer to the
        bus's own counter (progress stays monotone) and their
        histograms stop contributing (the parent registry has merged
        the authoritative worker snapshots by now).
        """
        beats = self._read_heartbeats()
        with self._lock:
            for beat in beats:
                self._done += int(beat.get("units_done", 0))
            self._heartbeat_dir = None
            self._workers_final = True

    def finalize_workers(self) -> None:
        """Stop merging worker histograms (their registries are merged).

        Called after a pooled map completes and the parent registry has
        absorbed the workers' metric snapshots — from then on, merging
        heartbeat histograms as well would double-count.  Worker done
        counts and liveness stay visible.
        """
        with self._lock:
            self._workers_final = True

    def _read_heartbeats(self) -> list[dict[str, Any]]:
        directory = self._heartbeat_dir
        if directory is None:
            return []
        beats = []
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            return []
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(directory, name),
                          encoding="utf-8") as handle:
                    beats.append(json.load(handle))
            except (OSError, ValueError):
                continue  # mid-replace or already cleaned up
        return beats

    # -- snapshots -------------------------------------------------------

    def snapshot(self, registry: MetricsRegistry | None = None
                 ) -> ProgressSnapshot:
        """Current progress, worker health and live percentiles.

        *registry* is the run's active metrics registry (serial-path
        observations); worker-side observations arrive via heartbeat
        files until :meth:`finalize_workers`.
        """
        now_wall = time.time()
        now_mono = time.monotonic()
        with self._lock:
            done = self._done
            total = self._total
            stage = self._phase or self._stage
            current = self._current
            current_since = self._current_since
            elapsed = now_mono - self._started
            workers_final = self._workers_final
        beats = self._read_heartbeats()

        workers: list[WorkerHealth] = []
        busy = 0.0 if current is None else now_mono - current_since
        status = "idle" if current is None else (
            "stalled" if busy > self.stall_timeout else "ok")
        workers.append(WorkerHealth("main", done, current, busy,
                                    0.0, status))

        display = MetricsRegistry()
        if registry is not None:
            display.merge(registry.snapshot())
        for beat in beats:
            beat_done = int(beat.get("units_done", 0))
            done += beat_done
            beat_age = max(0.0, now_wall - float(beat.get("ts", now_wall)))
            beat_current = beat.get("current")
            started_at = beat.get("unit_started_at")
            if beat_current is not None and started_at is not None:
                beat_busy = max(0.0, now_wall - float(started_at))
                beat_status = ("stalled" if beat_busy > self.stall_timeout
                               else "ok")
            else:
                beat_busy = 0.0
                beat_status = "idle"
            workers.append(WorkerHealth(str(beat.get("name", "worker")),
                                        beat_done, beat_current,
                                        beat_busy, beat_age, beat_status))
            if not workers_final:
                display.merge(beat.get("hist", {}))

        rate = done / elapsed if elapsed > 0 and done else 0.0
        if total > done and rate > 0:
            eta: float | None = (total - done) / rate
        elif total and done >= total:
            eta = 0.0
        else:
            eta = None
        counters = display.counters()
        return ProgressSnapshot(
            ts=now_wall, run_id=self.run_id, stage=stage,
            done=done, total=total, elapsed_s=elapsed, rate_ups=rate,
            eta_s=eta, workers=workers,
            percentiles=_summaries_from_registry(display),
            counters=counters,
        )


class HeartbeatWriter:
    """Worker-process sink that persists liveness to a heartbeat file.

    Writes are atomic (temp file + ``os.replace``) so the parent never
    reads a torn beat.  Unit boundaries always write; phase changes are
    rate-limited to one write per ``min_interval`` seconds.  At unit
    completion the worker's active per-task registry is scraped for
    ``*.seconds`` histograms, which accumulate across this worker's
    lifetime — that is what gives the parent live percentiles before
    any task payload has been shipped back.
    """

    def __init__(self, directory: str, name: str | None = None,
                 min_interval: float = 0.2) -> None:
        self.directory = directory
        self.name = name or f"pid-{os.getpid()}"
        self.path = os.path.join(directory, f"{self.name}.json")
        self.min_interval = min_interval
        self._units_done = 0
        self._current: str | None = None
        self._unit_started_at: float | None = None
        self._phase: str | None = None
        self._hist: dict[str, Histogram] = {}
        self._last_write = 0.0
        self._lock = threading.Lock()

    # -- sink protocol ---------------------------------------------------

    def add_total(self, count: int) -> None:
        """Totals are tracked by the parent bus; workers ignore them."""

    def unit_started(self, label: str) -> None:
        """Record the unit now executing and beat immediately."""
        with self._lock:
            self._current = label
            self._unit_started_at = time.time()
            self._write()

    def unit_finished(self, label: str, seconds: float) -> None:
        """Record unit completion, scrape durations, beat immediately."""
        with self._lock:
            self._units_done += 1
            self._current = None
            self._unit_started_at = None
            self._scrape_active_registry()
            self._write()

    def phase(self, name: str) -> None:
        """Record fine-grained activity (rate-limited beat)."""
        with self._lock:
            self._phase = name
            if time.monotonic() - self._last_write >= self.min_interval:
                self._write()

    def stage(self, name: str) -> None:
        """Engine stages inside a worker are phases for display."""
        self.phase(name)

    # -- persistence -----------------------------------------------------

    def _scrape_active_registry(self) -> None:
        registry = metrics_mod.active_registry()
        if registry is None:
            return
        for name, data in registry.snapshot().items():
            if data.get("type") != "histogram":
                continue
            if not name.endswith(SECONDS_SUFFIX):
                continue
            own = self._hist.get(name)
            if own is None:
                own = self._hist[name] = Histogram()
            shard = MetricsRegistry()
            shard.merge({name: data})
            merged = shard.histogram(name)
            own.count += merged.count
            own.total += merged.total
            own.minimum = min(own.minimum, merged.minimum)
            own.maximum = max(own.maximum, merged.maximum)
            own.zeros += merged.zeros
            for index, n in merged.buckets.items():
                own.buckets[index] = own.buckets.get(index, 0) + n

    def _write(self) -> None:
        beat = {
            "name": self.name,
            "pid": os.getpid(),
            "ts": time.time(),
            "units_done": self._units_done,
            "current": self._current,
            "unit_started_at": self._unit_started_at,
            "phase": self._phase,
            "hist": {name: h.snapshot() for name, h in self._hist.items()},
        }
        tmp = self.path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(beat, handle)
            os.replace(tmp, self.path)
        except OSError:
            return  # heartbeat dir vanished (run tearing down): drop beat
        self._last_write = time.monotonic()


# -- process-wide active sink --------------------------------------------------

_SINK: ProgressBus | HeartbeatWriter | None = None


def set_progress_sink(sink: ProgressBus | HeartbeatWriter | None
                      ) -> ProgressBus | HeartbeatWriter | None:
    """Install (or, with ``None``, remove) the active progress sink.

    Returns the previously active sink so callers can restore it.
    """
    global _SINK
    previous = _SINK
    _SINK = sink
    return previous


def active_sink() -> ProgressBus | HeartbeatWriter | None:
    """The active progress sink, or ``None`` when live telemetry is off."""
    return _SINK


def note_unit_started(label: str) -> None:
    """Report a unit starting (no-op when no sink is installed)."""
    sink = _SINK
    if sink is not None:
        sink.unit_started(label)


def note_unit_finished(label: str, seconds: float) -> None:
    """Report a unit finishing (no-op when no sink is installed)."""
    sink = _SINK
    if sink is not None:
        sink.unit_finished(label, seconds)


def note_phase(name: str) -> None:
    """Report fine-grained activity (no-op when no sink is installed)."""
    sink = _SINK
    if sink is not None:
        sink.phase(name)


def note_total(count: int) -> None:
    """Register scheduled units (no-op when no sink is installed)."""
    sink = _SINK
    if sink is not None:
        sink.add_total(count)


# -- consumers -----------------------------------------------------------------

def _fmt_seconds(value: float | None) -> str:
    if value is None or not math.isfinite(value):
        return "?"
    if value >= 3600:
        return f"{value / 3600:.1f}h"
    if value >= 60:
        return f"{value / 60:.1f}m"
    return f"{value:.0f}s" if value >= 10 else f"{value:.1f}s"


_SPINNER = "|/-\\"


def format_watch_line(snapshot: ProgressSnapshot, tick: int = 0) -> str:
    """Render one in-terminal status line from *snapshot*.

    Honest under ``--jobs N``: done-counts and liveness come from the
    worker heartbeat files, so the line reflects what the pool actually
    finished, not what was scheduled.
    """
    spin = _SPINNER[tick % len(_SPINNER)]
    if snapshot.total:
        pct = 100.0 * snapshot.done / snapshot.total
        progress = f"{snapshot.done}/{snapshot.total} ({pct:.0f}%)"
    else:
        progress = f"{snapshot.done} units"
    parts = [spin, progress]
    if snapshot.stage:
        parts.append(snapshot.stage)
    if snapshot.rate_ups:
        parts.append(f"{snapshot.rate_ups:.2f} u/s")
    parts.append(f"eta {_fmt_seconds(snapshot.eta_s)}")
    pool = [w for w in snapshot.workers if w.name != "main"]
    active = pool if pool else snapshot.workers
    ok = sum(1 for w in active if w.status != "stalled")
    stalled = [w for w in active if w.status == "stalled"]
    health = f"workers {ok} ok"
    if stalled:
        health += f", {len(stalled)} STALLED ({stalled[0].name})"
    parts.append(health)
    point = snapshot.percentiles.get("point.evaluate")
    if point:
        parts.append(f"p50 {point['p50']:.3g}s p99 {point['p99']:.3g}s")
    if snapshot.run_id:
        parts.append(f"run {snapshot.run_id}")
    return " | ".join(parts)


class WatchRenderer:
    """Background thread painting a single live status line (``--watch``)."""

    def __init__(self, bus: ProgressBus,
                 registry: MetricsRegistry | None = None,
                 stream: TextIO | None = None,
                 interval: float = 0.25) -> None:
        self.bus = bus
        self.registry = registry
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._tick = 0
        self._width = 0

    def _paint(self) -> None:
        line = format_watch_line(self.bus.snapshot(self.registry),
                                 self._tick)
        self._tick += 1
        pad = max(0, self._width - len(line))
        self._width = len(line)
        try:
            self.stream.write("\r" + line + " " * pad)
            self.stream.flush()
        except (OSError, ValueError):
            self._stop.set()  # stream closed under us: stop painting

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._paint()

    def start(self) -> None:
        """Paint once and start the refresh thread."""
        self._paint()
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-watch", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Paint the final state and release the line."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._paint()
        try:
            self.stream.write("\n")
            self.stream.flush()
        except (OSError, ValueError):
            pass


class TelemetryWriter:
    """Periodic ``telemetry.jsonl`` exporter (``--telemetry``).

    Appends one :meth:`ProgressSnapshot.to_json` record per interval —
    the scrape format the future ``repro serve`` daemon will expose.
    Writes one snapshot immediately on :meth:`start` and one on
    :meth:`stop`, so even sub-interval runs export at least two
    records.  When *prom_path* is given, each snapshot is also rendered
    to a Prometheus text-exposition file (atomically replaced).
    """

    def __init__(self, bus: ProgressBus, path: str | None,
                 registry: MetricsRegistry | None = None,
                 interval: float = 1.0,
                 prom_path: str | None = None) -> None:
        self.bus = bus
        self.path = str(path) if path is not None else None
        self.registry = registry
        self.interval = interval
        self.prom_path = prom_path
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._handle: TextIO | None = None
        self.snapshots_written = 0

    def _emit(self) -> None:
        snapshot = self.bus.snapshot(self.registry)
        if self.path is not None:
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(json.dumps(snapshot.to_json()) + "\n")
            self._handle.flush()
        self.snapshots_written += 1
        if self.prom_path:
            tmp = self.prom_path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(render_prometheus(snapshot))
            os.replace(tmp, self.prom_path)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._emit()

    def start(self) -> None:
        """Write the first snapshot and start the export thread."""
        self._emit()
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-telemetry",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Write the final snapshot and close the file."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._emit()
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def _prom_name(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


def render_prometheus(snapshot: ProgressSnapshot) -> str:
    """Render *snapshot* in Prometheus text exposition format.

    Progress and worker health become gauges; ``*.seconds`` duration
    histograms become summaries with p50/p90/p99 quantile samples; run
    counters become ``repro_<name>_total`` counters.
    """
    run = snapshot.run_id or ""
    lines = [
        "# TYPE repro_run_info gauge",
        f'repro_run_info{{run_id="{run}"}} 1',
        "# TYPE repro_units_done gauge",
        f"repro_units_done {snapshot.done}",
        "# TYPE repro_units_total gauge",
        f"repro_units_total {snapshot.total}",
        "# TYPE repro_elapsed_seconds gauge",
        f"repro_elapsed_seconds {snapshot.elapsed_s:.6f}",
    ]
    if snapshot.eta_s is not None:
        lines += ["# TYPE repro_eta_seconds gauge",
                  f"repro_eta_seconds {snapshot.eta_s:.6f}"]
    lines.append("# TYPE repro_worker_stalled gauge")
    for worker in snapshot.workers:
        flag = 1 if worker.status == "stalled" else 0
        lines.append(
            f'repro_worker_stalled{{worker="{worker.name}"}} {flag}')
    for metric, summary in sorted(snapshot.percentiles.items()):
        base = f"repro_{_prom_name(metric)}_seconds"
        lines.append(f"# TYPE {base} summary")
        for quantile in ("0.5", "0.9", "0.99"):
            key = "p" + str(int(float(quantile) * 100))
            lines.append(
                f'{base}{{quantile="{quantile}"}} {summary[key]:.6g}')
        lines.append(f"{base}_sum {summary['total']:.6g}")
        lines.append(f"{base}_count {int(summary['count'])}")
    for name, value in sorted(snapshot.counters.items()):
        base = f"repro_{_prom_name(name)}_total"
        lines.append(f"# TYPE {base} counter")
        lines.append(f"{base} {value:g}")
    return "\n".join(lines) + "\n"
