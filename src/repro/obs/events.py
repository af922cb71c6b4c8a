"""Cache event auditing: structured eviction/miss streams and the
conflict-graph oracle.

The simulator's aggregate counters say *how many* conflict misses
happened; this module records *which* ones.  When a recorder is
installed (:func:`set_recorder`), every :class:`~repro.memory.cache.Cache`
built afterwards emits one :class:`CacheEvent` per miss and per
eviction (optionally per hit): set index, memory-line id, owning
memory object, the evictor that displaced the line, the victim way and
— when asked — the replacement policy's state.  Recording is **off by
default** and costs one attribute read and one ``None`` comparison per
cache probe when off.

Full traces of real workloads are long, so an :class:`EventRecorder`
keeps the stream cheap by default:

* a bounded **ring buffer** holds the most recent events;
* a **reservoir sample** (Algorithm R over a deterministic RNG) keeps
  a uniform sample of the whole stream;
* exact per-kind totals and a **per-set pressure histogram** (misses
  and evictions per cache set) are always maintained.

``audit=True`` switches the recorder to audit mode: *every* event is
retained, and :func:`replay_attribution` can then re-derive the
conflict-miss attribution — the ``m_ij`` of the paper's eqs. 2-3 —
purely from the recorded ``(eviction, miss)`` pairs, independently of
the cache's own counters.  :func:`audit_conflict_graph` compares that
replay against a built conflict graph edge by edge, acting as a
correctness oracle for ``repro.core.conflict_graph``
(``repro audit --workload NAME`` runs it from the CLI).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.errors import ConfigurationError
from repro.utils.rng import DeterministicRng

if TYPE_CHECKING:
    from repro.core.conflict_graph import ConflictGraph

#: Event kinds an :class:`EventRecorder` can receive.
EVENT_KINDS = ("miss", "evict", "hit")


@dataclass(frozen=True)
class CacheEvent:
    """One structured cache event.

    Attributes:
        kind: ``miss``, ``evict`` or ``hit``.
        seq: sequence number within the recorder (stream order).
        cache: label of the emitting cache (``L1``, ``L2``).
        set_index: the cache set the event happened in.
        line_id: memory line id — the missed/hit line, or for ``evict``
            the *victim* line leaving the cache.
        mo: owning memory object — for ``evict`` the victim's owner.
        evictor: for ``evict``, the owner of the incoming line; for a
            non-compulsory ``miss``, the attributed evictor (``None``
            when unknown, e.g. the line was never evicted).
        compulsory: for ``miss``, whether it was a first touch.
        way: the way filled/hit/evicted (-1 when not applicable).
        phase: execution phase at event time (overlay extension).
        policy_state: replacement-policy snapshot at eviction time
            (LRU/FIFO order, ``None`` unless state recording is on).
    """

    kind: str
    seq: int
    cache: str
    set_index: int
    line_id: int
    mo: str
    evictor: str | None = None
    compulsory: bool = False
    way: int = -1
    phase: int = 0
    policy_state: tuple[int, ...] | None = None

    def as_json(self) -> dict[str, Any]:
        """Plain-dict form (JSONL export and worker forwarding)."""
        data: dict[str, Any] = {
            "kind": self.kind,
            "seq": self.seq,
            "cache": self.cache,
            "set": self.set_index,
            "line": self.line_id,
            "mo": self.mo,
        }
        if self.evictor is not None:
            data["evictor"] = self.evictor
        if self.compulsory:
            data["compulsory"] = True
        if self.way >= 0:
            data["way"] = self.way
        if self.phase:
            data["phase"] = self.phase
        if self.policy_state is not None:
            data["policy_state"] = list(self.policy_state)
        return data

    @staticmethod
    def from_json(data: dict[str, Any]) -> "CacheEvent":
        """Rebuild an event from its :meth:`as_json` form."""
        state = data.get("policy_state")
        return CacheEvent(
            kind=data["kind"],
            seq=int(data["seq"]),
            cache=data.get("cache", "L1"),
            set_index=int(data["set"]),
            line_id=int(data["line"]),
            mo=data["mo"],
            evictor=data.get("evictor"),
            compulsory=bool(data.get("compulsory", False)),
            way=int(data.get("way", -1)),
            phase=int(data.get("phase", 0)),
            policy_state=tuple(state) if state is not None else None,
        )


class EventRecorder:
    """Bounded sink for :class:`CacheEvent` streams.

    Args:
        ring_size: events kept in the most-recent ring buffer.
        reservoir_size: size of the uniform whole-stream sample.
        record_hits: also record hit events (off by default — hits
            dominate the stream and carry no attribution information).
        record_policy_state: snapshot the replacement policy's order on
            every eviction (audit detail; costs one tuple per evict).
        audit: retain *every* event so :func:`replay_attribution` can
            re-derive the full conflict attribution.  Memory grows with
            the trace; use for oracle checks, not for sweeps.
        sample_seed: seed of the reservoir's deterministic RNG.
    """

    def __init__(self, ring_size: int = 4096,
                 reservoir_size: int = 512,
                 record_hits: bool = False,
                 record_policy_state: bool = False,
                 audit: bool = False,
                 sample_seed: int = 0) -> None:
        if ring_size < 1:
            raise ConfigurationError(
                f"ring size must be positive, got {ring_size}"
            )
        if reservoir_size < 0:
            raise ConfigurationError(
                f"negative reservoir size: {reservoir_size}"
            )
        self.ring_size = ring_size
        self.reservoir_size = reservoir_size
        self.record_hits = record_hits
        self.record_policy_state = record_policy_state
        self.audit = audit
        self.sample_seed = sample_seed
        self._rng = DeterministicRng(sample_seed)
        self._ring: deque[CacheEvent] = deque(maxlen=ring_size)
        self._reservoir: list[CacheEvent] = []
        self._all: list[CacheEvent] = []
        self._seq = 0
        #: exact totals per event kind.
        self.counts: Counter = Counter()
        #: per-set miss counts (the set-pressure histogram).
        self.set_misses: Counter = Counter()
        #: per-set eviction counts.
        self.set_evictions: Counter = Counter()

    @property
    def total_events(self) -> int:
        """Events seen since construction (all kinds)."""
        return self._seq

    def next_seq(self) -> int:
        """Allocate the next event sequence number."""
        seq = self._seq
        self._seq += 1
        return seq

    def record(self, event: CacheEvent) -> None:
        """Ingest one event into counters, ring, reservoir and audit log."""
        self.counts[event.kind] += 1
        if event.kind == "miss":
            self.set_misses[event.set_index] += 1
        elif event.kind == "evict":
            self.set_evictions[event.set_index] += 1
        self._ring.append(event)
        if self.audit:
            self._all.append(event)
        if self.reservoir_size:
            if len(self._reservoir) < self.reservoir_size:
                self._reservoir.append(event)
            else:
                # Algorithm R: replace a random slot with probability
                # reservoir_size / events_seen.
                slot = self._rng.uniform_int(0, event.seq)
                if slot < self.reservoir_size:
                    self._reservoir[slot] = event

    # -- views ---------------------------------------------------------------

    def events(self) -> list[CacheEvent]:
        """The retained events: the full log in audit mode, else the ring."""
        if self.audit:
            return list(self._all)
        return list(self._ring)

    def ring(self) -> list[CacheEvent]:
        """The most recent events (oldest first)."""
        return list(self._ring)

    def reservoir(self) -> list[CacheEvent]:
        """The uniform whole-stream sample (unordered)."""
        return list(self._reservoir)

    def pressure_histogram(self) -> list[tuple[int, int, int]]:
        """Per-set ``(set_index, misses, evictions)``, hottest first."""
        sets = sorted(set(self.set_misses) | set(self.set_evictions))
        rows = [
            (index, self.set_misses.get(index, 0),
             self.set_evictions.get(index, 0))
            for index in sets
        ]
        rows.sort(key=lambda row: (-row[1], -row[2], row[0]))
        return rows

    # -- worker forwarding ---------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-able state for forwarding across process boundaries.

        The exact counters travel losslessly; the ring and reservoir
        travel as event lists and are re-bounded on merge.
        """
        return {
            "total": self._seq,
            "counts": dict(self.counts),
            "set_misses": {str(k): v for k, v in self.set_misses.items()},
            "set_evictions": {
                str(k): v for k, v in self.set_evictions.items()
            },
            "ring": [event.as_json() for event in self._ring],
            "reservoir": [event.as_json() for event in self._reservoir],
        }

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold a worker's :meth:`snapshot` into this recorder.

        Counters and histograms accumulate exactly.  The ring appends
        the worker's ring (the deque re-bounds it); the merged
        reservoir concatenates and truncates, which keeps determinism
        and bounded size but is only approximately uniform — exact
        statistics should come from the counters, not the sample.
        """
        self._seq += int(snapshot.get("total", 0))
        for kind, count in snapshot.get("counts", {}).items():
            self.counts[kind] += count
        for key, count in snapshot.get("set_misses", {}).items():
            self.set_misses[int(key)] += count
        for key, count in snapshot.get("set_evictions", {}).items():
            self.set_evictions[int(key)] += count
        for data in snapshot.get("ring", []):
            event = CacheEvent.from_json(data)
            self._ring.append(event)
            if self.audit:
                self._all.append(event)
        if self.reservoir_size:
            for data in snapshot.get("reservoir", []):
                self._reservoir.append(CacheEvent.from_json(data))
            del self._reservoir[self.reservoir_size:]

    # -- rendering -----------------------------------------------------------

    def render(self, top: int = 8) -> str:
        """Human-readable totals plus the *top* most-missed sets."""
        lines = [
            "cache events: "
            f"{self.counts.get('miss', 0)} misses, "
            f"{self.counts.get('evict', 0)} evictions, "
            f"{self.counts.get('hit', 0)} hits recorded "
            f"({self.total_events} events, ring keeps "
            f"{len(self._ring)}, reservoir {len(self._reservoir)})"
        ]
        hot = self.pressure_histogram()[:top]
        if hot:
            lines.append("  set  misses  evictions")
            for set_index, misses, evictions in hot:
                lines.append(
                    f"  {set_index:>3}  {misses:>6}  {evictions:>9}"
                )
        return "\n".join(lines)


# -- process-wide active recorder ---------------------------------------------

_ACTIVE: EventRecorder | None = None


def set_recorder(recorder: EventRecorder | None) -> EventRecorder | None:
    """Install (or, with ``None``, remove) the active event recorder.

    Caches bind the active recorder when they are *constructed*, so
    install the recorder before building the simulator whose events
    you want.  Returns the previously active recorder.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder
    return previous


def active_recorder() -> EventRecorder | None:
    """The active recorder, or ``None`` when event auditing is off."""
    return _ACTIVE


def recording_enabled() -> bool:
    """Whether an event recorder is currently installed."""
    return _ACTIVE is not None


# -- the replay oracle ---------------------------------------------------------


@dataclass
class ReplayedAttribution:
    """Conflict attribution re-derived from a recorded event stream.

    Attributes:
        conflicts: ``(victim_mo, evictor_mo) -> misses`` — the replayed
            ``m_ij``, including self-conflicts on the diagonal.
        compulsory: per-object first-touch miss counts.
        misses: per-object total miss counts.
    """

    conflicts: Counter = field(default_factory=Counter)
    compulsory: Counter = field(default_factory=Counter)
    misses: Counter = field(default_factory=Counter)


def replay_attribution(events: Iterable[CacheEvent],
                       cache: str = "L1") -> ReplayedAttribution:
    """Re-derive miss attribution by replaying a recorded event stream.

    Walks the events in stream order keeping its own *evicted-by* map
    (built from ``evict`` events) and first-touch set, then attributes
    every non-compulsory ``miss`` to the recorded evictor of that line
    — the same definition the cache applies online, but computed from
    the raw events rather than trusted from the cache's counters.

    Args:
        events: the recorded events (audit mode retains all of them).
        cache: only replay events of this cache label.

    Returns:
        The replayed attribution, comparable against a
        :class:`~repro.core.conflict_graph.ConflictGraph` with
        :func:`audit_conflict_graph`.
    """
    replay = ReplayedAttribution()
    evicted_by: dict[int, str] = {}
    seen: set[int] = set()
    for event in sorted(events, key=lambda e: e.seq):
        if event.cache != cache:
            continue
        if event.kind == "miss":
            replay.misses[event.mo] += 1
            if event.line_id not in seen:
                seen.add(event.line_id)
                replay.compulsory[event.mo] += 1
            else:
                evictor = evicted_by.get(event.line_id)
                if evictor is not None:
                    replay.conflicts[(event.mo, evictor)] += 1
        elif event.kind == "evict":
            assert event.evictor is not None
            evicted_by[event.line_id] = event.evictor
    return replay


@dataclass(frozen=True)
class AuditMismatch:
    """One disagreement between the conflict graph and the replay.

    Attributes:
        kind: ``edge`` (``m_ij``, i != j), ``self`` (``m_ii``) or
            ``compulsory`` (first-touch count).
        victim: the victim memory object.
        evictor: the evictor (empty for ``compulsory``).
        graph_value: what the conflict graph claims.
        replayed_value: what the event replay derived.
    """

    kind: str
    victim: str
    evictor: str
    graph_value: int
    replayed_value: int

    def describe(self) -> str:
        """One-line human-readable form."""
        where = (f"{self.victim} <- {self.evictor}"
                 if self.evictor else self.victim)
        return (f"{self.kind} {where}: graph says {self.graph_value}, "
                f"replay says {self.replayed_value}")


def audit_conflict_graph(
    graph: "ConflictGraph",
    events: Iterable[CacheEvent],
    cache: str = "L1",
) -> list[AuditMismatch]:
    """Cross-check a conflict graph's ``m_ij`` against replayed events.

    Every edge weight, self-conflict count and compulsory-miss count of
    *graph* is compared with the attribution independently re-derived
    by :func:`replay_attribution`; pairs present on only one side are
    mismatches too.  An empty return value means the graph is exactly
    the attribution the cache actually performed — the correctness
    oracle for ``ConflictGraph.from_simulation``.

    The events must come from the same simulation (same image, cache
    configuration and block sequence) the graph was profiled on, with
    the recorder in audit mode so no events were dropped.
    """
    replay = replay_attribution(events, cache=cache)
    mismatches: list[AuditMismatch] = []

    graph_pairs = {(victim, evictor): weight
                   for victim, evictor, weight in graph.edges()}
    for node in graph.nodes():
        if node.self_misses:
            graph_pairs[(node.name, node.name)] = node.self_misses
    for pair in sorted(set(graph_pairs) | set(replay.conflicts)):
        expected = graph_pairs.get(pair, 0)
        actual = replay.conflicts.get(pair, 0)
        if expected != actual:
            victim, evictor = pair
            kind = "self" if victim == evictor else "edge"
            mismatches.append(AuditMismatch(
                kind=kind, victim=victim, evictor=evictor,
                graph_value=expected, replayed_value=actual,
            ))

    graph_compulsory = {
        node.name: node.compulsory_misses for node in graph.nodes()
        if node.compulsory_misses
    }
    names = sorted(set(graph_compulsory) | set(replay.compulsory))
    for name in names:
        expected = graph_compulsory.get(name, 0)
        actual = replay.compulsory.get(name, 0)
        if expected != actual:
            mismatches.append(AuditMismatch(
                kind="compulsory", victim=name, evictor="",
                graph_value=expected, replayed_value=actual,
            ))
    return mismatches


@dataclass
class AuditResult:
    """Outcome of one end-to-end conflict-graph audit.

    Attributes:
        workload: audited workload name.
        events: events recorded during the audit simulation.
        mismatches: disagreements (empty = the graph is exact).
        edges_checked: conflict-graph edges covered by the audit.
        recorder: the audit-mode recorder (pressure histogram etc.).
    """

    workload: str
    events: int
    mismatches: list[AuditMismatch]
    edges_checked: int
    recorder: EventRecorder

    @property
    def ok(self) -> bool:
        """Whether the graph matched the replay exactly."""
        return not self.mismatches

    def render(self) -> str:
        """Human-readable audit verdict."""
        lines = [
            f"conflict-graph audit of {self.workload!r}: "
            f"{self.edges_checked} edges checked against "
            f"{self.events} replayed events"
        ]
        if self.ok:
            lines.append("  OK — m_ij attribution matches exactly")
        else:
            lines.append(f"  {len(self.mismatches)} MISMATCHES:")
            lines += [f"  - {m.describe()}" for m in self.mismatches]
        return "\n".join(lines)


def audit_workload(workload_name: str, scale: float = 1.0,
                   seed: int = 0,
                   backend: str | None = None,
                   policy: str | None = None,
                   associativity: int | None = None) -> AuditResult:
    """Run the conflict-graph oracle end to end for one workload.

    Rebuilds the workload's profiling setup, replays the baseline
    (cache-only) simulation with an audit-mode recorder installed, and
    cross-checks the freshly built conflict graph against the replayed
    attribution.  The audit simulation always runs fresh — a warm
    artifact store cannot serve it, because the point is to observe
    the events the cache actually emits.

    Args:
        workload_name: registered workload to audit.
        scale: trip-count multiplier.
        seed: executor seed.
        backend: which backend builds the audited conflict graph.
            Event recording structurally requires the reference
            interpreter, so the replayed event stream always comes
            from the reference run; with ``backend="vector"`` the
            audited graph is instead built from the vector kernel's
            report, turning the audit into a cross-backend
            differential check of the conflict attribution.
        policy: replacement-policy override for the audited cache
            (any :func:`repro.memory.replacement.available_policies`
            name); ``None`` keeps the workload's configured policy.
            The ``m_ij`` re-derivation is policy-agnostic — evict
            events carry the owner/evictor pair whatever chose the
            victim — so the audit is exact under every policy.
        associativity: way-count override for the audited cache
            (``None`` keeps the workload's).  Most paper caches are
            direct mapped, where every policy collapses; raising this
            gives a policy override real eviction pressure.
    """
    # Local imports: this module must stay importable from the cache
    # layer without dragging the whole pipeline in.
    from repro.core.conflict_graph import ConflictGraph
    from repro.engine.context import RunContext
    from repro.engine.runner import make_workbench
    from repro.memory.hierarchy import (
        HierarchyConfig,
        InstructionMemorySimulator,
        resolve_backend,
    )
    from repro.traces.layout import LinkedImage, Placement

    resolved = resolve_backend(backend)
    workload, bench = make_workbench(workload_name, scale, seed)
    config = bench.config
    cache_config = config.cache
    if policy is not None or associativity is not None:
        from dataclasses import replace

        overrides: dict = {}
        if policy is not None:
            overrides["policy"] = policy
        if associativity is not None:
            overrides["associativity"] = associativity
        cache_config = replace(cache_config, **overrides)
    image = LinkedImage(
        bench.program,
        bench.memory_objects,
        spm_resident=frozenset(),
        spm_size=0,
        placement=Placement.COPY,
        main_base=config.main_base,
        spm_base=config.spm_base,
    )
    hierarchy = HierarchyConfig(cache=cache_config)
    recorder = EventRecorder(audit=True, record_policy_state=True)
    with RunContext.current().replace(recorder=recorder).installed():
        simulator = InstructionMemorySimulator(image, hierarchy)
        report = simulator.run(bench.block_sequence)
    if resolved == "vector":
        from repro.memory.kernel.vector import simulate as kernel_simulate

        report = kernel_simulate(
            image, hierarchy, bench.block_sequence,
            spm_base=config.spm_base,
        )
    graph = ConflictGraph.from_simulation(bench.memory_objects, report)
    mismatches = audit_conflict_graph(graph, recorder.events())
    return AuditResult(
        workload=workload_name,
        events=recorder.total_events,
        mismatches=mismatches,
        edges_checked=graph.num_edges,
        recorder=recorder,
    )
