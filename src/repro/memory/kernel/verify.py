"""Differential verification of the vector kernel.

The kernel's contract is *bit-identical* reports — not just equal
totals, but the same per-object counters, the same ``mo_stats``
insertion order and the same conflict-Counter key order as the
reference simulator.  This module checks that contract from three
independent directions:

1. **Randomized probe-level replay** — random cache geometries
   (power-of-two line size, associativity and set count, any
   kernel-supported policy: LRU, FIFO, LFU or 2Q) are driven with
   random line-probe sequences through both the reference
   :class:`~repro.memory.cache.Cache` and the kernel's replay,
   comparing every per-probe hit/miss outcome and the full conflict
   attribution.  Every :data:`REGION_TRIAL_EVERY`-th trial instead
   replays random fetch segments behind a loop cache with random
   region boundaries (:class:`SegmentImage`) through both backends.
2. **End-to-end workload replay** — committed workloads are simulated
   under a grid of hierarchy configurations (direct-mapped and
   set-associative, every kernel-supported policy, several line
   sizes, with and without a scratchpad and an L2) through both
   backends, and the two reports are compared field by field.  The
   baseline image is also replayed behind a preloaded loop cache,
   with the Ross allocator's regions and with seeded regions that
   straddle segment boundaries.
3. **Audit cross-check** — the conflict graph built from a
   *vector-backend* report is audited against the event stream the
   *reference* simulator actually emitted
   (:func:`repro.obs.events.audit_workload` with ``backend="vector"``).

``repro verify-kernel`` runs all three and exits non-zero on any
difference.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro.memory.cache import Cache, CacheConfig
from repro.memory.kernel.vector import _conflict_counters, _replay
from repro.memory.loopcache import LoopCacheConfig, LoopRegion
from repro.memory.stats import SimulationReport
from repro.obs.trace import span
from repro.traces.layout import BlockFetchPlan, FetchSegment

#: Default workloads of the end-to-end and audit checks.
DEFAULT_WORKLOADS = ("tiny", "adpcm")

#: The kernel-supported corner of the cache design space, used by both
#: the random generator and the end-to-end configuration grid.
LINE_SIZES = (8, 16, 32)
ASSOCIATIVITIES = (1, 2, 4)
POLICIES = ("lru", "fifo", "lfu", "2q")

#: Loop cache of the loop-cache checks: the paper's four-entry region
#: table, large enough for every generated region set.
LOOP_CACHE = LoopCacheConfig(size=512, max_regions=4)

#: Every this-many-th randomized trial replays loop-cache regions.
REGION_TRIAL_EVERY = 3


def report_differences(reference: SimulationReport,
                       vector: SimulationReport) -> list[str]:
    """Every field where two reports disagree, human-readably.

    The comparison is strict: per-object counters, scalar totals and
    the *insertion order* of ``mo_stats`` and of both conflict
    Counters all participate, because downstream consumers (the
    conflict graph, rendered tables) observe those orders.
    """
    differences: list[str] = []

    def check(label: str, expected, actual) -> None:
        if expected != actual:
            differences.append(
                f"{label}: reference {expected!r} != vector {actual!r}"
            )

    check("mo_stats keys", list(reference.mo_stats),
          list(vector.mo_stats))
    for name in reference.mo_stats:
        if name not in vector.mo_stats:
            continue
        expected = reference.mo_stats[name]
        actual = vector.mo_stats[name]
        for field_name in ("fetches", "spm_accesses", "lc_accesses",
                           "cache_hits", "cache_misses",
                           "compulsory_misses"):
            check(f"mo_stats[{name!r}].{field_name}",
                  getattr(expected, field_name),
                  getattr(actual, field_name))
    check("conflict_misses", list(reference.conflict_misses.items()),
          list(vector.conflict_misses.items()))
    check("phase_conflicts", list(reference.phase_conflicts.items()),
          list(vector.phase_conflicts.items()))
    for field_name in ("lc_controller_checks", "main_memory_words",
                       "num_block_executions", "overlay_copy_words",
                       "l2_hits", "l2_misses"):
        check(field_name, getattr(reference, field_name),
              getattr(vector, field_name))
    return differences


@dataclass(frozen=True)
class VerifyCase:
    """Outcome of one differential check.

    Attributes:
        kind: ``probe`` | ``workload`` | ``audit``.
        description: what was compared (config, workload, trial seed).
        differences: disagreements found (empty = the check passed).
    """

    kind: str
    description: str
    differences: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """Whether the two sides agreed exactly."""
        return not self.differences


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one full differential-verification run."""

    cases: tuple[VerifyCase, ...]

    @property
    def ok(self) -> bool:
        """Whether every case passed."""
        return all(case.ok for case in self.cases)

    @property
    def failures(self) -> list[VerifyCase]:
        """The cases that found a difference."""
        return [case for case in self.cases if not case.ok]

    def render(self) -> str:
        """Human-readable verdict, one line per failing case."""
        by_kind: Counter = Counter(case.kind for case in self.cases)
        coverage = ", ".join(
            f"{count} {kind}" for kind, count in sorted(by_kind.items())
        )
        lines = [f"kernel differential verification: "
                 f"{len(self.cases)} cases ({coverage})"]
        if self.ok:
            lines.append(
                "  OK — vector kernel matches the reference "
                "simulator bit-for-bit"
            )
            return "\n".join(lines)
        lines.append(f"  {len(self.failures)} FAILING CASES:")
        for case in self.failures:
            lines.append(f"  - [{case.kind}] {case.description}")
            for diff in case.differences[:8]:
                lines.append(f"      {diff}")
            hidden = len(case.differences) - 8
            if hidden > 0:
                lines.append(f"      ... and {hidden} more")
        return "\n".join(lines)


# -- check 1: randomized probe-level replay -----------------------------------


def random_cache_config(rng: random.Random) -> CacheConfig:
    """A random kernel-supported cache geometry.

    Sizes are derived as ``line * associativity * sets`` with every
    factor a power of two, so the result always satisfies the
    :class:`~repro.memory.cache.CacheConfig` constraints.
    """
    line_size = rng.choice(LINE_SIZES)
    associativity = rng.choice(ASSOCIATIVITIES)
    num_sets = rng.choice((1, 2, 4, 8))
    return CacheConfig(
        size=line_size * associativity * num_sets,
        line_size=line_size,
        associativity=associativity,
        policy=rng.choice(POLICIES),
    )


def _random_probes(rng: random.Random, config: CacheConfig
                   ) -> tuple[list[int], list[int], tuple[str, ...]]:
    """A random probe sequence sized to exercise evictions.

    The line pool is a small multiple of the cache's line capacity so
    capacity and conflict misses actually occur; each line belongs to
    a fixed owner, mirroring real layouts where a line holds one
    memory object.
    """
    capacity_lines = config.num_sets * config.associativity
    pool = rng.randrange(capacity_lines + 1, 4 * capacity_lines + 2)
    names = tuple(f"mo{index}" for index in range(rng.randrange(2, 6)))
    owner_of_line = [rng.randrange(len(names)) for _ in range(pool)]
    length = rng.randrange(50, 400)
    # Mix uniform draws with short sequential runs (the fetch pattern
    # real streams produce).
    lines: list[int] = []
    while len(lines) < length:
        start = rng.randrange(pool)
        run = rng.randrange(1, 5)
        for offset in range(run):
            lines.append((start + offset) % pool)
    lines = lines[:length]
    owners = [owner_of_line[line] for line in lines]
    return lines, owners, names


def _reference_probe_replay(lines: list[int], owners: list[int],
                            names: tuple[str, ...],
                            config: CacheConfig
                            ) -> tuple[list[bool], Counter, int]:
    """Drive the reference cache probe by probe."""
    cache = Cache(config)
    hits = [
        cache.access_line(line, names[owner])
        for line, owner in zip(lines, owners)
    ]
    return hits, cache.conflict_misses, cache.compulsory_misses


class SegmentImage:
    """A synthetic linked image: named blocks of raw fetch segments.

    Provides the two members of
    :class:`~repro.traces.layout.LinkedImage` that the reference
    simulator and :func:`~repro.memory.kernel.stream.compile_stream`
    read (``memory_objects`` and :meth:`all_plans`), so both backends
    can be driven with hand-placed segments.  Every block is a plain
    run of segments: no tail jump, call or return.

    Args:
        names: memory-object names.
        blocks: block name -> the segments it fetches, in order.
    """

    def __init__(self, names, blocks: dict) -> None:
        self.memory_objects = [SimpleNamespace(name=name)
                               for name in names]
        self._plans = {
            block: BlockFetchPlan(block, tuple(segments), None, None,
                                  False, False)
            for block, segments in blocks.items()
        }

    def all_plans(self) -> dict[str, BlockFetchPlan]:
        """Block name -> fetch plan."""
        return self._plans


def straddling_regions(rng: random.Random, segments,
                       max_regions: int = 4) -> list[LoopRegion]:
    """Seeded non-overlapping regions cut through segment interiors.

    Alternately starts a region inside a segment (so its first words
    stay on the cache path) and ends one inside a segment (so its last
    words do), making the segments mixed.  Region sizes are 1-32
    words, so any set fits :data:`LOOP_CACHE`.

    Args:
        rng: the seeded generator.
        segments: ``(address, words)`` pairs to cut; those of one word
            cannot straddle and are skipped.
        max_regions: regions to place at most.
    """
    candidates = [(address, words) for address, words in segments
                  if words >= 2]
    regions: list[LoopRegion] = []
    for attempt in range(20 * max_regions):
        if not candidates or len(regions) == max_regions:
            break
        address, words = rng.choice(candidates)
        cut = address + 4 * rng.randrange(1, words)
        size = 4 * rng.randrange(1, 33)
        if attempt % 2:
            start, end = max(0, cut - size), cut
        else:
            start, end = cut, cut + size
        region = LoopRegion(f"r{len(regions)}", start, end - start)
        if any(region.start < other.end and other.start < region.end
               for other in regions):
            continue
        regions.append(region)
    return regions


def _region_case(seed: int) -> VerifyCase:
    """One randomized loop-cache trial over synthetic segments.

    Random segments of a few memory objects, each owning a 64-word
    address range, are executed in a random block order behind a loop
    cache whose regions straddle segment boundaries; both backends
    replay the same :class:`SegmentImage`.
    """
    from repro.memory.hierarchy import HierarchyConfig, simulate

    rng = random.Random(seed)
    config = random_cache_config(rng)
    names = tuple(f"mo{index}" for index in range(rng.randrange(2, 6)))
    blocks = {}
    for block in range(rng.randrange(4, 12)):
        segments = []
        for _ in range(rng.randrange(1, 4)):
            owner = rng.randrange(len(names))
            words = rng.randrange(1, 13)
            address = 0x1000 + 256 * owner + 4 * rng.randrange(64 - words)
            segments.append(
                FetchSegment(names[owner], address, words, False)
            )
        blocks[f"b{block}"] = segments
    image = SegmentImage(names, blocks)
    sequence = [rng.choice(list(blocks))
                for _ in range(rng.randrange(30, 200))]
    regions = straddling_regions(
        rng,
        [(seg.address, seg.num_words)
         for segments in blocks.values() for seg in segments],
        max_regions=rng.randrange(5),
    )
    hierarchy = HierarchyConfig(cache=config, loop_cache=LOOP_CACHE)
    reference = simulate(image, hierarchy, sequence,
                         loop_regions=regions, backend="reference")
    vector = simulate(image, hierarchy, sequence,
                      loop_regions=regions, backend="vector")
    description = (
        f"seed={seed} size={config.size} line={config.line_size} "
        f"assoc={config.associativity} policy={config.policy} "
        f"blocks={len(sequence)} loop regions="
        + ",".join(f"[{r.start:#x},{r.end:#x})" for r in regions)
    )
    return VerifyCase("probe", description,
                      tuple(report_differences(reference, vector)))


def _probe_case(seed: int) -> VerifyCase:
    """One randomized probe-level differential trial.

    Every :data:`REGION_TRIAL_EVERY`-th seed is a loop-cache trial
    (:func:`_region_case`) instead.
    """
    if seed % REGION_TRIAL_EVERY == REGION_TRIAL_EVERY - 1:
        return _region_case(seed)
    rng = random.Random(seed)
    config = random_cache_config(rng)
    lines, owners, names = _random_probes(rng, config)
    ref_hits, ref_conflicts, ref_compulsory = \
        _reference_probe_replay(lines, owners, names, config)

    line_array = np.asarray(lines, dtype=np.int64)
    owner_array = np.asarray(owners, dtype=np.int32)
    replay = _replay(line_array, owner_array, config, attribute=True)
    conflicts, _ = _conflict_counters(replay, names)
    first_seen: set[int] = set()
    compulsory = 0
    for line in lines:
        if line not in first_seen:
            first_seen.add(line)
            compulsory += 1

    differences: list[str] = []
    vec_hits = replay.hit.tolist()
    if ref_hits != vec_hits:
        mismatches = [
            index for index, (expected, actual)
            in enumerate(zip(ref_hits, vec_hits))
            if expected != actual
        ]
        differences.append(
            f"hit/miss outcome differs at probes {mismatches[:10]} "
            f"({len(mismatches)} of {len(lines)})"
        )
    if list(ref_conflicts.items()) != list(conflicts.items()):
        differences.append(
            f"conflict attribution: reference "
            f"{dict(ref_conflicts)!r} != vector {dict(conflicts)!r}"
        )
    if ref_compulsory != compulsory:
        differences.append(
            f"compulsory misses: reference {ref_compulsory} != "
            f"vector {compulsory}"
        )
    description = (
        f"seed={seed} size={config.size} line={config.line_size} "
        f"assoc={config.associativity} policy={config.policy} "
        f"probes={len(lines)}"
    )
    return VerifyCase("probe", description, tuple(differences))


# -- check 2: end-to-end workload replay --------------------------------------


def _config_grid() -> list:
    """Hierarchy configurations of the end-to-end check.

    Covers the kernel's whole supported surface: the line / way /
    policy cross product (every :data:`POLICIES` member) at a fixed
    small capacity (so conflicts occur), plus one two-level (L1+L2)
    configuration.
    """
    from repro.memory.hierarchy import HierarchyConfig

    configs = []
    for line_size in LINE_SIZES:
        for associativity in ASSOCIATIVITIES:
            for policy in POLICIES:
                configs.append(HierarchyConfig(cache=CacheConfig(
                    size=line_size * associativity * 4,
                    line_size=line_size,
                    associativity=associativity,
                    policy=policy,
                )))
    l1 = CacheConfig(size=128, line_size=16, associativity=2)
    l2 = CacheConfig(size=512, line_size=16, associativity=4)
    configs.append(HierarchyConfig(cache=l1, l2_cache=l2))
    return configs


def workload_images(workload_name: str, scale: float, seed: int):
    """Baseline and scratchpad-resident images of one workload.

    Shared fixture of the kernel and grid differential gates: the
    cache-only image plus (when anything fits) a greedy-filled
    scratchpad image at the workload's smallest table-1 size.

    Returns:
        ``(bench, images)`` where each image entry is a
        ``(label, image, spm_size)`` triple.
    """
    from repro.engine.runner import make_workbench
    from repro.traces.layout import LinkedImage, Placement

    workload, bench = make_workbench(
        workload_name, scale, seed, backend="reference"
    )
    config = bench.config
    spm_size = min(workload.spm_sizes)
    resident: set[str] = set()
    used = 0
    for mo in bench.memory_objects:
        if used + mo.unpadded_size <= spm_size:
            resident.add(mo.name)
            used += mo.unpadded_size

    def image(spm_resident: frozenset[str], size: int) -> LinkedImage:
        return LinkedImage(
            bench.program,
            bench.memory_objects,
            spm_resident=spm_resident,
            spm_size=size,
            placement=Placement.COPY,
            main_base=config.main_base,
            spm_base=config.spm_base,
        )

    images = [("baseline", image(frozenset(), 0), 0)]
    if resident:
        images.append(("spm", image(frozenset(resident), spm_size),
                       spm_size))
    return bench, images


def _workload_cases(workload_name: str, scale: float,
                    seed: int) -> list[VerifyCase]:
    """End-to-end reference-vs-vector cases for one workload."""
    from dataclasses import replace

    from repro.memory.hierarchy import simulate
    from repro.memory.kernel.stream import compile_stream
    from repro.memory.kernel.vector import simulate_stream

    bench, images = workload_images(workload_name, scale, seed)
    config = bench.config
    cases: list[VerifyCase] = []
    for label, image, spm_size in images:
        stream = compile_stream(image, bench.block_sequence,
                                spm_base=config.spm_base)
        for hierarchy in _config_grid():
            hierarchy = replace(hierarchy, spm_size=spm_size)
            reference = simulate(
                image, hierarchy, bench.block_sequence,
                spm_base=config.spm_base, backend="reference",
            )
            vector = simulate_stream(stream, hierarchy,
                                     spm_base=config.spm_base)
            cache = hierarchy.cache
            description = (
                f"{workload_name}/{label} size={cache.size} "
                f"line={cache.line_size} assoc={cache.associativity} "
                f"policy={cache.policy}"
                + (" +L2" if hierarchy.l2_cache is not None else "")
            )
            cases.append(VerifyCase(
                "workload", description,
                tuple(report_differences(reference, vector)),
            ))
        if label == "baseline":
            cases.extend(_loop_cache_cases(workload_name, bench, image,
                                           stream, seed))
    return cases


def _loop_cache_configs() -> list:
    """Loop-cache hierarchies of the end-to-end check.

    Every :data:`POLICIES` member at two ways, the direct-mapped
    replay, and one two-level (L1+L2) configuration, all behind
    :data:`LOOP_CACHE`.
    """
    from repro.memory.hierarchy import HierarchyConfig

    caches = [CacheConfig(size=128, line_size=16, associativity=2,
                          policy=policy) for policy in POLICIES]
    caches.append(CacheConfig(size=64, line_size=16, associativity=1))
    configs = [HierarchyConfig(cache=cache, loop_cache=LOOP_CACHE)
               for cache in caches]
    configs.append(HierarchyConfig(
        cache=CacheConfig(size=128, line_size=16, associativity=2),
        l2_cache=CacheConfig(size=512, line_size=16, associativity=4),
        loop_cache=LOOP_CACHE,
    ))
    return configs


def _loop_cache_cases(workload_name: str, bench, image, stream,
                      seed: int) -> list[VerifyCase]:
    """Reference-vs-vector cases behind a preloaded loop cache.

    Two region sets over the baseline image: the Ross allocator's own
    choice at :data:`LOOP_CACHE` and a seeded set cutting through
    segment interiors (:func:`straddling_regions`).
    """
    from repro.core.ross import RossLoopCacheAllocator
    from repro.memory.hierarchy import simulate
    from repro.memory.kernel.vector import simulate_stream

    ross = RossLoopCacheAllocator(LOOP_CACHE).allocate(
        bench.conflict_graph, context=bench.allocation_context()
    )
    segments = sorted(set(zip(stream.seg_addr.tolist(),
                              stream.seg_words.tolist())))
    region_sets = (
        ("ross", list(ross.loop_regions)),
        ("straddling", straddling_regions(random.Random(seed),
                                          segments)),
    )
    cases = []
    for set_label, regions in region_sets:
        for hierarchy in _loop_cache_configs():
            reference = simulate(
                image, hierarchy, bench.block_sequence,
                spm_base=bench.config.spm_base, loop_regions=regions,
                backend="reference",
            )
            vector = simulate_stream(stream, hierarchy,
                                     spm_base=bench.config.spm_base,
                                     loop_regions=regions)
            cache = hierarchy.cache
            description = (
                f"{workload_name}/loop-cache {set_label} "
                f"({len(regions)} regions) size={cache.size} "
                f"line={cache.line_size} assoc={cache.associativity} "
                f"policy={cache.policy}"
                + (" +L2" if hierarchy.l2_cache is not None else "")
            )
            cases.append(VerifyCase(
                "workload", description,
                tuple(report_differences(reference, vector)),
            ))
    return cases


# -- check 3: audit cross-check -----------------------------------------------


def _audit_case(workload_name: str, scale: float,
                seed: int) -> VerifyCase:
    """Audit a vector-built conflict graph against reference events."""
    from repro.obs.events import audit_workload

    result = audit_workload(workload_name, scale=scale, seed=seed,
                            backend="vector")
    differences = tuple(
        mismatch.describe() for mismatch in result.mismatches
    )
    description = (
        f"{workload_name}: vector conflict graph vs "
        f"{result.events} reference events"
    )
    return VerifyCase("audit", description, differences)


# -- entry point --------------------------------------------------------------


def verify_kernel(
    workloads: tuple[str, ...] | list[str] | None = None,
    trials: int = 50,
    seed: int = 0,
    scale: float = 1.0,
) -> VerifyReport:
    """Run the full differential-verification suite.

    Args:
        workloads: workload names of the end-to-end and audit checks
            (default :data:`DEFAULT_WORKLOADS`).
        trials: randomized probe-level trials.
        seed: base seed; trial ``t`` uses ``seed + t``.
        scale: workload trip-count multiplier of the end-to-end runs.

    Returns:
        A :class:`VerifyReport`; ``report.ok`` is the verdict.
    """
    names = tuple(workloads) if workloads else DEFAULT_WORKLOADS
    cases: list[VerifyCase] = []
    with span("kernel.verify", trials=trials,
              workloads=len(names)) as verify_span:
        for trial in range(trials):
            cases.append(_probe_case(seed + trial))
        for workload_name in names:
            cases.extend(_workload_cases(workload_name, scale, seed))
            cases.append(_audit_case(workload_name, scale, seed))
        report = VerifyReport(tuple(cases))
        verify_span.add(cases=len(cases),
                        failures=len(report.failures))
    return report
