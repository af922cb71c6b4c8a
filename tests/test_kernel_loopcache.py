"""Edge cases of the vector kernel behind a preloaded loop cache.

Every case replays hand-placed fetch segments (a
:class:`~repro.memory.kernel.verify.SegmentImage`) through both
backends and requires bit-identical reports; the reference
interpreter is the oracle.
"""

import pytest

from repro.errors import AllocationError, ConfigurationError
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import HierarchyConfig, simulate
from repro.memory.kernel import SweepGrid, compile_stream, \
    report_differences, simulate_grid
from repro.memory.kernel.verify import SegmentImage
from repro.memory.loopcache import LoopCacheConfig, LoopRegion
from repro.traces.layout import FetchSegment

LOOP_CACHE = LoopCacheConfig(size=512, max_regions=4)

#: Three objects: A has one 8-word segment at 0x100, B one 4-word
#: segment at 0x200, C two 3-word segments at 0x300 and 0x340.
BLOCKS = {
    "a": [FetchSegment("A", 0x100, 8, False)],
    "b": [FetchSegment("B", 0x200, 4, False)],
    "c": [FetchSegment("C", 0x300, 3, False),
          FetchSegment("C", 0x340, 3, False)],
}
SEQUENCE = ["a", "b", "a", "c", "b", "a", "c", "a", "b", "b", "a"]
NAMES = ("A", "B", "C")


def cache(policy="lru", associativity=2):
    return CacheConfig(size=64, line_size=16,
                       associativity=associativity, policy=policy)


def image():
    return SegmentImage(NAMES, BLOCKS)


def run_both(regions, policy="lru", associativity=2, sequence=SEQUENCE):
    """Both backends' reports; asserts they are identical."""
    hierarchy = HierarchyConfig(cache=cache(policy, associativity),
                                loop_cache=LOOP_CACHE)
    reference = simulate(image(), hierarchy, sequence,
                         loop_regions=regions, backend="reference")
    vector = simulate(image(), hierarchy, sequence,
                      loop_regions=regions, backend="vector")
    assert report_differences(reference, vector) == []
    return vector


def executions(block):
    return SEQUENCE.count(block)


class TestRegionShapes:
    def test_region_exactly_covering_a_segment(self):
        report = run_both([LoopRegion("a", 0x100, 32)])
        stats = report.mo_stats["A"]
        assert stats.lc_accesses == 8 * executions("a")
        assert stats.cache_hits == stats.cache_misses == 0

    @pytest.mark.parametrize("policy", ["lru", "fifo", "lfu", "2q"])
    @pytest.mark.parametrize("start, size", [
        (0x108, 64),    # starts mid-segment: A's first 2 words spill
        (0x0f0, 0x20),  # ends mid-segment: A's last 4 words spill
        (0x108, 8),     # both ends inside: words 0-1 and 4-7 spill
    ])
    def test_region_boundary_inside_a_segment(self, policy, start,
                                              size):
        region = LoopRegion("cut", start, size)
        covered = sum(region.covers(0x100 + 4 * k) for k in range(8))
        report = run_both([region], policy=policy)
        assert report.mo_stats["A"].lc_accesses == \
            covered * executions("a")

    def test_straddling_words_become_one_word_segments(self):
        stream = compile_stream(image(), SEQUENCE)
        view = stream.with_loop_regions([LoopRegion("cut", 0x108, 8)])
        first = view.seg_words[:7].tolist()
        # One loop-cache segment of the 2 covered words, then the
        # 6 uncovered words one at a time, in address order.
        assert first == [2, 1, 1, 1, 1, 1, 1]
        assert view.seg_on_lc[:7].tolist() == [True] + [False] * 6
        assert view.seg_addr[1:7].tolist() == [
            0x100, 0x104, 0x110, 0x114, 0x118, 0x11c,
        ]
        assert view.total_words == stream.total_words

    def test_two_adjacent_regions(self):
        regions = [LoopRegion("lo", 0x100, 8), LoopRegion("hi", 0x108, 8)]
        report = run_both(regions, policy="lfu")
        assert report.mo_stats["A"].lc_accesses == 4 * executions("a")

    def test_regions_over_several_objects(self):
        regions = [LoopRegion("ab", 0x11c, 0x100),
                   LoopRegion("c", 0x344, 4)]
        report = run_both(regions, policy="2q", associativity=4)
        assert report.mo_stats["C"].lc_accesses == executions("c")


class TestAccounting:
    def test_empty_region_list_checks_every_word(self):
        report = run_both([])
        assert report.lc_accesses == 0
        assert report.lc_controller_checks == report.total_fetches

    def test_controller_checks_every_word_with_regions(self):
        report = run_both([LoopRegion("cut", 0x108, 8)])
        assert report.lc_controller_checks == report.total_fetches

    def test_object_served_only_by_the_loop_cache(self):
        report = run_both([LoopRegion("b", 0x200, 16)])
        stats = report.mo_stats["B"]
        assert stats.lc_accesses == stats.fetches == \
            4 * executions("b")
        assert stats.cache_hits == stats.cache_misses == 0
        assert stats.compulsory_misses == 0
        assert list(report.mo_stats) == ["A", "B", "C"]
        assert all("B" not in pair for pair in report.conflict_misses)

    def test_eq4_holds_per_object(self):
        report = run_both([LoopRegion("cut", 0x10c, 0x100)],
                          policy="fifo")
        for stats in report.mo_stats.values():
            assert stats.check_identity(), stats.identity_breakdown()
        assert report.lc_accesses > 0

    def test_grid_replays_a_region_free_loop_cache(self):
        hierarchy = HierarchyConfig(cache=cache(), loop_cache=LOOP_CACHE)
        [grid_report] = simulate_grid(compile_stream(image(), SEQUENCE),
                                      SweepGrid.of([hierarchy]))
        reference = simulate(image(), hierarchy, SEQUENCE,
                             backend="reference")
        assert report_differences(reference, grid_report) == []
        assert grid_report.lc_controller_checks == \
            grid_report.total_fetches

    def test_view_is_not_memoised_on_the_stream(self):
        stream = compile_stream(image(), SEQUENCE)
        before = stream.probes(16)
        view = stream.with_loop_regions([LoopRegion("a", 0x100, 32)])
        assert len(view.probes(16)) < len(before)
        assert stream.probes(16) is before
        assert stream.seg_on_lc is None
        assert not view.same_as(stream)


class TestRejections:
    def test_opt_with_a_loop_cache_raises(self):
        with pytest.raises(ConfigurationError, match="opt"):
            HierarchyConfig(cache=cache("opt"), loop_cache=LOOP_CACHE)

    @pytest.mark.parametrize("policy", ["arc", "random"])
    def test_vector_rejects_unvectorized_policy_with_loop_cache(
            self, policy):
        hierarchy = HierarchyConfig(cache=cache(policy),
                                    loop_cache=LOOP_CACHE)
        with pytest.raises(ConfigurationError,
                           match=f"replacement policy '{policy}'"):
            simulate(image(), hierarchy, SEQUENCE,
                     loop_regions=[LoopRegion("a", 0x100, 32)],
                     backend="vector")

    @pytest.mark.parametrize("backend", ["reference", "vector"])
    def test_regions_without_a_loop_cache_raise(self, backend):
        with pytest.raises(ConfigurationError, match="no loop cache"):
            simulate(image(), HierarchyConfig(cache=cache()), SEQUENCE,
                     loop_regions=[LoopRegion("a", 0x100, 32)],
                     backend=backend)

    @pytest.mark.parametrize("backend", ["reference", "vector"])
    def test_overlapping_regions_raise(self, backend):
        hierarchy = HierarchyConfig(cache=cache(), loop_cache=LOOP_CACHE)
        with pytest.raises(AllocationError, match="overlaps"):
            simulate(image(), hierarchy, SEQUENCE,
                     loop_regions=[LoopRegion("x", 0x100, 16),
                                   LoopRegion("y", 0x108, 16)],
                     backend=backend)
