"""Parallel work-unit execution must be indistinguishable from serial."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.engine import store as store_module
from repro.engine.grid import GridChunk, evaluate_chunk
from repro.engine.parallel import map_points
from repro.engine.runner import RunRecord
from repro.engine.store import ArtifactStore, KeyValueBackend, \
    set_default_store
from repro.errors import ConfigurationError

#: One-size chunks: a single design point each.
POINTS = [
    GridChunk("tiny", (64,), "casa", scale=0.2),
    GridChunk("tiny", (64,), "steinke", scale=0.2),
    GridChunk("tiny", (128,), "casa", scale=0.2),
    GridChunk("tiny", (0,), "baseline", scale=0.2),
]


@pytest.fixture
def shared_cache(tmp_path):
    """A disk-backed default store the worker pool can share."""
    previous = set_default_store(
        ArtifactStore(cache_dir=tmp_path / "cache")
    )
    yield
    set_default_store(previous)


def test_parallel_matches_serial(shared_cache):
    serial = map_points(POINTS, jobs=1)
    parallel = map_points(POINTS, jobs=2)
    assert len(parallel) == len(serial)
    for [left], [right] in zip(serial, parallel):
        assert left.energy.total == right.energy.total
        assert left.report.cache_misses == right.report.cache_misses
        assert left.allocation.algorithm == right.allocation.algorithm


def test_parallel_merges_worker_records(shared_cache):
    record = RunRecord()
    map_points(POINTS, jobs=2, record=record)
    assert record.computed("result") + record.hits("result") \
        == sum(1 for p in POINTS if p.algorithm != "baseline")


def test_unknown_algorithm_rejected_before_spawning():
    bogus = [GridChunk("tiny", (64,), "annealing")]
    with pytest.raises(ConfigurationError):
        map_points(bogus, jobs=2)
    with pytest.raises(ConfigurationError):
        evaluate_chunk(bogus[0])


def test_single_point_runs_serially(shared_cache):
    record = RunRecord()
    [[result]] = map_points([POINTS[0]], jobs=8, record=record)
    assert result.allocation.algorithm == "casa"
    assert record.computed("execution") == 1


def test_pool_workers_keep_the_parents_store_backend(monkeypatch):
    """Workers write through the parent's registered backend.

    A key-value backend over a cross-process mapping receives the same
    entries from a two-worker run as from a serial one; a worker that
    rebuilt its store from the cache directory alone would write
    nothing there.
    """
    manager = multiprocessing.Manager()
    try:
        shared = manager.dict()
        monkeypatch.setitem(store_module._BACKENDS, "test-shared-kv",
                            lambda arg: KeyValueBackend(shared))
        entries = {}
        for jobs in (1, 2):
            shared.clear()
            previous = set_default_store(
                ArtifactStore(backend="test-shared-kv"))
            try:
                map_points(POINTS, jobs=jobs)
            finally:
                set_default_store(previous)
            entries[jobs] = len(shared)
    finally:
        manager.shutdown()
    assert entries[1] > 0
    assert entries[2] == entries[1]


def test_unknown_worker_backend_falls_back_to_serial(monkeypatch):
    """A backend name the workers cannot resolve degrades to serial."""
    monkeypatch.setitem(store_module._BACKENDS, "test-parent-only",
                        lambda arg: KeyValueBackend())
    store = ArtifactStore(backend="test-parent-only")
    # Forked workers would inherit the registration; drop it from the
    # registry the workers see by unregistering after the store exists.
    monkeypatch.delitem(store_module._BACKENDS, "test-parent-only")
    previous = set_default_store(store)
    try:
        results = map_points(POINTS, jobs=2)
    finally:
        set_default_store(previous)
    assert len(results) == len(POINTS)
    assert store.persistent_backend.usage()[0] > 0
