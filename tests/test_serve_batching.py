"""Unit tests of the executor-driven micro-batcher.

A fake ``execute`` records every batch it is handed and, while its
gate is closed, holds the batch "running" — so each test controls
exactly when the batcher sees a batch in flight and when it completes.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.batching import MicroBatcher

#: A hold cap no test should ever wait out.
NEVER_S = 30.0

#: Bound on how long a flush that must not wait on a timer may take.
PROMPT_S = 2.0


class _FakeExecutor:
    """Records batches; blocks the first *gated* of them on a gate."""

    def __init__(self, gated: int = 0, error: Exception | None = None
                 ) -> None:
        self.batches: list[list[tuple]] = []
        self.gate = asyncio.Event()
        self.gated = gated
        self.error = error

    async def __call__(self, groups):
        self.batches.append(groups)
        if len(self.batches) <= self.gated:
            await self.gate.wait()
        if self.error is not None:
            raise self.error
        return [[(key, request) for request in requests]
                for key, requests in groups]


def _batcher(execute: _FakeExecutor, **overrides
             ) -> tuple[MicroBatcher, MetricsRegistry]:
    registry = MetricsRegistry()
    options = dict(max_batch=8, max_delay_s=NEVER_S)
    options.update(overrides)
    return MicroBatcher(execute, registry=registry, **options), registry


async def _until(predicate, timeout_s: float = PROMPT_S) -> None:
    """Yield to the loop until *predicate* holds (or time runs out)."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.001)


def _flushes(registry: MetricsRegistry) -> dict[str, float]:
    return {reason: registry.value(f"serve.batch.flush.{reason}")
            for reason in ("idle", "complete", "full", "deadline",
                           "drain")}


def test_lone_submit_flushes_without_the_timer():
    execute = _FakeExecutor()
    batcher, registry = _batcher(execute)

    async def scenario():
        return await asyncio.wait_for(batcher.submit("k", "a"),
                                      PROMPT_S)

    assert asyncio.run(scenario()) == ("k", "a")
    assert execute.batches == [[("k", ["a"])]]
    assert _flushes(registry)["idle"] == 1
    assert _flushes(registry)["deadline"] == 0
    assert registry.value("serve.batch.flushes") == 1


def test_same_turn_burst_coalesces_into_one_flush():
    execute = _FakeExecutor()
    batcher, registry = _batcher(execute)

    async def scenario():
        return await asyncio.gather(
            *[batcher.submit("k", name) for name in "abc"])

    assert asyncio.run(scenario()) == [("k", "a"), ("k", "b"),
                                       ("k", "c")]
    assert execute.batches == [[("k", ["a", "b", "c"])]]
    assert registry.value("serve.batch.flushes") == 1
    assert registry.value("serve.batch.flush.idle") == 1
    assert registry.value("serve.batch.coalesced") == 2


def test_arrivals_during_a_running_batch_flush_on_completion():
    execute = _FakeExecutor(gated=1)
    batcher, registry = _batcher(execute)

    async def scenario():
        first = asyncio.ensure_future(batcher.submit("k", "a"))
        await _until(lambda: len(execute.batches) == 1)
        held = [asyncio.ensure_future(batcher.submit(key, name))
                for key, name in (("k", "b"), ("j", "c"), ("k", "d"))]
        await asyncio.sleep(0.05)
        assert len(execute.batches) == 1  # held behind the running one
        started = time.monotonic()
        execute.gate.set()
        results = await asyncio.gather(first, *held)
        return results, time.monotonic() - started

    results, waited = asyncio.run(scenario())
    assert results == [("k", "a"), ("k", "b"), ("j", "c"), ("k", "d")]
    assert waited < PROMPT_S < NEVER_S
    assert execute.batches[1] == [("k", ["b", "d"]), ("j", ["c"])]
    assert _flushes(registry) == {"idle": 1, "complete": 1, "full": 0,
                                  "deadline": 0, "drain": 0}
    assert registry.value("serve.batch.flushes") == 2


def test_max_delay_caps_the_hold_behind_a_slow_batch():
    execute = _FakeExecutor(gated=1)
    batcher, registry = _batcher(execute, max_delay_s=0.05)

    async def scenario():
        slow = asyncio.ensure_future(batcher.submit("k", "a"))
        await _until(lambda: len(execute.batches) == 1)
        held = await asyncio.wait_for(batcher.submit("k", "b"),
                                      PROMPT_S)
        assert not slow.done()  # the slow batch is still running
        execute.gate.set()
        return held, await slow

    assert asyncio.run(scenario()) == (("k", "b"), ("k", "a"))
    assert execute.batches == [[("k", ["a"])], [("k", ["b"])]]
    assert _flushes(registry)["deadline"] == 1
    assert _flushes(registry)["complete"] == 0


def test_max_batch_flushes_a_full_group_at_once():
    execute = _FakeExecutor(gated=1)
    batcher, registry = _batcher(execute, max_batch=2)

    async def scenario():
        slow = asyncio.ensure_future(batcher.submit("k", "a"))
        await _until(lambda: len(execute.batches) == 1)
        full = await asyncio.wait_for(asyncio.gather(
            batcher.submit("k", "b"), batcher.submit("k", "c")),
            PROMPT_S)
        assert not slow.done()
        execute.gate.set()
        return full, await slow

    full, slow = asyncio.run(scenario())
    assert full == [("k", "b"), ("k", "c")]
    assert slow == ("k", "a")
    assert execute.batches[1] == [("k", ["b", "c"])]
    assert _flushes(registry)["full"] == 1
    assert _flushes(registry)["deadline"] == 0


def test_execute_failure_reaches_every_member():
    failure = RuntimeError("solver exploded")
    execute = _FakeExecutor(error=failure)
    batcher, _ = _batcher(execute)

    async def scenario():
        return await asyncio.gather(
            batcher.submit("k", "a"), batcher.submit("k", "b"),
            batcher.submit("j", "c"), return_exceptions=True)

    assert asyncio.run(scenario()) == [failure, failure, failure]
    assert len(execute.batches) == 1


def test_cancelled_member_is_never_executed():
    execute = _FakeExecutor(gated=1)
    batcher, registry = _batcher(execute, max_delay_s=0.05)

    async def scenario():
        first = asyncio.ensure_future(batcher.submit("k", "a"))
        await _until(lambda: len(execute.batches) == 1)
        orphan = asyncio.ensure_future(batcher.submit("k", "b"))
        await asyncio.sleep(0.01)  # held behind the running batch
        orphan.cancel()
        await asyncio.sleep(0.1)  # past the hold cap
        execute.gate.set()
        result = await first
        await asyncio.sleep(0.05)  # any completion flush has run
        return result

    assert asyncio.run(scenario()) == ("k", "a")
    assert execute.batches == [[("k", ["a"])]]
    assert registry.value("serve.batch.cancelled") == 1
    assert registry.value("serve.batch.flushes") == 1


def test_cancelled_member_leaves_its_live_peers_in_the_batch():
    execute = _FakeExecutor(gated=1)
    batcher, registry = _batcher(execute)

    async def scenario():
        first = asyncio.ensure_future(batcher.submit("k", "a"))
        await _until(lambda: len(execute.batches) == 1)
        orphan = asyncio.ensure_future(batcher.submit("k", "b"))
        peer = asyncio.ensure_future(batcher.submit("k", "c"))
        await asyncio.sleep(0.01)
        orphan.cancel()
        execute.gate.set()
        with pytest.raises(asyncio.CancelledError):
            await orphan
        return await first, await peer

    assert asyncio.run(scenario()) == (("k", "a"), ("k", "c"))
    assert execute.batches[1] == [("k", ["c"])]
    assert registry.value("serve.batch.cancelled") == 1
    assert registry.value("serve.batch.size") == 2  # sizes 1 + 1


def test_flush_drains_held_requests_immediately():
    execute = _FakeExecutor(gated=1)
    batcher, registry = _batcher(execute)

    async def scenario():
        first = asyncio.ensure_future(batcher.submit("k", "a"))
        await _until(lambda: len(execute.batches) == 1)
        held = asyncio.ensure_future(batcher.submit("k", "b"))
        await asyncio.sleep(0.01)
        await batcher.flush()
        result = await asyncio.wait_for(held, PROMPT_S)
        execute.gate.set()
        return result, await first

    assert asyncio.run(scenario()) == (("k", "b"), ("k", "a"))
    assert _flushes(registry)["drain"] == 1
