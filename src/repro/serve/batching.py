"""Micro-batching queue: coalesce compatible requests before solving.

Requests that share a compatibility key — same tenant, workload,
session configuration and allocator — are answered most cheaply as
*one* grid chunk: the workbench profiles once, the capacity axis
solves in ascending order with warm starts, and the single-pass cache
replay serves every capacity from one stream expansion
(``sim.kernel.stream_reuse``).  The :class:`MicroBatcher` parks each
incoming request in a per-key group and lets the executor decide when
the groups flush:

* **idle** — no batch this batcher flushed is running: the pending
  groups flush at the end of the current event-loop turn, so a lone
  request never waits on a timer while requests submitted in the same
  turn (an ``asyncio.gather`` burst) still share one batch;
* **complete** — a batch is running: new arrivals are held and every
  pending group flushes as the next batch the moment the running one
  completes;
* **full** — any group reaching ``max_batch`` requests flushes at
  once;
* **deadline** — ``max_delay_s`` caps how long a request is held
  behind a running batch;
* **drain** — :meth:`MicroBatcher.flush` (shutdown, tests).

A request whose caller stopped waiting (its future was cancelled, e.g.
the client disconnected) is dropped at flush and never executed.

Batching metrics (on the registry the batcher is built with):
``serve.batch.flushes`` (batches started) and
``serve.batch.flush.<reason>`` per trigger above,
``serve.batch.size`` (histogram of group sizes),
``serve.batch.coalesced`` (requests that joined an existing group
instead of opening one) and ``serve.batch.cancelled`` (requests
dropped at flush because nobody awaits them any more).
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Hashable

from repro.obs.metrics import MetricsRegistry

#: Default flush threshold: a group this large flushes immediately.
DEFAULT_MAX_BATCH = 8

#: Default hold cap in seconds: no request waits longer than this
#: behind a running batch for companions to coalesce with.
DEFAULT_MAX_DELAY_S = 0.02

#: One pending batch: ``(key, [request, ...])``.
Group = tuple[Hashable, list[Any]]


class MicroBatcher:
    """Group compatible requests and execute them in shared batches.

    Args:
        execute: async callable receiving the drained groups (a list
            of ``(key, requests)`` pairs) and returning one result
            list per group, aligned request-for-request.  Called from
            the event loop; long work belongs in an executor inside
            *execute*.
        max_batch: flush as soon as any single group holds this many
            requests.
        max_delay_s: while a batch is running, flush held requests at
            latest this long after the first of them arrived.
        registry: metrics registry receiving the batching counters
            (``None`` disables them).
    """

    def __init__(
        self,
        execute: Callable[[list[Group]], Awaitable[list[list[Any]]]],
        max_batch: int = DEFAULT_MAX_BATCH,
        max_delay_s: float = DEFAULT_MAX_DELAY_S,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._execute = execute
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self._registry = registry
        self._pending: dict[Hashable, list[tuple[Any,
                                                 asyncio.Future]]] = {}
        self._running = 0
        self._idle_flush: asyncio.Handle | None = None
        self._deadline: asyncio.TimerHandle | None = None

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self._registry is not None:
            self._registry.counter(name).inc(amount)

    async def submit(self, key: Hashable, request: Any) -> Any:
        """Enqueue *request* under *key*; await its individual result.

        The returned awaitable resolves with this request's entry of
        the batch result (or raises whatever the batch execution
        raised).
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        group = self._pending.setdefault(key, [])
        if group:
            self._count("serve.batch.coalesced")
        group.append((request, future))
        if len(group) >= self.max_batch:
            self._flush_now("full")
        elif not self._running:
            if self._idle_flush is None:
                self._idle_flush = loop.call_soon(self._flush_now,
                                                  "idle")
        elif self._deadline is None:
            self._deadline = loop.call_later(self.max_delay_s,
                                             self._flush_now, "deadline")
        return await future

    def _flush_now(self, reason: str) -> None:
        """Drain every pending group into one batch execution task."""
        for handle in (self._idle_flush, self._deadline):
            if handle is not None:
                handle.cancel()
        self._idle_flush = self._deadline = None
        drained: dict[Hashable, list[tuple[Any, asyncio.Future]]] = {}
        for key, entries in self._pending.items():
            live = [entry for entry in entries
                    if not entry[1].cancelled()]
            if len(live) < len(entries):
                self._count("serve.batch.cancelled",
                            len(entries) - len(live))
            if live:
                drained[key] = live
        self._pending = {}
        if not drained:
            return
        self._count("serve.batch.flushes")
        self._count(f"serve.batch.flush.{reason}")
        for group in drained.values():
            if self._registry is not None:
                self._registry.histogram("serve.batch.size").observe(
                    len(group))
        self._running += 1
        asyncio.get_running_loop().create_task(self._run(drained))

    async def flush(self) -> None:
        """Flush pending groups immediately (shutdown / tests)."""
        self._flush_now("drain")

    async def _run(
        self,
        drained: dict[Hashable, list[tuple[Any, asyncio.Future]]],
    ) -> None:
        """Execute one drained batch, distribute results, flush held."""
        groups: list[Group] = [
            (key, [request for request, _ in entries])
            for key, entries in drained.items()
        ]
        try:
            per_group = await self._execute(groups)
        except Exception as error:  # fan the failure out per request
            for entries in drained.values():
                for _, future in entries:
                    if not future.done():
                        future.set_exception(error)
        else:
            for (_, entries), results in zip(drained.items(),
                                             per_group):
                for (_, future), result in zip(entries, results):
                    if not future.done():
                        future.set_result(result)
        finally:
            self._running -= 1
            if not self._running and self._pending:
                self._flush_now("complete")
