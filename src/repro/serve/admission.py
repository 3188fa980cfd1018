"""Bounded admission queue with batch coalescing and 429 backpressure.

Every request enters through :meth:`AdmissionQueue.submit`.  The queue
holds at most ``max_depth`` waiting tickets; a request arriving past
that is shed on the spot with a 429 and a ``Retry-After`` hint — the
service never buffers unbounded load.  Admitted tickets are drained by
a single dispatcher coroutine that coalesces up to ``batch_max``
consecutive tickets into one :meth:`PlacementService.serve_batch` call.
Coalescing batches admission only: the tickets are served strictly in
order, each decision scoring the used classes it has not seen before,
so the decision stream is bit-identical to the same requests arriving
one at a time.  The coalescing-determinism tests assert exactly that by
comparing rolling decision digests.

The dispatcher is lazy and loop-aware: it is (re)spawned on first use
inside whichever event loop is running, so the queue survives repeated
``asyncio.run`` calls (the in-process test client runs one per
request).
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, Optional, Tuple

from repro.serve.service import PlacementService, ServeRequest, ServeResponse
from repro.util.validation import require

__all__ = ["AdmissionQueue"]


class AdmissionQueue:
    """Coalesces concurrent requests into ordered service batches.

    Args:
        service: the placement service batches are served against.
        max_depth: tickets allowed to wait; arrivals past this shed 429.
        batch_max: most tickets coalesced into one ``serve_batch`` call.
    """

    def __init__(
        self,
        service: PlacementService,
        max_depth: int = 64,
        batch_max: int = 16,
    ):
        require(max_depth >= 1, "max_depth must be >= 1")
        require(batch_max >= 1, "batch_max must be >= 1")
        self._service = service
        self.max_depth = max_depth
        self.batch_max = batch_max
        self._queue: Deque[
            Tuple[ServeRequest, "asyncio.Future[ServeResponse]"]
        ] = deque()
        self._dispatcher: Optional["asyncio.Task[None]"] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    @property
    def depth(self) -> int:
        """Tickets currently waiting for the dispatcher."""
        return len(self._queue)

    async def submit(self, request: ServeRequest) -> ServeResponse:
        """Admit (or shed) one request and await its terminal outcome."""
        if len(self._queue) >= self.max_depth:
            return self._service.shed_queue_full(request)
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[ServeResponse]" = loop.create_future()
        self._queue.append((request, future))
        self._service.counters.admitted += 1
        self._ensure_dispatcher(loop)
        return await future

    def _ensure_dispatcher(self, loop: asyncio.AbstractEventLoop) -> None:
        # A dispatcher from a previous asyncio.run() is bound to a dead
        # loop; spawn a fresh one on the loop actually running.
        if (
            self._dispatcher is not None
            and not self._dispatcher.done()
            and self._loop is loop
        ):
            return
        self._loop = loop
        self._dispatcher = loop.create_task(self._drain())

    async def _drain(self) -> None:
        """Serve coalesced batches until the queue runs dry."""
        # One scheduling round so concurrent submits of the same tick
        # land in the queue before the first batch is cut — this is what
        # makes a burst coalesce instead of degenerating into singleton
        # batches.
        await asyncio.sleep(0)
        while self._queue:
            batch = [
                self._queue.popleft()
                for _ in range(min(self.batch_max, len(self._queue)))
            ]
            responses = self._service.serve_batch([r for r, _ in batch])
            for (_, future), response in zip(batch, responses):
                if not future.cancelled():
                    future.set_result(response)
            # Let admitted-but-unqueued arrivals in before the next cut.
            await asyncio.sleep(0)
