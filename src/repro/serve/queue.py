"""Bounded compute admission: load shedding for the worker pool.

The worker pool absorbs at most ``workers`` computations at a time;
everything beyond that waits.  Unbounded waiting is how services fall
over — latency grows without limit while clients retry and multiply
the load — so admission to the compute path is a fixed number of
*slots* (``queue_limit``): a request that cannot get a slot is shed
immediately with ``503`` and a ``Retry-After``; nothing waits for one.

This is plain counting, not an :class:`asyncio.Queue` of work items:
the pool executor already queues the callables; what needs bounding is
how much work the *service* admits ahead of it.
"""

from __future__ import annotations

import contextlib
from typing import AsyncIterator


class QueueFullError(RuntimeError):
    """No compute slot available: shed the request (HTTP 503)."""


class AdmissionQueue:
    """A fixed pool of compute slots shared by every request.

    ``limit <= 0`` disables bounding (every acquisition succeeds),
    mirroring :class:`repro.serve.limiter.RateLimiter`'s off switch.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self._held = 0

    @property
    def depth(self) -> int:
        """Slots currently held (the /v1/metricz queue-depth gauge)."""
        return self._held

    @property
    def bounded(self) -> bool:
        return self.limit > 0

    def try_acquire(self) -> None:
        """Take a slot or raise :class:`QueueFullError` (never waits)."""
        if self.bounded and self._held >= self.limit:
            raise QueueFullError(
                f"all {self.limit} compute slots are busy"
            )
        self._held += 1

    def release(self) -> None:
        if self._held <= 0:
            raise RuntimeError("release() without a held slot")
        self._held -= 1

    @contextlib.asynccontextmanager
    async def slot(self) -> AsyncIterator[None]:
        """Scoped slot: :meth:`try_acquire`, released on exit."""
        self.try_acquire()
        try:
            yield
        finally:
            self.release()
