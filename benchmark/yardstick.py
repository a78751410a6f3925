"""Host-speed yardstick: a fixed computation timed between iterations.

The speed of a shared host drifts: on the 2-vCPU development container
the same pure-Python work ran up to 1.7x slower for stretches of seconds
to minutes while other tenants were busy, and a run of 15 s often sat
in one such stretch.  Medians over a run cannot remove that, so the
bounded time metric divides a run's mean iteration time by the mean
time of this yardstick over the same run (both are time averages over
the same stretch of host time) and multiplies by :data:`REFERENCE_S`.
It reads as the iteration's wall time on a host where one yardstick
takes :data:`REFERENCE_S`.

The yardstick is a small discrete-event merge written against the
standard library only: heap pops, slotted objects, dict updates and
float arithmetic, the same kinds of work the simulator does.  It lives
in the benchmark, so no change to the program can make it faster or
slower.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: Seconds one yardstick takes on the reference host (the development
#: container's fast phase measured 8.5-10 ms).
REFERENCE_S = 0.010


class _Request:
    __slots__ = ("run", "block", "issued")

    def __init__(self, run: int, block: int, issued: float) -> None:
        self.run = run
        self.block = block
        self.issued = issued


def _merge(runs: int = 25, disks: int = 5, requests: int = 6000) -> None:
    """Serve ``requests`` block reads of ``runs`` runs over ``disks`` drives."""
    rng = random.Random(1992)
    heap: list = []
    seq = 0
    busy = [0.0] * disks
    cache: dict = {}
    for run in range(runs):
        heapq.heappush(heap, (rng.random(), seq, _Request(run, 0, 0.0)))
        seq += 1
    for _ in range(requests):
        now, _, request = heapq.heappop(heap)
        disk = request.run % disks
        busy[disk] = max(now, busy[disk]) + 1.0 + rng.random()
        cache[(request.run, request.block)] = busy[disk] - request.issued
        if len(cache) > 200:
            cache.pop(next(iter(cache)))
        heapq.heappush(
            heap, (busy[disk], seq, _Request(request.run, request.block + 1, now))
        )
        seq += 1


def time_once() -> float:
    """Seconds one yardstick takes now.

    The collector is off meanwhile, so the objects the program keeps
    alive cannot lengthen the yardstick through a collection.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _merge()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def sample(budget_s: float) -> list[float]:
    """Yardstick times, repeated for about ``budget_s`` (at least one)."""
    times = [time_once()]
    while sum(times) < budget_s:
        times.append(time_once())
    return times
