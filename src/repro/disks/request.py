"""I/O request objects exchanged between the merge CPU and the drives.

One :class:`BlockFetchRequest` covers a *contiguous* range of blocks of
one run.  The drive services the blocks in order and fires one event per
block as it lands in memory, plus a completion event for the whole
request; the unsynchronized CPU waits only on the first (demand) block's
event while synchronized operation waits on the completion events.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class FetchKind(enum.Enum):
    """Why a fetch was issued."""

    DEMAND = "demand"
    PREFETCH = "prefetch"


class BlockFetchRequest:
    """A contiguous multi-block read of one run.

    Attributes:
        run: run identifier.
        first_block: index (within the run) of the first block fetched.
        count: number of contiguous blocks.
        kind: demand fetch or pure prefetch.
        block_events: one event per block, fired as that block arrives;
            ``block_events[i]`` corresponds to run block
            ``first_block + i``.
        completed: fires once every block of the request has arrived.
        issue_time: virtual time the request was queued.
    """

    __slots__ = (
        "run",
        "first_block",
        "count",
        "kind",
        "block_events",
        "completed",
        "issue_time",
        "start_service_time",
        "finish_time",
    )

    def __init__(
        self,
        sim: "Simulator",
        run: int,
        first_block: int,
        count: int,
        kind: FetchKind,
    ) -> None:
        if count < 1:
            raise ValueError("a fetch must cover at least one block")
        if first_block < 0:
            raise ValueError("first_block must be non-negative")
        self.run = run
        self.first_block = first_block
        self.count = count
        self.kind = kind
        self.block_events = [sim.event() for _ in range(count)]
        self.completed = sim.event()
        self.issue_time = sim.now
        self.start_service_time: float | None = None
        self.finish_time: float | None = None

    @property
    def demand_event(self) -> Event:
        """Arrival event of the first block (the demand-fetch block)."""
        return self.block_events[0]

    @property
    def last_block(self) -> int:
        """Index within the run of the final block covered."""
        return self.first_block + self.count - 1

    def __repr__(self) -> str:
        return (
            f"BlockFetchRequest(run={self.run}, blocks="
            f"[{self.first_block}..{self.last_block}], kind={self.kind.value})"
        )
