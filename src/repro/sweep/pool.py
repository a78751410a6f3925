"""The one process pool: independent seeded trials on forked workers.

The trial memo, the sweep engine and the simulation server run trials
in other processes through a :class:`WorkerPool`, and nothing else
starts a process (DESIGN.md, "The worker pool").  A worker runs with
every ambient option cleared, so callers send configurations resolved
in the parent (:func:`repro.api.resolve_config`).
"""

from __future__ import annotations

import os
import signal
from typing import Any, Callable, Iterator, Optional, Sequence

from repro import api


def default_workers() -> int:
    """The CPUs this process may run on; 1 where fork is unavailable."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):  # Linux
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class WorkerPool:
    """Up to ``workers`` forked processes, started on the first task."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._executor: Optional[Any] = None
        #: Worker processes running now; 0 before the first task.
        self.size = 0

    def submit(self, tasks: int, fn: Callable[..., Any], *args: Any) -> Any:
        """Queue ``fn(*args)`` on at least ``min(workers, tasks)``
        processes; returns its :class:`concurrent.futures.Future`."""
        size = min(self.workers, tasks)
        if self.size < size:
            # A fork pool cannot grow, so a larger one replaces it.
            self.close()
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # Fork, not spawn: a spawned worker re-imports repro.  The
            # executor forks its workers before it starts its threads.
            self._executor = ProcessPoolExecutor(
                size,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_start_worker,
            )
            self.size = size
        return self._executor.submit(fn, *args)

    def results(self, fn: Callable[..., Any], calls: Sequence[tuple],
                in_order: bool) -> Iterator[tuple[int, Any]]:
        """``(index, fn(*calls[index]))`` for every call: in call order,
        or as each finishes.  A failing call, or a broken pool, raises
        here; the calls still queued are then cancelled."""
        from concurrent.futures import as_completed

        futures = {
            self.submit(len(calls), fn, *args): index
            for index, args in enumerate(calls)
        }
        try:
            for future in futures if in_order else as_completed(futures):
                yield futures[future], future.result()
        finally:
            for future in futures:
                future.cancel()

    def close(self) -> None:
        """Join the workers, if any started; queued tasks are dropped."""
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)
            self._executor = None
            self.size = 0


def _start_worker() -> None:
    """Pool initializer.  Ctrl-C is left to the parent, which cancels
    the queue and joins the pool; a watcher thread ends the worker if
    the parent dies first.  SIGTERM ends the worker rather than reach a
    parent's event loop through an inherited wakeup fd."""
    import multiprocessing
    import threading

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)
    parent = multiprocessing.parent_process()

    def exit_with_parent() -> None:
        parent.join()
        os._exit(1)

    threading.Thread(target=exit_with_parent, daemon=True).start()
    api.configure(
        backend=None, fault_plan=None, kernel=None, trace=None
    ).__enter__()
