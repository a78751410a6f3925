"""The runtime concurrency sanitizer: assertions where the linter stops.

RPR011/RPR012 prove what they can statically; this module checks the
rest at runtime.  When enabled it instruments the three shared-state
hot spots the concurrent subsystems are built on:

* **BufferPool** (``repro.realio``) — the pool's lock is swapped for an
  owner-tracking lock and every :class:`RunCacheState` the pool owns is
  tagged so that *any* mutation of its counters without that lock held
  by the current thread is a violation (``RPR090``).  The simulator's
  own single-threaded ``RunCacheState`` instances are untagged and pay
  nothing.
* **LeaseManager** (``repro.dist``) — "the coordinator's event loop is
  its lock" is the design invariant; the first mutating call binds the
  owner thread and any mutation from another thread is a violation
  (``RPR091``).
* **ResultStore** (``repro.sweep``) — two threads writing the *same*
  cache key concurrently means single-flight/coalescing failed
  upstream; the write is atomic either way, but the stampede is a
  violation (``RPR092``).

Violations are **recorded, not raised**: they flow into the standard
:class:`~repro.lint.findings.Finding` shape so the existing reporters
render them, and :meth:`SanitizerReport.check` (or the atexit hook the
``REPRO_SANITIZE=1`` path installs) turns them into a failure at a
well-defined point instead of corrupting an arbitrary stack.

Activation is opt-in and nestable::

    with sanitized() as report:           # one scope
        RealMerge(...).run()

    REPRO_SANITIZE=1 python -m repro ...  # whole-process, atexit report

The instrumentation costs one dict lookup per attribute write on
*tagged* instances only, so it stays out of every benchmarked path
unless explicitly switched on.
"""

from __future__ import annotations

import atexit
import os
import sys
import threading
from contextlib import contextmanager
from typing import Any, Optional

from repro.lint.findings import Finding, Severity

#: Runtime rule ids.  The 09x block is reserved for sanitizer findings
#: so they can never collide with static rules (RPR001-RPR013).
POOL_RULE = "RPR090"
LEASE_RULE = "RPR091"
STORE_RULE = "RPR092"

#: Where runtime findings "live" when rendered by the reporters.
RUNTIME_PATH = "<runtime>"

#: The attribute used to tag sanitized instances.  Written through
#: ``__dict__`` so the guarded ``__setattr__`` never sees it.
_TAG = "_repro_sanitizer_lock"
_OWNER_TAG = "_repro_sanitizer_owner"

_ENV_VAR = "REPRO_SANITIZE"


class ConcurrencyViolation(RuntimeError):
    """Raised by :meth:`SanitizerReport.check` when violations exist."""


class SanitizerReport:
    """Thread-safe collector feeding the findings/reporters pipeline."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._findings: list[Finding] = []

    def record(self, rule: str, message: str) -> None:
        finding = Finding(
            path=RUNTIME_PATH,
            line=0,
            rule=rule,
            message=message,
            severity=Severity.ERROR,
        )
        with self._lock:
            self._findings.append(finding)

    def findings(self) -> list[Finding]:
        with self._lock:
            return list(self._findings)

    def clear(self) -> None:
        with self._lock:
            self._findings.clear()

    def render(self) -> str:
        return "\n".join(
            finding.render() for finding in self.findings()
        )

    def check(self) -> None:
        """Raise :class:`ConcurrencyViolation` if anything was recorded."""
        findings = self.findings()
        if findings:
            raise ConcurrencyViolation(
                f"{len(findings)} concurrency violation(s):\n"
                + "\n".join(finding.render() for finding in findings)
            )


#: The process-wide report every instrumented call records into.
_report = SanitizerReport()

#: Enable/disable refcount (nested :func:`sanitized` scopes).
_enabled = 0
_state_lock = threading.Lock()

#: Original attributes put back by :func:`disable`.
_originals: dict[str, Any] = {}

#: In-flight ResultStore writes: (store id, key) -> thread ident.
_inflight_lock = threading.Lock()
_inflight: dict[tuple[int, str], int] = {}


def report() -> SanitizerReport:
    """The process-wide sanitizer report."""
    return _report


def is_enabled() -> bool:
    return _enabled > 0


class OwnedLock:
    """A mutex that knows which thread holds it.

    Duck-types ``threading.Lock`` closely enough to back a
    ``threading.Condition`` (``_is_owned`` included), which is exactly
    how :class:`BufferPool` composes its lock and arrival condition.
    """

    __slots__ = ("_lock", "_owner")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._owner: Optional[int] = None

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._owner = threading.get_ident()
        return acquired

    def release(self) -> None:
        self._owner = None
        self._lock.release()

    def held_by_current_thread(self) -> bool:
        return self._owner == threading.get_ident()

    def _is_owned(self) -> bool:  # threading.Condition protocol
        return self.held_by_current_thread()

    def __enter__(self) -> "OwnedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


# -- RPR090: BufferPool / RunCacheState ---------------------------------------


def _guarded_setattr(self, name: str, value: Any) -> None:
    lock = self.__dict__.get(_TAG)
    if lock is not None and not lock.held_by_current_thread():
        _report.record(
            POOL_RULE,
            f"RunCacheState.{name} mutated without the pool lock held "
            f"(run {self.__dict__.get('run')}, thread "
            f"{threading.current_thread().name!r}); every pool-owned "
            "counter write must happen inside the BufferPool lock",
        )
    object.__setattr__(self, name, value)


def _patched_pool_init(self, capacity, run_blocks):
    _originals["pool_init"](self, capacity, run_blocks)
    owned = OwnedLock()
    self._lock = owned
    self._arrived = threading.Condition(owned)
    for state in self.runs:
        state.__dict__[_TAG] = owned


# -- RPR091: LeaseManager ------------------------------------------------------

_LEASE_MUTATORS = ("sweep_expired", "acquire", "heartbeat", "complete")

#: Mutators call each other (``acquire`` sweeps first); report only the
#: outermost call per thread, not every nested frame.
_lease_depth = threading.local()


def _lease_wrapper(name: str, original):
    def wrapper(self, *args, **kwargs):
        depth = getattr(_lease_depth, "value", 0)
        _lease_depth.value = depth + 1
        try:
            me = threading.get_ident()
            owner = self.__dict__.get(_OWNER_TAG)
            if owner is None:
                self.__dict__[_OWNER_TAG] = me
            elif owner != me and depth == 0:
                _report.record(
                    LEASE_RULE,
                    f"LeaseManager.{name} called from thread "
                    f"{threading.current_thread().name!r} but the manager "
                    "is owned by another thread; the coordinator's event "
                    "loop is the lease state machine's lock and no other "
                    "thread may mutate it",
                )
            return original(self, *args, **kwargs)
        finally:
            _lease_depth.value = depth

    wrapper.__name__ = original.__name__
    wrapper.__doc__ = original.__doc__
    wrapper.__wrapped__ = original
    return wrapper


# -- RPR092: ResultStore -------------------------------------------------------


def _store_put_wrapper(original):
    def wrapper(self, key, *args, **kwargs):
        me = threading.get_ident()
        token = (id(self), key)
        with _inflight_lock:
            other = _inflight.get(token)
            if other is not None and other != me:
                _report.record(
                    STORE_RULE,
                    f"concurrent ResultStore.put of cache key {key!r} "
                    "from two threads; single-flight/coalescing should "
                    "have deduplicated this write upstream (the rename "
                    "is atomic, the duplicate work is the bug)",
                )
            _inflight[token] = me
        try:
            return original(self, key, *args, **kwargs)
        finally:
            with _inflight_lock:
                _inflight.pop(token, None)

    wrapper.__name__ = original.__name__
    wrapper.__doc__ = original.__doc__
    wrapper.__wrapped__ = original
    return wrapper


# -- enable / disable ----------------------------------------------------------


def _patch() -> None:
    from repro.core.cache import RunCacheState
    from repro.dist.leases import LeaseManager
    from repro.realio.pool import BufferPool
    from repro.sweep.store import ResultStore

    _originals["state_setattr"] = RunCacheState.__setattr__
    RunCacheState.__setattr__ = _guarded_setattr
    _originals["pool_init"] = BufferPool.__init__
    BufferPool.__init__ = _patched_pool_init
    for name in _LEASE_MUTATORS:
        _originals[f"lease_{name}"] = getattr(LeaseManager, name)
        setattr(
            LeaseManager, name,
            _lease_wrapper(name, _originals[f"lease_{name}"]),
        )
    _originals["store_put"] = ResultStore.put
    ResultStore.put = _store_put_wrapper(_originals["store_put"])


def _unpatch() -> None:
    from repro.core.cache import RunCacheState
    from repro.dist.leases import LeaseManager
    from repro.realio.pool import BufferPool
    from repro.sweep.store import ResultStore

    RunCacheState.__setattr__ = _originals.pop("state_setattr")
    BufferPool.__init__ = _originals.pop("pool_init")
    for name in _LEASE_MUTATORS:
        setattr(LeaseManager, name, _originals.pop(f"lease_{name}"))
    ResultStore.put = _originals.pop("store_put")


def enable() -> None:
    """Instrument the shared-state hot spots (refcounted, nestable)."""
    global _enabled
    with _state_lock:
        if _enabled == 0:
            _patch()
        _enabled += 1


def disable() -> None:
    """Undo one :func:`enable`; instrumentation stops at refcount zero.

    Already-constructed pools keep their owner-tracking locks (they
    work unguarded), but tagged states stop reporting because the
    guarded ``__setattr__`` is removed from the class.
    """
    global _enabled
    with _state_lock:
        if _enabled == 0:
            return
        _enabled -= 1
        if _enabled == 0:
            _unpatch()


@contextmanager
def sanitized():
    """``with sanitized() as rep: ...`` — enable, yield the report."""
    enable()
    try:
        yield _report
    finally:
        disable()


def _atexit_report() -> None:  # pragma: no cover - exercised by smoke
    findings = _report.findings()
    if findings:
        print(
            f"sanitizer: {len(findings)} concurrency violation(s)",
            file=sys.stderr,
        )
        for finding in findings:
            print(f"sanitizer: {finding.render()}", file=sys.stderr)


def enable_from_env() -> bool:
    """Enable for the whole process when ``REPRO_SANITIZE=1`` is set.

    Called from the CLI entry point so every ``python -m repro``
    invocation (including dist worker and sweep subprocesses) honors
    the variable.  Installs an atexit hook that prints any violations
    to stderr with a stable ``sanitizer:`` prefix — the smoke harness
    greps for it.
    """
    if os.environ.get(_ENV_VAR, "").lower() not in ("1", "true", "yes"):
        return False
    enable()
    atexit.register(_atexit_report)
    return True
