"""The runtime concurrency sanitizer: planted violations, clean paths.

Each rule gets one deliberately broken interleaving (which must be
recorded exactly once, through the standard findings pipeline) and one
legitimate path (which must stay silent).  Enable/disable symmetry is
load-bearing: the instrumentation must leave zero residue on the
patched classes after the last scope exits, or every other test in
this process would pay for it.
"""

import threading
from dataclasses import MISSING, fields

import pytest

from repro.core.cache import RunCacheState
from repro.core.metrics import MergeMetrics
from repro.dist.leases import LeaseManager
from repro.dist.shards import Shard
from repro.lint import sanitizer
from repro.lint.sanitizer import ConcurrencyViolation, OwnedLock
from repro.realio.pool import BufferPool
from repro.sweep.store import ResultStore


@pytest.fixture(autouse=True)
def _fresh_report():
    sanitizer.report().clear()
    yield
    sanitizer.report().clear()


def _metrics() -> MergeMetrics:
    """A structurally valid MergeMetrics (zeroed scalars, empty lists)."""
    kwargs = {}
    for f in fields(MergeMetrics):
        if f.default is not MISSING or f.default_factory is not MISSING:
            continue
        kwargs[f.name] = [] if f.name == "drive_stats" else 0
    metrics = MergeMetrics(**kwargs)
    metrics.to_dict()  # must serialize, or the puts never reach the disk
    return metrics


def _in_thread(target, name):
    thread = threading.Thread(target=target, name=name)
    thread.start()
    thread.join()


# -- RPR090: BufferPool / RunCacheState ---------------------------------------

def test_unlocked_pool_state_mutation_is_reported_once():
    with sanitizer.sanitized() as report:
        pool = BufferPool(4, [2, 2])
        pool.reserve(0, 1)  # the merge thread's own path takes the lock
        assert report.findings() == []

        def rogue():
            pool.runs[1].cached += 1

        _in_thread(rogue, "rogue")
        findings = report.findings()
        assert [f.rule for f in findings] == ["RPR090"]
        assert findings[0].path == sanitizer.RUNTIME_PATH
        assert "pool lock" in findings[0].message
        assert "'rogue'" in findings[0].message
        assert "RPR090" in findings[0].render()
        with pytest.raises(ConcurrencyViolation, match="RPR090"):
            report.check()


def test_simulators_own_cache_states_stay_untagged():
    # Only pool-owned states are tagged; the deterministic simulator's
    # single-threaded RunCacheState instances must cost nothing.
    with sanitizer.sanitized() as report:
        state = RunCacheState(0, 4)
        state.cached += 1
        assert report.findings() == []


# -- RPR091: LeaseManager ------------------------------------------------------

def test_lease_mutation_from_a_foreign_thread_is_reported_once():
    with sanitizer.sanitized() as report:
        manager = LeaseManager([
            Shard(shard_id="s0", jobs=()),
            Shard(shard_id="s1", jobs=()),
        ])
        manager.acquire("w0")  # first mutator binds this thread as owner
        assert report.findings() == []
        _in_thread(lambda: manager.acquire("w1"), "intruder")
        # acquire() sweeps expired leases internally: the nested mutator
        # must not double-report.
        findings = report.findings()
        assert [f.rule for f in findings] == ["RPR091"]
        assert "owned by another thread" in findings[0].message


# -- RPR092: ResultStore -------------------------------------------------------

def test_concurrent_same_key_puts_are_reported_once(tmp_path, monkeypatch):
    import repro.sweep.store as store_module

    real_write = store_module.atomic_write_json
    barrier = threading.Barrier(2, timeout=10)

    def rendezvous_write(path, payload):
        barrier.wait()  # both writers provably in flight at once
        real_write(path, payload)

    monkeypatch.setattr(store_module, "atomic_write_json", rendezvous_write)
    with sanitizer.sanitized() as report:
        store = ResultStore(tmp_path)
        metrics = _metrics()
        writers = [
            threading.Thread(target=lambda: store.put("k", metrics),
                             name=f"writer-{i}")
            for i in range(2)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join()
        findings = report.findings()
        assert [f.rule for f in findings] == ["RPR092"]
        assert "cache key 'k'" in findings[0].message
        assert store.get("k") is not None  # the write itself stays atomic


def test_sequential_puts_of_the_same_key_are_silent(tmp_path):
    with sanitizer.sanitized() as report:
        store = ResultStore(tmp_path)
        metrics = _metrics()
        store.put("a", metrics)
        store.put("a", metrics)
        assert report.findings() == []


# -- activation surfaces -------------------------------------------------------

def test_disable_restores_the_patched_classes_exactly():
    before_setattr = RunCacheState.__setattr__
    before_init = BufferPool.__init__
    before_put = ResultStore.put
    before_acquire = LeaseManager.acquire
    with sanitizer.sanitized():
        assert sanitizer.is_enabled()
        assert RunCacheState.__setattr__ is not before_setattr
        assert LeaseManager.acquire.__wrapped__ is before_acquire
        with sanitizer.sanitized():  # nesting refcounts, never re-patches
            inner_put = ResultStore.put
        assert ResultStore.put is inner_put
        assert sanitizer.is_enabled()
    assert not sanitizer.is_enabled()
    assert RunCacheState.__setattr__ is before_setattr
    assert BufferPool.__init__ is before_init
    assert ResultStore.put is before_put
    assert LeaseManager.acquire is before_acquire


def test_sanitized_scopes_the_instrumentation():
    assert not sanitizer.is_enabled()
    with sanitizer.sanitized() as report:
        assert sanitizer.is_enabled()
        assert report is sanitizer.report()
    assert not sanitizer.is_enabled()


def test_enable_from_env_honors_the_variable(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert sanitizer.enable_from_env() is False
    assert not sanitizer.is_enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "yes")
    assert sanitizer.enable_from_env() is True
    try:
        assert sanitizer.is_enabled()
    finally:
        sanitizer.disable()
    assert not sanitizer.is_enabled()


def test_owned_lock_backs_a_condition_and_tracks_ownership():
    lock = OwnedLock()
    assert not lock.held_by_current_thread()
    with lock:
        assert lock.held_by_current_thread()
        assert lock._is_owned()
    assert not lock.held_by_current_thread()
    condition = threading.Condition(lock)
    with condition:
        condition.notify_all()  # requires _is_owned() to say True
