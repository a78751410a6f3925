"""Admission-queue slot accounting: every slot is taken or shed."""

import asyncio

import pytest

from repro.serve.queue import AdmissionQueue, QueueFullError


def test_try_acquire_sheds_at_the_limit():
    queue = AdmissionQueue(limit=2)
    queue.try_acquire()
    queue.try_acquire()
    assert queue.depth == 2
    with pytest.raises(QueueFullError):
        queue.try_acquire()
    queue.release()
    queue.try_acquire()  # a freed slot admits again


def test_unbounded_never_sheds():
    queue = AdmissionQueue(limit=0)
    assert not queue.bounded
    for _ in range(1000):
        queue.try_acquire()
    assert queue.depth == 1000


def test_release_without_slot_is_a_bug():
    with pytest.raises(RuntimeError):
        AdmissionQueue(limit=1).release()


def test_slot_context_manager_sheds():
    async def scenario():
        queue = AdmissionQueue(limit=1)
        async with queue.slot():
            assert queue.depth == 1
            with pytest.raises(QueueFullError):
                async with queue.slot():
                    pass
        assert queue.depth == 0

    asyncio.run(scenario())


def test_slot_released_on_exception():
    async def scenario():
        queue = AdmissionQueue(limit=1)
        with pytest.raises(ValueError):
            async with queue.slot():
                raise ValueError("work blew up")
        assert queue.depth == 0

    asyncio.run(scenario())
