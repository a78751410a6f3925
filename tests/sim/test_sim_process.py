"""Tests for generator-based processes."""

import pytest

from repro.sim import Event, Process, ProcessFailure, SimulationError, Simulator


def test_process_runs_and_returns_value():
    sim = Simulator()

    def body():
        yield sim.timeout(2.0)
        return "finished"

    proc = sim.process(body())
    sim.run()
    assert proc.fired
    assert proc.value == "finished"
    assert sim.now == 2.0


def test_process_receives_event_value():
    sim = Simulator()
    received = []

    def body():
        value = yield sim.timeout(1.0, "payload")
        received.append(value)

    sim.process(body())
    sim.run()
    assert received == ["payload"]


def test_processes_interleave_in_time():
    sim = Simulator()
    log = []

    def worker(name, period, steps):
        for _ in range(steps):
            yield sim.timeout(period)
            log.append((sim.now, name))

    sim.process(worker("fast", 1.0, 3))
    sim.process(worker("slow", 2.0, 2))
    sim.run()
    # At t=2.0 both fire; slow's timeout was scheduled earlier (t=0)
    # so it wins the deterministic tie-break.
    assert log == [
        (1.0, "fast"),
        (2.0, "slow"),
        (2.0, "fast"),
        (3.0, "fast"),
        (4.0, "slow"),
    ]


def test_process_waits_on_manual_event():
    sim = Simulator()
    gate = Event(sim)
    log = []

    def waiter():
        value = yield gate
        log.append((sim.now, value))

    def opener():
        yield sim.timeout(5.0)
        gate.succeed("open")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert log == [(5.0, "open")]


def test_process_is_waitable_by_another_process():
    sim = Simulator()
    log = []

    def child():
        yield sim.timeout(3.0)
        return "child-result"

    def parent():
        result = yield sim.process(child())
        log.append((sim.now, result))

    sim.process(parent())
    sim.run()
    assert log == [(3.0, "child-result")]


def test_exception_in_process_wraps_in_process_failure():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)
        raise ValueError("inner")

    proc = sim.process(body(), name="failing")
    sim.run()
    assert isinstance(proc.exception, ProcessFailure)
    assert isinstance(proc.exception.__cause__, ValueError)
    assert "failing" in str(proc.exception)


def test_failed_event_is_thrown_into_waiter():
    sim = Simulator()
    gate = Event(sim)
    caught = []

    def body():
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(body())
    gate.fail(ValueError("denied"), delay=1.0)
    sim.run()
    assert caught == ["denied"]


def test_yielding_non_event_fails_the_process():
    sim = Simulator()

    def body():
        yield 42

    proc = sim.process(body())
    sim.run()
    assert isinstance(proc.exception, ProcessFailure)


def test_non_generator_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Process(sim, lambda: None)  # type: ignore[arg-type]


def test_is_alive_tracks_completion():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)

    proc = sim.process(body())
    assert proc.is_alive
    sim.run()
    assert not proc.is_alive


def test_immediate_return_process():
    sim = Simulator()

    def body():
        return "instant"
        yield  # pragma: no cover - makes this a generator

    proc = sim.process(body())
    sim.run()
    assert proc.value == "instant"
    assert sim.now == 0.0


def test_anonymous_processes_get_unique_names():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)

    first = sim.process(body())
    second = sim.process(body())
    assert first.name != second.name


def test_long_timeout_chain_advances_clock_exactly():
    sim = Simulator()

    def body():
        for _ in range(10_000):
            yield sim.timeout(1.0)

    sim.process(body())
    sim.run()
    assert sim.now == 10_000.0
