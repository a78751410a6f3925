"""Tests for the DES kernel: clock, scheduling, run loop."""

import pytest

from repro.sim import SimulationError, Simulator, TrialBudgetExceeded


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    assert sim.now == 5.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    for delay in (3.0, 1.0, 2.0):
        event = sim.event()
        event.add_callback(lambda _e, d=delay: fired.append(d))
        event.succeed(delay=delay)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_ties_broken_by_schedule_order():
    sim = Simulator()
    fired = []
    for name in ("first", "second", "third"):
        event = sim.event()
        event.add_callback(lambda _e, n=name: fired.append(n))
        event.succeed(delay=1.0)
    sim.run()
    assert fired == ["first", "second", "third"]


def test_run_until_horizon_leaves_later_events_queued():
    sim = Simulator()
    sim.timeout(1.0)
    sim.timeout(10.0)
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert sim.pending_events == 1
    sim.run()
    assert sim.now == 10.0


def test_run_until_exactly_event_time_fires_it():
    sim = Simulator()
    fired = []
    sim.timeout(5.0).add_callback(lambda _e: fired.append(True))
    sim.run(until=5.0)
    assert fired == [True]


def test_stop_condition_halts_early():
    sim = Simulator()
    fired = []
    for delay in range(1, 6):
        sim.timeout(float(delay)).add_callback(lambda _e: fired.append(sim.now))
    sim.run(stop_condition=lambda: len(fired) >= 2)
    assert len(fired) == 2
    assert sim.now == 2.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(sim.event(), delay=-1.0)


def test_run_returns_final_time():
    sim = Simulator()
    sim.timeout(7.5)
    assert sim.run() == 7.5


def test_empty_run_is_noop():
    sim = Simulator()
    assert sim.run() == 0.0


def test_nested_scheduling_from_callback():
    sim = Simulator()
    times = []

    def chain(_event):
        times.append(sim.now)
        if len(times) < 3:
            sim.timeout(1.0).add_callback(chain)

    sim.timeout(1.0).add_callback(chain)
    sim.run()
    assert times == [1.0, 2.0, 3.0]


def test_pending_events_counts_scheduled():
    sim = Simulator()
    sim.timeout(1.0)
    sim.timeout(2.0)
    assert sim.pending_events == 2


def _spin(sim, laps):
    """A process that never terminates: zero-delay timeouts forever."""
    while True:
        laps.append(sim.now)
        yield sim.timeout(0)


def test_max_events_stops_a_runaway_process():
    sim = Simulator()
    laps = []
    sim.process(_spin(sim, laps))
    with pytest.raises(
        TrialBudgetExceeded, match="event budget of 1000 events"
    ) as raised:
        sim.run(max_events=1000)
    assert isinstance(raised.value, SimulationError)
    # Raised by the loop itself before the 1001st event fires, so the
    # process sees no exception and stays suspended.
    assert len(laps) <= 1000
    assert sim.now == 0.0


def test_uncapped_run_keeps_running_past_any_budget():
    sim = Simulator()
    laps = []
    sim.process(_spin(sim, laps))
    sim.run(stop_condition=lambda: len(laps) >= 5000)
    assert len(laps) == 5000


def test_max_events_leaves_finite_runs_untouched():
    sim = Simulator()
    for delay in range(1, 11):
        sim.timeout(float(delay))
    assert sim.run(max_events=10) == 10.0
