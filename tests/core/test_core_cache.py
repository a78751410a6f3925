"""Tests for block-cache accounting."""

import pytest

from repro.core.cache import BlockCache, CacheAccountingError, CapacityEnvelope
from repro.core.merge_sim import MergeTrial
from repro.core.parameters import PrefetchStrategy, SimulationConfig
from repro.sim import Simulator


def make_cache(capacity=10, runs=2, blocks_per_run=100):
    sim = Simulator()
    return sim, BlockCache(sim, capacity=capacity, runs=runs,
                           blocks_per_run=blocks_per_run)


def test_initial_state_all_free():
    _sim, cache = make_cache(capacity=10)
    assert cache.free == 10
    assert cache.occupied_or_reserved == 0
    cache.check()


def test_reserve_claims_space_and_advances_fetch_pointer():
    _sim, cache = make_cache()
    cache.reserve(0, 3)
    assert cache.free == 7
    state = cache.runs[0]
    assert state.in_flight == 3
    assert state.next_fetch == 3
    cache.check()


def test_reserve_beyond_free_space_rejected():
    _sim, cache = make_cache(capacity=4)
    cache.reserve(0, 4)
    with pytest.raises(CacheAccountingError):
        cache.reserve(1, 1)


def test_reserve_beyond_run_length_rejected():
    _sim, cache = make_cache(capacity=200, blocks_per_run=5)
    with pytest.raises(CacheAccountingError):
        cache.reserve(0, 6)


def test_preload_installs_resident_blocks():
    _sim, cache = make_cache()
    cache.preload(0, 2)
    state = cache.runs[0]
    assert state.cached == 2
    assert state.in_flight == 0
    assert cache.free == 8
    cache.check()


def test_arrival_moves_block_from_flight_to_resident():
    _sim, cache = make_cache()
    cache.reserve(0, 2)
    cache.block_arrived(0, 0)
    state = cache.runs[0]
    assert state.cached == 1 and state.in_flight == 1
    cache.block_arrived(0, 1)
    assert state.cached == 2 and state.in_flight == 0
    cache.check()


def test_out_of_order_arrival_rejected():
    _sim, cache = make_cache()
    cache.reserve(0, 2)
    with pytest.raises(CacheAccountingError):
        cache.block_arrived(0, 1)


def test_arrival_without_reservation_rejected():
    _sim, cache = make_cache()
    with pytest.raises(CacheAccountingError):
        cache.block_arrived(0, 0)


def test_deplete_frees_space_in_fifo_order():
    _sim, cache = make_cache()
    cache.preload(0, 3)
    assert cache.deplete(0) == 0
    assert cache.deplete(0) == 1
    assert cache.free == 9
    assert cache.runs[0].next_deplete == 2
    cache.check()


def test_deplete_empty_run_rejected():
    _sim, cache = make_cache()
    with pytest.raises(CacheAccountingError):
        cache.deplete(0)


def test_arrival_event_fires_waiter():
    sim, cache = make_cache()
    cache.reserve(0, 1)
    event = cache.arrival_event(0, 0)
    cache.block_arrived(0, 0)
    sim.run()
    assert event.fired
    assert event.value == (0, 0)


def test_arrival_event_for_non_inflight_block_rejected():
    _sim, cache = make_cache()
    cache.preload(0, 1)
    with pytest.raises(CacheAccountingError):
        cache.arrival_event(0, 0)  # resident, not in flight
    with pytest.raises(CacheAccountingError):
        cache.arrival_event(0, 5)  # still on disk


def test_arrival_event_deduplicated():
    _sim, cache = make_cache()
    cache.reserve(0, 1)
    assert cache.arrival_event(0, 0) is cache.arrival_event(0, 0)


def test_run_state_zones():
    _sim, cache = make_cache(capacity=20)
    cache.preload(0, 3)
    cache.deplete(0)
    cache.reserve(0, 4)
    state = cache.runs[0]
    assert state.depleted == 1
    assert state.cached == 2
    assert state.in_flight == 4
    assert state.next_fetch == 7
    assert state.on_disk == 93
    assert state.unmerged == 99
    assert not state.finished


def test_finished_run():
    _sim, cache = make_cache(capacity=10, blocks_per_run=2)
    cache.preload(0, 2)
    cache.deplete(0)
    cache.deplete(0)
    assert cache.runs[0].finished


def test_min_free_statistic():
    _sim, cache = make_cache(capacity=10)
    cache.reserve(0, 7)
    assert cache.min_free == 3
    cache.block_arrived(0, 0)
    cache.deplete(0)
    assert cache.min_free == 3  # historical minimum sticks


def test_space_conservation_under_mixed_operations():
    _sim, cache = make_cache(capacity=10, runs=3)
    cache.preload(0, 2)
    cache.preload(1, 2)
    cache.reserve(2, 3)
    cache.block_arrived(2, 0)
    cache.deplete(0)
    cache.deplete(2)
    cache.check()
    total = sum(s.cached + s.in_flight for s in cache.runs)
    assert total + cache.free == 10


def test_capacity_must_be_positive():
    sim = Simulator()
    with pytest.raises(CacheAccountingError):
        BlockCache(sim, capacity=0, runs=1, blocks_per_run=1)


def test_mean_occupancy_time_weighted():
    sim, cache = make_cache(capacity=10)
    cache.preload(0, 4)

    def body():
        yield sim.timeout(10.0)
        cache.deplete(0)
        cache.deplete(0)
        yield sim.timeout(10.0)
        cache.deplete(0)

    sim.process(body())
    sim.run()
    # 4 blocks for 10ms, then 2 blocks for 10ms: mean 3 over 20ms.
    assert cache.mean_occupancy() == pytest.approx(3.0)


# ----------------------------------------------------------------------
# The capacity envelope
# ----------------------------------------------------------------------
def test_envelope_starts_at_the_peak_occupancy_and_is_unbounded():
    _sim, cache = make_cache(capacity=10)
    assert cache.capacity_envelope() == CapacityEnvelope(0, None)
    cache.preload(0, 3)
    cache.deplete(0)
    assert cache.capacity_envelope() == CapacityEnvelope(3, None)


def test_passing_can_reserve_raises_lo_to_occupied_plus_blocks():
    _sim, cache = make_cache(capacity=10)
    cache.preload(0, 2)
    assert cache.can_reserve(5)
    assert cache.capacity_envelope() == CapacityEnvelope(7, None)
    assert cache.can_reserve(3)  # a smaller need leaves lo alone
    assert cache.capacity_envelope() == CapacityEnvelope(7, None)


def test_failing_can_reserve_lowers_hi_to_occupied_plus_blocks():
    _sim, cache = make_cache(capacity=10)
    cache.preload(0, 4)
    assert not cache.can_reserve(9)
    assert cache.capacity_envelope() == CapacityEnvelope(4, 13)
    assert not cache.can_reserve(7)
    assert not cache.can_reserve(8)  # a larger need leaves hi alone
    envelope = cache.capacity_envelope()
    assert envelope == CapacityEnvelope(4, 11)
    assert envelope.admits(10) and envelope.admits(4)
    assert not envelope.admits(11) and not envelope.admits(3)


def test_reading_free_pins_the_envelope_to_the_capacity():
    _sim, cache = make_cache(capacity=10)
    cache.preload(0, 2)
    assert cache.can_reserve(3)
    assert cache.free == 8
    assert cache.capacity_envelope() == CapacityEnvelope(10, 11)


def test_intra_run_trial_envelope_floors_at_its_peak_occupancy():
    # Intra-run plans never ask the cache for room, so only the
    # reservations themselves bound the capacity: from below, by the
    # trial's peak occupancy.
    config = SimulationConfig(
        num_runs=4,
        num_disks=2,
        strategy=PrefetchStrategy.INTRA_RUN,
        prefetch_depth=3,
        blocks_per_run=20,
        cache_capacity=40,
    )
    metrics = MergeTrial(config, seed=5).run()
    assert metrics.capacity_envelope == CapacityEnvelope(
        metrics.cache_peak_occupancy, None
    )
    assert metrics.cache_peak_occupancy == config.minimum_cache_capacity
