"""End-to-end service tests over real ephemeral-port servers.

Every test here starts an actual :class:`SimulationServer` on a daemon
thread, talks to it through :class:`ServeClient` over real sockets, and
drains it afterwards — the full production path minus the process pool
(``workers=0`` computes on the loop's thread executor, which keeps the
suite fast and lets tests gate the worker function deterministically).
"""

import json
import threading
import time

import pytest

from repro.core.parameters import SimulationConfig
from repro.core.simulator import MergeSimulation
from repro.serve import RetryPolicy, ServeError, ServeHTTPError
from repro.sweep.keys import cache_key, trial_keys
from repro.sweep.store import ResultStore

from tests.serve.conftest import SMALL_CONFIG, client_for


def jsonable(value):
    """Round-trip through JSON, as any served payload implicitly is."""
    return json.loads(json.dumps(value))


class TestSimulate:
    def test_miss_then_hit_identical_payloads(self, serve_factory):
        server, handle = serve_factory()
        client = client_for(handle)
        first = client.simulate(SMALL_CONFIG, trials=2, seed=7)
        assert first["cache"] == {"hits": 0, "misses": 2, "coalesced": 0}
        second = client.simulate(SMALL_CONFIG, trials=2, seed=7)
        assert second["cache"] == {"hits": 2, "misses": 0, "coalesced": 0}
        assert first["trials"] == second["trials"]
        assert first["aggregate"] == second["aggregate"]

    @pytest.mark.parametrize("kernel", ["reference", "batch"])
    def test_served_equals_direct_run_trial(self, serve_factory, tmp_path,
                                            kernel):
        # A private cache dir per kernel: the content address excludes
        # the kernel (cross-kernel bit-identity), so sharing one store
        # would answer the second kernel from the first's entry without
        # ever exercising it.
        server, handle = serve_factory(cache_dir=tmp_path / f"cache-{kernel}")
        client = client_for(handle)
        served = client.simulate(SMALL_CONFIG, trials=2, seed=11,
                                 kernel=kernel)
        config = SimulationConfig(trials=2, base_seed=11, kernel=kernel,
                                  **SMALL_CONFIG)
        for trial in range(2):
            direct = MergeSimulation(config).run_trial(trial=trial)
            assert served["trials"][trial] == jsonable(direct.to_dict())

    def test_a_miss_derives_its_key_once(self, serve_factory, monkeypatch):
        # The key each lookup derives is the one single flight coalesces
        # on and the store write uses: one derivation per request.
        derived = []

        def counting(config, seeds):
            seeds = list(seeds)
            derived.append(len(seeds))
            return trial_keys(config, seeds)

        monkeypatch.setattr("repro.sweep.keys.trial_keys", counting)
        monkeypatch.setattr("repro.serve.cache.trial_keys", counting)
        server, handle = serve_factory()
        client = client_for(handle)
        answer = client.simulate(SMALL_CONFIG, trials=2, seed=7)
        assert answer["cache"] == {"hits": 0, "misses": 2, "coalesced": 0}
        assert derived == [2]
        config = SimulationConfig(trials=2, base_seed=7, **SMALL_CONFIG)
        for trial in range(2):
            assert cache_key(config, 7 + trial) in server.cache.store

    def test_trial_granular_hits(self, serve_factory):
        server, handle = serve_factory()
        client = client_for(handle)
        client.simulate(SMALL_CONFIG, trials=1, seed=7)
        # Widening the same config reuses trial 0 and computes only 1.
        widened = client.simulate(SMALL_CONFIG, trials=2, seed=7)
        assert widened["cache"] == {"hits": 1, "misses": 1, "coalesced": 0}

    def test_bad_requests(self, serve_factory):
        server, handle = serve_factory()
        client = client_for(handle)
        with pytest.raises(ServeHTTPError) as excinfo:
            client.simulate({"num_runs": 4})  # num_disks missing
        assert excinfo.value.status == 400
        with pytest.raises(ServeHTTPError) as excinfo:
            client.simulate({**SMALL_CONFIG, "bogus_knob": 3})
        assert excinfo.value.status == 400
        assert "bogus_knob" in str(excinfo.value)
        with pytest.raises(ServeHTTPError) as excinfo:
            client.simulate({**SMALL_CONFIG, "kernel": "fast"})  # retired
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"] == "bad-config"

    def test_unknown_route_and_method(self, serve_factory):
        server, handle = serve_factory()
        client = client_for(handle)
        with pytest.raises(ServeHTTPError) as excinfo:
            client._request("GET", "/v1/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServeHTTPError) as excinfo:
            client._request("GET", "/v1/simulate")
        assert excinfo.value.status == 405


class TestCoalescing:
    def test_identical_concurrent_misses_compute_once(self, serve_factory,
                                                      gated_execute):
        server, handle = serve_factory()
        answers, errors = [], []

        def request():
            try:
                answers.append(
                    client_for(handle).simulate(SMALL_CONFIG, trials=1, seed=7)
                )
            except Exception as exc:  # surfaced in the main thread below
                errors.append(exc)

        first = threading.Thread(target=request)
        first.start()
        assert gated_execute.started.wait(10)  # the leader is computing
        second = threading.Thread(target=request)
        second.start()
        # Wait until the follower's request is admitted (the counter
        # bumps before the cache lookup), then give the loop a beat to
        # join it onto the leader's flight before releasing the gate.
        requests = server.metrics.counter("serve_requests", endpoint="simulate")
        deadline = time.monotonic() + 10
        while requests.value < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)
        gated_execute.release.set()
        first.join(30)
        second.join(30)
        assert not errors
        assert gated_execute.calls == 1  # one computation, two answers
        assert answers[0]["trials"] == answers[1]["trials"]
        flags = sorted(a["cache"]["coalesced"] for a in answers)
        assert flags == [0, 1]  # one leader, one coalesced follower
        counters = client_for(handle).metricz()["counters"]
        assert counters["serve_computed"] == 1
        assert counters["serve_cache{outcome=coalesced}"] == 1


class TestAdmissionControl:
    def test_rate_limit_answers_429_with_retry_after(self, serve_factory):
        server, handle = serve_factory(rate=0.001, burst=1.0)
        client = client_for(handle, client_id="greedy")
        client.simulate(SMALL_CONFIG, trials=1, seed=7)  # spends the burst
        with pytest.raises(ServeHTTPError) as excinfo:
            client.simulate(SMALL_CONFIG, trials=1, seed=7)
        assert excinfo.value.status == 429
        assert excinfo.value.payload["retry_after_s"] > 0
        # An unrelated client is not throttled by greedy's empty bucket.
        other = client_for(handle, client_id="patient")
        assert other.simulate(SMALL_CONFIG, trials=1, seed=7)["cache"]["hits"] == 1
        counters = client_for(handle, client_id="observer").metricz()["counters"]
        assert counters["serve_shed{reason=rate}"] == 1

    def test_queue_full_sheds_503(self, serve_factory, gated_execute):
        server, handle = serve_factory(queue_limit=1)
        errors = []

        def slow_request():
            try:
                client_for(handle).simulate(SMALL_CONFIG, trials=1, seed=7)
            except Exception as exc:
                errors.append(exc)

        holder = threading.Thread(target=slow_request)
        holder.start()
        assert gated_execute.started.wait(10)  # the only slot is held
        with pytest.raises(ServeHTTPError) as excinfo:
            client_for(handle).simulate(SMALL_CONFIG, trials=1, seed=999)
        assert excinfo.value.status == 503
        assert excinfo.value.payload["error"] == "overloaded"
        gated_execute.release.set()
        holder.join(30)
        assert not errors
        counters = client_for(handle).metricz()["counters"]
        assert counters["serve_shed{reason=queue}"] == 1

    def test_deadline_expires_but_the_flight_lands(self, serve_factory,
                                                   gated_execute):
        server, handle = serve_factory()
        client = client_for(handle)
        with pytest.raises(ServeHTTPError) as excinfo:
            client.simulate(SMALL_CONFIG, trials=1, seed=7, deadline_ms=200)
        assert excinfo.value.status == 504
        gated_execute.release.set()
        # The shielded flight survives its abandoned waiter and lands in
        # the store; a retry is a pure cache hit.
        store = server.cache.store
        config = SimulationConfig(trials=1, base_seed=7, **SMALL_CONFIG)
        key = cache_key(config, config.base_seed)
        deadline = time.monotonic() + 10
        while key not in store and time.monotonic() < deadline:
            time.sleep(0.02)
        retry = client.simulate(SMALL_CONFIG, trials=1, seed=7)
        assert retry["cache"] == {"hits": 1, "misses": 0, "coalesced": 0}
        assert gated_execute.calls == 1

    def test_client_retry_loop_rides_out_a_504(self, serve_factory,
                                               gated_execute):
        server, handle = serve_factory()
        client = client_for(
            handle,
            retry=RetryPolicy(max_attempts=5, backoff_s=0.05,
                              max_backoff_s=0.2),
        )
        releaser = threading.Timer(0.5, gated_execute.release.set)
        releaser.start()
        try:
            answer = client.simulate(SMALL_CONFIG, trials=1, seed=7,
                                     deadline_ms=200)
        finally:
            releaser.cancel()
        # Some attempt timed out, a later one found the cached answer.
        assert answer["cache"]["hits"] == 1
        assert gated_execute.calls == 1


class TestCacheWithoutWorkers:
    def test_hits_never_spawn_the_pool(self, serve_factory, tmp_path):
        cache_dir = tmp_path / "warm-cache"
        config = SimulationConfig(trials=2, base_seed=7, **SMALL_CONFIG)
        store = ResultStore(cache_dir)
        keys = trial_keys(config, [config.base_seed + t for t in range(2)])
        for trial, key in enumerate(keys):
            store.put(key, MergeSimulation(config).run_trial(trial=trial))
        server, handle = serve_factory(workers=2, cache_dir=cache_dir)
        client = client_for(handle)
        answer = client.simulate(SMALL_CONFIG, trials=2, seed=7)
        assert answer["cache"] == {"hits": 2, "misses": 0, "coalesced": 0}
        assert server._pool is None  # lazy pool never materialized
        counters = client.metricz()["counters"]
        assert "serve_computed" not in counters


class TestSweepJobs:
    def test_submit_poll_done(self, serve_factory):
        server, handle = serve_factory()
        client = client_for(handle)
        record = client.sweep({
            "name": "e2e", "base": SMALL_CONFIG,
            "grid": {"prefetch_depth": [1, 2]}, "trials": 1, "base_seed": 7,
        })
        assert record["status"] == "queued"
        assert record["job"] == "job-000001"
        assert record["trials_total"] == 2
        done = client.wait_for_job(record["job"], poll_s=0.05)
        assert done["status"] == "done"
        assert done["trials_done"] == 2
        assert len(done["cells_result"]) == 2
        # The job warmed the shared cache: the same cell is now a hit.
        hit = client.simulate({**SMALL_CONFIG, "prefetch_depth": 2},
                              trials=1, seed=7)
        assert hit["cache"]["hits"] == 1

    def test_bad_spec_rejected_at_admission(self, serve_factory):
        server, handle = serve_factory()
        client = client_for(handle)
        with pytest.raises(ServeHTTPError) as excinfo:
            client.sweep({"base": SMALL_CONFIG, "grid": {"num_disks": []}})
        assert excinfo.value.status == 400

    def test_unknown_job_404(self, serve_factory):
        server, handle = serve_factory()
        with pytest.raises(ServeHTTPError) as excinfo:
            client_for(handle).job("job-999999")
        assert excinfo.value.status == 404


class TestLifecycle:
    def test_healthz_and_metricz_shapes(self, serve_factory):
        server, handle = serve_factory()
        client = client_for(handle)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0
        client.simulate(SMALL_CONFIG, trials=1, seed=7)
        metrics = client.metricz()
        assert set(metrics) == {"counters", "gauges", "histograms"}
        assert metrics["counters"]["serve_requests{endpoint=simulate}"] == 1
        latency = metrics["histograms"]["serve_latency_ms{endpoint=simulate}"]
        assert latency["count"] == 1

    def test_metricz_publishes_batch_fallbacks(self, serve_factory, tmp_path):
        # Served requests run on the default batch kernel; a config
        # outside its envelope falls back per trial, by reason, in a
        # pool process as in the server's own.  Each server counts its
        # own trials only; private caches make both compute them.
        counter = ("batch_fallback_trials"
                   "{reason=the write subsystem requires the event kernel}")
        for workers in (2, 0):
            server, handle = serve_factory(
                workers=workers, cache_dir=tmp_path / f"cache-{workers}"
            )
            client = client_for(handle)
            client.simulate({**SMALL_CONFIG, "write_disks": 1}, trials=3,
                            seed=7)
            assert client.metricz()["counters"][counter] == 3, workers

    def test_graceful_drain_finishes_inflight_work(self, serve_factory,
                                                   gated_execute):
        server, handle = serve_factory()
        answers, errors = [], []

        def request():
            try:
                answers.append(
                    client_for(handle).simulate(SMALL_CONFIG, trials=1, seed=7)
                )
            except Exception as exc:
                errors.append(exc)

        inflight = threading.Thread(target=request)
        inflight.start()
        assert gated_execute.started.wait(10)
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        time.sleep(0.1)  # the drain is now waiting on the request
        gated_execute.release.set()
        inflight.join(30)
        stopper.join(30)
        assert not errors
        assert answers[0]["cache"]["misses"] == 1  # answered, not dropped
        assert not handle.thread.is_alive()
        with pytest.raises(ServeError):
            client_for(handle).healthz()  # the listener is gone
