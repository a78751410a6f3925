"""End-to-end dist campaigns over real sockets.

The acceptance bar: a coordinator + workers campaign must leave a
ResultStore *byte-identical* (same keys, same payloads modulo
wall-clock fields) to the single-host ``SweepEngine`` path, and no
crash — worker SIGKILL, heartbeat loss, duplicate completion, torn
manifest — may lose or corrupt a shard.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.parameters import SimulationConfig
from repro.dist import DistWorker
from repro.dist.shards import make_shards
from repro.serve.client import ServeHTTPError
from repro.sweep.engine import SweepEngine
from repro.sweep.spec import SweepSpec
from repro.sweep.store import ResultStore
from repro.sweep.worker import execute_job

from tests.dist.conftest import SMALL_SPEC, client_for

#: Fields that record when/how fast a result was produced, not what it is.
WALL_CLOCK_FIELDS = ("saved_at", "elapsed_s")


def store_payloads(root: Path) -> dict[str, dict]:
    """Key -> stored payload with wall-clock fields stripped."""
    payloads = {}
    for path in sorted(root.rglob("*.json")):
        if path.parent.name == "campaigns":
            continue
        payload = json.loads(path.read_text())
        for field in WALL_CLOCK_FIELDS:
            payload.pop(field, None)
        payloads[payload["key"]] = payload
    return payloads


#: Every shard of SMALL_SPEC at the factory's shard size of 2, done.
ALL_SHARDS_DONE = {
    shard.shard_id: "done" for shard in make_shards(SMALL_SPEC.jobs(), 2)
}


def final_shard_states(events: list[dict]) -> dict[str, str]:
    """Shard id -> status of its last journal line."""
    return {event["shard"]: event["status"] for event in events
            if "shard" in event}


def run_workers(handle, count=2, **kwargs):
    """Run ``count`` DistWorkers in threads until the campaign ends."""
    host, port = handle.address
    workers = [
        DistWorker(host, port, worker_id=f"w{n}", poll_s=0.05, **kwargs)
        for n in range(count)
    ]
    threads = [threading.Thread(target=w.run, daemon=True) for w in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "worker thread hung"
    return workers


def execute_shard(lease_body) -> list[dict]:
    """Run a granted lease's jobs exactly like a worker would."""
    results = []
    for job in lease_body["lease"]["jobs"]:
        outcome = execute_job({"config": job["config"], "trial": job["trial"]})
        results.append(
            {
                "index": job["index"],
                "ok": True,
                "metrics": outcome["metrics"],
                "elapsed_s": outcome["elapsed_s"],
            }
        )
    return results


def test_two_workers_byte_identical_to_single_host(
    coordinator_factory, tmp_path
):
    """The ISSUE acceptance test: dist store == single-host store."""
    ref_root = tmp_path / "ref"
    reference = SweepEngine(store=ResultStore(ref_root)).run_spec(SMALL_SPEC)

    coordinator, handle = coordinator_factory(exit_when_done=True)
    workers = run_workers(handle, count=2)

    handle.join()
    assert not handle.thread.is_alive()
    assert coordinator.aggregator.is_complete()
    assert coordinator.aggregator.failed == 0

    dist_root = coordinator.store.root
    ref_payloads = store_payloads(ref_root)
    dist_payloads = store_payloads(dist_root)
    assert sorted(ref_payloads) == sorted(dist_payloads)
    assert ref_payloads == dist_payloads  # byte-identical modulo wall clock

    # Aggregates come out in the same cell/trial order too.
    assert [c.to_dict() for c in reference.cells] == [
        c.to_dict() for c in coordinator.aggregator.result()
    ]
    # Both workers actually participated (4 jobs, shard_size=2).
    assert sum(w.stats.shards_completed for w in workers) == 2


def test_in_thread_worker_reports_runaway_jobs_as_failed(
    coordinator_factory, monkeypatch
):
    """A runaway trial is an ordinary failed job, even off the main
    thread: the worker reports it and carries on with the campaign."""
    monkeypatch.setattr(
        SimulationConfig, "event_budget", property(lambda self: 50)
    )
    coordinator, handle = coordinator_factory(exit_when_done=True)
    host, port = handle.address
    worker = DistWorker(host, port, worker_id="w0", poll_s=0.05)
    crashed: list[BaseException] = []

    def target() -> None:
        try:
            worker.run()
        except BaseException as exc:  # handed back to the test
            crashed.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=60.0)
    assert not thread.is_alive(), "worker thread hung"
    assert crashed == []
    handle.join()

    # Every job failed on its budget, and the worker survived each
    # failure to finish both shards.
    assert worker.stats.jobs_failed == 4
    assert worker.stats.shards_completed == 2
    snapshot = coordinator.aggregator.snapshot(include_cells=False)
    assert snapshot["jobs"]["failed"] == 4
    assert all(
        error == "TrialBudgetExceeded: simulation exceeded its event "
        "budget of 50 events"
        for error in snapshot["failures"].values()
    )


def test_resume_settles_everything_from_cache(coordinator_factory, tmp_path):
    """Re-running a finished campaign never leases a single shard."""
    first, handle = coordinator_factory(exit_when_done=True)
    run_workers(handle, count=1)
    handle.join()

    second, handle2 = coordinator_factory(
        store=first.store, cache_dir=first.store.root, exit_when_done=True
    )
    handle2.join()  # drains immediately, no workers needed
    assert not handle2.thread.is_alive()
    assert second.aggregator.is_complete()
    assert second.aggregator.cached == len(SMALL_SPEC.jobs())
    assert second.leases.counts()["pending"] == 0


def test_resume_with_partially_written_manifest(
    coordinator_factory, tmp_path
):
    """A torn manifest (crash mid-write) must not wedge a resume."""
    cache_dir = tmp_path / "cache"
    manifest_path = cache_dir / "campaigns" / f"{SMALL_SPEC.name}.json"
    manifest_path.parent.mkdir(parents=True)
    manifest_path.write_text('{"name": "dist-test", "spec_key": "abc12')

    coordinator, handle = coordinator_factory(exit_when_done=True)
    run_workers(handle, count=2)
    handle.join()
    assert coordinator.aggregator.is_complete()
    # The header was rewritten whole and is valid JSON again.
    header = json.loads(manifest_path.read_text())
    assert header["spec_key"] == SMALL_SPEC.spec_key()
    assert header["jobs"] == [job.key for job in SMALL_SPEC.jobs()]
    assert all(key in coordinator.store for key in header["jobs"])
    assert final_shard_states(coordinator.manifest.journal()) == ALL_SHARDS_DONE


def test_resume_after_torn_journal_line(coordinator_factory, tmp_path):
    """A journal append cut mid-line is skipped, and later lines parse."""
    journal_path = (
        tmp_path / "cache" / "campaigns" / f"{SMALL_SPEC.name}.jsonl"
    )
    journal_path.parent.mkdir(parents=True)
    journal_path.write_text(
        '{"shard": "shard-0000", "status": "pending", "jobs": [0, 1]}\n'
        '{"shard": "shard-0000", "status": "lea'
    )

    coordinator, handle = coordinator_factory(exit_when_done=True)
    run_workers(handle, count=2)
    handle.join()
    assert coordinator.aggregator.is_complete()
    lines = journal_path.read_text().splitlines()
    assert lines[1] == '{"shard": "shard-0000", "status": "lea'
    events = coordinator.manifest.journal()
    assert events[0]["status"] == "pending"
    assert [json.dumps(event) for event in events[1:]] == lines[2:]
    assert final_shard_states(events[1:]) == ALL_SHARDS_DONE


def test_duplicate_shard_completion_merges_idempotently(coordinator_factory):
    """Two clients complete the same shard; the merge stays single."""
    coordinator, handle = coordinator_factory(lease_ttl_s=0.2)
    slow = client_for(handle)
    fast = client_for(handle)

    granted = slow.lease("slow")
    results = execute_shard(granted)
    time.sleep(0.35)  # let the lease expire

    regrant = fast.lease("fast")  # re-issue of the same shard
    assert regrant["lease"]["shard"] == granted["lease"]["shard"]
    answer = fast.complete(regrant["lease"]["token"], results)
    assert not answer.get("duplicate")

    late = slow.complete(granted["lease"]["token"], results)
    assert late["duplicate"]

    status = slow.campaign(SMALL_SPEC.name)
    assert status["jobs"]["completed"] == len(results)
    assert status["leases"]["duplicate_total"] == 1
    assert status["shards"]["done"] == 1


def test_lease_reissued_after_heartbeat_loss(coordinator_factory):
    """A worker that stops heartbeating loses the shard, not the campaign."""
    coordinator, handle = coordinator_factory(
        lease_ttl_s=0.2, exit_when_done=True
    )
    silent = client_for(handle)
    granted = silent.lease("silent")
    time.sleep(0.35)

    with pytest.raises(ServeHTTPError) as excinfo:
        silent.heartbeat(granted["lease"]["token"])
    assert excinfo.value.status == 409

    # A real worker sweeps up the whole campaign, reclaimed shard included.
    run_workers(handle, count=1)
    handle.join()
    assert coordinator.aggregator.is_complete()
    assert coordinator.leases.expired_total >= 1


def test_sigkilled_worker_loses_no_shards(coordinator_factory):
    """SIGKILL a subprocess holding a lease; the campaign still finishes."""
    coordinator, handle = coordinator_factory(
        lease_ttl_s=0.5, exit_when_done=True
    )
    host, port = handle.address
    script = (
        "import sys, time\n"
        "from repro.dist import CoordinatorClient\n"
        f"client = CoordinatorClient({host!r}, {port})\n"
        "granted = client.lease('doomed')\n"
        "print(granted['lease']['token'], flush=True)\n"
        "time.sleep(60)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    victim = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        token = victim.stdout.readline().strip()
        assert token.startswith("lease-")  # it holds a live lease
        victim.kill()  # SIGKILL: no cleanup, no goodbye
        victim.wait(timeout=10.0)
    finally:
        if victim.poll() is None:
            victim.kill()
        victim.stdout.close()

    run_workers(handle, count=1)
    handle.join()
    assert coordinator.aggregator.is_complete()
    assert coordinator.aggregator.failed == 0
    assert coordinator.leases.expired_total >= 1
    assert len(coordinator.store) == len(SMALL_SPEC.jobs())


def test_campaign_status_endpoint_streams_progress(coordinator_factory):
    """GET /v1/campaigns/<name> works mid-run and rejects strangers."""
    coordinator, handle = coordinator_factory()
    client = client_for(handle)

    snapshot = client.campaign(SMALL_SPEC.name)
    assert snapshot["jobs"]["total"] == len(SMALL_SPEC.jobs())
    assert snapshot["jobs"]["completed"] == 0
    assert not snapshot["complete"]

    with pytest.raises(ServeHTTPError) as excinfo:
        client.campaign("no-such-campaign")
    assert excinfo.value.status == 404

    granted = client.lease("w0")
    client.complete(granted["lease"]["token"], execute_shard(granted))
    snapshot = client.campaign(SMALL_SPEC.name)
    assert snapshot["jobs"]["completed"] == 2  # one shard of two jobs
    assert snapshot["shards"]["done"] == 1
    handle.stop()
    assert not handle.thread.is_alive()


def test_complete_naming_the_worker_carries_its_next_lease(
    coordinator_factory,
):
    """One round trip per shard: the answer to a complete that names
    its worker is also that worker's next lease answer."""
    coordinator, handle = coordinator_factory()
    client = client_for(handle)
    first = client.lease("w0")
    answer = client.complete(
        first["lease"]["token"], execute_shard(first), worker="w0"
    )
    granted = answer["next"]
    assert granted["status"] == "granted"
    assert granted["lease"]["shard"] != first["lease"]["shard"]
    leased = [event for event in coordinator.manifest.journal()
              if event.get("status") == "leased"]
    assert [event["shard"] for event in leased] == [
        first["lease"]["shard"], granted["lease"]["shard"]
    ]

    # Without a worker the answer is exactly protocol 1's.
    last = client.complete(granted["lease"]["token"], execute_shard(granted))
    assert set(last) == {"protocol", "status", "duplicate",
                         "campaign_complete"}
    assert last["campaign_complete"]
    # A duplicate answers as before too, worker or not.
    again = client.complete(
        granted["lease"]["token"], execute_shard(granted), worker="w0"
    )
    assert again["duplicate"] and "next" not in again
    counters = coordinator.metrics.to_dict()["counters"]
    assert counters["dist_leases{event=granted}"] == 2
    assert counters["dist_requests{endpoint=lease}"] == 1


def test_a_worker_leases_once_per_campaign(coordinator_factory):
    coordinator, handle = coordinator_factory(exit_when_done=True)
    [worker] = run_workers(handle, count=1)
    handle.join()
    assert worker.stats.shards_completed == 2
    counters = coordinator.metrics.to_dict()["counters"]
    assert counters["dist_requests{endpoint=lease}"] == 1
    assert counters["dist_requests{endpoint=complete}"] == 2


def test_exit_when_done_campaign_ends_promptly_after_its_last_shard(
    coordinator_factory,
):
    """The drain does not wait out drain_grace_s on kept-alive
    connections that sit idle when the campaign ends."""
    coordinator, handle = coordinator_factory(
        exit_when_done=True, drain_grace_s=5.0
    )
    observer = client_for(handle)
    assert observer.healthz()["status"] == "ok"  # now idle, kept alive
    run_workers(handle, count=1)
    finished = time.monotonic()
    handle.join(10.0)
    assert not handle.thread.is_alive()
    assert time.monotonic() - finished < 1.0
    assert coordinator.aggregator.is_complete()


def test_worker_runs_each_cell_of_a_shard_as_one_batch(
    coordinator_factory, monkeypatch
):
    from repro.sweep import worker as sweep_worker

    batches = []
    original = sweep_worker.execute_batch

    def spy(payload):
        batches.append(len(payload["trials"]))
        return original(payload)

    monkeypatch.setattr(sweep_worker, "execute_batch", spy)
    coordinator, handle = coordinator_factory(exit_when_done=True)
    run_workers(handle, count=1)
    handle.join()
    # SMALL_SPEC: two cells of two trials, one cell per shard.
    assert batches == [2, 2]
    assert coordinator.aggregator.is_complete()


def test_fallback_trials_reach_metricz_and_campaign_status(
    coordinator_factory,
):
    """A write-disk campaign runs every trial off the batch
    interpreter; each completed trial's reason reaches the coordinator."""
    spec = SweepSpec(
        name="dist-fallbacks",
        base={"num_runs": 6, "blocks_per_run": 30, "write_disks": 1},
        grid={"num_disks": [1, 2]},
        trials=2,
        base_seed=17,
    )
    coordinator, handle = coordinator_factory(spec)
    run_workers(handle, count=1)
    client = client_for(handle)
    reason = "the write subsystem requires the event kernel"
    counters = client.metricz()["counters"]
    assert counters[f"dist_batch_fallback_trials{{reason={reason}}}"] == 4
    snapshot = client.campaign(spec.name)
    assert snapshot["complete"]
    assert snapshot["batch_fallback_trials"] == {reason: 4}
    handle.stop()


def test_native_campaign_reports_no_fallbacks(coordinator_factory):
    coordinator, handle = coordinator_factory()
    run_workers(handle, count=1)
    snapshot = client_for(handle).campaign(SMALL_SPEC.name)
    assert snapshot["batch_fallback_trials"] == {}
    assert not any(
        key.startswith("dist_batch_fallback_trials")
        for key in client_for(handle).metricz()["counters"]
    )
    handle.stop()
