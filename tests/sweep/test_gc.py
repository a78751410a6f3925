"""Garbage collection must reclaim crash debris and nothing else."""

import json
import os
import tempfile

import pytest

from repro.core.parameters import SimulationConfig
from repro.core.simulator import MergeSimulation
from repro.sweep import CampaignManifest, ResultStore, cache_key
from repro.sweep.gc import collect_garbage

LATER = 1e10  # injected "now" far past every file's mtime


@pytest.fixture
def populated_store(tmp_path):
    config = SimulationConfig(num_runs=3, num_disks=1, blocks_per_run=20,
                              trials=1)
    metrics = MergeSimulation(config).run_trial(trial=0)
    key = cache_key(config, config.base_seed)
    store = ResultStore(tmp_path)
    store.put(key, metrics, seed=config.base_seed)
    return store, key, metrics


def test_crash_mid_write_leaves_live_entry_and_reclaimable_orphan(
    populated_store,
):
    """The core hazard: a SIGKILL between mkstemp and os.replace.

    A Python-level failure is cleaned up by ``atomic_write_json``
    itself; only process death strands the staging file.  Stage one
    exactly the way the writer does — same directory, same prefix,
    same suffix, truncated mid-payload — and prove GC reclaims it
    without touching the live entry it was about to replace.
    """
    store, key, metrics = populated_store
    path = store.path_for(key)
    before = path.read_text()

    fd, _ = tempfile.mkstemp(dir=path.parent, prefix=path.name,
                             suffix=".tmp")
    with os.fdopen(fd, "w") as handle:
        handle.write('{"schema": 2, "metrics": {"elaps')  # cut mid-write

    # The live entry is untouched; the torn write stranded a tmp file.
    assert path.read_text() == before
    orphans = list(store.tmp_files())
    assert len(orphans) == 1
    assert orphans[0].name.startswith(path.name)

    report = collect_garbage(store, min_age_s=0.0, now=LATER)
    assert [str(o) for o in orphans] == report.tmp_removed
    assert report.bytes_freed > 0
    assert report.live_entries == 1
    assert not list(store.tmp_files())
    # The survivor still round-trips.
    assert store.get(key).to_dict() == metrics.to_dict()


def test_age_gate_protects_in_flight_writes(populated_store):
    store, key, _ = populated_store
    orphan = store.path_for(key).with_suffix(".json.abc123.tmp")
    orphan.write_text("{}")

    young = collect_garbage(store, min_age_s=3600.0)
    assert young.tmp_removed == []
    assert young.skipped_young == 1
    assert orphan.exists()

    old = collect_garbage(store, min_age_s=3600.0, now=LATER)
    assert old.tmp_removed == [str(orphan)]
    assert not orphan.exists()


def test_dry_run_reports_without_removing(populated_store):
    store, key, _ = populated_store
    orphan = store.path_for(key).with_suffix(".json.xyz.tmp")
    orphan.write_text("{}")

    report = collect_garbage(store, min_age_s=0.0, dry_run=True, now=LATER)
    assert report.dry_run
    assert report.tmp_removed == [str(orphan)]
    assert orphan.exists()  # nothing actually deleted
    assert report.to_dict()["tmp_removed"] == [str(orphan)]


def test_unparseable_manifest_is_garbage(populated_store):
    store, _, _ = populated_store
    campaigns = store.root / "campaigns"
    campaigns.mkdir()
    torn = campaigns / "torn.json"
    torn.write_text('{"name": "torn", "jobs": ["k"')
    journal = campaigns / "torn.jsonl"
    journal.write_text('{"shard": "shard-0000", "status": "pending"}\n')

    report = collect_garbage(store, min_age_s=0.0, now=LATER)
    assert report.manifests_removed == [str(torn)]
    assert not torn.exists()
    assert not journal.exists()  # the journal goes with its header


def test_completed_manifest_removed_only_on_request(populated_store):
    store, key, _ = populated_store
    manifest = CampaignManifest(store.root, "finished")
    manifest.begin({"name": "finished"}, "spec-key", [key])
    manifest.record_shard("shard-0000", "done", jobs=[0])
    in_flight = CampaignManifest(store.root, "running")
    # "other-key" is not in the store, so the campaign is unfinished.
    in_flight.begin({"name": "running"}, "spec-key-2", [key, "other-key"])

    default = collect_garbage(store, min_age_s=0.0, now=LATER)
    assert default.manifests_removed == []

    opted_in = collect_garbage(
        store, min_age_s=0.0, remove_completed_manifests=True, now=LATER
    )
    assert opted_in.manifests_removed == [str(manifest.path)]
    assert not manifest.path.exists()
    assert not manifest.journal_path.exists()
    assert in_flight.path.exists()  # unstored jobs keep it alive


def test_gc_never_touches_trial_entries(populated_store):
    store, key, metrics = populated_store
    report = collect_garbage(store, min_age_s=0.0, now=LATER)
    assert report.removed == 0
    assert store.get(key).to_dict() == metrics.to_dict()
    assert json.loads(store.path_for(key).read_text())["key"] == key
