"""ResultStore and CampaignManifest behaviour."""

import io
import json

import pytest

from repro.core.parameters import SimulationConfig
from repro.core.simulator import MergeSimulation
from repro.dist import Coordinator, CoordinatorConfig
from repro.sweep import store as store_module
from repro.sweep import (
    CampaignManifest,
    ResultStore,
    cache_key,
    compute_key,
    lookup,
)
from repro.sweep.engine import SweepEngine
from repro.sweep.spec import SweepSpec


@pytest.fixture
def metrics_and_key():
    config = SimulationConfig(num_runs=3, num_disks=1, blocks_per_run=20,
                              trials=1)
    metrics = MergeSimulation(config).run_trial(trial=0)
    return metrics, cache_key(config, config.base_seed)


def test_entry_bytes_are_json_dumps_of_the_payload(tmp_path, metrics_and_key):
    metrics, key = metrics_and_key
    store = ResultStore(tmp_path)
    path = store.put(key, metrics, config={"num_runs": 3}, seed=1992,
                     elapsed_s=0.25)
    payload = json.loads(path.read_bytes())
    assert payload["metrics"] == metrics.to_dict()
    assert path.read_bytes() == json.dumps(payload).encode("utf-8")


def test_put_get_round_trip(tmp_path, metrics_and_key):
    metrics, key = metrics_and_key
    store = ResultStore(tmp_path)
    assert store.get(key) is None
    assert key not in store
    store.put(key, metrics, seed=1992, elapsed_s=0.1)
    assert key in store
    restored = store.get(key)
    assert restored is not None
    assert restored.to_dict() == metrics.to_dict()
    assert list(store.keys()) == [key]
    assert len(store) == 1


def test_corrupt_entry_reads_as_miss(tmp_path, metrics_and_key):
    metrics, key = metrics_and_key
    store = ResultStore(tmp_path)
    path = store.put(key, metrics)
    path.write_text("{ truncated")
    assert store.get(key) is None


def test_schema_mismatch_reads_as_miss(tmp_path, metrics_and_key):
    metrics, key = metrics_and_key
    store = ResultStore(tmp_path)
    path = store.put(key, metrics)
    payload = json.loads(path.read_text())
    payload["schema"] = -1
    path.write_text(json.dumps(payload))
    assert store.get(key) is None


def test_purge_removes_everything(tmp_path, metrics_and_key):
    metrics, key = metrics_and_key
    store = ResultStore(tmp_path)
    store.put(key, metrics)
    assert store.purge() == 1
    assert len(store) == 0


def test_manifest_checkpoints_and_resumes(tmp_path):
    manifest = CampaignManifest(tmp_path, "camp")
    manifest.begin({"name": "camp"}, "spec-hash", ["k1", "k2", "k3"])
    header = manifest.load()
    assert set(header) == {"name", "spec_key", "spec", "started_at", "jobs"}
    assert header["jobs"] == ["k1", "k2", "k3"]

    # Failed jobs and shard transitions append; the header never changes.
    manifest.record("k1", "failed")
    manifest.record_shard("shard-0000", "leased", worker="w0", jobs=[0, 1])
    events = [
        {"job": "k1", "status": "failed"},
        {"shard": "shard-0000", "status": "leased", "worker": "w0",
         "jobs": [0, 1]},
    ]
    assert manifest.journal() == events
    assert manifest.load() == header

    # A fresh manifest object (new process) resumes without a write.
    resumed = CampaignManifest(tmp_path, "camp")
    resumed.begin({"name": "camp"}, "spec-hash", ["k1", "k2", "k3"])
    assert resumed.load() == header
    assert resumed.journal() == events


def _campaign_files(root):
    return {
        path.name: (path.stat().st_size, path.stat().st_mtime_ns)
        for path in (root / "campaigns").iterdir()
    }


def test_warm_rerun_writes_nothing_under_campaigns(tmp_path, monkeypatch):
    """Every job is a store hit, so neither engine touches the manifest."""
    spec = SweepSpec(
        name="warm",
        base={"num_runs": 3, "blocks_per_run": 20},
        grid={"num_disks": [1, 2]},
        trials=2,
    )
    store = ResultStore(tmp_path)
    SweepEngine(store=store).run_spec(spec)
    before = _campaign_files(tmp_path)

    writes = []
    write = store_module.atomic_write_json

    def spy(path, payload):
        writes.append(path)
        write(path, payload)

    monkeypatch.setattr(store_module, "atomic_write_json", spy)
    result = SweepEngine(store=store).run_spec(spec)
    assert result.stats.cached == len(spec.jobs())
    coordinator = Coordinator(
        spec, CoordinatorConfig(cache_dir=tmp_path), store=store
    )
    coordinator.prepare()
    assert coordinator.leases.done
    assert [path for path in writes if path.parent.name == "campaigns"] == []
    assert _campaign_files(tmp_path) == before


def test_manifest_rejects_spec_change_under_same_name(tmp_path):
    manifest = CampaignManifest(tmp_path, "camp")
    manifest.begin({}, "spec-hash", ["k1"])
    other = CampaignManifest(tmp_path, "camp")
    with pytest.raises(ValueError, match="different"):
        other.begin({}, "other-hash", ["k1"])


class TestPublicKeyHelpers:
    """compute_key/lookup: the public spelling every consumer shares."""

    def test_compute_key_matches_engine_derivation(self):
        config = SimulationConfig(num_runs=3, num_disks=1, blocks_per_run=20,
                                  trials=3, base_seed=41)
        for trial in range(config.trials):
            assert compute_key(config, trial) == cache_key(
                config, config.base_seed + trial
            )

    def test_compute_key_matches_sweep_jobs(self):
        from repro.sweep.spec import jobs_for_config

        config = SimulationConfig(num_runs=3, num_disks=2, blocks_per_run=20,
                                  trials=2)
        for job in jobs_for_config(config):
            assert job.key == compute_key(config, job.trial)

    def test_lookup_round_trip(self, tmp_path, metrics_and_key):
        metrics, _ = metrics_and_key
        config = SimulationConfig(num_runs=3, num_disks=1, blocks_per_run=20,
                                  trials=1)
        store = ResultStore(tmp_path)
        assert lookup(config, store=store) is None
        store.put(compute_key(config, 0), metrics)
        restored = lookup(config, store=store)
        assert restored is not None
        assert restored.to_dict() == metrics.to_dict()


def _tear_writes(monkeypatch):
    """Make the store's one temp-file write fail after partial bytes."""

    class TornFile(io.FileIO):
        def write(self, data):
            super().write(bytes(data)[:11])  # partial bytes hit the temp file
            raise OSError("disk full")

    monkeypatch.setattr(store_module, "open", TornFile, raising=False)


class TestAtomicWrites:
    """A crash mid-write must never corrupt or shadow an entry."""

    def test_crash_mid_write_leaves_no_entry(self, tmp_path, metrics_and_key,
                                             monkeypatch):
        metrics, key = metrics_and_key
        store = ResultStore(tmp_path)

        _tear_writes(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            store.put(key, metrics)
        monkeypatch.undo()
        assert store.get(key) is None
        assert list(store.keys()) == []
        # The failed temp file was cleaned up, not left to accumulate.
        leftovers = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert leftovers == []

    def test_crash_mid_write_preserves_previous_entry(self, tmp_path,
                                                      metrics_and_key,
                                                      monkeypatch):
        metrics, key = metrics_and_key
        store = ResultStore(tmp_path)
        store.put(key, metrics, seed=1992)
        before = store.path_for(key).read_bytes()

        _tear_writes(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            store.put(key, metrics, seed=1992)
        monkeypatch.undo()
        # The old entry is intact, byte for byte.
        assert store.path_for(key).read_bytes() == before
        assert store.get(key) is not None
