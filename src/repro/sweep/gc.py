"""Result-store compaction: reclaim garbage the atomic-write protocol leaves.

Two kinds of debris accumulate under a long-lived store root:

* **orphaned temp files** — ``atomic_write_json`` stages every entry as
  ``<name>.json<random>.tmp`` before ``os.replace``; a crash (SIGKILL,
  power loss) between ``mkstemp`` and the rename strands the temp file
  forever.  Live entries end in ``.json`` or ``.jsonl``, so everything
  in the ``*.tmp`` namespace is garbage by construction.
* **stale campaign manifests** — headers under ``campaigns/`` whose
  every job key is in the store (the store *is* the resume state, so a
  finished manifest is pure history) or that no longer parse as JSON,
  each removed with its ``.jsonl`` journal.

Collection is age-gated: only files older than ``min_age_s`` are
touched, so a concurrently running sweep's in-flight temp files and
just-finished manifests survive.  ``repro sweep gc`` is the CLI face.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Optional

from repro.sweep.store import ResultStore

#: Default grace period: anything younger is presumed in flight.
DEFAULT_MIN_AGE_S = 3600.0


@dataclasses.dataclass
class GCReport:
    """What one collection pass found (and, unless dry-run, removed)."""

    root: str
    dry_run: bool
    tmp_removed: list[str] = dataclasses.field(default_factory=list)
    manifests_removed: list[str] = dataclasses.field(default_factory=list)
    bytes_freed: int = 0
    live_entries: int = 0
    skipped_young: int = 0

    @property
    def removed(self) -> int:
        return len(self.tmp_removed) + len(self.manifests_removed)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "GCReport":
        names = {field.name for field in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})


def _age_s(path: Path, now: float) -> Optional[float]:
    try:
        return now - path.stat().st_mtime
    except OSError:
        return None  # vanished under us: someone else collected it


def _manifest_is_garbage(
    path: Path, store: ResultStore, remove_completed: bool
) -> bool:
    try:
        header = json.loads(path.read_text())
    except (OSError, ValueError):
        return True  # unparseable checkpoint: useless to any resume
    if not remove_completed:
        return False
    jobs = header.get("jobs") if isinstance(header, dict) else None
    if not isinstance(jobs, list) or not jobs:
        return False
    return all(key in store for key in jobs)


def collect_garbage(
    store: ResultStore,
    *,
    min_age_s: float = DEFAULT_MIN_AGE_S,
    remove_completed_manifests: bool = False,
    dry_run: bool = False,
    now: Optional[float] = None,
) -> GCReport:
    """One compaction pass over ``store``; returns what was reclaimed.

    Never touches live ``.json`` trial entries — the crash-mid-write
    test in ``tests/sweep/test_gc.py`` pins that invariant.  ``now``
    is injectable for tests; defaults to wall clock.
    """
    clock_now = time.time() if now is None else now
    report = GCReport(root=str(store.root), dry_run=dry_run)

    for tmp in store.tmp_files():
        age = _age_s(tmp, clock_now)
        if age is None:
            continue
        if age < min_age_s:
            report.skipped_young += 1
            continue
        size = tmp.stat().st_size
        if not dry_run:
            try:
                tmp.unlink()
            except OSError:
                continue
        report.tmp_removed.append(str(tmp))
        report.bytes_freed += size

    campaigns = store.root / "campaigns"
    if campaigns.is_dir():
        for manifest in sorted(campaigns.glob("*.json")):
            age = _age_s(manifest, clock_now)
            if age is None:
                continue
            if age < min_age_s:
                report.skipped_young += 1
                continue
            if not _manifest_is_garbage(
                manifest, store, remove_completed_manifests
            ):
                continue
            journal = manifest.with_suffix(".jsonl")
            files = [manifest] + ([journal] if journal.is_file() else [])
            size = sum(path.stat().st_size for path in files)
            if not dry_run:
                try:
                    for path in files:
                        path.unlink()
                except OSError:
                    continue
            report.manifests_removed.append(str(manifest))
            report.bytes_freed += size

    report.live_entries = len(store)
    return report


__all__ = ["GCReport", "collect_garbage", "DEFAULT_MIN_AGE_S"]
