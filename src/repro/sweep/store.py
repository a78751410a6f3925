"""Persistent, content-addressed result store and campaign checkpoints.

Results live one JSON file per trial under ``<root>/<key[:2]>/<key>.json``
(keyed by :func:`repro.sweep.keys.cache_key`), written atomically via a
temp file + ``os.replace`` so a killed sweep never leaves a truncated
entry.  A re-run of the same sweep finds every finished trial by key and
skips the simulation — that *is* the resume mechanism, and the store
is the only record of which jobs are done.  A campaign adds a header
under ``<root>/campaigns/<name>.json`` (spec, spec hash, job keys),
written once, and an append-only journal ``<name>.jsonl`` of shard
transitions and failed jobs that tooling and humans can inspect
mid-flight.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Iterator, Optional

from repro.core.metrics import MergeMetrics
from repro.sweep.keys import CACHE_SCHEMA_VERSION

#: Default store location (gitignored).
DEFAULT_CACHE_DIR = Path("results") / "cache"


def atomic_write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as JSON at ``path`` via temp file + ``os.replace``.

    The store's one write primitive, shared by trial entries and
    campaign headers: a reader never observes a truncated file, and a
    crash mid-write leaves only an orphaned ``*<key>.json*.tmp``
    sibling (reclaimed by :func:`repro.sweep.gc.collect_garbage` — live
    entries never end in ``.tmp``, so that namespace is all garbage).
    """
    data = json.dumps(payload).encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with open(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultStore:
    """Content-addressed cache of simulated trials."""

    def __init__(self, root: Path | str = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[MergeMetrics]:
        """Cached metrics for ``key``, or ``None`` on any miss.

        Unreadable or schema-mismatched entries count as misses (the
        sweep recomputes and overwrites them) rather than errors.
        """
        try:
            with open(self.path_for(key)) as handle:
                payload = json.load(handle)
            if payload.get("schema") != CACHE_SCHEMA_VERSION:
                return None
            return MergeMetrics.from_dict(payload["metrics"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def put(
        self,
        key: str,
        metrics: MergeMetrics,
        *,
        config: Optional[dict] = None,
        seed: Optional[int] = None,
        elapsed_s: Optional[float] = None,
    ) -> Path:
        """Persist one trial's metrics; returns the entry path."""
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "config": config,
            "seed": seed,
            "elapsed_s": elapsed_s,
            "saved_at": time.time(),
            "metrics": metrics.to_dict(),
        }
        path = self.path_for(key)
        atomic_write_json(path, payload)
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def keys(self) -> Iterator[str]:
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if shard.name == "campaigns" or not shard.is_dir():
                continue
            for entry in sorted(shard.glob("*.json")):
                yield entry.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def purge(self) -> int:
        """Delete every cached trial; returns how many were removed."""
        removed = 0
        for key in list(self.keys()):
            try:
                self.path_for(key).unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def tmp_files(self) -> Iterator[Path]:
        """Orphaned ``*.tmp`` files left by crashed atomic writes.

        Live entries end in ``.json`` or ``.jsonl`` (trials, campaign
        headers and journals), so anything matching ``*.tmp`` anywhere
        under the root — shard directories and ``campaigns/`` alike —
        is reclaimable garbage.
        """
        if not self.root.is_dir():
            return
        yield from sorted(self.root.rglob("*.tmp"))


class CampaignManifest:
    """Checkpoint of one named sweep campaign: a header and a journal.

    The header ``campaigns/<name>.json`` (spec, spec hash, start time,
    job keys) is written once.  Which jobs are done is not recorded: a
    job is done iff its key is in the :class:`ResultStore`.  Shard
    transitions and failed jobs append one JSON object per line to the
    journal ``campaigns/<name>.jsonl``; nothing replays it on resume.
    """

    def __init__(self, root: Path | str, name: str) -> None:
        self.path = Path(root) / "campaigns" / f"{name}.json"
        self.journal_path = self.path.with_suffix(".jsonl")
        self.name = name

    def load(self) -> Optional[dict]:
        try:
            with open(self.path) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def begin(self, spec_dict: dict, spec_key: str, job_keys: list[str]) -> None:
        """Start (or resume) a campaign.

        Writes the header only when it is absent or does not parse.
        Resuming with a *different* spec under the same name raises —
        that would silently interleave results of two sweeps.
        """
        previous = self.load()
        if previous is None:
            atomic_write_json(self.path, {
                "name": self.name,
                "spec_key": spec_key,
                "spec": spec_dict,
                "started_at": time.time(),
                "jobs": list(job_keys),
            })
        elif previous.get("spec_key") != spec_key:
            raise ValueError(
                f"campaign {self.name!r} already exists with a different "
                f"spec; pick a new name or delete {self.path}"
            )
        if self.journal_path.is_file():
            # End a line torn by a crash mid-append, so the next append
            # starts on its own line.
            with open(self.journal_path, "rb+") as handle:
                if handle.seek(0, os.SEEK_END):
                    handle.seek(-1, os.SEEK_END)
                    if handle.read(1) != b"\n":
                        handle.write(b"\n")

    def record(self, key: str, status: str) -> None:
        """Journal one job's terminal status (the engines record ``failed``)."""
        self._append({"job": key, "status": status})

    def record_shard(self, shard_id: str, status: str, **fields) -> None:
        """Journal one dist shard transition (``pending``/``leased``/``done``).

        Extra ``fields`` (worker id, lease token, job indices,
        ``reclaimed_from``) are stored verbatim.
        """
        self._append({"shard": shard_id, "status": status, **fields})

    def journal(self) -> list[dict]:
        """Every journal line, oldest first, skipping lines that do not parse."""
        if not self.journal_path.is_file():
            return []
        events = []
        for line in self.journal_path.read_text().splitlines():
            with contextlib.suppress(ValueError):  # torn by a crash
                events.append(json.loads(line))
        return events

    def _append(self, event: dict) -> None:
        with open(self.journal_path, "a") as handle:
            handle.write(json.dumps(event) + "\n")
