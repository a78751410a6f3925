#!/usr/bin/env python3
"""End-to-end smoke test for the dist subsystem (``make dist-smoke``).

Everything runs as *real operating-system processes* through the real
CLI — exactly what a user would launch on three machines:

* a coordinator (``repro dist coordinate --exit-when-done``) shards a
  campaign and leases it over HTTP,
* worker A (``repro dist work``) starts pulling shards and is
  **SIGKILL'd mid-campaign** — no cleanup, no goodbye,
* worker B is started afterwards and must finish the whole campaign,
  re-executing whatever leases died with worker A.

The assertions are the crash-safety contract: the coordinator and
worker B exit 0, and every job key in the campaign manifest's header is
in the ResultStore (the store is the only record of which jobs are
done).  It reports, without asserting, how many shards the journal
shows reclaimed from worker A's expired leases.  Writes the mid-run
``/v1/metricz`` snapshot to ``results/dist/`` when writable (CI
uploads it as an artifact).  Finishes in well under a minute.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.dist import CoordinatorClient  # noqa: E402
from repro.serve.client import NO_RETRY, ServeError  # noqa: E402
from repro.sweep.spec import SweepSpec  # noqa: E402
from repro.sweep.store import CampaignManifest, ResultStore  # noqa: E402

#: 8 jobs across 4 cells; each trial takes long enough (~0.1s) that
#: worker A is reliably holding a lease when the kill lands.
SPEC = {
    "name": "dist-smoke",
    "base": {"num_runs": 8, "blocks_per_run": 400},
    "grid": {"num_disks": [1, 2], "prefetch_depth": [1, 2]},
    "trials": 2,
    "base_seed": 1992,
}
METRICS_OUT = Path("results") / "dist" / "dist_smoke_metricz.json"


def fail(message: str) -> int:
    print(f"[dist-smoke] FAIL: {message}")
    return 1


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn(*argv: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv], cwd=REPO, env=env
    )


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="repro-dist-smoke-"))
    spec_path = tmp / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    cache_dir = tmp / "cache"
    port = free_port()
    total_jobs = len(SweepSpec.from_dict(SPEC).jobs())

    coordinator = spawn(
        "dist", "coordinate", "--spec", str(spec_path),
        "--port", str(port), "--shard-size", "1",
        "--lease-ttl", "2.0", "--cache-dir", str(cache_dir),
        "--exit-when-done",
    )
    worker_a = spawn("dist", "work", "--port", str(port), "--id", "doomed")
    worker_b = None
    # Fail fast: the poll loop below retries every 50 ms itself, where
    # the default backoff could sleep through a sub-second campaign.
    client = CoordinatorClient("127.0.0.1", port, timeout_s=5.0,
                               retry=NO_RETRY)
    print(f"[dist-smoke] coordinator on :{port}, campaign of "
          f"{total_jobs} jobs, cache {cache_dir}")

    try:
        # -- wait until worker A is genuinely mid-campaign --------------
        deadline = time.monotonic() + 60.0
        while True:
            if time.monotonic() > deadline:
                return fail("worker A never got mid-campaign")
            if coordinator.poll() is not None:
                return fail("coordinator exited before the kill")
            try:
                status = client.campaign(SPEC["name"])
            except ServeError:
                time.sleep(0.05)  # coordinator still binding
                continue
            completed = status["jobs"]["completed"]
            if 1 <= completed < total_jobs and status["leases"]["live"] > 0:
                break
            time.sleep(0.02)

        metricz = client.metricz()
        worker_a.send_signal(signal.SIGKILL)
        worker_a.wait(timeout=10.0)
        print(f"[dist-smoke] SIGKILL'd worker A at "
              f"{completed}/{total_jobs} jobs, "
              f"{status['leases']['live']} lease(s) live")

        # -- a fresh worker must finish what the corpse left behind -----
        worker_b = spawn("dist", "work", "--port", str(port), "--id",
                         "rescue")
        try:
            coordinator.wait(timeout=120.0)
        except subprocess.TimeoutExpired:
            return fail("coordinator never drained; lost shard?")
        if coordinator.returncode != 0:
            return fail(f"coordinator exited {coordinator.returncode}")
        if worker_b.wait(timeout=30.0) != 0:
            return fail(f"worker B exited {worker_b.returncode}")

        # -- crash-safety contract --------------------------------------
        store = ResultStore(cache_dir)
        if len(store) != total_jobs:
            return fail(f"store has {len(store)}/{total_jobs} trials")
        manifest = CampaignManifest(cache_dir, SPEC["name"])
        not_done = [k for k in manifest.load()["jobs"] if k not in store]
        if not_done:
            return fail(f"{len(not_done)} job(s) of the manifest not stored")
        reclaimed = {
            event["shard"] for event in manifest.journal()
            if event.get("reclaimed_from")
        }
        print(f"[dist-smoke] campaign complete: {total_jobs}/{total_jobs} "
              f"trials stored, {len(reclaimed)} shard(s) reclaimed from "
              f"the killed worker")

        try:
            METRICS_OUT.parent.mkdir(parents=True, exist_ok=True)
            METRICS_OUT.write_text(json.dumps(metricz, indent=2))
            print(f"[dist-smoke] metricz snapshot -> {METRICS_OUT}")
        except OSError:
            pass
        print("[dist-smoke] OK")
        return 0
    finally:
        client.close()
        for process in (worker_a, worker_b, coordinator):
            if process is not None and process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)


if __name__ == "__main__":
    sys.exit(main())
