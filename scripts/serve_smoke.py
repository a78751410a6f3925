#!/usr/bin/env python3
"""End-to-end smoke test for the serve subsystem (``make serve-smoke``).

Starts a real :class:`SimulationServer` on an ephemeral port, then
drives the full admission pipeline through :class:`ServeClient`:

* a cold request computes its trials (cache misses),
* an identical request is answered entirely from the cache without a
  worker touching it (verified through ``/v1/metricz``),
* two identical concurrent misses coalesce onto one computation,
* a rate-limited client is shed with 429 + ``Retry-After``,
* a full admission queue sheds with 503,
* a ``repro sweep`` campaign on the server's ``--cache-dir`` warms the
  cache: its cells are then answered as hits, without a worker,
* the server drains cleanly;
* a ``repro serve --workers 2`` process computes one miss on its
  worker pool, and a SIGTERM drains it with exit 0 and no worker left.

Writes the final ``/v1/metricz`` snapshot to ``results/serve/`` when
that directory is writable (CI uploads it as an artifact).  Exits
non-zero on any violation.  Finishes in a few seconds.
"""

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from repro.serve import (  # noqa: E402
    NO_RETRY,
    ServeClient,
    ServeConfig,
    ServeHTTPError,
    SimulationServer,
)
from repro.serve.server import start_in_thread  # noqa: E402

CONFIG = {"num_runs": 4, "num_disks": 2, "strategy": "intra-run",
          "prefetch_depth": 2, "blocks_per_run": 40}
METRICS_OUT = Path("results") / "serve" / "serve_smoke_metricz.json"


def fail(message: str) -> int:
    print(f"[serve-smoke] FAIL: {message}")
    return 1


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    server = SimulationServer(
        ServeConfig(port=0, workers=0, rate=2.0, burst=20.0, queue_limit=4,
                    cache_dir=tmp)
    )
    handle = start_in_thread(server)
    host, port = handle.address
    client = ServeClient(host, port, client_id="smoke", retry=NO_RETRY)
    print(f"[serve-smoke] server on {host}:{port}, cache {tmp}")
    try:
        # -- cold misses then pure hits ---------------------------------
        cold = client.simulate(CONFIG, trials=2, seed=7)
        if cold["cache"] != {"hits": 0, "misses": 2, "coalesced": 0}:
            return fail(f"cold request not all misses: {cold['cache']}")
        warm = client.simulate(CONFIG, trials=2, seed=7)
        if warm["cache"] != {"hits": 2, "misses": 0, "coalesced": 0}:
            return fail(f"warm request not all hits: {warm['cache']}")
        if warm["trials"] != cold["trials"]:
            return fail("cached payload differs from computed payload")
        counters = client.metricz()["counters"]
        if counters.get("serve_computed") != 2:
            return fail(f"hits reached a worker: {counters}")
        print("[serve-smoke] cold 2 misses, warm 2 hits, payloads identical")

        # -- concurrent identical misses coalesce -----------------------
        fresh = {**CONFIG, "prefetch_depth": 3}
        answers, errors = [], []

        def request():
            try:
                with ServeClient(host, port, client_id="smoke",
                                 retry=NO_RETRY) as own:
                    answers.append(own.simulate(fresh, trials=1, seed=7))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=request) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        if errors:
            return fail(f"concurrent request errored: {errors[0]}")
        if answers[0]["trials"] != answers[1]["trials"]:
            return fail("coalesced answers differ")
        counters = client.metricz()["counters"]
        computed = counters.get("serve_computed", 0)
        coalesced = counters.get("serve_cache{outcome=coalesced}", 0)
        if computed + coalesced < 3 or computed > 3:
            # Either the requests overlapped (1 computation + 1 coalesce)
            # or the first landed before the second arrived (2nd is a
            # hit) — both are correct; >3 computations means the
            # single-flight map failed.
            return fail(
                f"coalescing broken: computed={computed} "
                f"coalesced={coalesced}"
            )
        print(f"[serve-smoke] concurrent identical requests: "
              f"computed={computed - 2}, coalesced={coalesced}, "
              "answers identical")

        # -- rate limiting: 429 + Retry-After ---------------------------
        saw_429 = None
        with ServeClient(host, port, client_id="greedy",
                         retry=NO_RETRY) as greedy:
            for _ in range(25):  # burst is 20: the loop must hit the limiter
                try:
                    greedy.simulate(CONFIG, trials=1, seed=7)
                except ServeHTTPError as exc:
                    if exc.status != 429:
                        return fail(f"expected 429, got {exc.status}")
                    saw_429 = exc
                    break
        if saw_429 is None:
            return fail("rate limiter never engaged")
        if not saw_429.payload.get("retry_after_s", 0) > 0:
            return fail(f"429 without retry advice: {saw_429.payload}")
        print(f"[serve-smoke] rate limit: 429 after burst, retry in "
              f"{saw_429.payload['retry_after_s']:.2f}s")

        # -- queue shedding: 503 when every slot is held ----------------
        # Saturate deterministically: shrink the queue to one slot and
        # hold it from here (the loop is idle between our requests).
        server.admission.limit = 1
        server.admission.try_acquire()
        try:
            client.simulate({**CONFIG, "num_runs": 5}, trials=1, seed=7)
            return fail("full queue did not shed")
        except ServeHTTPError as exc:
            if exc.status != 503:
                return fail(f"expected 503, got {exc.status}")
        finally:
            server.admission.release()
        print("[serve-smoke] queue full: 503 with Retry-After")

        # -- a sweep campaign warms the server's cache ------------------
        # Campaigns run through `repro sweep` on the server's store; the
        # cells it computes are then answered without a worker.
        computed_before = client.metricz()["counters"]["serve_computed"]
        campaign = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "-k", "4", "-D", "1,3",
             "--strategy", "intra-run", "-N", "2", "--blocks", "40",
             "--trials", "2", "--seed", "7", "--name", "serve-smoke",
             "--cache-dir", tmp, "--quiet"],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
            )},
            capture_output=True, text=True, timeout=120,
        )
        if campaign.returncode != 0:
            return fail(f"repro sweep exited {campaign.returncode}: "
                        f"{campaign.stderr.strip()}")
        for disks in (1, 3):
            hit = client.simulate({**CONFIG, "num_disks": disks}, trials=2,
                                  seed=7)
            if hit["cache"] != {"hits": 2, "misses": 0, "coalesced": 0}:
                return fail(f"repro sweep did not warm the server's cache: "
                            f"D={disks} answered {hit['cache']}")
        counters = client.metricz()["counters"]
        if counters["serve_computed"] != computed_before:
            return fail(f"swept cells reached a worker: {counters}")
        print("[serve-smoke] repro sweep campaign (2 cells x 2 trials) on "
              "the server's cache dir: every swept trial a hit")

        # -- metrics snapshot -------------------------------------------
        metricz = client.metricz()
        hits = metricz["counters"].get("serve_cache{outcome=hit}", 0)
        misses = metricz["counters"].get("serve_cache{outcome=miss}", 0)
        if not hits or hits / (hits + misses) <= 0:
            return fail(f"no cache hits recorded: {metricz['counters']}")
        try:
            METRICS_OUT.parent.mkdir(parents=True, exist_ok=True)
            METRICS_OUT.write_text(json.dumps(metricz, indent=2) + "\n")
            print(f"[serve-smoke] metricz snapshot -> {METRICS_OUT}")
        except OSError as exc:
            print(f"[serve-smoke] note: metricz snapshot not written: {exc}")
        print(f"[serve-smoke] hit rate "
              f"{hits / (hits + misses):.0%} ({hits:.0f} hits, "
              f"{misses:.0f} misses)")
    finally:
        client.close()
        handle.stop()
    if handle.thread.is_alive():
        return fail("server thread did not drain")
    print("[serve-smoke] clean drain")
    return pooled_phase(tmp)


def children(pid: int) -> list[int]:
    """The live processes whose parent is ``pid`` (from /proc)."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # exited while we looked
            continue
        if fields[1] == str(pid) and fields[0] != "Z":
            found.append(int(stat.parent.name))
    return found


def pooled_phase(tmp: str) -> int:
    """``repro serve --workers 2`` as a process: one miss computed on its
    worker pool, then a SIGTERM drain that exits 0 and leaves no worker."""
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--cache-dir", tmp],
        env={**os.environ, "PYTHONUNBUFFERED": "1", "PYTHONPATH":
             os.pathsep.join(filter(None, [str(SRC),
                                           os.environ.get("PYTHONPATH")]))},
        stdout=subprocess.PIPE, text=True,
    )
    try:
        listening = server.stdout.readline()
        match = re.search(r"listening on http://(.+):(\d+)", listening)
        if match is None:
            return fail(f"no 'listening on' line: {listening!r}")
        host, port = match.group(1), int(match.group(2))
        with ServeClient(host, port, client_id="smoke",
                         retry=NO_RETRY) as client:
            miss = client.simulate({**CONFIG, "num_runs": 6}, trials=1, seed=7)
            computed = client.metricz()["counters"].get("serve_computed")
        if miss["cache"]["misses"] != 1 or computed != 1:
            return fail(f"pooled miss not computed once: {miss['cache']}, "
                        f"serve_computed={computed}")
        has_proc = Path("/proc/self/stat").exists()
        workers = children(server.pid) if has_proc else []
        if has_proc and len(workers) != 2:
            return fail(f"expected 2 pool workers, found {workers}")
        server.send_signal(signal.SIGTERM)
        code = server.wait(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()
    if code != 0:
        return fail(f"SIGTERM drain exited {code}")
    left = [pid for pid in workers if Path(f"/proc/{pid}").exists()]
    if left:
        return fail(f"pool workers outlived the server: {left}")
    print(f"[serve-smoke] repro serve --workers 2: one pooled miss, "
          f"SIGTERM drain exit 0, {len(workers)} workers joined")
    print("[serve-smoke] ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
