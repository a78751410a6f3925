#!/usr/bin/env python3
"""Concurrency-sanitizer smoke test (``make sanitize-smoke``).

Three phases, mirroring how the sanitizer is meant to be used:

1. **The detector detects.** In-process, with the sanitizer enabled, a
   rogue thread mutates a pool-owned ``RunCacheState`` counter without
   the BufferPool lock.  The violation must surface as a standard
   findings-pipeline :class:`Finding` (rule ``RPR090``), render through
   the normal reporter path, and make ``SanitizerReport.check`` raise.
2. **realio sort is clean.** ``repro realio run`` (per-disk reader
   threads feeding the BufferPool) executes under ``REPRO_SANITIZE=1``
   and must exit 0 with no ``sanitizer:`` report on stderr.
3. **A 2-worker dist campaign is clean.** Coordinator plus two worker
   processes drain a small campaign, every process under
   ``REPRO_SANITIZE=1``; all must exit 0 with silent sanitizers.

Phases 2-3 are the regression half of the contract: the concurrent
subsystems really do hold the invariants the sanitizer asserts, and the
instrumentation itself does not break them.  Finishes in well under a
minute.
"""

import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

SPEC = {
    "name": "sanitize-smoke",
    "base": {"num_runs": 8, "blocks_per_run": 200},
    "grid": {"num_disks": [1, 2], "prefetch_depth": [1, 2]},
    "trials": 1,
    "base_seed": 1992,
}


def fail(message: str) -> int:
    print(f"[sanitize-smoke] FAIL: {message}")
    return 1


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn(*argv: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_SANITIZE"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        cwd=REPO, env=env, stderr=subprocess.PIPE, text=True,
    )


def sanitizer_lines(process: subprocess.Popen) -> list[str]:
    stderr = process.stderr.read() if process.stderr else ""
    return [
        line for line in stderr.splitlines() if line.startswith("sanitizer:")
    ]


def phase_detector() -> int:
    """A deliberate unlocked mutation must be caught and reported."""
    from repro.lint import sanitizer
    from repro.realio.pool import BufferPool

    with sanitizer.sanitized() as report:
        pool = BufferPool(4, [2, 2])
        pool.reserve(0, 1)  # properly locked: must stay silent

        def rogue() -> None:
            pool.runs[1].cached += 1  # no lock: the violation

        thread = threading.Thread(target=rogue, name="rogue")
        thread.start()
        thread.join()

        findings = report.findings()
        if [f.rule for f in findings] != ["RPR090"]:
            return fail(f"expected exactly one RPR090, got {findings}")
        rendered = findings[0].render()
        if "RPR090" not in rendered or "pool lock" not in rendered:
            return fail(f"finding renders badly: {rendered}")
        try:
            report.check()
        except sanitizer.ConcurrencyViolation:
            pass
        else:
            return fail("report.check() did not raise on a violation")
        report.clear()
    print(f"[sanitize-smoke] detector: caught the planted violation "
          f"({rendered})")
    return 0


def phase_realio(tmp: Path) -> int:
    """Real reader threads + BufferPool under the sanitizer: clean."""
    process = spawn(
        "realio", "run", "--dir", str(tmp / "dataset"), "--throttle", "0.2",
    )
    process.wait(timeout=120.0)
    noise = sanitizer_lines(process)
    if process.returncode != 0:
        return fail(f"realio run exited {process.returncode}")
    if noise:
        return fail("realio run raised sanitizer findings:\n"
                    + "\n".join(noise))
    print("[sanitize-smoke] realio sort: exit 0, sanitizer silent")
    return 0


def phase_dist(tmp: Path) -> int:
    """Coordinator + two workers, all sanitized: clean."""
    spec_path = tmp / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    port = free_port()
    coordinator = spawn(
        "dist", "coordinate", "--spec", str(spec_path),
        "--port", str(port), "--shard-size", "2",
        "--cache-dir", str(tmp / "cache"), "--exit-when-done",
    )
    workers = [
        spawn("dist", "work", "--port", str(port), "--id", f"w{index}")
        for index in (1, 2)
    ]
    try:
        coordinator.wait(timeout=120.0)
        for worker in workers:
            worker.wait(timeout=30.0)
    except subprocess.TimeoutExpired:
        return fail("dist campaign never drained")
    finally:
        for process in (coordinator, *workers):
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)
    for process in (coordinator, *workers):
        if process.returncode != 0:
            return fail(f"a dist process exited {process.returncode}")
        noise = sanitizer_lines(process)
        if noise:
            return fail("dist raised sanitizer findings:\n"
                        + "\n".join(noise))
    print("[sanitize-smoke] dist campaign: coordinator + 2 workers "
          "exit 0, sanitizers silent")
    return 0


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="repro-sanitize-smoke-"))
    for phase in (phase_detector, lambda: phase_realio(tmp),
                  lambda: phase_dist(tmp)):
        code = phase()
        if code != 0:
            return code
    print("[sanitize-smoke] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
