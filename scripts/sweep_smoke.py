#!/usr/bin/env python3
"""End-to-end smoke test for the sweep subsystem (``make sweep-smoke``).

Runs a tiny 8-job campaign on a 2-worker pool into a throwaway cache
directory, then re-runs it and verifies the second pass is served
entirely from the cache with results identical to the first, and that
neither pass ran a trial off the batch interpreter.  A pooled pass of a
write-disk campaign, which the interpreter hands to the reference
kernel, must report every job as such a fallback.  No pool worker may
outlive its campaign.  Exits non-zero on any violation.  Finishes in a
couple of seconds.
"""

import json
import multiprocessing
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.sweep import ResultStore, SweepEngine, SweepSpec  # noqa: E402

SPEC = SweepSpec(
    name="smoke",
    base={"num_runs": 4, "strategy": "intra-run", "blocks_per_run": 40},
    grid={"num_disks": [1, 2], "prefetch_depth": [2, 3]},
    trials=2,
)

#: Write disks are outside the batch interpreter's envelope.
WRITE_SPEC = SweepSpec(
    name="smoke-write",
    base={"num_runs": 4, "blocks_per_run": 40, "write_disks": 1},
    grid={"num_disks": [1, 2]},
    trials=2,
)
WRITE_REASON = "the write subsystem requires the event kernel"


def run(engine: SweepEngine, spec: SweepSpec):
    """``engine.run_spec(spec)``; exits 1 if a pool worker outlives it."""
    result = engine.run_spec(spec)
    left = multiprocessing.active_children()
    if left:
        print(f"[sweep-smoke] FAIL: {spec.name} left workers {left}")
        sys.exit(1)
    return result


def main() -> int:
    jobs = len(SPEC.jobs())
    with tempfile.TemporaryDirectory(prefix="repro-sweep-smoke-") as tmp:
        store = ResultStore(tmp)

        cold = run(SweepEngine(store=store, workers=2), SPEC)
        print(f"[sweep-smoke] cold: {cold.stats.summary()}")
        if cold.stats.computed != jobs or cold.failures:
            print("[sweep-smoke] FAIL: cold run did not compute every job")
            return 1

        warm = run(SweepEngine(store=store, workers=2), SPEC)
        print(f"[sweep-smoke] warm: {warm.stats.summary()}")
        if warm.stats.cached != jobs or warm.stats.computed != 0:
            print("[sweep-smoke] FAIL: warm run was not 100% cache hits")
            return 1

        dump = lambda cells: json.dumps([c.to_dict() for c in cells])  # noqa: E731
        if dump(cold.cells) != dump(warm.cells):
            print("[sweep-smoke] FAIL: cached results differ from computed")
            return 1
        if cold.stats.fallbacks or warm.stats.fallbacks:
            print("[sweep-smoke] FAIL: interpreter fallbacks "
                  f"{cold.stats.fallbacks} / {warm.stats.fallbacks}")
            return 1

        write_jobs = len(WRITE_SPEC.jobs())
        write = run(SweepEngine(store=store, workers=2), WRITE_SPEC)
        print(f"[sweep-smoke] write: {write.stats.summary()}")
        if write.stats.fallbacks != {WRITE_REASON: write_jobs}:
            print("[sweep-smoke] FAIL: pooled fallbacks "
                  f"{write.stats.fallbacks}, expected {write_jobs}")
            return 1

    print(f"[sweep-smoke] ok: {jobs} jobs, second pass 100% cached; "
          f"{write_jobs} write-disk fallbacks counted from the pool")
    return 0


if __name__ == "__main__":
    sys.exit(main())
