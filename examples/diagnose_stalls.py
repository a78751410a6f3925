#!/usr/bin/env python3
"""Diagnose a mis-sized configuration with the observability tools.

A merge is slower than expected.  Is the cache too small?  Are disks
idle?  Are demand fetches queueing behind prefetches?  This example
runs a deliberately under-provisioned configuration next to a healthy
one under a trace session and answers those questions with views over
the trace -- request records, wait statistics, and utilization
timelines -- the workflow for tuning a real deployment.

Run:  python examples/diagnose_stalls.py
"""

from repro import PrefetchStrategy, SimulationConfig
from repro.api import configure
from repro.core.merge_sim import MergeTrial
from repro.disks.request import FetchKind
from repro.obs.views import (
    render_gantt,
    request_statistics,
    request_traces,
    utilization_report,
)

K_RUNS = 25
DISKS = 5
DEPTH = 10
BLOCKS_PER_RUN = 150


def run(cache_blocks: int):
    config = SimulationConfig(
        num_runs=K_RUNS,
        num_disks=DISKS,
        strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=DEPTH,
        cache_capacity=cache_blocks,
        blocks_per_run=BLOCKS_PER_RUN,
        trials=1,
    )
    with configure(trace=True) as ctx:
        metrics = MergeTrial(config, seed=7).run()
    return config, metrics, ctx.trace.trials[0]


def report(label: str, config, metrics, trial) -> None:
    traces = request_traces(trial)
    print(f"--- {label}: cache = {config.resolved_cache_capacity} blocks ---")
    print(f"total time     : {metrics.total_time_s:.2f} s")
    print(f"success ratio  : {metrics.success_ratio:.2f}")
    print(f"busy disks     : {metrics.average_concurrency:.2f} of {DISKS}")
    demand = request_statistics(traces, FetchKind.DEMAND)
    prefetch = request_statistics(traces, FetchKind.PREFETCH)
    print(f"demand fetches : {demand.count}, mean queue wait "
          f"{demand.mean_queue_wait_ms:.1f} ms (max "
          f"{demand.max_queue_wait_ms:.1f} ms)")
    print(f"prefetches     : {prefetch.count} covering "
          f"{prefetch.total_blocks} blocks")
    print()
    print(utilization_report(trial, DISKS, config.resolved_cache_capacity,
                             buckets=56))
    print()
    window = metrics.total_time_ms / 20
    print(f"service windows, first {window:.0f} ms:")
    print(render_gantt(traces, DISKS, width=56, end_ms=window))
    print()


def main() -> None:
    starved_config, starved, starved_trial = run(cache_blocks=260)
    healthy_config, healthy, healthy_trial = run(cache_blocks=800)
    report("STARVED", starved_config, starved, starved_trial)
    report("HEALTHY", healthy_config, healthy, healthy_trial)
    speedup = starved.total_time_s / healthy.total_time_s
    print(
        f"Diagnosis: at 260 blocks the cache almost never fits a full "
        f"{DISKS * DEPTH}-block prefetch\n(success ratio "
        f"{starved.success_ratio:.2f}), so most fetches are single demand "
        f"blocks, disks sit idle,\nand the merge runs {speedup:.1f}x "
        f"slower. The sparklines show it at a glance:\na pinned-full "
        f"cache with near-idle disks means 'grow the cache or shrink N'."
    )


if __name__ == "__main__":
    main()
