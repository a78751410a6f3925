"""Ablations of design choices the paper adopts without sweeping.

* ``ablation-cache-policy``: conservative vs greedy handling of an
  almost-full cache (the paper picks conservative based on its
  companion Markov analysis; we measure the difference directly).
* ``ablation-selector``: random vs head-position/urgency heuristics for
  choosing the prefetch run on non-demand disks (the thesis found the
  heuristics marginal).
* ``ablation-depletion-model``: the Kwan-Baer random-depletion model vs
  the *real* block-depletion trace of a record-level merge over several
  key distributions.
* ``ablation-streaming``: letting back-to-back sequential fetches skip
  positioning costs (relaxing the model's per-fetch R charge).
* ``ablation-k100``: the k=100 configuration the authors simulated but
  omitted for space.
"""

from __future__ import annotations

from repro.core.parameters import (
    CachePolicy,
    PrefetchStrategy,
    SimulationConfig,
    VictimSelector,
)
from repro.disks.drive import QueueDiscipline
from repro.core.simulator import MergeSimulation
from repro.experiments.config import ExperimentResult, Scale, Table, register
from repro.mergesort.external import ExternalMergesort, trace_driven_metrics
from repro.mergesort.records import make_records
from repro.workloads import generators


@register(
    "ablation-cache-policy",
    "Conservative vs greedy almost-full-cache policy",
    "Section 2 (choice justified by the companion Markov analysis)",
    "Inter-run prefetching, k=25 D=5 N=10, over cache sizes where the "
    "policies diverge.",
)
def ablation_cache_policy(scale: Scale) -> ExperimentResult:
    caches = scale.thin([250, 300, 350, 400, 500, 600, 800])
    rows = []
    for cache in caches:
        row: list[object] = [cache]
        for policy in (CachePolicy.CONSERVATIVE, CachePolicy.GREEDY):
            result = MergeSimulation(
                scale.config(
                    num_runs=25,
                    num_disks=5,
                    strategy=PrefetchStrategy.INTER_RUN,
                    prefetch_depth=10,
                    cache_capacity=cache,
                    cache_policy=policy,
                )
            ).run()
            row += [result.total_time_s.mean, result.success_ratio.mean]
        rows.append(row)
    table = Table(
        title="k=25 D=5 N=10 inter-run, by cache policy (time in s)",
        headers=[
            "cache",
            "conservative time",
            "conservative sr",
            "greedy time",
            "greedy sr",
        ],
        rows=rows,
    )
    return ExperimentResult(
        experiment_id="ablation-cache-policy",
        title="Almost-full-cache policy",
        tables=[table],
        notes=["the Markov analysis predicts conservative achieves higher "
               "average I/O parallelism at constrained cache sizes"],
    )


@register(
    "ablation-selector",
    "Prefetch-victim selection heuristics",
    "Section 2 (heuristics 'insufficient to warrant' the bookkeeping)",
    "Inter-run prefetching, k=25 D=5 N=10, at a constrained and a "
    "generous cache size, across all selectors.",
)
def ablation_selector(scale: Scale) -> ExperimentResult:
    rows = []
    for selector in VictimSelector:
        row: list[object] = [selector.value]
        for cache in (300, 800):
            result = MergeSimulation(
                scale.config(
                    num_runs=25,
                    num_disks=5,
                    strategy=PrefetchStrategy.INTER_RUN,
                    prefetch_depth=10,
                    cache_capacity=cache,
                    victim_selector=selector,
                )
            ).run()
            row += [result.total_time_s.mean, result.success_ratio.mean]
        rows.append(row)
    table = Table(
        title="k=25 D=5 N=10 inter-run, by victim selector (time in s)",
        headers=["selector", "time C=300", "sr C=300", "time C=800", "sr C=800"],
        rows=rows,
    )
    return ExperimentResult(
        experiment_id="ablation-selector",
        title="Prefetch-victim selection",
        tables=[table],
        notes=["the paper adopts RANDOM; gains from smarter selectors "
               "should be marginal, matching the thesis finding"],
    )


@register(
    "ablation-depletion-model",
    "Random-depletion model vs real merge traces",
    "Section 2.2 (the block-depletion model assumption)",
    "Drive the I/O simulator with the real depletion trace of a "
    "record-level merge and compare against the random model.",
)
def ablation_depletion_model(scale: Scale) -> ExperimentResult:
    k = 10
    blocks_per_run = min(scale.blocks_per_run, 100)
    records_per_block = 16
    memory_records = blocks_per_run * records_per_block
    total_records = k * memory_records

    workloads = {
        "uniform": generators.uniform_keys(total_records, seed=scale.base_seed),
        "gaussian": generators.gaussian_keys(total_records, seed=scale.base_seed),
        "zipf": generators.zipf_keys(total_records, seed=scale.base_seed),
        "nearly-sorted": generators.nearly_sorted_keys(
            total_records, seed=scale.base_seed
        ),
    }

    def merge_config() -> SimulationConfig:
        return SimulationConfig(
            num_runs=k,
            num_disks=5,
            strategy=PrefetchStrategy.INTER_RUN,
            prefetch_depth=5,
            cache_capacity=k * 5 * 4,
            blocks_per_run=blocks_per_run,
            trials=scale.trials,
            base_seed=scale.base_seed,
        )

    random_model = MergeSimulation(merge_config()).run()
    rows: list[list[object]] = [
        ["random model", random_model.total_time_s.mean, "-"]
    ]
    sorter = ExternalMergesort(
        memory_records=memory_records, records_per_block=records_per_block
    )
    for name, keys in workloads.items():
        stats = sorter.sort(make_records(keys))
        metrics = trace_driven_metrics(stats, merge_config())
        delta = (
            100.0
            * (metrics.total_time_s - random_model.total_time_s.mean)
            / random_model.total_time_s.mean
        )
        rows.append([f"real merge: {name}", metrics.total_time_s, f"{delta:+.1f}%"])
    table = Table(
        title=(
            f"Inter-run k={k} D=5 N=5, {blocks_per_run} blocks/run: total "
            "time under each depletion source (s)"
        ),
        headers=["depletion source", "time (s)", "vs random model"],
        rows=rows,
    )
    return ExperimentResult(
        experiment_id="ablation-depletion-model",
        title="Depletion-model validation",
        tables=[table],
        notes=[
            "independent uniformly distributed runs deplete in a nearly "
            "random interleave, validating the Kwan-Baer model; skewed or "
            "correlated keys (nearly-sorted) deplete runs sequentially and "
            "diverge from it",
        ],
    )


@register(
    "ablation-streaming",
    "Sequential streaming across consecutive fetches",
    "Section 2.1 (the per-fetch R charge in the analysis)",
    "Relax the model so a fetch continuing exactly where the previous "
    "one ended skips seek and rotation, for intra-run prefetching.",
)
def ablation_streaming(scale: Scale) -> ExperimentResult:
    rows = []
    for n in scale.thin([1, 5, 10, 20, 30]):
        row: list[object] = [n]
        for streaming in (False, True):
            result = MergeSimulation(
                scale.config(
                    num_runs=25,
                    num_disks=5,
                    strategy=PrefetchStrategy.INTRA_RUN,
                    prefetch_depth=n,
                    stream_across_requests=streaming,
                )
            ).run()
            row.append(result.total_time_s.mean)
        rows.append(row)
    table = Table(
        title="k=25 D=5 intra-run: paper model vs streaming model (time in s)",
        headers=["N", "per-fetch R (paper)", "streaming allowed"],
        rows=rows,
    )
    return ExperimentResult(
        experiment_id="ablation-streaming",
        title="Streaming across fetches",
        tables=[table],
        notes=["with k/D runs interleaving on each disk, consecutive fetches "
               "rarely continue sequentially, so the paper's per-fetch R "
               "charge is a good approximation"],
    )


@register(
    "ablation-queue-discipline",
    "FIFO vs shortest-seek-first disk scheduling",
    "extension (the paper models FIFO queues only)",
    "Both strategies under FIFO and SSTF request ordering at each disk; "
    "SSTF reorders prefetches by head proximity, demand fetches first.",
)
def ablation_queue_discipline(scale: Scale) -> ExperimentResult:
    rows = []
    for strategy, depth, label in (
        (PrefetchStrategy.NONE, 1, "no prefetch D=5"),
        (PrefetchStrategy.INTRA_RUN, 10, "intra-run N=10 D=5"),
        (PrefetchStrategy.INTER_RUN, 10, "inter-run N=10 D=5"),
    ):
        row: list[object] = [label]
        for discipline in QueueDiscipline:
            result = MergeSimulation(
                scale.config(
                    num_runs=25,
                    num_disks=5,
                    strategy=strategy,
                    prefetch_depth=depth,
                    queue_discipline=discipline,
                )
            ).run()
            row.append(result.total_time_s.mean)
        rows.append(row)
    table = Table(
        title="k=25 D=5: total time by disk-queue discipline (s)",
        headers=["configuration", "fifo", "sstf"],
        rows=rows,
    )
    return ExperimentResult(
        experiment_id="ablation-queue-discipline",
        title="Disk-queue discipline",
        tables=[table],
        notes=[
            "with at most one outstanding fetch group per disk in the "
            "demand-driven strategies, queues are short and SSTF has "
            "little to reorder -- seek reduction comes from data layout, "
            "not scheduling",
        ],
    )


@register(
    "ext-write-traffic",
    "Write traffic to a separate disk array",
    "extension (the paper routes writes to separate disks and ignores them)",
    "Model the output stream: W write disks, round-robin, bounded "
    "buffers.  Sweeps W to find the array size at which writes leave "
    "the critical path, testing the paper's ignore-writes assumption.",
)
def ext_write_traffic(scale: Scale) -> ExperimentResult:
    base = dict(
        num_runs=25,
        num_disks=5,
        strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=10,
    )
    ignored = MergeSimulation(scale.config(**base)).run()
    rows: list[object] = [
        ["ignored (paper)", ignored.total_time_s.mean, 0.0, "-"]
    ]
    for write_disks in scale.thin([1, 2, 3, 5, 8]):
        result = MergeSimulation(
            scale.config(write_disks=write_disks, **base)
        ).run()
        stall = sum(m.write_stall_ms for m in result.trials) / len(result.trials)
        overhead = (
            100.0
            * (result.total_time_s.mean - ignored.total_time_s.mean)
            / ignored.total_time_s.mean
        )
        rows.append(
            [f"W={write_disks}", result.total_time_s.mean, stall / 1000.0,
             f"{overhead:+.0f}%"]
        )
    table = Table(
        title=(
            "k=25 D=5 inter-run N=10: total time with modeled writes "
            f"({scale.blocks_per_run} blocks/run)"
        ),
        headers=["write array", "time (s)", "write stall (s)", "overhead"],
        rows=rows,
    )
    return ExperimentResult(
        experiment_id="ext-write-traffic",
        title="Write traffic: sizing the output array",
        tables=[table],
        notes=[
            "with W < D equal disks the merge is write-bound "
            "(time ~ k*blocks*T/W); the paper's ignore-writes assumption "
            "is justified once the write array matches the read array's "
            "aggregate bandwidth",
        ],
    )


@register(
    "ext-skewed-depletion",
    "Robustness to non-uniform depletion",
    "extension (the Kwan-Baer model assumes uniform run choice)",
    "Drive the simulator with Zipf-skewed depletion sequences of "
    "increasing skew and compare strategies: how sensitive is each to "
    "the uniformity assumption?",
)
def ext_skewed_depletion(scale: Scale) -> ExperimentResult:
    from repro import api
    from repro.workloads.depletion import skewed_depletion_sequence

    k, d = 20, 5
    rows = []
    for alpha in (0.0, 0.5, 1.0, 2.0):
        row: list[object] = [alpha]
        for strategy, depth, selector in (
            (PrefetchStrategy.INTRA_RUN, 10, VictimSelector.RANDOM),
            (PrefetchStrategy.INTER_RUN, 10, VictimSelector.RANDOM),
            (PrefetchStrategy.INTER_RUN, 10, VictimSelector.MOST_DEPLETED),
        ):
            config = scale.config(
                num_runs=k,
                num_disks=d,
                strategy=strategy,
                prefetch_depth=depth,
                victim_selector=selector,
            )
            trials = range(scale.trials)
            results = api.run_trials(
                [config] * scale.trials,
                trials=trials,
                depletion_sources=[
                    skewed_depletion_sequence(
                        k, scale.blocks_per_run,
                        seed=scale.base_seed + 100 + trial, alpha=alpha,
                    )
                    for trial in trials
                ],
            )
            row.append(sum(m.total_time_s for m in results) / len(results))
        rows.append(row)
    table = Table(
        title=(
            f"k={k} D={d} N=10, Zipf-skewed depletion "
            f"({scale.blocks_per_run} blocks/run; time in s; alpha=0 is "
            "the paper's uniform model)"
        ),
        headers=["alpha", "intra-run", "inter-run random", "inter-run most-depleted"],
        rows=rows,
    )
    return ExperimentResult(
        experiment_id="ext-skewed-depletion",
        title="Robustness to non-uniform depletion",
        tables=[table],
        notes=[
            "the uniformity assumption is load-bearing for inter-run "
            "prefetching with *random* victims: under skew, prefetches "
            "for cold runs occupy disk service time and cache that the "
            "hot runs need, and inter-run falls behind intra-run (which "
            "only ever fetches the demand run and degrades mildly)",
            "the urgency-aware MOST_DEPLETED selector restores most of "
            "inter-run's advantage: victim choice, marginal under the "
            "paper's uniform model, becomes first-order under skew",
        ],
    )


@register(
    "ext-adaptive-depth",
    "Adaptive prefetch depth",
    "extension (the paper notes the cache-size / N trade-off; this "
    "closes the loop automatically)",
    "Inter-run prefetching with per-fetch depth N' = clamp(free/D, 1, "
    "N): every fetch keeps all disks busy at whatever amortization the "
    "cache affords, vs the paper's fixed-N all-or-nothing policy.",
)
def ext_adaptive_depth(scale: Scale) -> ExperimentResult:
    caches = scale.thin([250, 300, 400, 500, 600, 800, 1000])
    rows = []
    for cache in caches:
        row: list[object] = [cache]
        for adaptive in (False, True):
            result = MergeSimulation(
                scale.config(
                    num_runs=25,
                    num_disks=5,
                    strategy=PrefetchStrategy.INTER_RUN,
                    prefetch_depth=10,
                    cache_capacity=cache,
                    adaptive_depth=adaptive,
                )
            ).run()
            row += [result.total_time_s.mean, result.average_concurrency.mean]
        rows.append(row)
    table = Table(
        title=(
            "k=25 D=5 inter-run, N(max)=10: fixed vs adaptive depth "
            f"({scale.blocks_per_run} blocks/run; time in s)"
        ),
        headers=["cache", "fixed time", "fixed conc", "adaptive time",
                 "adaptive conc"],
        rows=rows,
    )
    return ExperimentResult(
        experiment_id="ext-adaptive-depth",
        title="Adaptive prefetch depth",
        tables=[table],
        notes=[
            "adaptive depth dominates at constrained caches (shallow "
            "full-width prefetches beat occasional deep ones) and "
            "converges to the fixed policy once the cache affords N "
            "everywhere -- it removes the need to tune N per cache size",
        ],
    )


@register(
    "ext-pass-planning",
    "Prefetch depth vs merge passes under a fixed cache",
    "extension (single-pass scope in the paper; Aggarwal-Vitter accounting)",
    "For a fixed cache budget, deeper intra-run prefetching lowers the "
    "per-pass time but shrinks the supported fan-in, possibly forcing "
    "extra passes.  Analytic sweep of the trade-off.",
)
def ext_pass_planning(scale: Scale) -> ExperimentResult:
    from repro.analysis.passes import estimate_sort_time_s, fan_in_for_cache
    from repro.core.parameters import PAPER_DISK

    k, cache, disks = 100, 250, 5
    rows = []
    best: tuple[float, int] | None = None
    for depth in (1, 2, 5, 10, 25, 50, 125):
        fan_in = fan_in_for_cache(cache, depth)
        if fan_in < 2:
            rows.append([depth, fan_in, "-", "-"])
            continue
        plan, total = estimate_sort_time_s(
            initial_runs=k,
            blocks_per_run=scale.blocks_per_run,
            cache_blocks=cache,
            prefetch_depth=depth,
            num_disks=disks,
            disk=PAPER_DISK,
        )
        rows.append([depth, fan_in, plan.num_passes, total])
        if best is None or total < best[0]:
            best = (total, depth)
    table = Table(
        title=(
            f"k={k} runs of {scale.blocks_per_run} blocks, cache={cache}, "
            f"D={disks}: whole-sort estimate by prefetch depth"
        ),
        headers=["N", "fan-in", "passes", "est. time (s)"],
        rows=rows,
    )
    notes = [
        "per-pass time falls with N (eq 4) while the pass count rises "
        "once fan-in drops below the run count: the optimum balances "
        "amortization against extra passes",
    ]
    if best is not None:
        notes.append(f"best depth for this budget: N={best[1]} "
                     f"({best[0]:.1f}s)")
    return ExperimentResult(
        experiment_id="ext-pass-planning",
        title="Prefetch depth vs merge passes",
        tables=[table],
        notes=notes,
    )


@register(
    "ablation-k100",
    "The k=100 configuration",
    "Section 2.2 ('results for k=100 are not presented for space')",
    "Both strategies at k=100 on 5 and 10 disks, N=10.",
)
def ablation_k100(scale: Scale) -> ExperimentResult:
    rows = []
    for d in (5, 10):
        for strategy, label in (
            (PrefetchStrategy.INTRA_RUN, "DemandRunOnly"),
            (PrefetchStrategy.INTER_RUN, "AllDisksOneRun"),
        ):
            result = MergeSimulation(
                scale.config(
                    num_runs=100,
                    num_disks=d,
                    strategy=strategy,
                    prefetch_depth=10,
                )
            ).run()
            rows.append(
                [f"{label} D={d}", result.total_time_s.mean,
                 result.average_concurrency.mean]
            )
    table = Table(
        title=f"k=100, N=10 ({scale.blocks_per_run} blocks/run)",
        headers=["configuration", "time (s)", "avg disk concurrency"],
        rows=rows,
    )
    return ExperimentResult(
        experiment_id="ablation-k100",
        title="k=100 configuration",
        tables=[table],
        notes=["the qualitative picture of k=25/50 persists at higher merge "
               "order"],
    )
