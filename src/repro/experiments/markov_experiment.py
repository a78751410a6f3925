"""The companion-TR Markov analysis as a registered experiment.

``tab-markov`` reports, for ``D`` disks with one run per disk and
``N = 1`` (the TR's setting): the synchronous-chain average I/O
parallelism of the conservative and greedy almost-full-cache policies
across cache sizes, next to the *timed* simulation's average disk
concurrency and total time for the same configurations.

Reproduction note: the paper summarizes the TR as showing conservative
parallelism "superior ... for all reasonable values of cache size and
number of disks".  In our timed reproduction greedy partial prefetching
is never slower at ``N = 1`` -- the conservative policy's advantage does
not manifest in wall-clock terms here (both policies converge as the
cache grows, and at very tight caches greedy's partial rounds keep more
disks busy).  The table below makes that comparison explicit;
EXPERIMENTS.md discusses it.
"""

from __future__ import annotations

from repro.analysis.markov import average_parallelism
from repro.core.parameters import CachePolicy, PrefetchStrategy
from repro.core.simulator import MergeSimulation
from repro.experiments.config import ExperimentResult, Scale, Table, register

DISKS = 4
CACHES = [6, 8, 10, 12, 16, 20]


def _timed(scale: Scale, capacity: int, policy: CachePolicy):
    config = scale.config(
        num_runs=DISKS,
        num_disks=DISKS,
        strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=1,
        cache_capacity=capacity,
        cache_policy=policy,
    )
    return MergeSimulation(config).run()


@register(
    "tab-markov",
    "Markov analysis of almost-full-cache policies",
    "Section 2 / companion TR (Pai, Schaffer, Varman)",
    "D disks with one run per disk, N=1: exact synchronous-chain "
    "parallelism for conservative vs greedy, with timed simulation "
    "cross-check.",
)
def tab_markov(scale: Scale) -> ExperimentResult:
    caches = scale.thin(CACHES)
    rows = []
    for capacity in caches:
        conservative = average_parallelism(
            DISKS, capacity, CachePolicy.CONSERVATIVE
        )
        greedy = average_parallelism(DISKS, capacity, CachePolicy.GREEDY)
        sim_cons = _timed(scale, capacity, CachePolicy.CONSERVATIVE)
        sim_greedy = _timed(scale, capacity, CachePolicy.GREEDY)
        rows.append(
            [
                capacity,
                conservative.average_parallelism,
                greedy.average_parallelism,
                sim_cons.average_concurrency.mean,
                sim_greedy.average_concurrency.mean,
                sim_cons.total_time_s.mean,
                sim_greedy.total_time_s.mean,
            ]
        )
    table = Table(
        title=(
            f"D={DISKS} disks, one run per disk, N=1: chain parallelism "
            f"and timed simulation ({scale.blocks_per_run} blocks/run)"
        ),
        headers=[
            "cache",
            "chain cons.",
            "chain greedy",
            "sim conc cons.",
            "sim conc greedy",
            "time cons. (s)",
            "time greedy (s)",
        ],
        rows=rows,
    )
    return ExperimentResult(
        experiment_id="tab-markov",
        title="Almost-full-cache policy: Markov chain vs timed simulation",
        tables=[table],
        notes=[
            "both policies converge to D-parallelism as the cache grows",
            "reproduction divergence: in wall-clock terms greedy is never "
            "slower here at N=1, unlike the companion TR's parallelism "
            "ordering the paper cites; the paper's conservative default is "
            "kept throughout for fidelity",
        ],
    )
