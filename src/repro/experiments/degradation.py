"""Graceful-degradation curves under injected drive faults.

The paper assumes perfectly reliable drives; this extension measures
how the two prefetching strategies degrade when one drive of the input
array misbehaves (see :mod:`repro.faults`):

* **fail-slow**: drive 0's seek/rotation/transfer times multiplied by
  a severity factor for the whole merge;
* **transient read errors**: each service attempt on drive 0 fails
  with a given probability and is retried under the default backoff
  policy.

Severity 1.0x / probability 0.0 rows run a *behaviourally empty* fault
plan, which is byte-identical to the fault-free baseline -- the curves
therefore start exactly at the paper's numbers.  Inter-run prefetching
additionally drops degraded drives from prefetch-victim selection, so
its curve shows the resilience policy, not just the raw slowdown.
"""

from __future__ import annotations

from repro.core.parameters import PrefetchStrategy, SimulationConfig
from repro.core.simulator import MergeSimulation
from repro.experiments.config import ExperimentResult, Scale, Table, register
from repro.experiments.plotting import chart_from_table
from repro.faults.plan import FaultPlan, RetryPolicy, fail_slow_plan, transient_plan

#: Fail-slow severity factors swept (1.0 = healthy baseline).
SLOWDOWN_FACTORS = [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0]

#: Per-attempt transient failure probabilities swept.
FAULT_RATES = [0.0, 0.02, 0.05, 0.1, 0.2, 0.3]

#: Retry budget for the transient sweep.  At full scale drive 0 serves
#: ~25k attempts across trials; the worst rate (0.3) with the default
#: 8-attempt budget would exhaust ~25k * 0.3^8 ~ 1.6 requests and abort
#: the run.  20 attempts pushes that below 1e-5 so the curve measures
#: degradation, not abandonment.
_TRANSIENT_RETRY = RetryPolicy(max_attempts=20)

_STRATEGIES = (
    ("intra-run", PrefetchStrategy.INTRA_RUN),
    ("inter-run", PrefetchStrategy.INTER_RUN),
)


def _config(scale: Scale, strategy: PrefetchStrategy, plan: FaultPlan) -> SimulationConfig:
    return scale.config(
        num_runs=25,
        num_disks=5,
        strategy=strategy,
        prefetch_depth=10,
        fault_plan=plan,
    )


def _time_s(scale: Scale, strategy: PrefetchStrategy, plan: FaultPlan):
    result = MergeSimulation(_config(scale, strategy, plan)).run()
    fault_stall_s = sum(
        m.fault_stall_ms for m in result.trials
    ) / len(result.trials) / 1000.0
    return result.total_time_s.mean, fault_stall_s


@register(
    "ext-degradation",
    "Merge time vs fault severity (fail-slow and transient errors)",
    "Extension; the paper assumes fault-free drives throughout",
    "k=25 D=5 N=10, drive 0 faulted: merge time of both prefetching "
    "strategies as the fail-slow factor and the transient error rate "
    "grow.  Zero-severity rows reproduce the fault-free baseline "
    "exactly.",
)
def ext_degradation(scale: Scale) -> ExperimentResult:
    slow_rows = []
    for factor in scale.thin(SLOWDOWN_FACTORS):
        # factor 1.0 -> an empty plan: identical to no injection.
        plan = (
            FaultPlan()
            if factor == 1.0
            else fail_slow_plan(drive=0, factor=factor)
        )
        row: list[object] = [factor]
        for _, strategy in _STRATEGIES:
            time_s, fault_stall_s = _time_s(scale, strategy, plan)
            row += [time_s, fault_stall_s]
        slow_rows.append(row)
    slow_table = Table(
        title="fail-slow drive 0 (time in s)",
        headers=[
            "factor",
            "intra-run time",
            "intra-run fault stall",
            "inter-run time",
            "inter-run fault stall",
        ],
        rows=slow_rows,
    )

    transient_rows = []
    for rate in scale.thin(FAULT_RATES):
        plan = (
            FaultPlan()
            if rate == 0.0
            else transient_plan(rate, drives=(0,), retry=_TRANSIENT_RETRY)
        )
        row = [rate]
        for _, strategy in _STRATEGIES:
            time_s, fault_stall_s = _time_s(scale, strategy, plan)
            row += [time_s, fault_stall_s]
        transient_rows.append(row)
    transient_table = Table(
        title="transient read errors on drive 0 (time in s)",
        headers=[
            "probability",
            "intra-run time",
            "intra-run fault stall",
            "inter-run time",
            "inter-run fault stall",
        ],
        rows=transient_rows,
    )

    charts = [
        chart_from_table(
            slow_table,
            "factor",
            ["intra-run time", "inter-run time"],
            title="merge time vs fail-slow factor (drive 0 of 5)",
        ),
        chart_from_table(
            transient_table,
            "probability",
            ["intra-run time", "inter-run time"],
            title="merge time vs transient error probability (drive 0 of 5)",
        ),
    ]
    return ExperimentResult(
        experiment_id="ext-degradation",
        title="Degradation under drive faults",
        tables=[slow_table, transient_table],
        charts=charts,
        notes=[
            "severity 1.0x / probability 0.0 rows are byte-identical to "
            "the fault-free baseline (empty fault plan)",
            "inter-run prefetching drops degraded drives from victim "
            "selection; the demand disk is always served",
        ],
    )
