"""Command-line interface.

Usage::

    python -m repro list
    python -m repro run fig-3.2a --quick
    python -m repro run all --out results.txt
    python -m repro paper-check
    python -m repro simulate -k 25 -D 5 --strategy inter-run -N 10
    python -m repro sweep -k 25 -D 1,2,5 --strategy intra-run -N 5,10,20 \
        --workers 4 --blocks 200
    python -m repro serve --port 8177 --workers 2 --rate 10
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.core.parameters import (
    CachePolicy,
    PrefetchStrategy,
    SimulationConfig,
    VictimSelector,
)
from repro.core.simulator import MergeSimulation
from repro.sim.kernel import KERNELS


def _common_parser() -> argparse.ArgumentParser:
    """The shared parent parser of ``run``/``simulate``/``sweep``.

    One definition per flag, uniform spelling and defaults everywhere:
    ``--kernel``/``--faults``/``--seed`` default to None (each command
    applies its own fallback), ``--trace``/``--trace-out`` turn on the
    observability layer (:mod:`repro.obs`).
    """
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group(
        "common options (uniform across run, simulate, sweep)"
    )
    group.add_argument(
        "--kernel", choices=KERNELS, default=None,
        help="simulation kernel (default: batch, the flattened "
        "interpreter; 'reference' is the readable event-loop oracle; "
        "results are bit-identical across kernels)",
    )
    group.add_argument(
        "--faults", metavar="PLAN_JSON", default=None,
        help="subject plan-free configurations to this fault plan "
        "(JSON file, see repro.faults); a zero-fault plan reproduces "
        "the baseline numbers exactly",
    )
    group.add_argument(
        "--seed", type=int, default=None,
        help="override the base seed (default: the command's pinned seed)",
    )
    group.add_argument(
        "--trace", action="store_true",
        help="collect a structured trace (repro.obs) and print a text "
        "timeline",
    )
    group.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the collected trace to PATH: .json = Chrome "
        "trace_event (Perfetto-loadable), .jsonl = flat event log; "
        "implies --trace",
    )
    return common


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Pai & Varman (ICDE 1992): prefetching with "
            "multiple disks for external mergesort."
        ),
    )
    common = _common_parser()
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all registered experiments")

    run = sub.add_parser(
        "run", parents=[common],
        help="run experiments by id (or 'all', or a bench scenario name)",
    )
    run.add_argument(
        "ids", nargs="+",
        help="experiment ids, 'all', or single-config bench scenario "
        "names (e.g. merge-d5)",
    )
    run.add_argument("--quick", action="store_true", help="reduced scale")
    run.add_argument("--trials", type=int, help="override trial count")
    run.add_argument("--blocks", type=int, help="override blocks per run")
    run.add_argument("--out", help="also write the report to this file")
    run.add_argument(
        "--export-dir",
        help="also export JSON + CSV per experiment into this directory",
    )

    sub.add_parser(
        "paper-check",
        help="analytic validation tier: closed forms vs printed values (1%%)",
    )

    validate = sub.add_parser(
        "validate",
        help="full-scale audit: simulate every paper-printed value, then "
        "check every figure and ablation claim (~6 min)",
    )
    validate.add_argument(
        "--blocks", type=int, default=None,
        help="override blocks per run for values and claims (full paper "
        "scale = 1000; smaller values are smoke tests, not comparable to "
        "the paper)",
    )

    sub.add_parser(
        "selfcheck",
        help="reduced-scale validation tier: short simulations against "
        "the closed forms, 3-8%% tolerance (~0.5 s)",
    )

    predict = sub.add_parser(
        "predict", help="analytical estimate for one configuration (no simulation)"
    )
    predict.add_argument("-k", "--runs", type=int, required=True)
    predict.add_argument("-D", "--disks", type=int, required=True)
    predict.add_argument(
        "--strategy",
        choices=[s.value for s in PrefetchStrategy],
        default=PrefetchStrategy.NONE.value,
    )
    predict.add_argument("-N", "--depth", type=int, default=1)
    predict.add_argument("--blocks", type=int, default=1000)
    predict.add_argument("--sync", action="store_true")

    plan = sub.add_parser(
        "plan",
        help="multi-pass merge plan and whole-sort time estimate for a "
        "cache budget",
    )
    plan.add_argument("-k", "--runs", type=int, required=True,
                      help="initial sorted runs")
    plan.add_argument("-D", "--disks", type=int, default=1)
    plan.add_argument("--blocks", type=int, default=1000,
                      help="blocks per initial run")
    plan.add_argument("--cache", type=int, required=True,
                      help="cache budget in blocks")
    plan.add_argument("-N", "--depth", type=int, default=1,
                      help="intra-run prefetch depth")

    gen = sub.add_parser(
        "gen", help="generate a binary input file of random records"
    )
    gen.add_argument("path", help="output file (.blk)")
    gen.add_argument("-n", "--records", type=int, required=True)
    gen.add_argument("--seed", type=int, default=1992)

    sort = sub.add_parser(
        "sort", help="externally sort a binary record file with bounded memory"
    )
    sort.add_argument("input", help="input .blk file (see 'repro gen')")
    sort.add_argument("output", help="sorted output file")
    sort.add_argument(
        "--memory-records", type=int, default=65_536,
        help="records held in memory during run formation (default 64Ki)",
    )
    sort.add_argument(
        "--temp-dir", action="append", default=None,
        help="spill directory (repeat for several 'disks'; default: "
        "alongside the output)",
    )
    sort.add_argument("--fan-in", type=int, default=None,
                      help="maximum merge order (forces extra passes)")
    sort.add_argument("--verify", action="store_true",
                      help="re-read and check the output after sorting")

    sweep = sub.add_parser(
        "sweep", parents=[common],
        help="parallel parameter sweep with a persistent result cache; "
        "comma-separate a flag's values to sweep it "
        "(e.g. -D 1,2,5 -N 5,10,20); 'repro sweep gc' compacts the cache",
    )
    sweep.add_argument(
        "action", nargs="?", default="run", choices=["run", "gc"],
        help="'run' (default) executes the sweep; 'gc' reclaims orphaned "
        "temp files and stale campaign manifests from --cache-dir",
    )
    sweep.add_argument(
        "--min-age", type=float, default=3600.0, metavar="SECONDS",
        help="gc: only remove files older than this (default 3600; "
        "protects in-flight writes of live sweeps)",
    )
    sweep.add_argument(
        "--remove-completed", action="store_true",
        help="gc: also remove campaign manifests whose every job is stored",
    )
    sweep.add_argument(
        "--dry-run", action="store_true",
        help="gc: report what would be removed without deleting anything",
    )
    sweep.add_argument("-k", "--runs", default="25",
                       help="number of runs k (comma list to sweep)")
    sweep.add_argument("-D", "--disks", default="1",
                       help="number of disks D (comma list to sweep)")
    sweep.add_argument(
        "--strategy", default=PrefetchStrategy.NONE.value,
        help="prefetch strategy (comma list to sweep): "
        + ", ".join(s.value for s in PrefetchStrategy),
    )
    sweep.add_argument("-N", "--depth", default="1",
                       help="prefetch depth N (comma list to sweep)")
    sweep.add_argument("--cache", default=None,
                       help="cache capacity C in blocks (comma list to sweep)")
    sweep.add_argument("--cpu-ms", default="0.0",
                       help="CPU ms per block (comma list to sweep)")
    sweep.add_argument("--blocks", type=int, default=1000)
    sweep.add_argument("--trials", type=int, default=5)
    sweep.add_argument("--sync", action="store_true")
    sweep.add_argument(
        "--fault-rate", default=None,
        help="sweep a transient per-attempt failure probability on "
        "drive 0 (comma list, e.g. 0.0,0.05,0.2); combines with the "
        "other axes",
    )
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = inline)")
    sweep.add_argument("--retries", type=int, default=1,
                       help="retry attempts per failed job")
    sweep.add_argument("--cache-dir", default="results/cache",
                       help="persistent result cache directory")
    sweep.add_argument("--no-cache", action="store_true",
                       help="disable the result cache entirely")
    sweep.add_argument("--name", default="cli-sweep",
                       help="campaign name (checkpoint manifest key)")
    sweep.add_argument("--export", help="write full sweep results JSON here")
    sweep.add_argument("--progress-json",
                       help="write final progress counters JSON here")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress per-job progress lines")

    simulate = sub.add_parser(
        "simulate", parents=[common], help="run one custom configuration"
    )
    simulate.add_argument("-k", "--runs", type=int, required=True)
    simulate.add_argument("-D", "--disks", type=int, required=True)
    simulate.add_argument(
        "--strategy",
        choices=[s.value for s in PrefetchStrategy],
        default=PrefetchStrategy.NONE.value,
    )
    simulate.add_argument("-N", "--depth", type=int, default=1)
    simulate.add_argument("--cache", type=int)
    simulate.add_argument("--blocks", type=int, default=1000)
    simulate.add_argument("--sync", action="store_true")
    simulate.add_argument("--cpu-ms", type=float, default=0.0)
    simulate.add_argument(
        "--policy",
        choices=[p.value for p in CachePolicy],
        default=CachePolicy.CONSERVATIVE.value,
    )
    simulate.add_argument(
        "--selector",
        choices=[s.value for s in VictimSelector],
        default=VictimSelector.RANDOM.value,
    )
    simulate.add_argument("--trials", type=int, default=5)
    simulate.add_argument(
        "--timeline",
        action="store_true",
        help="print disk/cache utilization sparklines (first trial)",
    )

    bench = sub.add_parser(
        "bench",
        help="kernel speedup baselines: batch vs reference on pinned "
        "scenarios, BENCH_<scenario>.json reports, paired regression gate",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_run = bench_sub.add_parser(
        "run", help="benchmark scenarios and write BENCH_<scenario>.json",
    )
    bench_run.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="scenario to run (repeatable; default: all registered)",
    )
    bench_run.add_argument(
        "--repeats", type=int, default=None,
        help="timed reference/batch pairs (default: 10)",
    )
    bench_run.add_argument(
        "--warmup", type=int, default=None,
        help="untimed warmup calls per kernel (default: 1)",
    )
    bench_run.add_argument(
        "--out-dir", default=".",
        help="directory for the BENCH_<scenario>.json files (default: "
        "current directory)",
    )
    bench_compare = bench_sub.add_parser(
        "compare",
        help="gate a bench report on its baseline; exit 1 when the p90 "
        "paired speedup falls below the baseline's p10 or a median "
        "exceeds 3x its baseline",
    )
    bench_compare.add_argument("baseline", help="baseline BENCH_*.json")
    bench_compare.add_argument("current", help="current BENCH_*.json")
    bench_sub.add_parser("list", help="list registered bench scenarios")

    trace_cmd = sub.add_parser(
        "trace", help="trace artifact utilities (see docs/OBSERVABILITY.md)"
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    trace_validate = trace_sub.add_parser(
        "validate",
        help="validate a Chrome trace JSON against the checked-in schema "
        "(docs/schemas/chrome_trace_schema.json); a trace with no events "
        "fails",
    )
    trace_validate.add_argument(
        "path", help="trace file written with --trace-out"
    )

    serve = sub.add_parser(
        "serve",
        help="run the HTTP/JSON simulation service (caching, coalescing, "
        "rate limits, backpressure; see docs/SERVE.md)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8177,
                       help="bind port; 0 picks an ephemeral port")
    serve.add_argument(
        "--workers", type=int, default=2,
        help="worker processes for cache misses; 0 computes in-process "
        "on a thread (default 2)",
    )
    serve.add_argument(
        "--rate", type=float, default=0.0,
        help="per-client request rate limit in requests/s; 0 disables "
        "(default)",
    )
    serve.add_argument(
        "--burst", type=float, default=None,
        help="per-client token-bucket capacity (default max(1, rate))",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=64,
        help="concurrent compute slots before misses are shed with 503; "
        "0 disables shedding (default 64)",
    )
    serve.add_argument(
        "--deadline", type=float, default=30.0,
        help="default per-request deadline in seconds; 0 disables "
        "(default 30)",
    )
    serve.add_argument(
        "--cache-dir", default="results/cache",
        help="content-addressed result store shared with 'repro sweep' "
        "(default results/cache)",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=10.0,
        help="seconds a SIGTERM drain waits for in-flight work "
        "(default 10)",
    )

    dist = sub.add_parser(
        "dist",
        help="distributed sweep execution: coordinator + pull workers "
        "with crash-safe leases (see docs/DIST.md)",
    )
    dist_sub = dist.add_subparsers(dest="dist_command", required=True)
    coordinate = dist_sub.add_parser(
        "coordinate",
        help="serve one campaign: shard the spec, lease shards to "
        "workers, merge streamed results into the shared cache",
    )
    coordinate.add_argument(
        "--spec", required=True, metavar="SPEC_JSON",
        help="campaign spec file (the JSON form of a SweepSpec: name, "
        "base, grid, trials, base_seed)",
    )
    coordinate.add_argument("--host", default="127.0.0.1",
                            help="bind address (default 127.0.0.1)")
    coordinate.add_argument("--port", type=int, default=8178,
                            help="bind port; 0 picks an ephemeral port")
    coordinate.add_argument(
        "--shard-size", type=int, default=4,
        help="jobs per shard — the lease granularity (default 4)",
    )
    coordinate.add_argument(
        "--lease-ttl", type=float, default=30.0,
        help="seconds a worker may stay silent before its shard is "
        "re-issued (default 30)",
    )
    coordinate.add_argument(
        "--retries", type=int, default=1,
        help="per-job attempts workers make before reporting failure "
        "(default 1)",
    )
    coordinate.add_argument(
        "--cache-dir", default="results/cache",
        help="content-addressed result store shared with 'repro sweep' "
        "and 'repro serve' (default results/cache)",
    )
    coordinate.add_argument(
        "--exit-when-done", action="store_true",
        help="stop serving once every shard is settled (batch mode)",
    )
    coordinate.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the coordinator's lease-lifecycle trace to PATH "
        "when the campaign ends",
    )
    work = dist_sub.add_parser(
        "work",
        help="pull-loop worker: lease shards, execute jobs through the "
        "sweep worker path, stream results back",
    )
    work.add_argument("--host", default="127.0.0.1",
                      help="coordinator address (default 127.0.0.1)")
    work.add_argument("--port", type=int, default=8178,
                      help="coordinator port (default 8178)")
    work.add_argument("--id", default="worker",
                      help="worker id (shows up in leases and metrics)")
    dist_status = dist_sub.add_parser(
        "status",
        help="print a running campaign's streaming-aggregation snapshot",
    )
    dist_status.add_argument("campaign", help="campaign name (spec name)")
    dist_status.add_argument("--host", default="127.0.0.1")
    dist_status.add_argument("--port", type=int, default=8178)

    realio = sub.add_parser(
        "realio",
        help="real-I/O strategy backend: run the paper's prefetch "
        "strategies against real files, calibrate effective disk "
        "constants, and validate the simulator (see docs/REALIO.md)",
    )
    realio_sub = realio.add_subparsers(dest="realio_command", required=True)

    def _realio_dataset_args(command) -> None:
        command.add_argument(
            "--dir", default="results/realio/dataset",
            help="dataset directory (default results/realio/dataset); "
            "generated on demand if missing",
        )
        command.add_argument("-k", "--runs", type=int, default=8,
                             help="runs when generating (default 8)")
        command.add_argument("-D", "--disks", type=int, default=2,
                             help="disks when generating (default 2)")
        command.add_argument("--blocks", type=int, default=32,
                             help="blocks per run when generating "
                             "(default 32)")
        command.add_argument("--seed", type=int, default=1992,
                             help="base seed (default 1992)")

    def _realio_trace_args(command) -> None:
        command.add_argument(
            "--trace", action="store_true",
            help="collect a structured trace (repro.obs) and print a "
            "text timeline",
        )
        command.add_argument(
            "--trace-out", metavar="PATH", default=None,
            help="write the collected trace to PATH (.json = Chrome "
            "trace_event, .jsonl = flat event log); implies --trace",
        )

    realio_gen = realio_sub.add_parser(
        "gen", help="generate a sorted-run dataset on real storage"
    )
    _realio_dataset_args(realio_gen)

    realio_run = realio_sub.add_parser(
        "run", help="merge a dataset's runs under one prefetch strategy"
    )
    _realio_dataset_args(realio_run)
    _realio_trace_args(realio_run)
    realio_run.add_argument(
        "--strategy", choices=[s.value for s in PrefetchStrategy],
        default=PrefetchStrategy.INTRA_RUN.value,
    )
    realio_run.add_argument("-N", "--depth", type=int, default=4,
                            help="prefetch depth N (default 4)")
    realio_run.add_argument("--trials", type=int, default=1)
    realio_run.add_argument("--cache", type=int, default=None,
                            help="buffer pool capacity in blocks "
                            "(default: the strategy's natural size)")
    realio_run.add_argument(
        "--throttle", type=float, default=0.0, metavar="MS",
        help="emulated per-block device time in ms (default 0 = "
        "native speed)",
    )
    realio_run.add_argument("--out", default=None,
                            help="also write the merged output to this "
                            "run file")

    realio_calibrate = realio_sub.add_parser(
        "calibrate",
        help="probe the dataset's storage and fit effective (S, R, T)",
    )
    _realio_dataset_args(realio_calibrate)
    realio_calibrate.add_argument("--rounds", type=int, default=4,
                                  help="probe rounds (default 4)")
    realio_calibrate.add_argument(
        "--throttle", type=float, default=0.0, metavar="MS",
        help="emulated per-block device time in ms",
    )
    realio_calibrate.add_argument("--json", default=None, metavar="PATH",
                                  help="also write the report as JSON")

    realio_validate = realio_sub.add_parser(
        "validate",
        help="measure strategies on the real backend, re-simulate under "
        "fitted constants, and check the orderings agree",
    )
    _realio_dataset_args(realio_validate)
    _realio_trace_args(realio_validate)
    realio_validate.add_argument("-N", "--depth", type=int, default=4,
                                 help="prefetch depth N (default 4)")
    realio_validate.add_argument("--trials", type=int, default=3)
    realio_validate.add_argument(
        "--throttle", type=float, default=0.2, metavar="MS",
        help="emulated per-block device time in ms (default 0.2; keeps "
        "the comparison I/O-bound even on tmpfs)",
    )
    realio_validate.add_argument("--report", default=None, metavar="PATH",
                                 help="write the validation report JSON")
    realio_validate.add_argument(
        "--strict", action="store_true",
        help="also require total-time ordering agreement (flaky on "
        "page-cache-fast storage; off by default)",
    )

    lint = sub.add_parser(
        "lint",
        help="static analysis enforcing the repo's determinism, hot-path, "
        "and serialization invariants (rules RPR001-RPR013; see "
        "docs/LINT.md)",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint)
    return parser


def _cmd_list() -> int:
    from repro.experiments import all_experiments

    for experiment in all_experiments():
        print(f"{experiment.experiment_id:24s} {experiment.title}")
        print(f"{'':24s}   [{experiment.paper_reference}]")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import Scale
    from repro.experiments.runner import (
        default_experiment_ids,
        failed_experiment_ids,
        run_experiments,
    )

    scale = dataclasses.replace(
        Scale.quick() if args.quick else Scale.full(), **_run_overrides(args)
    )
    ids = args.ids
    if ids == ["all"]:
        ids = default_experiment_ids()
    experiment_ids, scenario_ids = _partition_run_ids(ids)
    session = _trace_session(args, "run")
    context, code = _run_context(args, session)
    if context is None:
        return code
    scenario_failures = 0
    results = []
    with context:
        if experiment_ids:
            results = run_experiments(experiment_ids, scale)
        for name in scenario_ids:
            if not _replay_scenario(name, args, session):
                scenario_failures += 1
    _export_trace(session, args)
    if args.out:
        with open(args.out, "w") as handle:
            for result in results:
                handle.write(result.render())
                handle.write("\n\n")
        print(f"report written to {args.out}")
    if args.export_dir:
        from repro.experiments.export import export_results

        written = export_results(results, args.export_dir)
        print(f"{len(written)} files exported to {args.export_dir}")
    failed = failed_experiment_ids(results)
    if failed:
        print(f"{len(failed)} experiment(s) failed: {', '.join(failed)}")
    if failed or scenario_failures:
        return 1
    return 0


def _run_overrides(args: argparse.Namespace) -> dict:
    """``--trials``/``--blocks``/``--seed`` as the fields they override
    (on a :class:`Scale` or a :class:`SimulationConfig` alike)."""
    fields = {
        "trials": args.trials,
        "blocks_per_run": args.blocks,
        "base_seed": args.seed,
    }
    return {name: value for name, value in fields.items() if value is not None}


def _partition_run_ids(ids: list) -> tuple[list, list]:
    """Split ``repro run`` ids into experiments and bench-scenario replays.

    Anything the experiment registry knows stays an experiment; of the
    rest, names the bench registry knows become scenario replays, and
    unknown ids stay in the experiment list so the runner reports them
    the same way it always has.
    """
    from repro.bench import SCENARIOS
    from repro.experiments import get_experiment

    experiments, scenarios = [], []
    for experiment_id in ids:
        try:
            get_experiment(experiment_id)
        except (KeyError, ValueError):
            if experiment_id in SCENARIOS:
                scenarios.append(experiment_id)
                continue
        experiments.append(experiment_id)
    return experiments, scenarios


#: What a traced run prints once ``repro.obs.check_busy_spans`` passes.
_BUSY_SPANS_OK = (
    "trace check   : per-drive busy spans match DriveStats.busy_ms "
    "(<= 1e-6 ms)"
)


def _replay_scenario(name: str, args: argparse.Namespace, session) -> bool:
    """Run one bench scenario's pinned config outside the timing harness.

    Honors the common overrides (ambient kernel/faults/trace are
    already installed by the caller; ``--seed``/``--trials``/``--blocks``
    rewrite the pinned config).  With tracing on, also cross-checks the
    collected per-drive service spans against ``DriveStats.busy_ms``
    (the obs-smoke invariant) and fails loudly on drift.
    """
    from repro.bench import scenario_config

    try:
        config = scenario_config(name)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    config = dataclasses.replace(config, **_run_overrides(args))
    first_trial = len(session.trials) if session is not None else 0
    result = MergeSimulation(config).run()
    low, high = result.total_time_s.confidence_interval()
    print(f"scenario      : {name}")
    print(f"configuration : {config.describe()}")
    print(f"total time    : {result.total_time_s.mean:.2f} s "
          f"(95% CI [{low:.2f}, {high:.2f}], {config.trials} trials)")
    print(f"success ratio : {result.success_ratio.mean:.3f}")
    if session is not None and not _busy_span_check(
        session, result.trials, first_trial
    ):
        return False
    print()
    return True


def _busy_span_check(session, trials, first_trial: int) -> bool:
    """Print the obs-smoke invariant's verdict for traced ``trials``."""
    from repro.obs import BusySpanDrift, check_busy_spans

    try:
        check_busy_spans(session, trials, first_trial)
    except BusySpanDrift as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    print(_BUSY_SPANS_OK)
    return True


def _cmd_validation(args: argparse.Namespace) -> int:
    """``paper-check``, ``selfcheck`` and ``validate``: the tiers of
    :mod:`repro.experiments.validation`; exit 1 on any FAIL."""
    from repro.analysis.calibration import M
    from repro.core.parameters import PAPER_DISK as disk
    from repro.experiments import Scale, validation
    from repro.experiments.memo import trial_memo

    if args.command == "validate":
        scale = Scale.full()
        if args.blocks is not None:
            scale = dataclasses.replace(scale, blocks_per_run=args.blocks)
        # One memo for both tiers: a paper value and a claim that
        # simulate the same trajectory share it.
        with trial_memo():
            verdicts = validation.validate(blocks_per_run=args.blocks)
            print(validation.render_verdicts(verdicts))
            claims = validation.judge_claims(validation.FIGURE_CLAIMS, scale)
        print("\n" + validation.render_claim_verdicts(claims))
        return 0 if all(v.ok for v in [*verdicts, *claims]) else 1
    if args.command == "paper-check":
        print(f"Reconstructed paper constants: S={disk.seek_ms_per_cylinder} "
              f"ms/cyl, R={disk.avg_rotational_latency_ms} ms, "
              f"T={disk.transfer_ms_per_block} ms, m={M} cylinders/run\n")
        verdicts = validation.check_closed_forms()
        summary = "analytical checks match"
    else:
        print(f"simulating each configuration at {validation.REDUCED_BLOCKS} "
              f"blocks/run, {validation.REDUCED_TRIALS} trials:\n")
        verdicts = validation.check_reduced_scale()
        summary = "simulation checks within tolerance"
    print(validation.render_verdicts(verdicts, summary=summary))
    return 0 if all(v.ok for v in verdicts) else 1


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.analysis.predictions import predict

    config = SimulationConfig(
        num_runs=args.runs,
        num_disks=args.disks,
        strategy=PrefetchStrategy(args.strategy),
        prefetch_depth=args.depth,
        blocks_per_run=args.blocks,
        synchronized=args.sync,
    )
    estimate = predict(config)
    print(f"configuration : {config.describe()}")
    print(f"formula       : {estimate.formula}")
    print(f"quality       : {estimate.quality.value}")
    print(f"tau per block : {estimate.block_ms:.3f} ms")
    print(f"total time    : {estimate.total_s:.2f} s")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    from repro.io.filesort import write_random_input

    write_random_input(args.path, args.records, seed=args.seed)
    size = args.records * 64
    print(f"wrote {args.records} records ({size:,} payload bytes) to "
          f"{args.path}")
    return 0


def _cmd_sort(args: argparse.Namespace) -> int:
    import time
    from pathlib import Path

    from repro.io.filesort import FileSorter, verify_sorted_file

    temp_dirs = args.temp_dir or [str(Path(args.output).parent / "repro-spill")]
    sorter = FileSorter(
        memory_records=args.memory_records,
        temp_dirs=temp_dirs,
        max_fan_in=args.fan_in,
    )
    start = time.perf_counter()
    stats = sorter.sort_file(args.input, args.output)
    elapsed = time.perf_counter() - start
    print(f"sorted {stats.records} records in {elapsed:.2f}s "
          f"({stats.records / max(elapsed, 1e-9):,.0f} records/s)")
    print(f"runs: {stats.initial_runs} initial, {stats.merge_passes} "
          f"merge pass(es), final fan-in {stats.runs}")
    print(f"I/O: {stats.bytes_read:,} B read, {stats.bytes_written:,} B "
          "written (final pass)")
    if args.verify:
        count = verify_sorted_file(args.output)
        print(f"verified: {count} records in order")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.analysis.passes import estimate_sort_time_s, fan_in_for_cache
    from repro.core.parameters import PAPER_DISK

    fan_in = fan_in_for_cache(args.cache, args.depth)
    plan, total = estimate_sort_time_s(
        initial_runs=args.runs,
        blocks_per_run=args.blocks,
        cache_blocks=args.cache,
        prefetch_depth=args.depth,
        num_disks=args.disks,
        disk=PAPER_DISK,
    )
    print(f"cache {args.cache} blocks at depth N={args.depth} "
          f"-> fan-in {fan_in}")
    for merge_pass in plan.passes:
        print(f"  pass {merge_pass.index}: {merge_pass.runs_in} runs -> "
              f"{merge_pass.runs_out} (fan-in {merge_pass.fan_in})")
    print(f"estimated merge I/O ({args.disks} disk(s), synchronized "
          f"intra-run model): {total:.1f} s")
    return 0


def _split_list(text: str, convert) -> list:
    """Parse a comma-separated CLI value into a typed list."""
    return [convert(part.strip()) for part in text.split(",") if part.strip()]


def _load_fault_plan(path):
    """Load a fault plan, or print ``error: ...`` and return None."""
    from repro.faults.plan import load_plan

    try:
        return load_plan(path)
    except (OSError, TypeError, ValueError) as exc:
        print(f"error: cannot load fault plan {path}: {exc}", file=sys.stderr)
        return None


def _trace_session(args, name: str):
    """A fresh TraceSession when --trace/--trace-out asked for one."""
    if not (args.trace or args.trace_out):
        return None
    from repro.obs import TraceSession

    return TraceSession(name=name)


def _run_context(args, session):
    """The RunContext for one command's common flags.

    Loads ``--faults`` (returning ``(None, exit_code)`` on a bad plan),
    and composes it with ``--kernel`` and the trace session.  The
    caller enters the returned context around its whole workload.
    """
    from repro.api import UNSET, RunContext

    plan = UNSET
    if args.faults is not None:
        loaded = _load_fault_plan(args.faults)
        if loaded is None:
            return None, 2
        print(f"fault plan {args.faults}: {loaded.describe_short()}"
              + (" (empty: baseline behaviour)" if loaded.is_empty() else ""))
        plan = loaded
    context = RunContext(
        fault_plan=plan,
        kernel=args.kernel if args.kernel is not None else UNSET,
        trace=session if session is not None else UNSET,
    )
    return context, 0


def _export_trace(session, args) -> None:
    """Write or print the collected trace per --trace/--trace-out."""
    if session is None:
        return
    if args.trace_out:
        from repro.obs import write_trace

        fmt = write_trace(session, args.trace_out)
        print(f"{fmt} trace ({session.total_events} events, "
              f"{len(session.trials)} trial(s)) written to {args.trace_out}")
    else:
        from repro.obs import print_timeline

        print()
        print_timeline(session, sys.stdout)


def _cmd_sweep_gc(args: argparse.Namespace) -> int:
    from repro.sweep.gc import collect_garbage
    from repro.sweep.store import ResultStore

    report = collect_garbage(
        ResultStore(args.cache_dir),
        min_age_s=args.min_age,
        remove_completed_manifests=args.remove_completed,
        dry_run=args.dry_run,
    )
    verb = "would remove" if args.dry_run else "removed"
    print(f"gc {args.cache_dir}: {verb} {len(report.tmp_removed)} orphaned "
          f"temp file(s), {len(report.manifests_removed)} stale manifest(s) "
          f"({report.bytes_freed} bytes)")
    if report.skipped_young:
        print(f"  {report.skipped_young} candidate(s) younger than "
              f"{args.min_age:g}s left alone")
    print(f"  {report.live_entries} live cache entries untouched")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.config import Table
    from repro.sweep import (
        ConsoleProgress,
        NullProgress,
        ResultStore,
        SweepEngine,
        SweepSpec,
    )

    if args.action == "gc":
        return _cmd_sweep_gc(args)

    # Swept axes: every comma-listed flag becomes a grid dimension (in
    # this fixed order); single values stay in the base config.
    axes = [
        ("num_runs", _split_list(args.runs, int)),
        ("num_disks", _split_list(args.disks, int)),
        ("strategy", _split_list(args.strategy, str)),
        ("prefetch_depth", _split_list(args.depth, int)),
        ("cpu_ms_per_block", _split_list(args.cpu_ms, float)),
    ]
    if args.cache is not None:
        axes.append(("cache_capacity", _split_list(args.cache, int)))
    base: dict = {
        "blocks_per_run": args.blocks,
        "synchronized": args.sync,
    }
    if args.kernel is not None:
        base["kernel"] = args.kernel
    grid: dict = {}
    for name, values in axes:
        if len(values) > 1:
            grid[name] = values
        elif values:
            base[name] = values[0]
    if args.faults is not None and args.fault_rate is not None:
        print("error: --faults and --fault-rate are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.faults is not None:
        plan = _load_fault_plan(args.faults)
        if plan is None:
            return 2
        base["fault_plan"] = plan.to_dict()
    elif args.fault_rate is not None:
        from repro.faults.plan import transient_plan

        rates = _split_list(args.fault_rate, float)
        plans = [
            None if rate == 0.0 else transient_plan(rate).to_dict()
            for rate in rates
        ]
        if len(plans) > 1:
            grid["fault_plan"] = plans
        else:
            base["fault_plan"] = plans[0]
    spec = SweepSpec(
        name=args.name,
        base=base,
        grid=grid,
        trials=args.trials,
        base_seed=args.seed if args.seed is not None else 1992,
    )

    session = _trace_session(args, "sweep")
    if session is not None and args.workers != 1:
        print("error: --trace requires --workers 1 (subprocess workers "
              "cannot stream trace events back)", file=sys.stderr)
        return 2
    if session is not None and not args.no_cache:
        print("note: cached sweep cells replay stored metrics and emit "
              "no trace events; use --no-cache for a complete trace",
              file=sys.stderr)

    store = None if args.no_cache else ResultStore(args.cache_dir)
    try:
        engine = SweepEngine(
            store=store,
            workers=args.workers,
            retries=args.retries,
            progress=NullProgress() if args.quiet else ConsoleProgress(),
            allow_partial=True,
        )
        if session is not None:
            from repro.api import configure

            with configure(trace=session):
                result = engine.run_spec(spec)
        else:
            result = engine.run_spec(spec)
    except ValueError as exc:
        # Bad grid values (unknown strategy, cache below minimum, ...)
        # or a campaign-name conflict: report cleanly, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2

    table = Table(
        title=f"sweep '{spec.name}': {len(result.cells)} configurations, "
        f"{spec.trials} trial(s) each",
        headers=["configuration", "time_s", "±95%", "success", "disks_busy"],
        rows=[],
    )
    for cell in result.cells:
        if not cell.trials:
            table.rows.append([cell.config_description, "FAILED", "", "", ""])
            continue
        time_s = cell.total_time_s
        low, high = time_s.confidence_interval()
        table.rows.append([
            cell.config_description,
            time_s.mean,
            (high - low) / 2.0,
            cell.success_ratio.mean,
            cell.average_concurrency.mean,
        ])
    print(table.render())
    print()
    print(result.stats.summary())
    if result.failures:
        print(f"{len(result.failures)} job(s) failed permanently:")
        for failure in result.failures:
            print(f"  {failure.description}: {failure.error}")
    if args.export:
        import json

        with open(args.export, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2)
        print(f"sweep results written to {args.export}")
    if args.progress_json:
        result.stats.export_json(args.progress_json)
        print(f"progress counters written to {args.progress_json}")
    _export_trace(session, args)
    return 1 if result.failures else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    fault_plan = None
    if args.faults is not None:
        fault_plan = _load_fault_plan(args.faults)
        if fault_plan is None:
            return 2
    # Without --kernel the config keeps its own default kernel.
    kernel = {} if args.kernel is None else {"kernel": args.kernel}
    config = SimulationConfig(
        num_runs=args.runs,
        num_disks=args.disks,
        strategy=PrefetchStrategy(args.strategy),
        prefetch_depth=args.depth,
        blocks_per_run=args.blocks,
        cache_capacity=args.cache,
        synchronized=args.sync,
        cpu_ms_per_block=args.cpu_ms,
        cache_policy=CachePolicy(args.policy),
        victim_selector=VictimSelector(args.selector),
        trials=args.trials,
        base_seed=args.seed if args.seed is not None else 1992,
        fault_plan=fault_plan,
        **kernel,
    )
    from repro.api import UNSET, configure
    from repro.obs import TraceSession

    session = _trace_session(args, "simulate")
    # --timeline reads the trace too: reuse the --trace session if any.
    recorder = session
    if recorder is None and args.timeline:
        recorder = TraceSession(name="simulate")
    with configure(trace=recorder if recorder is not None else UNSET):
        result = MergeSimulation(config).run()
    print(f"configuration : {config.describe()}")
    low, high = result.total_time_s.confidence_interval()
    print(f"total time    : {result.total_time_s.mean:.2f} s "
          f"(95% CI [{low:.2f}, {high:.2f}], {config.trials} trials)")
    print(f"success ratio : {result.success_ratio.mean:.3f}")
    print(f"avg disk conc.: {result.average_concurrency.mean:.2f} "
          f"of {config.num_disks}")
    print(f"cpu stall     : {result.cpu_stall_s.mean:.2f} s")
    if fault_plan is not None and not fault_plan.is_empty():
        trials = result.trials
        n = len(trials)
        fault_stall_s = sum(m.fault_stall_ms for m in trials) / n / 1000.0
        faults = sum(sum(s.faults for s in m.drive_stats) for m in trials) / n
        retries = sum(
            sum(s.retries for s in m.drive_stats) for m in trials
        ) / n
        print(f"fault stall   : {fault_stall_s:.2f} s "
              f"(faults {faults:.1f}, retries {retries:.1f}, "
              f"timeouts {sum(m.demand_timeouts for m in trials) / n:.1f}, "
              f"degraded skips {sum(m.degraded_skips for m in trials) / n:.1f}"
              " per trial)")
    if args.timeline:
        from repro.obs.views import utilization_report

        print()
        print(
            utilization_report(
                recorder.trials[0],
                num_disks=config.num_disks,
                cache_capacity=config.resolved_cache_capacity,
            )
        )
    _export_trace(session, args)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.bench import (
        BenchReport,
        bench_filename,
        compare_reports,
        get_scenario,
        run_scenario,
        scenario_names,
    )

    if args.bench_command == "list":
        for name in scenario_names():
            print(f"{name:16s} {get_scenario(name).description}")
        return 0
    if args.bench_command == "run":
        names = args.scenario or scenario_names()
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            scenarios = [get_scenario(name) for name in names]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for scenario in scenarios:
            report = run_scenario(
                scenario, repeats=args.repeats, warmup=args.warmup
            )
            path = report.write(out_dir / bench_filename(scenario.name))
            print(report.render())
            print(f"  report written to {path}\n")
        return 0
    if args.bench_command == "compare":
        try:
            comparison = compare_reports(
                BenchReport.load(args.baseline), BenchReport.load(args.current)
            )
        except FileNotFoundError as exc:
            missing = exc.filename or str(exc)
            print(f"error: no baseline report at {missing}; run "
                  f"`repro bench run` first to create it", file=sys.stderr)
            return 2
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(comparison.render())
        if comparison.regressed:
            print(f"\n{comparison.scenario} regressed")
            return 1
        print("\nno regressions")
        return 0
    raise AssertionError(f"unhandled bench command {args.bench_command}")


def _realio_dataset(args) -> "object":
    """Load the dataset under ``--dir``, generating it if absent."""
    from pathlib import Path

    from repro.realio import dataset_exists, generate_dataset, load_dataset

    root = Path(args.dir)
    if dataset_exists(root):
        return load_dataset(root)
    print(f"generating dataset at {root} "
          f"(k={args.runs} D={args.disks} {args.blocks} blocks/run)")
    return generate_dataset(
        root,
        num_runs=args.runs,
        num_disks=args.disks,
        blocks_per_run=args.blocks,
        seed=args.seed,
    )


def _cmd_realio(args: argparse.Namespace) -> int:
    if args.realio_command == "gen":
        dataset = _realio_dataset(args)
        print(f"dataset ready : {dataset.describe()}")
        return 0

    if args.realio_command == "run":
        from repro.core.parameters import PrefetchStrategy
        from repro.realio import RealIOConfig, run_real_merge

        dataset = _realio_dataset(args)
        config = RealIOConfig(
            strategy=PrefetchStrategy(args.strategy),
            prefetch_depth=args.depth,
            cache_capacity=args.cache,
            throttle_ms_per_block=args.throttle,
        )
        session = _trace_session(args, "realio")
        try:
            outcome = run_real_merge(
                dataset,
                config,
                trials=args.trials,
                base_seed=args.seed,
                session=session,
                output_path=args.out,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        mean = outcome.aggregate
        print(f"configuration : {config.describe(dataset)}")
        print(f"records merged: {outcome.records_merged} "
              f"(sorted: {'yes' if outcome.sorted_ok else 'NO'})")
        print(f"total time    : {mean.total_time_s.mean * 1000:.2f} ms "
              f"over {args.trials} trial(s)")
        print(f"demand stalls : {mean.cpu_stall_s.mean * 1000:.2f} ms")
        if args.out:
            print(f"output written: {args.out}")
        ok = outcome.sorted_ok
        if session is not None:
            ok = _busy_span_check(session, outcome.trials, 0) and ok
        _export_trace(session, args)
        return 0 if ok else 1

    if args.realio_command == "calibrate":
        import json as json_module

        from repro.realio import calibrate

        dataset = _realio_dataset(args)
        report = calibrate(
            dataset,
            rounds=args.rounds,
            seed=args.seed,
            throttle_ms_per_block=args.throttle,
        )
        print(report.render())
        if args.json:
            from pathlib import Path

            path = Path(args.json)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(
                json_module.dumps(report.to_dict(), indent=2) + "\n"
            )
            print(f"report written to {path}")
        return 0

    if args.realio_command == "validate":
        from repro.obs import BusySpanDrift
        from repro.realio import run_validation

        dataset = _realio_dataset(args)
        session = _trace_session(args, "realio-validate")
        try:
            report = run_validation(
                dataset,
                prefetch_depth=args.depth,
                trials=args.trials,
                base_seed=args.seed,
                throttle_ms_per_block=args.throttle,
                session=session,
            )
        except BusySpanDrift as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(report.render())
        ok = report.agrees
        if args.strict and not report.total_ordering_agrees:
            ok = False
        if session is not None:
            # run_validation already checked every real-backend trial's
            # trace (check_busy_spans); the simulator side runs untraced.
            print(_BUSY_SPANS_OK)
            _export_trace(session, args)
        if args.report:
            from pathlib import Path

            path = Path(args.report)
            path.parent.mkdir(parents=True, exist_ok=True)
            report.save(path)
            print(f"report written to {path}")
        return 0 if ok else 1

    raise AssertionError(f"unhandled realio command {args.realio_command}")


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeConfig, SimulationServer

    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            rate=args.rate,
            burst=args.burst,
            queue_limit=args.queue_limit,
            deadline_s=args.deadline,
            cache_dir=args.cache_dir,
            drain_grace_s=args.drain_grace,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    server = SimulationServer(config)

    def announce() -> None:
        mode = (f"{config.workers} worker process(es)" if config.workers
                else "in-process thread")
        rate = (f"{config.rate:g} req/s per client" if config.rate > 0
                else "disabled")
        print(f"repro serve listening on http://{config.host}:{server.port}")
        print(f"  compute   : {mode}, queue limit "
              f"{config.queue_limit or 'unbounded'}")
        print(f"  rate limit: {rate}")
        print(f"  cache     : {config.cache_dir}")
        print("  stop      : SIGTERM/SIGINT drains gracefully")

    try:
        asyncio.run(server.run(on_ready=announce))
    except KeyboardInterrupt:
        # Signal handler installation can fail on exotic loops; a raw
        # Ctrl-C then still exits cleanly, just without the drain.
        print("interrupted before drain completed", file=sys.stderr)
    return 0


def _cmd_dist(args: argparse.Namespace) -> int:
    if args.dist_command == "coordinate":
        import asyncio
        import json

        from repro.dist import Coordinator, CoordinatorConfig
        from repro.sweep import SweepSpec

        try:
            with open(args.spec) as handle:
                spec = SweepSpec.from_dict(json.load(handle))
        except (OSError, ValueError) as exc:
            print(f"error: cannot load spec {args.spec}: {exc}",
                  file=sys.stderr)
            return 2
        try:
            config = CoordinatorConfig(
                host=args.host,
                port=args.port,
                shard_size=args.shard_size,
                lease_ttl_s=args.lease_ttl,
                retries=args.retries,
                cache_dir=args.cache_dir,
                exit_when_done=args.exit_when_done,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        session = None
        if args.trace_out is not None:
            from repro.obs import TraceSession

            session = TraceSession(name=f"dist-{spec.name}")
        coordinator = Coordinator(spec, config, trace=session)

        def announce() -> None:
            counts = coordinator.leases.counts()
            print(f"repro dist coordinating campaign {spec.name!r} on "
                  f"http://{config.host}:{coordinator.port}")
            print(f"  jobs    : {coordinator.aggregator.total} total, "
                  f"{coordinator.aggregator.cached} already cached")
            print(f"  shards  : {counts['pending']} pending x "
                  f"{config.shard_size} job(s), lease TTL "
                  f"{config.lease_ttl_s:g}s")
            print(f"  cache   : {config.cache_dir}")
            print("  workers : python -m repro dist work "
                  f"--host {config.host} --port {coordinator.port}")

        try:
            asyncio.run(coordinator.run(on_ready=announce))
        except KeyboardInterrupt:
            print("interrupted before drain completed", file=sys.stderr)
        if coordinator.aggregator.is_complete():
            failed = coordinator.aggregator.failed
            print(f"campaign {spec.name!r} complete: "
                  f"{coordinator.aggregator.completed} job(s) ok, "
                  f"{failed} failed")
        if session is not None:
            from repro.obs import write_trace

            fmt = write_trace(session, args.trace_out)
            print(f"coordinator trace written to {args.trace_out} ({fmt})")
        return 1 if coordinator.aggregator.failed else 0
    if args.dist_command == "work":
        from repro.dist import DistWorker
        from repro.serve import ServeError

        worker = DistWorker(args.host, args.port, worker_id=args.id)
        try:
            stats = worker.run()
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            stats = worker.stats
            print("interrupted; in-flight lease will expire and be "
                  "re-issued", file=sys.stderr)
        print(f"worker {args.id!r}: {stats.leases} lease(s), "
              f"{stats.jobs_ok} job(s) ok, {stats.jobs_failed} failed, "
              f"{stats.shards_lost} shard(s) lost to expiry")
        return 0
    if args.dist_command == "status":
        import json

        from repro.dist import CoordinatorClient
        from repro.serve import ServeError

        try:
            with CoordinatorClient(args.host, args.port) as client:
                snapshot = client.campaign(args.campaign)
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    raise AssertionError(f"unhandled dist command {args.dist_command}")


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "validate":
        import json

        from repro.obs import validate_chrome_trace

        try:
            with open(args.path, encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
            return 2
        errors = validate_chrome_trace(document)
        if errors:
            print(f"{args.path}: {len(errors)} schema violation(s)")
            for error in errors:
                print(f"  {error}")
            return 1
        events = sum(
            1 for event in document["traceEvents"] if event["ph"] != "M"
        )
        trials = document["otherData"]["trials"]
        if not events:
            print(f"{args.path}: no trace events ({trials} trial(s))")
            return 1
        print(f"{args.path}: valid Chrome trace, {trials} trial(s), "
              f"{events} event(s)")
        return 0
    raise AssertionError(f"unhandled trace command {args.trace_command}")


def main(argv: list[str] | None = None) -> int:
    # Honor REPRO_SANITIZE=1 before any subsystem is imported so the
    # concurrency sanitizer instruments every code path of this
    # invocation (including dist workers spawned with the same env).
    from repro.lint.sanitizer import enable_from_env

    enable_from_env()
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command in ("paper-check", "selfcheck", "validate"):
        return _cmd_validation(args)
    if args.command == "predict":
        return _cmd_predict(args)
    if args.command == "plan":
        return _cmd_plan(args)
    if args.command == "gen":
        return _cmd_gen(args)
    if args.command == "sort":
        return _cmd_sort(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "dist":
        return _cmd_dist(args)
    if args.command == "realio":
        return _cmd_realio(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "lint":
        from repro.lint.cli import run_lint

        return run_lint(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
