"""Run the repository benchmark (stdlib only; see README.md).

    python3 benchmark/run.py [--seed N] [--seconds S] [--repeat R] [--out FILE]
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` every workload runs twice, untraced and traced,
and a report prints per workload.  With ``--workload`` one workload
runs once and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.

Each workload runs in a subprocess of its own (``PYTHONPATH=src``), so
imports, set-up time and peak RSS belong to it.  With ``--trace 0`` the
set-up also runs in 2 to 10 extra processes, before and after the
measuring one, and ``setup_s`` is the median.  Scratch stores go under ``.bench_tmp/`` in the checkout
and are deleted afterwards.
"""

import time

#: Taken first, so a workload process's set-up time includes its imports.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"

#: Set-up-only processes run before and again after the measuring one.
#: Each side runs at least one, then more while it has spent less than
#: its budget, up to the cap: cheap set-ups get ten samples,
#: campaign-warm's two-second set-up gets two.  Host speed drifts over
#: tens of seconds, so both sides of the run are sampled.
SETUP_BUDGET_S = 1.5
SETUP_CAP = 5
#: A workload process that runs longer than this is killed.
CHILD_TIMEOUT_S = 170
#: The default seed; its output digests are pinned in digests.json.
DEFAULT_SEED = 1992


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def declaration() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def spawn(args: list[str], tmp: Path) -> dict:
    """Run one workload process; returns its JSON report."""
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
        TMPDIR=str(tmp),
    )
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--child", *args],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"workload process {args} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchmarkError(f"workload process {args} failed:\n{tail}")
    return json.loads(lines[-1])


def setup_samples(args: list[str], tmp: Path) -> list[float]:
    """``setup_s`` of set-up-only processes, within the budget."""
    samples: list[float] = []
    start = time.perf_counter()
    while not samples or (
        len(samples) < SETUP_CAP
        and time.perf_counter() - start < SETUP_BUDGET_S
    ):
        samples.append(spawn([*args, "--setup-only"], tmp)["setup_s"])
    return samples


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, tmp: Path
) -> dict:
    """One workload, untraced or traced; returns its result record."""
    decl = declaration()
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    declared = decl["per_layer"] if trace else decl["end_to_end"]
    if trace:
        child = spawn([*args, "--trace", "1"], tmp)
        values = child["per_layer"]
        counts = {}
    else:
        setups = setup_samples(args, tmp)
        child = spawn([*args, "--trace", "0"], tmp)
        setups += [child["setup_s"], *setup_samples(args, tmp)]
        values = {
            "scaled_wall_s": child["scaled_wall_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": child["peak_rss_mb"],
        }
        counts = {"scaled_wall_s": len(child["walls"]), "setup_s": len(setups)}
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"{name} produced no value for {missing}")
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "failures": child["failures"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
        "samples": counts,
        "details": child.get("details", {}),
    }


def render(record: dict) -> str:
    """Human-readable lines for one result record."""
    lines = [
        f"[{record['workload']}] seed={record['seed']} "
        f"trace={record['trace']} attempted={record['attempted']} "
        f"failed={record['failed']}"
    ]
    lines += [f"  FAILURE: {message}" for message in record["failures"]]
    for name, metric in record["metrics"].items():
        count = record["samples"].get(name)
        suffix = f"  ({count} samples)" if count else ""
        lines.append(
            f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}{suffix}"
        )
    for name, value in record["details"].items():
        lines.append(f"  detail {name:<27} {value:>14.6g}")
    return "\n".join(lines)


def contract_line(record: dict) -> str:
    return json.dumps({
        key: record[key] for key in ("correct", "attempted", "failed", "metrics")
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="rounds over all workloads, seeds N, N+1, ...")
    parser.add_argument("--out", help="write every result record here (JSON)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        import measure

        report = measure.measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.setup_only, STARTED,
        )
        print(json.dumps(report))
        return 0

    # SIGTERM unwinds like an exception, so subprocess.run kills and
    # reaps the workload process and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    decl = declaration()
    names = [workload["name"] for workload in decl["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}: {', '.join(names)}")
    seconds = args.seconds or decl["run_seconds"]

    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    records = []
    try:
        if args.workload is not None:
            record = run_workload(
                args.workload, args.seed, seconds, bool(args.trace), tmp
            )
            print(render(record))
            print(contract_line(record))
            return 0
        for round_ in range(args.repeat):
            for name in names:
                for trace in (False, True):
                    record = run_workload(
                        name, args.seed + round_, seconds, trace, tmp
                    )
                    print(render(record), flush=True)
                    records.append(record)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seconds": seconds, "records": records}, handle, indent=1)
    failed = sum(record["failed"] for record in records)
    print(f"{len(records)} records, {failed} failed operation(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
