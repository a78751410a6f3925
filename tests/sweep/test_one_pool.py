"""The one worker pool: it is the only one, and no worker outlives its
parent, whichever command started it."""

import ast
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve import NO_RETRY, ServeClient

SRC = Path(__file__).resolve().parents[2] / "src"
POOL = SRC / "repro" / "sweep" / "pool.py"

#: Top-level modules whose import means a process pool.
_POOL_MODULES = ("multiprocessing", "concurrent")


def _pool_imports(tree):
    """For each import of a process-pool module in ``tree``, whether it
    sits inside a function."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(name.split(".")[0] in _POOL_MODULES for name in names):
                found.append(in_function)
            visit(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ))

    visit(tree, False)
    return found


def test_one_module_owns_the_one_process_pool():
    sources = {path: path.read_text() for path in sorted(SRC.rglob("*.py"))}
    starts = [
        path
        for path, text in sources.items()
        for _ in range(text.count("ProcessPoolExecutor("))
    ]
    assert starts == [POOL]
    importers = {
        path: imports
        for path, text in sources.items()
        if (imports := _pool_imports(ast.parse(text)))
    }
    # Only inside functions: a run that never pools never imports them.
    assert list(importers) == [POOL]
    assert all(importers[POOL])


def _running(pid):
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _children(pid):
    """The live processes whose parent is ``pid``."""
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # exited while we looked
            continue
        if fields[1] == str(pid) and fields[0] != "Z":
            children.append(int(stat.parent.name))
    return children


def _start(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env,
    )


def _kill_and_collect_stragglers(parent, workers):
    """SIGKILL ``parent``; the ``workers`` still running 10 s later,
    which are then killed."""
    parent.send_signal(signal.SIGKILL)
    parent.wait(timeout=10)
    parent.stdout.close()
    deadline = time.monotonic() + 10
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    stragglers = [pid for pid in workers if _running(pid)]
    for pid in stragglers:
        os.kill(pid, signal.SIGKILL)
    return stragglers


def _wait_for_children(parent, count):
    deadline = time.monotonic() + 10
    while len(children := _children(parent.pid)) < count:
        assert time.monotonic() < deadline, children
        time.sleep(0.05)
    return children


needs_proc = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs /proc"
)


@needs_proc
def test_a_killed_sweep_leaves_no_worker_behind():
    parent = _start(
        "sweep", "-k", "8", "-D", "1,2,3,4", "--strategy",
        "intra-run,inter-run", "-N", "2,4,6", "--blocks", "100",
        "--trials", "20", "--workers", "2", "--no-cache", "--quiet",
    )
    try:
        workers = _wait_for_children(parent, 2)
        assert parent.poll() is None  # killed mid-campaign
    finally:
        stragglers = _kill_and_collect_stragglers(
            parent, _children(parent.pid)
        )
    assert len(workers) == 2
    assert stragglers == []


def _serve_one_miss(tmp_path):
    """A ``repro serve --workers 2`` that has computed one miss, and a
    client of it."""
    parent = _start(
        "serve", "--port", "0", "--workers", "2",
        "--cache-dir", str(tmp_path),
    )
    try:
        listening = parent.stdout.readline()
        host, port = re.search(r"http://(.+):(\d+)", listening).groups()
        client = ServeClient(host, int(port), retry=NO_RETRY)
        client.simulate({"num_runs": 4, "num_disks": 2,
                         "blocks_per_run": 20}, trials=1, seed=7)
        assert client.metricz()["counters"]["serve_computed"] == 1
    except BaseException:
        _kill_and_collect_stragglers(parent, _children(parent.pid))
        raise
    return parent, client


@needs_proc
def test_a_killed_server_leaves_no_worker_behind(tmp_path):
    parent, client = _serve_one_miss(tmp_path)
    try:
        client.close()
        workers = _children(parent.pid)
    finally:
        stragglers = _kill_and_collect_stragglers(
            parent, _children(parent.pid)
        )
    assert len(workers) == 2
    assert stragglers == []


@needs_proc
def test_a_sigterm_to_a_worker_does_not_drain_its_server(tmp_path):
    # A worker forked from the server's event loop inherits its signal
    # wakeup fd; a SIGTERM written there would drain the server.
    parent, client = _serve_one_miss(tmp_path)
    try:
        worker = _children(parent.pid)[0]
        os.kill(worker, signal.SIGTERM)
        deadline = time.monotonic() + 10
        while _running(worker):
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert client.healthz()["status"] == "ok"
    finally:
        client.close()
        _kill_and_collect_stragglers(parent, _children(parent.pid))
