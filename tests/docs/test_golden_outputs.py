"""Byte-for-byte golden outputs of the observability walkthroughs.

``golden/`` holds the stdout of ``examples/diagnose_stalls.py`` and of
``repro simulate ... --timeline``.  Both render views over a trace
(request records, wait statistics, sparklines, a per-track timeline), so any
drift in what the trace records or how the views read it shows up here
as a diff.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "golden"


def _stdout(*argv: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, *argv], cwd=REPO, env=env, capture_output=True,
        check=True, timeout=300,
    )
    return completed.stdout


@pytest.mark.parametrize("golden, argv", [
    ("diagnose_stalls.txt", ["examples/diagnose_stalls.py"]),
    ("simulate_timeline.txt", [
        "-m", "repro", "simulate", "-k", "25", "-D", "5",
        "--strategy", "inter-run", "-N", "10", "--cache", "800",
        "--timeline",
    ]),
])
def test_output_matches_golden(golden, argv):
    assert _stdout(*argv) == (GOLDEN / golden).read_bytes()
