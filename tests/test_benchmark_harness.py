"""The benchmark harness still runs against the package: every module,
function and option name it reads must exist, and its response checks must
pass on a short ladder-oracle run."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_harness(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )


def test_selftest_passes():
    done = run_harness("perfbench/selftest.py")
    assert done.returncode == 0, done.stderr


def test_traced_ladder_run_has_no_failures():
    done = run_harness(
        "perfbench/run.py", "--workload", "ladder-oracle", "--seed", "1",
        "--seconds", "0", "--trace", "1",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
