"""The benchmark harness still runs against the package: every module,
function and option name it reads must exist, its response checks must
pass on a short traced run of each workload, and its library request must
pass on the corpus."""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import subprocess
import sys
from pathlib import Path

import feqlab
import feqlab.cli  # noqa: F401  (the suites request reads fl.cli)

ROOT = Path(__file__).resolve().parent.parent


def run_harness(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )


def test_selftest_passes():
    done = run_harness("perfbench/selftest.py")
    assert done.returncode == 0, done.stderr


def assert_traced_run_has_no_failures(workload: str) -> None:
    """One round of the workload under the tracer, whose counts read len()
    of the reports and stacks the package returns."""
    done = run_harness(
        "perfbench/run.py", "--workload", workload, "--seed", "1",
        "--seconds", "0", "--trace", "1",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0


def test_traced_ladder_run_has_no_failures():
    assert_traced_run_has_no_failures("ladder-oracle")


def test_traced_corpus_run_has_no_failures():
    # the one workload that runs verify-theorems, chars and validate
    assert_traced_run_has_no_failures("corpus-mix")


def test_suites_request_passes_on_corpus(tmp_path, monkeypatch):
    """The library request, which calls the family builders, the identity
    suites, the bijection maps and the admissibility test by name, returns 0
    with no failures on every corpus spec."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    run, workloads = importlib.import_module("run"), importlib.import_module("workloads")
    specs = workloads.corpus_specs()
    assert len(specs) == 78
    for i, spec in enumerate(specs):
        path = tmp_path / f"{i:03d}.json"
        path.write_text(json.dumps(spec.to_json()), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.suites_request(feqlab, str(path))
        assert code == 0, spec.name
        assert json.loads(out.getvalue())["failures"] == [], spec.name
