#!/usr/bin/env python3
"""Layered request benchmark for feqlab.

    python3 perfbench/run.py --workload corpus-mix --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One process, one client, closed loop: each request is a
``feqlab.cli.main(argv)`` call on a spec file generated from the seed (or the
library ``suites`` request, which has no CLI command), issued only after the
previous one returned.  The loop runs whole rounds of the workload's request
deck until ``--seconds`` have passed, so every run measures the same request
mix.  Every response is checked (see checks.py).  With ``--trace 1`` the run
records spans at layer boundaries and reports per-layer metrics instead of
end-to-end ones.  The last line of stdout is the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
SETUP_BATCH = 4  # timed set-up launches before the window and after it
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import feqlab.cli as cli\n"
    "for path in sys.argv[2:]: cli.load_instance_file(path)"
)
BIJECTION_TOL = 1e-10


def load_program(root: Path):
    """Import feqlab from the checkout's src/ and nowhere else."""
    src = root / "src"
    if not (src / "feqlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no feqlab sources under {src}")
    sys.path.insert(0, str(src))
    import feqlab
    import feqlab.cli  # noqa: F401  (the CLI layer is a submodule)

    if Path(feqlab.__file__).resolve().parent != (src / "feqlab").resolve():
        raise SystemExit(f"perfbench: imported feqlab from {feqlab.__file__}, not {src}")
    return feqlab


def _c2j(values) -> list[dict]:
    return [{"im": float(v.imag), "re": float(v.real)} for v in np.asarray(values)]


def suites_request(fl, path: str) -> int:
    """Library request: identity suites and bijection round-trips over every
    constructed member of the three families.  Prints a JSON report."""
    inst, _ = fl.cli.load_instance_file(path)
    chars = fl.enumerate_multiplicative(inst.sg)
    vv = fl.van_vleck_family(inst, chars)
    kan = fl.kannappan_abelian_family(inst, chars)
    dal = fl.dalembert_abelian_family(inst.sg, inst.tau, chars)
    failures = []
    for i, sol in enumerate(vv.solutions):
        failures += [f"vanvleck[{i}] {name}"
                     for name in fl.van_vleck_identity_suite(sol.values, inst).failures()]
    for i, sol in enumerate(kan.solutions):
        failures += [f"kannappan[{i}] {name}"
                     for name in fl.kannappan_identity_suite(sol.values, inst).failures()]
        try:
            g = fl.kannappan_to_dalembert(sol.values, inst)
            ok = fl.dalembert_admissible(g, inst)
        except (fl.ZeroDenominator, fl.EquivalenceViolation) as exc:
            failures.append(f"kannappan[{i}] bijection: {exc}")
            continue
        back = np.max(np.abs(fl.dalembert_to_kannappan(g, inst) - sol.values))
        if not ok or back > BIJECTION_TOL:
            failures.append(f"kannappan[{i}] bijection round-trip {back:.3g}")
    for i, g in enumerate(dal):
        conds = fl.dalembert_integral_conditions(g, inst)
        if not conds.consistent:
            failures.append(f"dalembert[{i}] integral conditions disagree")
        elif conds.all_hold and abs(conds.mass) > BIJECTION_TOL:
            f = fl.dalembert_to_kannappan(g, inst)
            back = np.max(np.abs(fl.kannappan_to_dalembert(f, inst) - g))
            if back > BIJECTION_TOL:
                failures.append(f"dalembert[{i}] bijection round-trip {back:.3g}")
    members = {
        "vanvleck": [{"values": _c2j(s.values)} for s in vv.solutions],
        "kannappan": [{"values": _c2j(s.values)} for s in kan.solutions],
        "dalembert": [{"values": _c2j(g)} for g in dal],
    }
    print(json.dumps({"failures": failures, "members": members}, sort_keys=True))
    return 0


class Runner:
    """Issues requests of one workload and checks every response."""

    def __init__(self, fl, workload: workloads.Workload, paths: list[str]):
        self.fl = fl
        self.workload = workload
        self.paths = paths
        self.tracer: tracing.Tracer | None = None

    def _call(self, req: workloads.Request) -> tuple[int, str]:
        path = self.paths[req.spec]
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                if req.command == "suites":
                    code = suites_request(self.fl, path)
                else:
                    code = self.fl.cli.main(req.argv(path))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed request, not a failed run
            return -1, traceback.format_exc()
        return code, buf.getvalue()

    def issue(self, index: int, timed: bool, request_id: int = 0) -> dict:
        """Run round request `index` and return its checked record."""
        req = self.workload.round[index]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = perf_counter()
            if self.tracer is None:
                code, stdout = self._call(req)
            else:
                self.tracer.request = request_id
                code, stdout = self.tracer.span("bench.request", self._call, req)
            latency = perf_counter() - t0
        thin = sum(issubclass(w.category, self.fl.NoConvergenceBudget) for w in caught)
        return self.record(index, code, stdout, latency, timed, thin)

    def record(self, index: int, code: int, stdout: str, latency: float, timed: bool,
               thin: int = 0) -> dict:
        req = self.workload.round[index]
        outcome = checks.check(req, self.workload.specs[req.spec], code, stdout)
        return {
            "index": index,
            "timed": timed,
            "latency": latency,
            "runs_oracle": req.runs_oracle,
            "solve_oracle": req.oracle,
            "problems": outcome.problems,
            "mismatch": outcome.mismatch,
            "constructed": outcome.constructed,
            "matched": outcome.matched,
            "thin": thin,
            "digest": hashlib.sha256(stdout.encode()).hexdigest(),
        }


# ---------------------------------------------------------------------------
# the run: warm-up, timed rounds, set-up timing, metrics

def warm_up_indices(workload: workloads.Workload) -> list[int]:
    """One request of each shape on the smallest instance that has it.  They
    run before the window, so lazy imports and first-call costs land outside
    it, and again after it, so every run checks determinism."""
    shapes: dict[tuple, int] = {}
    for i, req in enumerate(workload.round):
        shape = (req.command, req.runs_oracle)
        best = shapes.get(shape)
        if best is None or workload.specs[req.spec].order < workload.specs[workload.round[best].spec].order:
            shapes[shape] = i
    return sorted(shapes.values())


def run_window(runner: Runner, seconds: float) -> tuple[list[dict], int, float]:
    """Whole rounds until `seconds` have passed: (records, rounds, elapsed)."""
    records, rounds, start = [], 0, perf_counter()
    while True:
        for i in range(len(runner.workload.round)):
            records.append(runner.issue(i, True, len(records)))
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            return records, rounds, elapsed


def check_determinism(records: list[dict], workload: workloads.Workload) -> None:
    """Identical requests (the same round index) must print identical bytes."""
    first: dict[int, str] = {}
    for r in records:
        if first.setdefault(r["index"], r["digest"]) != r["digest"]:
            r["problems"].append("stdout differs from an identical earlier request")
    for r in records:
        for problem in r["problems"][:3]:
            req = workload.round[r["index"]]
            print(f"FAILED {req.label(workload.specs)}: {problem}", file=sys.stderr)


class SetupTimer:
    """Wall time of a fresh interpreter importing the program and loading
    every spec file of the workload.  Launches are spread over the run, a few
    at a time, because launch time drifts with the machine's state; the
    result is their median.  The very first launch is not timed: it pays for
    cold file caches, which a user pays once, not per command."""

    def __init__(self, paths: list[str]):
        self.argv = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), *paths]
        self.times: list[float] = []
        self._launch()

    def _launch(self) -> float:
        t0 = perf_counter()
        subprocess.run(self.argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        return perf_counter() - t0

    def sample(self) -> None:
        self.times += [self._launch() for _ in range(SETUP_BATCH)]

    def median(self) -> float:
        return statistics.median(self.times)


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(fl) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "FEQLAB_THREADS": os.environ.get("FEQLAB_THREADS"),
        "oracle_workers": fl.oracle.thread_count(),
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu": cpu,
        "machine": platform.machine(),
    }


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: an observed value, no interpolation."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered)) - 1, 0)]


def end_to_end(records: list[dict], elapsed: float, setup_s: float) -> tuple[dict, dict]:
    """Gated metrics (reported on every workload) and workload-specific ones
    (printed where they apply)."""
    timed = [r for r in records if r["timed"]]
    lat = [r["latency"] for r in timed]
    gated = {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (len(timed) / elapsed, "1/s"),
        "latency_p50_s": (percentile(lat, 0.50), "s"),
        "latency_p90_s": (percentile(lat, 0.90), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {}
    oracle_lat = [r["latency"] for r in timed if r["runs_oracle"]]
    other_lat = [r["latency"] for r in timed if not r["runs_oracle"]]
    if oracle_lat:
        extra["oracle_latency_p50_s"] = (percentile(oracle_lat, 0.50), "s")
    if other_lat:
        extra["construct_latency_p50_s"] = (percentile(other_lat, 0.50), "s")
    solved = [r for r in timed if r["solve_oracle"]]
    constructed = sum(r["constructed"] for r in solved)
    if constructed:
        extra["oracle_recall"] = (sum(r["matched"] for r in solved) / constructed, "ratio")
    if solved:
        extra["mismatch_frac"] = (sum(r["mismatch"] for r in solved) / len(solved), "ratio")
    failed = sum(bool(r["problems"]) for r in records)
    extra["failed_frac"] = (failed / len(records), "ratio")
    return gated, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fl = load_program(ROOT)
    workload = workloads.build(args.workload, args.seed)
    spec_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        paths = workload.write_specs(str(spec_dir))
        runner = Runner(fl, workload, paths)
        warm = warm_up_indices(workload)
        records = [runner.issue(i, timed=False) for i in warm]
        # set-up time is an end-to-end metric, so the traced run skips it
        setup = None if args.trace else SetupTimer(paths)
        if setup:
            setup.sample()
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
            runner.tracer = tracer
        timed, rounds, elapsed = run_window(runner, args.seconds)
        if tracer:
            tracer.uninstall()
            runner.tracer = None
        records = timed + records + [runner.issue(i, timed=False) for i in warm]
        if setup:
            setup.sample()
    finally:
        shutil.rmtree(spec_dir, ignore_errors=True)

    check_determinism(records, workload)
    failed = sum(bool(r["problems"]) for r in records)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(timed)} timed requests in {rounds} round(s), {elapsed:.2f} s; "
          f"{len(records) - len(timed)} warm-up and repeat requests; {failed} failed")
    print("env " + json.dumps(environment(fl), sort_keys=True))
    if setup:
        metrics, extra = end_to_end(records, elapsed, setup.median())
        for name, (value, unit) in extra.items():
            print(f"  {name:26s} {value:12.6g} {unit}")
    else:
        metrics = tracing.layer_metrics(tracer, sum(r["thin"] for r in timed), elapsed)
        tracer.write(str(WORK / f"trace-{args.workload}.jsonl.gz"),
                     {"workload": args.workload, "seed": args.seed,
                      "fields": ["name", "start", "end", "parent", "request"]})
    for name, (value, unit) in metrics.items():
        print(f"  {name:26s} {value:12.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
