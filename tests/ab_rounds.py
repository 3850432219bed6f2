"""Same-process A/B timing of two checkouts on perfbench workload rounds.

    python tests/ab_rounds.py A B [--workload corpus-mix] [--seed 1] [--rounds 100]

A and B are the roots of two source checkouts.  Their src/feqlab packages are
copied into a temporary directory as the packages feqlab_a and feqlab_b and
imported side by side, so both sides run in one interpreter with the same
caches, allocator and BLAS threads.  The round of the workload is built from
the seed by perfbench/workloads.py (read, not changed), as perfbench/run.py
builds it.  After one untimed round on each side, whole rounds alternate
A B B A A B ..., and every response is checked by perfbench/checks.py.

It prints the p50, p90 (nearest rank, as perfbench/run.py) and mean latency
of each side, the relative change of B against A, the number of request
shapes whose stdout is byte-identical on both sides, each request shape's
median latency on both sides with its relative change and the size of its
stdout in bytes (on side A), slowest shape of A first, and any failed check.
It exits 1 when a check fails.  This is for sizing a change only: a claimed
gain comes from perfbench/run.py, run as a separate process per checkout.
Pytest does not collect this file.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import shutil
import statistics
import sys
import tempfile
import warnings
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import run  # noqa: E402  (for suites_request and percentile)
import workloads  # noqa: E402


def load_copy(root: Path, name: str, tmp: Path):
    """src/feqlab of the checkout at root, imported as the package name."""
    shutil.copytree(root / "src" / "feqlab", tmp / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    fl = importlib.import_module(name)
    importlib.import_module(name + ".cli")
    return fl


def issue(fl, req: workloads.Request, path: str) -> tuple[float, int, str]:
    buf = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(buf):
        warnings.simplefilter("ignore")
        t0 = perf_counter()
        if req.command == "suites":
            code = run.suites_request(fl, path)
        else:
            code = fl.cli.main(req.argv(path))
        latency = perf_counter() - t0
    return latency, code, buf.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default="corpus-mix")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=100, help="timed rounds per side")
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = workload.write_specs(str(tmp / "specs"))
        sys.path.insert(0, str(tmp))
        sides = {"A": load_copy(args.a, "feqlab_a", tmp), "B": load_copy(args.b, "feqlab_b", tmp)}
        latency = {side: [] for side in sides}
        per_shape = {side: [[] for _ in workload.round] for side in sides}
        stdout = {side: {} for side in sides}
        failed = []
        # one warm-up round per side, then A B B A A B ...
        order = ["A", "B"] + [("A", "B", "B", "A")[k % 4] for k in range(2 * args.rounds)]
        for k, side in enumerate(order):
            for i, req in enumerate(workload.round):
                t, code, out = issue(sides[side], req, paths[req.spec])
                if k >= 2:  # the first round of each side is a warm-up
                    latency[side].append(t)
                    per_shape[side][i].append(t)
                if stdout[side].setdefault(i, out) != out:
                    failed.append(f"{side} {req.label(workload.specs)}: stdout differs from before")
                problems = checks.check(req, workload.specs[req.spec], code, out).problems
                failed += [f"{side} {req.label(workload.specs)}: {p}" for p in problems[:1]]

    same = sum(stdout["A"][i] == stdout["B"][i] for i in range(len(workload.round)))
    stats = {}
    for side, lat in latency.items():
        stats[side] = (run.percentile(lat, 0.5), run.percentile(lat, 0.9), statistics.fmean(lat))
        print(f"{side}: {len(lat)} requests  p50 {stats[side][0] * 1e3:.3f} ms  "
              f"p90 {stats[side][1] * 1e3:.3f} ms  mean {stats[side][2] * 1e3:.3f} ms")
    change = "  ".join(f"{name} {(b / a - 1) * 100:+.1f}%"
                       for name, a, b in zip(("p50", "p90", "mean"), stats["A"], stats["B"]))
    print(f"B against A: {change}")
    print(f"{same} of {len(workload.round)} shapes byte-identical on stdout")
    medians = {side: [statistics.median(lat) for lat in shapes] for side, shapes in per_shape.items()}
    print("per shape, median ms: A  B  B against A, stdout bytes of A")
    for i in sorted(range(len(workload.round)), key=lambda i: -medians["A"][i]):
        a, b = medians["A"][i], medians["B"][i]
        print(f"  {a * 1e3:8.3f} {b * 1e3:8.3f} {(b / a - 1) * 100:+6.1f}% "
              f"{len(stdout['A'][i].encode()):7d}  {workload.round[i].label(workload.specs)}")
    for line in failed[:20]:
        print(f"FAILED {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
