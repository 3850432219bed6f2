"""CLI output sweep: record every request's output, or compare two records.

    PYTHONPATH=src python tests/output_sweep.py OUTDIR
    python tests/output_sweep.py --compare A B

The first form runs 860 requests in one process through feqlab.cli.main:
86 specs (the conftest grid of 78 and the 8 ladder instances) times
validate, chars, solve x3, solve --oracle --seed 0 x3, verify-theorems
--seed 0 and solve kannappan --include-zero.  Each request's exit code and
stdout go to OUTDIR/<spec>.<request>.txt, the exit code on the first line.
feqlab is imported from PYTHONPATH, so one copy of this script records any
checkout.

The second form counts the outputs that are byte-identical in A and B.  The
others must have equal exit codes and equal JSON structure: the same keys,
list lengths, ints, bools, strings and nulls.  Their floats may differ; the
largest differences are printed.  It exits 1 when a file is missing or a
structure differs.  Pytest does not collect this file.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

COMMANDS = ("vanvleck", "kannappan", "dalembert")
REQUESTS = {  # argv with SPEC for the spec file
    "validate": ["validate", "SPEC"],
    "chars": ["chars", "SPEC"],
    **{f"solve-{c}": ["solve", c, "SPEC"] for c in COMMANDS},
    **{f"oracle-{c}": ["solve", c, "SPEC", "--oracle", "--seed", "0"] for c in COMMANDS},
    "verify": ["verify-theorems", "SPEC", "--seed", "0"],
    "kannappan-zero": ["solve", "kannappan", "SPEC", "--include-zero"],
}


def specs() -> dict[str, dict]:
    """The 86 spec files' contents, keyed by a file-name-safe name."""
    from conftest import build_grid, ladder_instances

    instances = {case.name: case.inst for case in build_grid()}
    instances.update({f"ladder/{k}": v for k, v in ladder_instances().items()})
    out = {}
    for name, inst in instances.items():
        out[re.sub(r"[^A-Za-z0-9+^=-]", "_", name)] = {
            "order": int(inst.sg.order),
            "cayley": inst.sg.cayley.ravel().tolist(),
            "involution": inst.tau.perm.tolist(),
            "measure": [
                {"point": z, "re": w.real, "im": w.imag} for z, w in inst.mu.atoms()
            ],
        }
    return out


def record(outdir: Path) -> None:
    from feqlab import cli

    outdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in specs().items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(spec))
            for req, args in REQUESTS.items():
                argv = [str(path) if a == "SPEC" else a for a in args]
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                (outdir / f"{name}.{req}.txt").write_text(f"exit {code}\n{buf.getvalue()}")


def _diff(a, b, where: str, floats: list) -> str | None:
    """Where the structures of a and b differ, or None; float differences
    are appended to floats as (difference, where)."""
    if isinstance(a, float) and isinstance(b, float):
        d = 0.0 if a == b or (math.isnan(a) and math.isnan(b)) else abs(a - b)
        floats.append((d, where))
        return None
    if type(a) is not type(b):
        return f"{where}: {type(a).__name__} vs {type(b).__name__}"
    if isinstance(a, dict):
        if sorted(a) != sorted(b):
            return f"{where}: keys {sorted(a)} vs {sorted(b)}"
        pairs = [(a[k], b[k], f"{where}.{k}") for k in sorted(a)]
    elif isinstance(a, list):
        if len(a) != len(b):
            return f"{where}: length {len(a)} vs {len(b)}"
        pairs = [(x, y, f"{where}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    else:
        return None if a == b else f"{where}: {a!r} vs {b!r}"
    for x, y, w in pairs:
        found = _diff(x, y, w, floats)
        if found:
            return found
    return None


def compare(a: Path, b: Path) -> int:
    names = sorted(p.name for p in a.glob("*.txt"))
    missing = sorted(set(names) ^ {p.name for p in b.glob("*.txt")})
    same, floats, broken = 0, [], list(missing)
    for name in names:
        if name in missing:
            continue
        ta, tb = (a / name).read_text(), (b / name).read_text()
        if ta == tb:
            same += 1
            continue
        (ca, oa), (cb, ob) = (t.split("\n", 1) for t in (ta, tb))
        found = f"{name}: {ca} vs {cb}" if ca != cb else _diff(json.loads(oa), json.loads(ob), f"{name}:", floats)
        if found:
            broken.append(found)
    print(f"{same} of {len(names)} outputs byte-identical, {len(names) - same} differ")
    for d, where in sorted(floats, reverse=True)[:10]:
        if d:
            print(f"  float difference {d:.3e} at {where}")
    for where in broken:
        print(f"STRUCTURE {where}")
    return 1 if broken else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        sys.exit(compare(Path(sys.argv[2]), Path(sys.argv[3])))
    if len(sys.argv) == 2:
        record(Path(sys.argv[1]))
        sys.exit(0)
    sys.exit(__doc__)
