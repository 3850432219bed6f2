"""CLI output sweep: record every request's output, or compare two records.

    PYTHONPATH=src python tests/output_sweep.py OUTDIR
    python tests/output_sweep.py --compare A B

The first form runs 1,089 requests in one process through feqlab.cli.main:
99 specs (the conftest grid of 78, the 8 ladder instances, 4
near-cancelling measures delta_0 - w delta_1 on Z2 with tau = id, whose
small members lie below ||mu||^2, 4 measures on Z3 with the inverse
involution that bring a character's int chi o tau dmu within rounding
distance of its int chi dmu: delta_0 + delta_1 + (1 - 1e-6) delta_2 and
delta_0 + (0.5 + e) delta_1 + 0.5 delta_2 for e in 1e-9, 1.25e-9, 1e-8,
and 3 near-cancelling measures whose small Kannappan members lie closer
together than the solver's cluster distance or outside its closed
subspace: delta_0 - (1 - 1e-5) delta_2 on Z4 and delta_4 - (1 - 5e-5)
delta_6 on Z12, both with tau = id, and delta_1 + (1 - 1e-7) delta_5 on Z6
with the inverse involution, and 2 measures on the non-commutative S3xZ3
with the inverse involution, which moves their central atoms: delta_(e,1)
and delta_(e,1) - delta_(e,2)) times validate, chars, solve x3, solve
--oracle --seed 0 x3, verify-theorems --seed 0, and solve kannappan and
solve vanvleck with --include-zero; on a spec with tau = id the Van Vleck
family is empty, and the zero member is written alone.  Each request's exit
code and stdout go to OUTDIR/<spec>.<request>.txt, the exit code on the
first line.  feqlab is imported from PYTHONPATH, so one copy of this script
records any checkout.

The second form counts the outputs that are byte-identical in A and B.  The
others must have equal exit codes and equal JSON structure: the same keys,
list lengths, ints, bools, strings and nulls.  Their floats may differ; the
largest difference is printed per request and JSON field, list indices
folded (oracle-kannappan .oracle.solutions[].values[].re), with the output
it was seen in.  It exits 1 when a file is missing or a structure differs.
Pytest does not collect this file.
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
    "vanvleck-zero": ["solve", "vanvleck", "SPEC", "--include-zero"],
}
NEAR_CANCELLING = (0.999, 0.99999, 0.9999999, 0.999999999)  # the weights w
NEAR_SYMMETRIC = (  # the atoms on Z3
    [(0, 1.0), (1, 1.0), (2, 1 - 1e-6)],
    *([(0, 1.0), (1, 0.5 + e), (2, 0.5)] for e in (1e-9, 1.25e-9, 1e-8)),
)
CLOSE_ROOTS = (  # (order of the cyclic group, involution, atoms)
    (4, "id", [(0, 1.0), (2, -(1 - 1e-5))]),
    (12, "id", [(4, 1.0), (6, -(1 - 5e-5))]),
    (6, "inv", [(1, 1.0), (5, 1 - 1e-7)]),
)
MOVED_ATOMS = ([(1, 1.0)], [(1, 1.0), (2, -1.0)])  # on S3xZ3, where (e, j) is j


def atoms_name(atoms) -> str:
    return "+".join(f"d{z}" if w == 1 else f"{w!r}d{z}" for z, w in atoms)


def specs() -> dict[str, dict]:
    """The 99 spec files' contents, keyed by a file-name-safe name."""
    import feqlab as fl
    from conftest import build_grid, ladder_instances

    instances = {case.name: case.inst for case in build_grid()}
    instances.update({f"ladder/{k}": v for k, v in ladder_instances().items()})
    z2 = fl.cyclic_group(2)
    for w in NEAR_CANCELLING:
        mu = fl.central_measure(z2, [(0, 1.0), (1, -w)])
        instances[f"near/Z2/id/d0-{w}d1"] = fl.Instance(sg=z2, tau=fl.identity_involution(z2), mu=mu)
    z3 = fl.cyclic_group(3)
    for atoms in NEAR_SYMMETRIC:
        mu = fl.central_measure(z3, atoms)
        instances[f"near/Z3/inv/{atoms_name(atoms)}"] = fl.Instance(sg=z3, tau=fl.inverse_involution(z3), mu=mu)
    for n, tau, atoms in CLOSE_ROOTS:
        sg = fl.cyclic_group(n)
        involution = {"id": fl.identity_involution, "inv": fl.inverse_involution}[tau](sg)
        mu = fl.central_measure(sg, atoms)
        instances[f"near/Z{n}/{tau}/{atoms_name(atoms)}"] = fl.Instance(sg=sg, tau=involution, mu=mu)
    s3z3 = fl.direct_product(fl.symmetric_group_3(), fl.cyclic_group(3))
    for atoms in MOVED_ATOMS:
        mu = fl.central_measure(s3z3, atoms)
        instances[f"moved/S3xZ3/inv/{atoms_name(atoms)}"] = fl.Instance(
            sg=s3z3, tau=fl.inverse_involution(s3z3), mu=mu)
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
    worst: dict[str, tuple[float, str]] = {}
    for d, where in floats:
        name, path = where.split(":", 1)
        field = name.split(".")[-2] + " " + re.sub(r"\[\d+\]", "[]", path)
        if d > worst.get(field, (0.0, ""))[0]:
            worst[field] = (d, name)
    for field, (d, name) in sorted(worst.items()):
        print(f"  largest float difference {d:.3e} in {field} ({name})")
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
