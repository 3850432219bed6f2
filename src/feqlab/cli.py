"""Command-line interface: file-based instances, JSON reports, stable exit codes.

Exit codes: 0 success, 2 validation error (a refused option included), 3
completeness mismatch, 4 theorem-suite failure.  All reports are key-sorted
JSON on stdout; two runs with the same seed produce byte-identical output.
No option sets a tolerance: every threshold scales with ||mu||.

Reports are written by _render, one pass over the report, with the bytes of
json.dumps(report, indent=2, sort_keys=True).  It exists because on Python
3.11 json's C encoder does not indent: with indent set, json falls back to
its pure-Python encoder, which visits every value and calls a Python hook
for every complex number.  _render writes each array of complex values with
one comprehension instead, each string (dict keys included) with the
function json.dumps calls for it, and ints, booleans and None itself.  The
option parser is built once per process, on the first call of main.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
from json.encoder import encode_basestring_ascii as _quote  # json.dumps of a str

import numpy as np

from .equations import SOLUTION_DEGREE, Instance
from .errors import InvariantViolation
from .families import SolutionReport, character_integrals, family, integral_conditions
from .measures import central_measure, is_tau_invariant
from .oracle import MATCH_EPS, OracleConfig, match_solution_sets, oracle_solve
from .semigroups import center, orbit_table, validate_involution, validate_semigroup
from .verify import verify_instance

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MISMATCH = 3
EXIT_THEOREM = 4

# The identity suites compare terms of degree 3 in mu, with tolerances scaled
# by (sum_i |w_i|)^3, so float64 overflows near a total variation of 1e100
# and the tolerances underflow near 1e-100.
MIN_TOTAL_VARIATION = 1e-50
MAX_TOTAL_VARIATION = 1e50

_KIND_BY_COMMAND = {
    "vanvleck": "van_vleck",
    "kannappan": "kannappan",
    "dalembert": "dalembert",
}


class SpecFormatError(InvariantViolation):
    invariant = "spec format"


class OptionError(InvariantViolation):
    invariant = "option value"


def _float(v: float) -> str:
    return float.__repr__(v) if math.isfinite(v) else json.dumps(v)


def _complex(re: float, im: float, pad: str) -> str:
    inner = pad + "  "
    return f'{{\n{inner}"im": {_float(im)},\n{inner}"re": {_float(re)}\n{pad}}}'


def _render(obj, pad: str) -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) writes it at
    indentation pad, with complex numbers as {"im", "re"} objects and 1-d
    arrays as lists of them.  Dict keys are strings."""
    if isinstance(obj, float):
        return _float(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    if obj is True or obj is False or obj is None:
        return "null" if obj is None else "true" if obj else "false"
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{_quote(k)}: {_render(v, inner)}" for k, v in sorted(obj.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        if not obj.size:
            return "[]"
        z = obj.astype(np.complex128, copy=False)
        items = [_complex(re, im, inner) for re, im in zip(z.real.tolist(), z.imag.tolist())]
    elif isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_render(v, inner) for v in obj]
    elif isinstance(obj, complex):
        return _complex(obj.real, obj.imag, pad)
    elif isinstance(obj, str):
        return _quote(obj)
    else:
        return json.dumps(obj)  # TypeError for what json refuses
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"


def _emit(obj) -> None:
    print(_render(obj, ""))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SpecFormatError(message)


def _is_int(v) -> bool:
    """JSON integer; true and false parse as Python bools, which are ints."""
    return isinstance(v, int) and not isinstance(v, bool)


def _index_array(values: list, message: str) -> np.ndarray:
    """values as int64, if each is a JSON integer (not a bool) within 64 bits."""
    _require(set(map(type, values)) <= {int}, message)
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError as exc:
        raise SpecFormatError(message) from exc


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def load_instance_file(path: str) -> tuple[Instance, list[str] | None]:
    """Parse and validate an instance spec file.

    Format: {"order": n, "cayley": [n*n ints, row-major],
    "involution": [n ints], "measure": [{"point": int, "re": x, "im": y}],
    "labels": [n strings]?}.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecFormatError(f"cannot read spec file: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # not UTF-8, not JSON, nested too deep, or an integer of too many digits
        raise SpecFormatError(f"spec file is not valid JSON: {exc}") from exc

    _require(isinstance(data, dict), "spec must be a JSON object")
    for key in ("order", "cayley", "involution", "measure"):
        _require(key in data, f"missing required key {key!r}")
    n = data["order"]
    _require(_is_int(n) and n > 0, "order must be a positive integer")
    cayley = data["cayley"]
    _require(
        isinstance(cayley, list) and len(cayley) == n * n,
        f"cayley must be a flat list of {n * n} indices",
    )
    table = _index_array(cayley, "cayley entries must be 64-bit integers")
    inv = data["involution"]
    inv_message = f"involution must be a list of {n} 64-bit integers"
    _require(isinstance(inv, list) and len(inv) == n, inv_message)
    perm = _index_array(inv, inv_message)
    atoms_raw = data["measure"]
    _require(
        isinstance(atoms_raw, list) and atoms_raw, "measure must be a non-empty list"
    )
    atoms = []
    for a in atoms_raw:
        _require(
            isinstance(a, dict) and {"point", "re", "im"} <= set(a),
            "each atom needs keys point, re, im",
        )
        _require(_is_int(a["point"]), "atom point must be an integer")
        _require(
            _is_number(a["re"]) and _is_number(a["im"]),
            "atom weights re, im must be numbers",
        )
        try:
            atoms.append((a["point"], complex(float(a["re"]), float(a["im"]))))
        except OverflowError as exc:
            raise SpecFormatError(f"atom weight beyond float range: {exc}") from exc
    labels = data.get("labels")
    if labels is not None:
        _require(
            isinstance(labels, list)
            and len(labels) == n
            and all(isinstance(s, str) for s in labels),
            f"labels must be a list of {n} strings",
        )

    sg = validate_semigroup(table.reshape(n, n))
    tau = validate_involution(sg, perm)
    mu = central_measure(sg, atoms)
    total = mu.total_variation
    _require(
        MIN_TOTAL_VARIATION <= total <= MAX_TOTAL_VARIATION,
        f"measure total variation must be in [{MIN_TOTAL_VARIATION}, "
        f"{MAX_TOTAL_VARIATION}], got {total}",
    )
    return Instance.of_validated(sg, tau, mu), labels


def _members_json(report: SolutionReport) -> list[dict]:
    return [{"provenance": report.provenance, "residual": r, "values": f}
            for f, r in zip(report.values, report.residuals.tolist())]


def cmd_validate(args) -> int:
    inst, labels = load_instance_file(args.spec_file)
    sg = inst.sg
    index, period = orbit_table(sg)
    summary = {
        "center": list(center(sg)),
        "measure": [{"point": z, "weight": w} for z, w in inst.mu.atoms()],
        "orbits": [
            {"element": x, "index": i, "period": p}
            for x, (i, p) in enumerate(zip(index.tolist(), period.tolist()))
        ],
        "order": sg.order,
        "tau_invariant_measure": is_tau_invariant(inst.mu, inst.tau),
    }
    if labels is not None:
        summary["labels"] = labels
    _emit(summary)
    return EXIT_OK


def cmd_chars(args) -> int:
    inst, _ = load_instance_file(args.spec_file)
    ci = character_integrals(inst)
    even = 0.5 * (ci.chars + ci.chars[:, inst.tau.perm])  # the d'Alembert solutions g
    kan, vv = integral_conditions(even, inst).admissible.tolist(), ci.admissible().tolist()
    entries = [
        {
            "index": k,
            "int_mu": a,
            "int_mu_tau": b,
            "kannappan_admissible": kan[k],
            "values": chi,
            "van_vleck_admissible": vv[k],
        }
        for k, (chi, a, b) in enumerate(zip(ci.chars, ci.int_mu.tolist(), ci.int_mu_tau.tolist()))
    ]
    _emit({"characters": entries, "count": len(entries), "order": inst.sg.order})
    return EXIT_OK


def cmd_solve(args) -> int:
    inst, _ = load_instance_file(args.spec_file)
    kind = _KIND_BY_COMMAND[args.kind]
    constructed = family(kind, inst)
    out = {
        "equation": kind,
        "order": inst.sg.order,
        "solutions": _members_json(constructed),
    }
    exit_code = EXIT_OK
    if args.oracle:
        cfg = OracleConfig(rng_seed=args.seed)
        found = oracle_solve(kind, inst, cfg)
        eps = inst.mu.tolerance(MATCH_EPS, SOLUTION_DEGREE[kind])
        result = match_solution_sets(constructed.values, found.values, eps)
        out["oracle"] = {
            "restarts": cfg.restarts,
            "seed": cfg.rng_seed,
            "solutions": _members_json(found),
        }
        out["match"] = {
            "pairs": result.pairs,
            "unmatched_constructed": result.unmatched_left,
            "unmatched_oracle": result.unmatched_right,
            "verdict": "match" if result.is_match else "mismatch",
        }
        if not result.is_match:
            exit_code = EXIT_MISMATCH
    if args.include_zero:
        out["solutions"].append(
            {
                "provenance": "appended_zero",
                "residual": 0.0,
                "values": np.zeros(inst.sg.order, dtype=complex),
            }
        )
    _emit(out)
    return exit_code


def cmd_verify(args) -> int:
    inst, _ = load_instance_file(args.spec_file)
    report = verify_instance(inst, OracleConfig(rng_seed=args.seed))
    out = {
        "dalembert_conditions": report.dalembert_conditions,
        "kannappan_suites": report.kannappan_suites,
        "pass": report.passed,
        "roundtrip_max": report.roundtrip_max,
        "van_vleck_suites": report.van_vleck_suites,
    }
    if report.failures:
        out["first_failure"] = report.failures[0]
        out["failures"] = report.failures
    _emit(out)
    return EXIT_OK if report.passed else EXIT_THEOREM


class _Parser(argparse.ArgumentParser):
    """Refused options raise OptionError instead of printing usage and
    exiting, so they get a JSON report like every other bad input."""

    def error(self, message):
        raise OptionError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="feqlab",
        description=(
            "Construct, enumerate and verify solution sets of integral "
            "Van Vleck, Kannappan and d'Alembert functional equations on "
            "finite semigroups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an instance spec file")
    p.add_argument("spec_file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("chars", help="enumerate multiplicative functions")
    p.add_argument("spec_file")
    p.set_defaults(func=cmd_chars)

    p = sub.add_parser("solve", help="construct (and optionally cross-check) a solution family")
    p.add_argument("kind", choices=sorted(_KIND_BY_COMMAND))
    p.add_argument("spec_file")
    p.add_argument("--oracle", action="store_true", help="also run the numeric oracle and compare")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--include-zero", action="store_true", help="append the zero solution to the report")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify-theorems", help="run all identity suites and bijection round-trips")
    p.add_argument("spec_file")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except InvariantViolation as exc:
        _emit({"error": {"invariant": exc.invariant, "message": str(exc)}})
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
