"""Command-line interface: file-based instances, JSON reports, stable exit codes.

Exit codes: 0 success, 2 validation error, 3 completeness mismatch,
4 theorem-suite failure.  All reports are key-sorted JSON on stdout; two runs
with the same seed produce byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import math

import numpy as np

from .equations import SOLUTION_DEGREE, Instance
from .errors import InvariantViolation
from .families import Solution, character_integrals, family
from .measures import central_measure, is_tau_invariant
from .oracle import MATCH_EPS, OracleConfig, match_solution_sets, oracle_solve
from .semigroups import center, orbit, validate_involution, validate_semigroup
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


def _json_default(o):
    """Complex numbers as {"im", "re"} objects, arrays as lists of them."""
    if isinstance(o, np.ndarray):
        return [complex(v) for v in o]
    if isinstance(o, complex):
        return {"im": float(o.imag), "re": float(o.real)}
    raise TypeError(f"{type(o).__name__} is not JSON serializable")


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True, default=_json_default))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SpecFormatError(message)


def _is_int(v) -> bool:
    """JSON integer; true and false parse as Python bools, which are ints."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_index(v) -> bool:
    """JSON integer that fits the int64 tables it is stored in."""
    return _is_int(v) and -(2**63) <= v < 2**63


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
    _require(
        all(_is_index(v) for v in cayley), "cayley entries must be 64-bit integers"
    )
    inv = data["involution"]
    _require(
        isinstance(inv, list) and len(inv) == n and all(_is_index(v) for v in inv),
        f"involution must be a list of {n} 64-bit integers",
    )
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

    sg = validate_semigroup(np.asarray(cayley, dtype=np.int64).reshape(n, n))
    tau = validate_involution(sg, inv)
    mu = central_measure(sg, atoms)
    total = mu.total_variation
    _require(
        MIN_TOTAL_VARIATION <= total <= MAX_TOTAL_VARIATION,
        f"measure total variation must be in [{MIN_TOTAL_VARIATION}, "
        f"{MAX_TOTAL_VARIATION}], got {total}",
    )
    return Instance(sg=sg, tau=tau, mu=mu), labels


def _solution_json(sol: Solution) -> dict:
    return {"provenance": sol.provenance, "residual": sol.residual, "values": sol.values}


def cmd_validate(args) -> int:
    inst, labels = load_instance_file(args.spec_file)
    sg = inst.sg
    summary = {
        "center": list(center(sg)),
        "measure": [{"point": z, "weight": w} for z, w in inst.mu.atoms()],
        "orbits": [
            {"element": x, "index": orbit(sg, x).index, "period": orbit(sg, x).period}
            for x in range(sg.order)
        ],
        "order": sg.order,
        "tau_invariant_measure": is_tau_invariant(sg, inst.mu, inst.tau),
    }
    if labels is not None:
        summary["labels"] = labels
    _emit(summary)
    return EXIT_OK


def cmd_chars(args) -> int:
    inst, _ = load_instance_file(args.spec_file)
    entries = [
        {
            "index": k,
            "int_mu": ci.int_mu,
            "int_mu_tau": ci.int_mu_tau,
            "kannappan_admissible": ci.kannappan_admissible(args.tol),
            "values": ci.chi,
            "van_vleck_admissible": ci.van_vleck_admissible(args.tol),
        }
        for k, ci in enumerate(character_integrals(inst))
    ]
    _emit({"characters": entries, "count": len(entries), "order": inst.sg.order})
    return EXIT_OK


def cmd_solve(args) -> int:
    inst, _ = load_instance_file(args.spec_file)
    kind = _KIND_BY_COMMAND[args.kind]
    constructed = family(kind, inst, tol=args.tol)
    out = {
        "equation": kind,
        "order": inst.sg.order,
        "solutions": [_solution_json(s) for s in constructed.solutions],
    }
    exit_code = EXIT_OK
    if args.oracle:
        cfg = OracleConfig(rng_seed=args.seed)
        found = oracle_solve(kind, inst, cfg)
        eps = inst.mu.tolerance(MATCH_EPS, SOLUTION_DEGREE[kind])
        result = match_solution_sets(constructed, found, eps)
        out["oracle"] = {
            "restarts": cfg.restarts,
            "seed": cfg.rng_seed,
            "solutions": [_solution_json(s) for s in found.solutions],
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
    report = verify_instance(inst, OracleConfig(rng_seed=args.seed), tol=args.tol)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_chars)

    p = sub.add_parser("solve", help="construct (and optionally cross-check) a solution family")
    p.add_argument("kind", choices=sorted(_KIND_BY_COMMAND))
    p.add_argument("spec_file")
    p.add_argument("--oracle", action="store_true", help="also run the numeric oracle and compare")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--include-zero", action="store_true", help="append the zero solution to the report")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify-theorems", help="run all identity suites and bijection round-trips")
    p.add_argument("spec_file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        tol = getattr(args, "tol", 1.0)
        if not (math.isfinite(tol) and tol > 0):
            raise OptionError(f"--tol must be finite and greater than 0, got {tol}")
        return args.func(args)
    except InvariantViolation as exc:
        _emit({"error": {"invariant": exc.invariant, "message": str(exc)}})
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
