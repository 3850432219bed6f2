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

from .characters import enumerate_multiplicative, max_abs_diff
from .equations import (
    Instance,
    residual_dalembert,
    residual_kannappan,
    residual_van_vleck,
)
from .errors import EquivalenceViolation, InvariantViolation, ZeroDenominator
from .families import (
    Solution,
    SolutionReport,
    character_integrals,
    dalembert_abelian_family,
    dalembert_admissible,
    dalembert_integral_conditions,
    dalembert_to_kannappan,
    kannappan_abelian_family,
    kannappan_identity_suite,
    kannappan_to_dalembert,
    van_vleck_family,
    van_vleck_identity_suite,
)
from .measures import central_measure, is_tau_invariant
from .oracle import OracleConfig, match_solution_sets, oracle_solve
from .semigroups import center, orbit, validate_involution, validate_semigroup

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MISMATCH = 3
EXIT_THEOREM = 4

RESIDUAL_TOL = 1e-10
MATCH_EPS = 1e-6
# Residuals are of order (sum_i |w_i|)^2 and the oracle's line search squares
# them, so float64 overflows near a total variation of 1e76.
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


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _c2j(z: complex) -> dict:
    return {"im": float(z.imag), "re": float(z.real)}


def _f2j(f) -> list[dict]:
    return [_c2j(complex(v)) for v in np.asarray(f)]


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
    except json.JSONDecodeError as exc:
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
        atoms.append((a["point"], complex(float(a["re"]), float(a["im"]))))
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
    total = sum(math.hypot(w.real, w.imag) for w in mu.weights)
    _require(
        total <= MAX_TOTAL_VARIATION,
        f"measure total variation must be finite and at most "
        f"{MAX_TOTAL_VARIATION}, got {total}",
    )
    return Instance(sg=sg, tau=tau, mu=mu), labels


def _solution_json(sol: Solution) -> dict:
    return {
        "provenance": sol.provenance,
        "residual": float(sol.residual),
        "values": _f2j(sol.values),
    }


def cmd_validate(args) -> int:
    inst, labels = load_instance_file(args.spec_file)
    sg = inst.sg
    summary = {
        "center": list(center(sg)),
        "measure": [
            {"point": z, "weight": _c2j(w)} for z, w in inst.mu.atoms()
        ],
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
    entries = []
    for k, ci in enumerate(character_integrals(inst)):
        entries.append(
            {
                "index": k,
                "int_mu": _c2j(ci.int_mu),
                "int_mu_tau": _c2j(ci.int_mu_tau),
                "kannappan_admissible": ci.kannappan_admissible(args.tol),
                "values": _f2j(ci.chi),
                "van_vleck_admissible": ci.van_vleck_admissible(args.tol),
            }
        )
    _emit({"characters": entries, "count": len(entries), "order": inst.sg.order})
    return EXIT_OK


def _constructed_report(kind: str, inst: Instance, tol: float) -> SolutionReport:
    if kind == "van_vleck":
        return van_vleck_family(inst, tol=tol)
    if kind == "kannappan":
        return kannappan_abelian_family(inst, tol=tol)
    funcs = dalembert_abelian_family(inst.sg, inst.tau)
    sols = tuple(
        Solution(
            values=g,
            residual=residual_dalembert(g, inst.sg, inst.tau).max_abs,
            provenance="constructed",
        )
        for g in funcs
    )
    return SolutionReport(equation="dalembert", solutions=sols)


def cmd_solve(args) -> int:
    inst, _ = load_instance_file(args.spec_file)
    kind = _KIND_BY_COMMAND[args.kind]
    constructed = _constructed_report(kind, inst, args.tol)
    out = {
        "equation": kind,
        "order": inst.sg.order,
        "solutions": [_solution_json(s) for s in constructed.solutions],
    }
    exit_code = EXIT_OK
    if args.oracle:
        cfg = OracleConfig(rng_seed=args.seed)
        found = oracle_solve(kind, inst, cfg)
        result = match_solution_sets(constructed, found, eps=MATCH_EPS)
        out["oracle"] = {
            "restarts": cfg.restarts,
            "seed": cfg.rng_seed,
            "solutions": [_solution_json(s) for s in found.solutions],
        }
        out["match"] = {
            "pairs": [list(p) for p in result.pairs],
            "unmatched_constructed": list(result.unmatched_left),
            "unmatched_oracle": list(result.unmatched_right),
            "verdict": "match" if result.is_match else "mismatch",
        }
        if not result.is_match:
            exit_code = EXIT_MISMATCH
    if args.include_zero:
        out["solutions"].append(
            {
                "provenance": "appended_zero",
                "residual": 0.0,
                "values": _f2j(np.zeros(inst.sg.order, dtype=complex)),
            }
        )
    _emit(out)
    return exit_code


def _failure(identity: str, max_abs: float, provenance: str, index: int, argmax=()) -> dict:
    return {
        "argmax": list(argmax),
        "identity": identity,
        "max_abs": max_abs,
        "provenance": provenance,
        "solution_index": index,
    }


def _suite_entries(report, inst, suite_fn, residual_fn, failures):
    entries = []
    for i, sol in enumerate(report.solutions):
        suite = suite_fn(sol.values, inst)
        eq_res = residual_fn(sol.values, inst)
        entry = {
            "equation_residual": eq_res.max_abs,
            "identities": {k: float(v) for k, v in suite.residuals.items()},
            "mass": _c2j(suite.mass),
            "provenance": sol.provenance,
            "solution_index": i,
        }
        entries.append(entry)
        if eq_res.max_abs > RESIDUAL_TOL:
            failures.append(
                _failure(
                    f"{report.equation}_equation",
                    eq_res.max_abs,
                    sol.provenance,
                    i,
                    eq_res.argmax,
                )
            )
            continue
        for name in suite.failures():
            failures.append(
                _failure(
                    name,
                    suite.residuals.get(name, 0.0),
                    sol.provenance,
                    i,
                    suite.argmax.get(name, ()),
                )
            )
    return entries


def cmd_verify(args) -> int:
    inst, _ = load_instance_file(args.spec_file)
    chars = enumerate_multiplicative(inst.sg)
    cfg = OracleConfig(rng_seed=args.seed)
    failures: list[dict] = []

    def merge(constructed: SolutionReport, found: SolutionReport) -> SolutionReport:
        return SolutionReport(
            equation=constructed.equation,
            solutions=constructed.solutions + found.solutions,
        )

    vv = merge(van_vleck_family(inst, chars), oracle_solve("van_vleck", inst, cfg))
    kan = merge(
        kannappan_abelian_family(inst, chars), oracle_solve("kannappan", inst, cfg)
    )
    dal_funcs = dalembert_abelian_family(inst.sg, inst.tau, chars) + [
        s.values for s in oracle_solve("dalembert", inst, cfg).solutions
    ]

    vv_entries = _suite_entries(
        vv, inst, van_vleck_identity_suite, residual_van_vleck, failures
    )
    kan_entries = _suite_entries(
        kan, inst, kannappan_identity_suite, residual_kannappan, failures
    )

    # bijection round-trips on the cosine-type solutions
    roundtrip_back = 0.0
    for i, sol in enumerate(kan.solutions):
        try:
            g = kannappan_to_dalembert(sol.values, inst)
        except ZeroDenominator:
            # a nonzero cosine-type solution must have nonzero mass
            failures.append(_failure("nonzero_mass", 0.0, sol.provenance, i))
            continue
        g_res = residual_dalembert(g, inst.sg, inst.tau)
        ok_member = False
        try:
            ok_member = dalembert_admissible(g, inst)
        except EquivalenceViolation:
            ok_member = False
        back = max_abs_diff(dalembert_to_kannappan(g, inst), sol.values)
        roundtrip_back = max(roundtrip_back, back)
        if g_res.max_abs > RESIDUAL_TOL or not ok_member or back > RESIDUAL_TOL:
            failures.append(
                _failure(
                    "bijection_inverse",
                    max(g_res.max_abs, back),
                    sol.provenance,
                    i,
                    g_res.argmax,
                )
            )

    # integral-condition equivalence and forward round-trips on the
    # d'Alembert solutions
    dal_entries = []
    roundtrip_fwd = 0.0
    for i, g in enumerate(dal_funcs):
        conds = dalembert_integral_conditions(g, inst)
        dal_entries.append(
            {
                "conditions": {
                    "double_mass": conds.double_mass,
                    "proportionality": conds.proportionality,
                    "tau_shift": conds.tau_shift,
                },
                "consistent": conds.consistent,
                "mass": _c2j(conds.mass),
                "solution_index": i,
            }
        )
        if not conds.consistent:
            failures.append(
                _failure(
                    "integral_conditions_equivalence",
                    max(conds.deviations),
                    "dalembert",
                    i,
                )
            )
            continue
        if abs(conds.mass) > args.tol and conds.all_hold:
            f = dalembert_to_kannappan(g, inst)
            f_res = residual_kannappan(f, inst)
            try:
                back = max_abs_diff(kannappan_to_dalembert(f, inst), g)
            except ZeroDenominator:
                # the forward image lost its mass: not a valid member
                failures.append(_failure("nonzero_mass", 0.0, "dalembert", i))
                continue
            roundtrip_fwd = max(roundtrip_fwd, back)
            if f_res.max_abs > RESIDUAL_TOL or back > RESIDUAL_TOL:
                failures.append(
                    _failure(
                        "bijection_forward",
                        max(f_res.max_abs, back),
                        "dalembert",
                        i,
                        f_res.argmax,
                    )
                )

    out = {
        "dalembert_conditions": dal_entries,
        "kannappan_suites": kan_entries,
        "pass": not failures,
        "roundtrip_max": {
            "backward": roundtrip_back,
            "forward": roundtrip_fwd,
        },
        "van_vleck_suites": vv_entries,
    }
    if failures:
        out["first_failure"] = failures[0]
        out["failures"] = failures
    _emit(out)
    return EXIT_OK if not failures else EXIT_THEOREM


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
