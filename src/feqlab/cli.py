"""Command-line interface: file-based instances, JSON reports, stable exit codes.

Exit codes: 0 success, 2 validation error (a refused option included), 3
completeness mismatch, 4 theorem-suite failure.  All reports are key-sorted
JSON on stdout; two runs with the same seed produce byte-identical output.
No option sets a tolerance: every threshold scales with ||mu||.

main alone reads the spec and writes the report: it loads the spec once,
passes (args, inst, labels) to the command and writes the report it returns.

Reports are written by _render, one pass over the report, with the bytes of
json.dumps(report, indent=2, sort_keys=True).  It exists because on Python
3.11 json's C encoder does not indent: with indent set, json falls back to
its pure-Python encoder, which visits every value and calls a Python hook
for every complex number.  Every solution member goes through _members:
_render writes a SolutionReport, or a list or tuple of them (solve
--include-zero writes the constructed members and then the zero member), as
one list of members from one (m, n) stack: one np.unique over the bits of
all values, each distinct float among them formatted once (NaN and
infinities as json.dumps writes them), and each member's values joined with
str.join.  It writes each other array of complex values with one
comprehension, each string (dict keys included) with the function
json.dumps calls for it, and ints, booleans and None itself.
"""
from __future__ import annotations

import functools
import json
import math
import sys
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


@functools.lru_cache(maxsize=None)
def _complex_text(pad: str) -> tuple[str, str, str]:
    """The text json.dumps writes before the im part, between the parts and
    after the re part of a complex value, as {"im", "re"}, at indentation pad."""
    inner = pad + "  "
    return f'{{\n{inner}"im": ', f',\n{inner}"re": ', f'\n{pad}}}'


def _complex(re: float, im: float, pad: str) -> str:
    before, between, after = _complex_text(pad)
    return f"{before}{_float(im)}{between}{_float(re)}{after}"


def _members(reports, pad: str) -> str:
    """The members of the SolutionReports reports, in order, as json.dumps
    writes the list of their {"provenance", "residual", "values"} dicts at
    indentation pad, from one (m, n) stack.  np.unique of the bits of all 2mn
    parts finds the distinct floats (0.0 and -0.0 apart), each is formatted
    once by _float, and each row is one str.join of those strings."""
    F = np.concatenate([r.values for r in reports], dtype=np.complex128)
    if not F.size:
        return "[]"
    m, n = F.shape
    i2, i4, i6 = (pad + " " * k for k in (2, 4, 6))
    before, between, after = _complex_text(i6)
    bits = F.view(np.int64)  # (re, im) pairs
    distinct, which = np.unique(bits, return_inverse=True)
    text = np.array([_float(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    which = which.reshape(m, n, 2)
    pieces = np.empty((m, n, 4), dtype=object)  # per value: text before im, im, between, re
    pieces[:, :, 0] = f"{after},\n{i6}{before}"
    pieces[:, 0, 0] = before
    pieces[:, :, 1] = text[which[:, :, 1]]
    pieces[:, :, 2] = between
    pieces[:, :, 3] = text[which[:, :, 0]]
    heads = [f'{{\n{i4}"provenance": {_quote(r.provenance)},\n{i4}"residual": {_float(res)},'
             for r in reports for res in r.residuals.tolist()]
    items = [f'{head}\n{i4}"values": [\n{i6}{"".join(row)}{after}\n{i4}]\n{i2}}}'
             for head, row in zip(heads, pieces.reshape(m, 4 * n).tolist())]
    return "[\n" + i2 + (",\n" + i2).join(items) + "\n" + pad + "]"


def _render(obj, pad: str) -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) writes it at
    indentation pad, with complex numbers as {"im", "re"} objects, 1-d
    arrays as lists of them and a SolutionReport, or a list or tuple of
    them, as the list of all their members (_members).  Keys are strings."""
    if isinstance(obj, float):
        return _float(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    if obj is True or obj is False or obj is None:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, SolutionReport):
        return _members((obj,), pad)
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
        if isinstance(obj[0], SolutionReport):  # then every item is one
            return _members(obj, pad)
        items = [_render(v, inner) for v in obj]
    elif isinstance(obj, complex):
        return _complex(obj.real, obj.imag, pad)
    elif isinstance(obj, str):
        return _quote(obj)
    else:
        return json.dumps(obj)  # TypeError for what json refuses
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SpecFormatError(message)


def _index_array(values: list, message: str) -> np.ndarray:
    """values as int64, if each is a JSON integer (not a bool) within 64 bits."""
    _require(set(map(type, values)) <= {int}, message)
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError as exc:
        raise SpecFormatError(message) from exc


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
    # JSON numbers load as int or float, true and false as bool, not as int
    n = data["order"]
    _require(type(n) is int and n > 0, "order must be a positive integer")
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
        _require(type(a["point"]) is int, "atom point must be an integer")
        _require(
            {type(a["re"]), type(a["im"])} <= {int, float},
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


def cmd_validate(args, inst: Instance, labels) -> tuple[dict, int]:
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
    return summary, EXIT_OK


def cmd_chars(args, inst: Instance, labels) -> tuple[dict, int]:
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
    return {"characters": entries, "count": len(entries), "order": inst.sg.order}, EXIT_OK


def cmd_solve(args, inst: Instance, labels) -> tuple[dict, int]:
    kind = _KIND_BY_COMMAND[args["kind"]]
    constructed = family(kind, inst)
    out = {
        "equation": kind,
        "order": inst.sg.order,
        "solutions": constructed,
    }
    exit_code = EXIT_OK
    if args["--oracle"]:
        cfg = OracleConfig(rng_seed=args["--seed"])
        found = oracle_solve(kind, inst, cfg)
        eps = inst.mu.tolerance(MATCH_EPS, SOLUTION_DEGREE[kind])
        result = match_solution_sets(constructed.values, found.values, eps)
        out["oracle"] = {
            "restarts": cfg.restarts,
            "seed": cfg.rng_seed,
            "solutions": found,
        }
        out["match"] = {
            "pairs": result.pairs,
            "unmatched_constructed": result.unmatched_left,
            "unmatched_oracle": result.unmatched_right,
            "verdict": "match" if result.is_match else "mismatch",
        }
        if not result.is_match:
            exit_code = EXIT_MISMATCH
    if args["--include-zero"]:
        zero = SolutionReport(np.zeros((1, inst.sg.order), dtype=complex), np.zeros(1), "appended_zero")
        out["solutions"] = (constructed, zero)
    return out, exit_code


def cmd_verify(args, inst: Instance, labels) -> tuple[dict, int]:
    report = verify_instance(inst, OracleConfig(rng_seed=args["--seed"]))
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
    return out, EXIT_OK if report.passed else EXIT_THEOREM


_USAGE = """usage: feqlab {validate,chars} SPEC
       feqlab solve {vanvleck,kannappan,dalembert} SPEC [--oracle] [--seed N] [--include-zero]
       feqlab verify-theorems SPEC [--seed N]"""

# Each command's function, positionals and flags with defaults, for _parse: a
# flag whose default is False is a switch, one whose default is an int takes one.
_COMMANDS = {
    "validate": (cmd_validate, ("spec_file",), {}),
    "chars": (cmd_chars, ("spec_file",), {}),
    "solve": (cmd_solve, ("kind", "spec_file"), {"--oracle": False, "--seed": 0, "--include-zero": False}),
    "verify-theorems": (cmd_verify, ("spec_file",), {"--seed": 0}),
}


def _parse(argv: list[str]) -> tuple:
    """The command function of argv and its arguments: the positionals by
    name and each flag of the command by its name, as last given or its
    default.  Options may stand anywhere after the command, a value as
    --seed N or --seed=N; a flag name must be given whole.  -h or --help,
    unless read as or after a refused --seed value, prints usage and exits 0."""
    command, names, flags = _COMMANDS.get(argv[0] if argv else "", (None, (), {}))
    args, positionals, refused, tokens = dict(flags), [], [], iter(argv[1:] if command else argv)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if token in ("-h", "--help"):
            print(_USAGE)
            raise SystemExit(EXIT_OK)
        if not token.startswith("-"):
            positionals.append(token)
        elif flags.get(token) is False:  # a switch
            args[token] = True
        elif type(flags.get(flag)) is int:
            value = value if eq else next(tokens, None)
            try:
                args[flag] = int(value)
            except (TypeError, ValueError):
                raise OptionError(f"{flag} takes an integer, got {value!r}") from None
        else:
            refused.append(token)
    if command is None:
        raise OptionError(f"expected a command, one of {', '.join(_COMMANDS)}; got {argv[:1]}")
    if refused or len(positionals) != len(names):
        raise OptionError(f"{argv[0]} takes {' '.join(names)} and options {list(flags)}, got {argv[1:]}")
    args.update(zip(names, positionals))
    if "kind" in names and args["kind"] not in _KIND_BY_COMMAND:
        raise OptionError(f"kind must be one of {', '.join(_KIND_BY_COMMAND)}, got {args['kind']!r}")
    return command, args


def main(argv=None) -> int:
    try:
        command, args = _parse(sys.argv[1:] if argv is None else argv)
        report, code = command(args, *load_instance_file(args["spec_file"]))
    except InvariantViolation as exc:
        report, code = {"error": {"invariant": exc.invariant, "message": str(exc)}}, EXIT_VALIDATION
    print(_render(report, ""))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
