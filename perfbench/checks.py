"""Response checks, computed from the spec the benchmark generated.

Every residual is recomputed here with numpy from the spec's Cayley table,
involution and atoms, not with the program's own evaluators.  A check returns
a list of problems; an empty list means the response is correct.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from workloads import Request, Spec, center

RESIDUAL_TOL = 1e-9   # recomputed equation residual of any reported member
MATCH_EPS = 1e-6      # the CLI's matching distance
MULT_TOL = 1e-9       # multiplicativity of reported characters
EQUATION = {"vanvleck": "van_vleck", "kannappan": "kannappan", "dalembert": "dalembert"}


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    constructed: int = 0   # constructed members compared against the oracle
    matched: int = 0       # of those, matched by an oracle member
    mismatch: bool = False


def residual(kind: str, spec: Spec, f: np.ndarray) -> float:
    t = spec.cayley
    ttau = t[:, spec.involution]
    outer = 2.0 * np.outer(f, f)
    if kind == "dalembert":
        dev = f[t] + f[ttau] - outer
    else:
        points = np.array([z for z, _ in spec.atoms])
        weights = np.array([w for _, w in spec.atoms])
        r = f[t[:, points]] @ weights          # r(x) = sum_i w_i f(x z_i)
        dev = (r[ttau] - r[t] if kind == "vanvleck" else r[t] + r[ttau]) - outer
    return float(np.max(np.abs(dev)))


def _values(entries) -> np.ndarray:
    return np.array([complex(v["re"], v["im"]) for v in entries])


def _check_members(kind: str, spec: Spec, members, where: str, out: Outcome) -> list[np.ndarray]:
    funcs = []
    for k, member in enumerate(members):
        f = _values(member["values"])
        if f.shape != (spec.order,):
            out.problems.append(f"{where}[{k}] has {f.shape[0]} values, expected {spec.order}")
            continue
        res = residual(kind, spec, f)
        if not res <= RESIDUAL_TOL:
            out.problems.append(f"{where}[{k}] residual {res:.3g}")
        if not np.max(np.abs(f)) > RESIDUAL_TOL:
            out.problems.append(f"{where}[{k}] is the zero function")
        funcs.append(f)
    return funcs


def _check_solve(req: Request, spec: Spec, code: int, report: dict, out: Outcome) -> None:
    if report.get("equation") != EQUATION[req.kind] or report.get("order") != spec.order:
        out.problems.append("solve report names the wrong equation or order")
    built = _check_members(req.kind, spec, report.get("solutions", []), "solutions", out)
    if not req.oracle:
        if code != 0:
            out.problems.append(f"exit code {code} without --oracle")
        return
    found = _check_members(req.kind, spec, report["oracle"]["solutions"], "oracle", out)
    match = report["match"]
    pairs = [tuple(p) for p in match["pairs"]]
    for i, j in pairs:
        if not (0 <= i < len(built) and 0 <= j < len(found)):
            out.problems.append(f"match pair {(i, j)} out of range")
        elif np.max(np.abs(built[i] - found[j])) > MATCH_EPS:
            out.problems.append(f"match pair {(i, j)} is further apart than {MATCH_EPS}")
    if len({i for i, _ in pairs}) != len(pairs) or len({j for _, j in pairs}) != len(pairs):
        out.problems.append("match pairs reuse a member")
    left = sorted(set(range(len(built))) - {i for i, _ in pairs})
    right = sorted(set(range(len(found))) - {j for _, j in pairs})
    if left != match["unmatched_constructed"] or right != match["unmatched_oracle"]:
        out.problems.append("unmatched lists disagree with the pairs")
    out.mismatch = bool(left or right)
    if match["verdict"] != ("mismatch" if out.mismatch else "match"):
        out.problems.append(f"verdict {match['verdict']!r} disagrees with the pairs")
    if code != (3 if out.mismatch else 0):
        out.problems.append(f"exit code {code} for verdict {match['verdict']!r}")
    out.constructed, out.matched = len(built), len(pairs)


def _check_chars(spec: Spec, code: int, report: dict, out: Outcome) -> None:
    t = spec.cayley
    entries = report.get("characters", [])
    if code != 0 or report.get("count") != len(entries) or not entries:
        out.problems.append("chars report is empty or inconsistent")
    for k, entry in enumerate(entries):
        chi = _values(entry["values"])
        if chi.shape != (spec.order,) or np.max(np.abs(chi[t] - np.outer(chi, chi))) > MULT_TOL:
            out.problems.append(f"character {k} is not multiplicative")
        elif not np.max(np.abs(chi)) > 0.5:
            out.problems.append(f"character {k} is zero")


def _check_validate(spec: Spec, code: int, report: dict, out: Outcome) -> None:
    if code != 0 or report.get("order") != spec.order or report.get("center") != center(spec.cayley):
        out.problems.append("validate report has the wrong order or center")


def _check_verify(code: int, report: dict, out: Outcome) -> None:
    if code != 0 or report.get("pass") is not True or "failures" in report:
        out.problems.append(f"verify-theorems did not pass (exit code {code})")


def _check_suites(spec: Spec, report: dict, out: Outcome) -> None:
    for kind in ("vanvleck", "kannappan", "dalembert"):
        _check_members(kind, spec, report["members"][kind], kind, out)
    if report["failures"]:
        out.problems.append(f"identity suites failed: {report['failures'][:3]}")


def check(req: Request, spec: Spec, code: int, stdout: str) -> Outcome:
    """Check one response: exit code, JSON shape and recomputed residuals."""
    out = Outcome()
    if code not in (0, 3) or (code == 3 and not req.oracle):
        out.problems.append(f"exit code {code}")
        return out
    try:
        report = json.loads(stdout)
        if req.command == "solve":
            _check_solve(req, spec, code, report, out)
        elif req.command == "chars":
            _check_chars(spec, code, report, out)
        elif req.command == "validate":
            _check_validate(spec, code, report, out)
        elif req.command == "verify-theorems":
            _check_verify(code, report, out)
        else:
            _check_suites(spec, report, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        out.problems.append(f"malformed response: {type(exc).__name__}: {exc}")
    return out
