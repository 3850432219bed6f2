"""Theorem verification on one instance.

Every solution of the three equations, constructed and oracle-found, goes
through its identity suite; the nonzero Kannappan solutions and the
admissible d'Alembert solutions go through the mass-scaling bijection and
back; each d'Alembert solution must solve the d'Alembert equation, and its
three integral conditions must agree.  Each check that fails is recorded,
none raises.

Residual tolerances are mu.tolerance(RESIDUAL_TOL, d) = RESIDUAL_TOL *
||mu||**d, with ||mu|| the total variation and d the degree in mu of the
terms compared (a solution f has degree 1, the d'Alembert
g = int f(x t) dmu / int f dmu degree 0), so neither a heavy nor a light
measure turns rounding into a reported failure or hides a real one.
"""
from __future__ import annotations

from dataclasses import dataclass

from .characters import enumerate_multiplicative, max_abs_diff
from .equations import SOLUTION_DEGREE, Instance, residual
from .errors import EquivalenceViolation, ZeroDenominator
from .families import (
    ADMISSIBLE_TOL,
    RESIDUAL_TOL,
    dalembert_admissible,
    dalembert_integral_conditions,
    dalembert_to_kannappan,
    family,
    kannappan_identity_suite,
    kannappan_to_dalembert,
    van_vleck_identity_suite,
)
from .oracle import OracleConfig, oracle_solve


@dataclass(frozen=True)
class VerifyReport:
    """Suite entries per solution, the worst bijection round-trip
    differences, and every failed check in the order found.  Entries are
    plain dicts; complex values in them stay complex."""

    van_vleck_suites: list[dict]
    kannappan_suites: list[dict]
    dalembert_conditions: list[dict]
    roundtrip_max: dict[str, float]
    failures: list[dict]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_instance(
    inst: Instance, cfg: OracleConfig | None = None, tol: float = ADMISSIBLE_TOL
) -> VerifyReport:
    """Run every check on inst; mu.tolerance(tol, 1) is the mass a
    d'Alembert solution needs to be mapped forward through the bijection."""
    chars = enumerate_multiplicative(inst.sg)
    mu = inst.mu
    failures: list[dict] = []

    def fail(identity, max_abs, provenance, index, argmax=()):
        failures.append(
            {
                "argmax": list(argmax),
                "identity": identity,
                "max_abs": max_abs,
                "provenance": provenance,
                "solution_index": index,
            }
        )

    def solutions(kind):
        found = oracle_solve(kind, inst, cfg)
        return family(kind, inst, chars).solutions + found.solutions

    def suite_entries(kind, suite_fn, sols):
        entries = []
        for i, sol in enumerate(sols):
            suite = suite_fn(sol.values, inst)
            eq_res = residual(kind, sol.values, inst)
            entries.append(
                {
                    "equation_residual": eq_res.max_abs,
                    "identities": dict(suite.residuals),
                    "mass": suite.mass,
                    "provenance": sol.provenance,
                    "solution_index": i,
                }
            )
            if eq_res.max_abs > mu.tolerance(RESIDUAL_TOL, 2 * SOLUTION_DEGREE[kind]):
                fail(f"{kind}_equation", eq_res.max_abs, sol.provenance, i, eq_res.argmax)
                continue
            for name in suite.failures():
                dev, at = suite.residuals.get(name, 0.0), suite.argmax.get(name, ())
                fail(name, dev, sol.provenance, i, at)
        return entries

    vv_entries = suite_entries("van_vleck", van_vleck_identity_suite, solutions("van_vleck"))
    kan = solutions("kannappan")
    kan_entries = suite_entries("kannappan", kannappan_identity_suite, kan)

    # bijection round-trips on the cosine-type solutions
    roundtrip_back = 0.0
    for i, sol in enumerate(kan):
        try:
            g = kannappan_to_dalembert(sol.values, inst)
        except ZeroDenominator:
            # a nonzero cosine-type solution must have nonzero mass
            fail("nonzero_mass", 0.0, sol.provenance, i)
            continue
        g_res = residual("dalembert", g, inst)
        try:
            ok_member = dalembert_admissible(g, inst)
        except EquivalenceViolation:
            ok_member = False
        back = max_abs_diff(dalembert_to_kannappan(g, inst), sol.values)
        roundtrip_back = max(roundtrip_back, back)
        if g_res.max_abs > RESIDUAL_TOL or not ok_member or back > mu.tolerance(RESIDUAL_TOL, 1):
            fail("bijection_inverse", max(g_res.max_abs, back), sol.provenance, i, g_res.argmax)

    # integral-condition equivalence and forward round-trips on the
    # d'Alembert solutions
    dal_entries = []
    roundtrip_fwd = 0.0
    for i, sol in enumerate(solutions("dalembert")):
        g = sol.values
        conds = dalembert_integral_conditions(g, inst)
        dal_entries.append(
            {
                "conditions": {
                    "double_mass": conds.double_mass,
                    "proportionality": conds.proportionality,
                    "tau_shift": conds.tau_shift,
                },
                "consistent": conds.consistent,
                "mass": conds.mass,
                "solution_index": i,
            }
        )
        g_res = residual("dalembert", g, inst)
        if g_res.max_abs > RESIDUAL_TOL:
            fail("dalembert_equation", g_res.max_abs, sol.provenance, i, g_res.argmax)
            continue
        if not conds.consistent:
            fail("integral_conditions_equivalence", max(conds.deviations), "dalembert", i)
            continue
        if abs(conds.mass) > mu.tolerance(tol, 1) and conds.all_hold:
            f = dalembert_to_kannappan(g, inst)
            f_res = residual("kannappan", f, inst)
            try:
                back = max_abs_diff(kannappan_to_dalembert(f, inst), g)
            except ZeroDenominator:
                # the forward image lost its mass: not a valid member
                fail("nonzero_mass", 0.0, "dalembert", i)
                continue
            roundtrip_fwd = max(roundtrip_fwd, back)
            if f_res.max_abs > mu.tolerance(RESIDUAL_TOL, 2) or back > RESIDUAL_TOL:
                fail("bijection_forward", max(f_res.max_abs, back), "dalembert", i, f_res.argmax)

    return VerifyReport(
        van_vleck_suites=vv_entries,
        kannappan_suites=kan_entries,
        dalembert_conditions=dal_entries,
        roundtrip_max={"backward": roundtrip_back, "forward": roundtrip_fwd},
        failures=failures,
    )
