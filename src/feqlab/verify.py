"""Theorem verification on one instance.

Every solution of the three equations, constructed and oracle-found, goes
through its identity suite; the nonzero Kannappan solutions and the
admissible d'Alembert solutions go through the mass-scaling bijection and
back; each d'Alembert solution must solve the d'Alembert equation, and its
three integral conditions must agree.  Each check that fails is recorded,
none raises.

The solutions of one kind are checked as one (m, n) stack, the constructed
members of family_stack and then those oracle_solve finds, each check one
call for the whole set.  identity_suites and integral_conditions return one
table each, whose pass/fail masks verify_instance reads; a member's row
holds the numbers of the single-function calls (residual,
van_vleck_identity_suite, ...) on that member alone.

Tolerances are mu.tolerance(TOL, d) = TOL * ||mu||**d, for the constants
TOL = RESIDUAL_TOL and ADMISSIBLE_TOL, ||mu|| the total variation and d the
degree in mu of the terms compared (a solution f has degree 1, the
d'Alembert g = int f(x t) dmu / int f dmu degree 0), so neither a heavy nor
a light measure turns rounding into a reported failure or hides a real one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equations import SOLUTION_DEGREE, Instance, residuals
from .families import (
    ADMISSIBLE_TOL,
    RESIDUAL_TOL,
    character_integrals,
    dalembert_to_kannappan,
    family_stack,
    identity_suites,
    integral_conditions,
    kannappan_to_dalembert,
)
from .measures import total_mass_integral
from .oracle import OracleConfig, oracle_solve

CONDITIONS = ("tau_shift", "proportionality", "double_mass")  # the columns of DalembertConditions


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


def verify_instance(inst: Instance, cfg: OracleConfig | None = None) -> VerifyReport:
    """Run every check on inst."""
    integrals = character_integrals(inst)
    mu = inst.mu
    floor = mu.tolerance(ADMISSIBLE_TOL, 2)  # below it, int f dmu counts as zero
    failures: list[dict] = []

    def fail(identity, max_abs, provenance, index, argmax=()):
        failures.append({"argmax": list(argmax), "identity": identity, "max_abs": max_abs,
                         "provenance": provenance, "solution_index": index})

    def solutions(kind):
        built = family_stack(kind, inst, integrals=integrals)
        found = oracle_solve(kind, inst, cfg).values
        return ["constructed"] * len(built) + ["oracle"] * len(found), np.concatenate([built, found])

    def suite_entries(kind, provenance, F):
        eq_res, eq_at = residuals(kind, F, inst)
        eq_bad = eq_res > mu.tolerance(RESIDUAL_TOL, 2 * SOLUTION_DEGREE[kind])
        suites = identity_suites(kind, F, inst)
        names = suites.names + ("nonzero_mass",)
        argmax = [a.tolist() for a in suites.argmax] + [[()] * len(F)]
        entries = []
        for i, (prov, res, at, bad, devs, failed, m) in enumerate(zip(
            provenance, eq_res.tolist(), eq_at.tolist(), eq_bad.tolist(),
            suites.deviations.tolist(), suites.failed.tolist(), suites.mass.tolist(),
        )):
            entries.append({"equation_residual": res, "identities": dict(zip(suites.names, devs)),
                            "mass": m, "provenance": prov, "solution_index": i})
            if bad:
                fail(f"{kind}_equation", res, prov, i, at)
            elif any(failed):
                for name, hit, dev, where in zip(names, failed, devs + [0.0], argmax):
                    if hit:
                        fail(name, dev, prov, i, where[i])
        return entries, suites.mass, suites.failed[:, -1] & ~eq_bad  # nonzero_mass reported

    vv_entries, _, _ = suite_entries("van_vleck", *solutions("van_vleck"))
    kan_prov, K = solutions("kannappan")
    kan_entries, kan_mass, kan_told = suite_entries("kannappan", kan_prov, K)

    # bijection round-trips on the cosine-type solutions, which need a mass
    # (the suites' int f dmu); their images G take the d'Alembert checks in
    # one stack with the solutions D
    live = np.abs(kan_mass) > floor
    G = kannappan_to_dalembert(K[live], inst)
    back = np.abs(dalembert_to_kannappan(G, inst) - K[live]).max(axis=1)
    dal_prov, D = solutions("dalembert")
    GD = np.concatenate([G, D])
    conds = integral_conditions(GD, inst)
    d_res, d_at = residuals("dalembert", GD, inst)
    admissible, g = conds.admissible, len(G)
    off = (d_res[:g] > RESIDUAL_TOL) | ~admissible[:g] | (back > mu.tolerance(RESIDUAL_TOL, 1))
    rows = zip(off.tolist(), d_res[:g].tolist(), back.tolist(), d_at[:g].tolist())
    for i, (prov, ok_mass, told) in enumerate(zip(kan_prov, live.tolist(), kan_told.tolist())):
        if not ok_mass:
            if not told:  # else its suite row reported nonzero_mass
                fail("nonzero_mass", 0.0, prov, i)
            continue
        hit, res, b, at = next(rows)
        if hit:
            fail("bijection_inverse", max(res, b), prov, i, at)

    # integral-condition equivalence and forward round-trips on the
    # d'Alembert solutions
    ahead = (d_res[g:] <= RESIDUAL_TOL) & admissible[g:]
    Fk = dalembert_to_kannappan(D[ahead], inst)
    f_res, f_at = residuals("kannappan", Fk, inst)
    f_live = np.abs(total_mass_integral(Fk, mu)) > floor  # else not a valid member
    fwd_back = np.abs(kannappan_to_dalembert(Fk[f_live], inst) - D[ahead][f_live]).max(axis=1)
    f_tol = mu.tolerance(RESIDUAL_TOL, 2)
    images = zip(f_live.tolist(), f_res.tolist(), f_at.tolist())
    backs = iter(fwd_back.tolist())
    dal_entries = []
    for i, (prov, holds, devs, ok, m, res, at, go) in enumerate(zip(
        dal_prov, conds.holds[g:].tolist(), conds.deviations[g:].tolist(),
        conds.consistent[g:].tolist(), conds.mass[g:].tolist(), d_res[g:].tolist(),
        d_at[g:].tolist(), ahead.tolist(),
    )):
        dal_entries.append({"conditions": dict(zip(CONDITIONS, holds)), "consistent": ok,
                            "mass": m, "solution_index": i})
        if res > RESIDUAL_TOL:
            fail("dalembert_equation", res, prov, i, at)
        elif not ok:
            fail("integral_conditions_equivalence", max(devs), "dalembert", i)
        elif go:
            ok_mass, fr, fat = next(images)
            b = next(backs) if ok_mass else 0.0
            if not ok_mass:
                fail("nonzero_mass", 0.0, "dalembert", i)
            elif fr > f_tol or b > RESIDUAL_TOL:
                fail("bijection_forward", max(fr, b), "dalembert", i, fat)

    trips = {"backward": float(back.max(initial=0.0)), "forward": float(fwd_back.max(initial=0.0))}
    return VerifyReport(vv_entries, kan_entries, dal_entries, trips, failures)
