"""Theorem verification on one instance.

Every solution of the three equations, constructed and oracle-found, goes
through its identity suite; the nonzero Kannappan solutions and the
admissible d'Alembert solutions go through the mass-scaling bijection and
back; each d'Alembert solution must solve the d'Alembert equation, and its
three integral conditions must agree.  Each check that fails is recorded,
none raises.

The solutions of one kind are checked as one (m, n) stack, the constructed
members of family_stack, built from one enumeration of the characters, and
then those oracle_solve finds, each check one call for the whole set.
residuals, identity_suites and integral_conditions return one table each,
whose pass/fail masks verify_instance reads; a member's row holds the
numbers of the same call on a stack of that member alone.

Tolerances are mu.tolerance(TOL, d) = TOL * ||mu||**d, for the constants
TOL = RESIDUAL_TOL and ADMISSIBLE_TOL, ||mu|| the total variation and d the
degree in mu of the terms compared (a solution f has degree 1, the
d'Alembert g = int f(x t) dmu / int f dmu degree 0), so neither a heavy nor
a light measure turns rounding into a reported failure or hides a real one.
Whether int f dmu vanishes is decided by one rule of degree 0 in mu and in
f, |int f dmu| <= ADMISSIBLE_TOL * ||mu|| * max|f| (families._vanishes), so
a small member of a near-cancelling measure keeps its mass.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characters import enumerate_multiplicative
from .equations import SOLUTION_DEGREE, Instance, residuals
from .families import (
    RESIDUAL_TOL,
    _vanishes,
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
    chars = enumerate_multiplicative(inst.sg)
    mu = inst.mu
    failures: list[dict] = []

    def fail(identity, max_abs, provenance, index, argmax=()):
        failures.append({"argmax": list(argmax), "identity": identity, "max_abs": float(max_abs),
                         "provenance": provenance, "solution_index": index})

    def solutions(kind):
        built = family_stack(kind, inst, chars)
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
    # (the suites' int f dmu): row i of G is the image of row i of K, zero
    # where the mass vanishes
    live = ~_vanishes(kan_mass, K, mu)
    G = np.zeros_like(K)
    G[live] = kannappan_to_dalembert(K[live], inst)
    g_res, g_at = residuals("dalembert", G, inst)
    back = np.where(live, np.abs(dalembert_to_kannappan(G, inst) - K).max(axis=1), 0.0)
    off = (g_res > RESIDUAL_TOL) | ~integral_conditions(G, inst).admissible
    off = live & (off | (back > mu.tolerance(RESIDUAL_TOL, 1)))
    for i in np.flatnonzero(off | ~(live | kan_told)).tolist():
        if live[i]:
            fail("bijection_inverse", max(g_res[i], back[i]), kan_prov[i], i, g_at[i].tolist())
        else:  # its suite row did not report nonzero_mass
            fail("nonzero_mass", 0.0, kan_prov[i], i)

    # integral-condition equivalence and forward round-trips on the
    # d'Alembert solutions: row i of Fk is the image of row i of D
    dal_prov, D = solutions("dalembert")
    conds = integral_conditions(D, inst)
    d_res, d_at = residuals("dalembert", D, inst)
    Fk = dalembert_to_kannappan(D, inst)
    f_res, f_at = residuals("kannappan", Fk, inst)
    bad = d_res > RESIDUAL_TOL
    odd = ~bad & ~conds.consistent
    ahead = ~bad & conds.admissible
    dead = ahead & _vanishes(total_mass_integral(Fk, mu), Fk, mu)  # not a valid member
    go = ahead & ~dead
    fwd_back = np.zeros(len(D))
    fwd_back[go] = np.abs(kannappan_to_dalembert(Fk[go], inst) - D[go]).max(axis=1)
    wrong = go & ((f_res > mu.tolerance(RESIDUAL_TOL, 2)) | (fwd_back > RESIDUAL_TOL))
    for i in np.flatnonzero(bad | odd | dead | wrong).tolist():
        if bad[i]:
            fail("dalembert_equation", d_res[i], dal_prov[i], i, d_at[i].tolist())
        elif odd[i]:
            fail("integral_conditions_equivalence", conds.deviations[i].max(), dal_prov[i], i)
        elif dead[i]:
            fail("nonzero_mass", 0.0, dal_prov[i], i)
        else:
            fail("bijection_forward", max(f_res[i], fwd_back[i]), dal_prov[i], i, f_at[i].tolist())
    dal_entries = [{"conditions": dict(zip(CONDITIONS, holds)), "consistent": ok, "mass": m,
                    "solution_index": i}
                   for i, (holds, ok, m) in enumerate(zip(
                       conds.holds.tolist(), conds.consistent.tolist(), conds.mass.tolist()))]

    trips = {"backward": float(back.max(initial=0.0)), "forward": float(fwd_back.max(initial=0.0))}
    return VerifyReport(vv_entries, kan_entries, dal_entries, trips, failures)
