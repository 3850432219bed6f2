"""Scalar reference implementations the vectorized code is checked against.

right_integral and double_integral are plain Python loops over the atoms; the
inner sum of double_integral reuses right_integral verbatim, so the
finite-sum Fubini identity holds exactly, not merely within rounding.
equation_matrix_add_at assembles each equation's linear part term by term
with np.add.at.  van_vleck_family_dirac is the sine family specialized to a unit point mass,
a cross-check of the general construction, and family_loop builds each
family one multiplicative function at a time, with the per-character
admissibility predicates of CharacterIntegral.  The set-at-a-time steps after
the solvers have their one-member-at-a-time loops here: dedup_canonical_loop
(a sort keyed by canonical_key, one distance per pair),
enumerate_multiplicative_loop (one multiplicativity scan per root),
match_solution_sets_loop (one distance per pair) and json_report (json's
encoder with a default hook for complex values).  orbit_walk follows the
powers of one element; verify_instance_loop
checks one solution at a time through the single-function calls (residual,
the identity suites, the bijection maps), and closed_subspace_svd finds the
closed subspace of the solver by SVD even where the symmetry forms vanish.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

import feqlab as fl
from feqlab.algebra import _null_space, closed_system_roots
from feqlab.characters import (
    DRAWS,
    MULT_TOL,
    ROOT_TOL,
    canonical_key,
    dedup_canonical,
    max_abs,
    max_abs_diff,
)
from feqlab.equations import SOLUTION_DEGREE, residuals
from feqlab.families import (
    ADMISSIBLE_TOL,
    DEDUP_EPS,
    RESIDUAL_TOL,
    dalembert_admissible,
    dalembert_integral_conditions,
    dalembert_to_kannappan,
    kannappan_identity_suite,
    kannappan_to_dalembert,
    van_vleck_identity_suite,
)
from feqlab.oracle import MATCH_EPS, MatchResult


def right_integral(sg: fl.FiniteSemigroup, f, mu: fl.CentralMeasure, x: int) -> complex:
    """Integral of t -> f(x*t), i.e. sum_i w_i f(x * z_i)."""
    row = sg.cayley[x]
    return sum(
        (complex(w) * complex(f[row[z]]) for z, w in zip(mu.points, mu.weights)), 0j
    )


def double_integral(
    sg: fl.FiniteSemigroup,
    f,
    mu: fl.CentralMeasure,
    mode: str = "plain",
    x: int | None = None,
    tau: fl.Involution | None = None,
) -> complex:
    """Double integral over (t, s) of f at a composite argument.

    mode "plain" integrates f(x*t*s) (f(t*s) when x is None); mode "left_tau"
    integrates f(x*tau(t)*s) and needs tau.
    """
    if mode not in ("plain", "left_tau"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "left_tau" and tau is None:
        raise ValueError("mode 'left_tau' needs the involution")
    total = 0j
    for z, w in zip(mu.points, mu.weights):
        lead = int(z) if mode == "plain" else tau(int(z))
        base = lead if x is None else sg.mul(x, lead)
        total += complex(w) * right_integral(sg, f, mu, base)
    return total


def equation_matrix_add_at(kind: str, inst: fl.Instance) -> np.ndarray:
    """Linear part A (row x*n+y, one column per element) built by scattering
    each measure atom's contribution into its column."""
    sg, tau, mu = inst.sg, inst.tau, inst.mu
    n = sg.order
    t = sg.cayley
    rows = np.arange(n * n)
    xy = t.ravel()
    xty = t[:, tau.perm].ravel()
    A = np.zeros((n * n, n), dtype=np.complex128)
    if kind == "dalembert":
        np.add.at(A, (rows, xy), 1.0)
        np.add.at(A, (rows, xty), 1.0)
        return A
    for z, w in zip(mu.points, mu.weights):
        plain = t[xy, z]
        shifted = t[xty, z]
        if kind == "van_vleck":
            np.add.at(A, (rows, shifted), w)
            np.add.at(A, (rows, plain), -w)
        else:
            np.add.at(A, (rows, plain), w)
            np.add.at(A, (rows, shifted), w)
    return A


def van_vleck_family_dirac(
    inst: fl.Instance,
    chars=None,
    tol: float = ADMISSIBLE_TOL,
    dedup_eps: float = DEDUP_EPS,
) -> fl.SolutionReport:
    """Unit-point-mass specialization of the sine family at mu = delta_z0:
    f = chi(tau(z0)) (chi - chi o tau)/2 for chi(z0) != 0 and
    chi(tau(z0)) = -chi(z0).  Must agree with van_vleck_family whenever it
    applies; any other measure raises ValueError."""
    if len(inst.mu.points) != 1 or complex(inst.mu.weights[0]) != 1 + 0j:
        raise ValueError("specialization needs a single atom of weight 1")
    z0 = int(inst.mu.points[0])
    tz0 = inst.tau(z0)
    if chars is None:
        chars = fl.enumerate_multiplicative(inst.sg)
    funcs = []
    for chi in chars:
        if abs(chi[z0]) <= tol or abs(chi[tz0] + chi[z0]) >= tol:
            continue
        funcs.append(complex(chi[tz0]) * 0.5 * (chi - fl.compose_tau(chi, inst.tau)))
    sols = tuple(
        fl.Solution(
            values=f,
            residual=fl.residual_van_vleck(f, inst).max_abs,
            provenance="constructed",
        )
        for f in dedup_canonical_loop(funcs, eps=dedup_eps)
    )
    return fl.SolutionReport(equation="van_vleck", solutions=sols)


@dataclass(frozen=True, eq=False)
class CharacterIntegral:
    """One multiplicative function with its two integrals against mu and
    the admissibility predicates of the two integral equations."""

    chi: np.ndarray
    int_mu: complex       # int chi dmu
    int_mu_tau: complex   # int chi o tau dmu
    mu: fl.CentralMeasure

    def van_vleck_admissible(self) -> bool:
        tol = self.mu.tolerance(ADMISSIBLE_TOL, 1)
        return abs(self.int_mu) > tol and abs(self.int_mu_tau + self.int_mu) < tol

    def kannappan_admissible(self) -> bool:
        tol = self.mu.tolerance(ADMISSIBLE_TOL, 1)
        return abs(self.int_mu) > tol and abs(self.int_mu_tau - self.int_mu) < tol


def character_integral_loop(inst: fl.Instance, chars) -> list[CharacterIntegral]:
    """Both integrals of each multiplicative function, one function at a time."""
    mu = inst.mu
    return [
        CharacterIntegral(chi, fl.total_mass_integral(chi, mu),
                          fl.total_mass_integral(fl.compose_tau(chi, inst.tau), mu), mu)
        for chi in chars
    ]


def family_loop(kind: str, inst: fl.Instance, chars=None) -> fl.SolutionReport:
    """family with one candidate member built per multiplicative function,
    each tested by its own admissibility predicate."""
    if chars is None:
        chars = fl.enumerate_multiplicative(inst.sg)
    funcs = []
    for ci in character_integral_loop(inst, chars):
        chi_tau = fl.compose_tau(ci.chi, inst.tau)
        if kind == "van_vleck":
            if not ci.van_vleck_admissible():
                continue
            f = 0.5 * (ci.chi - chi_tau) * ci.int_mu_tau
        elif kind == "kannappan":
            if not ci.kannappan_admissible():
                continue
            f = 0.5 * (ci.chi + chi_tau) * ci.int_mu
        else:
            f = 0.5 * (ci.chi + chi_tau)
        funcs.append(f)
    F = np.array(funcs, dtype=np.complex128).reshape(len(funcs), inst.sg.order)
    degree = SOLUTION_DEGREE[kind]
    F = F[dedup_canonical(F, inst.mu.tolerance(DEDUP_EPS, degree), inst.mu.tolerance(1.0, degree))]
    res, _ = residuals(kind, F, inst)
    sols = tuple(fl.Solution(f, r, "constructed") for f, r in zip(F, res.tolist()))
    return fl.SolutionReport(equation=kind, solutions=sols)


def dedup_canonical_loop(funcs, eps: float, scale: float = 1.0) -> list[np.ndarray]:
    """Canonically sorted, without near-zero functions and near-duplicates
    (max-abs distance <= eps), keeping for each cluster the canonically
    smallest representative."""
    out: list[np.ndarray] = []
    for f in sorted(funcs, key=lambda f: canonical_key(f, scale)):
        if max_abs(f) > eps and all(max_abs_diff(f, kept) > eps for kept in out):
            out.append(f)
    return out


def enumerate_multiplicative_loop(
    sg: fl.FiniteSemigroup, include_zero: bool = False
) -> list[np.ndarray]:
    """enumerate_multiplicative with one is_multiplicative scan per snapped
    root and exact repeats dropped through a dict of their bytes."""
    n = sg.order
    A = np.zeros((n * n, n))
    A[np.arange(n * n), sg.cayley.ravel()] = 2.0
    roots, _, _ = closed_system_roots(A, ROOT_TOL, draws=DRAWS)
    snapped = np.empty_like(roots)
    for x in range(n):
        cands = fl.candidate_values(sg, x)
        nearest = np.abs(roots[:, x, None] - cands[None, :]).argmin(axis=1)
        snapped[:, x] = cands[nearest]
    found: dict[bytes, np.ndarray] = {}
    for chi in snapped:
        if fl.is_multiplicative(sg, chi) and (include_zero or max_abs(chi) > MULT_TOL):
            found.setdefault(chi.tobytes(), chi)
    return sorted(found.values(), key=canonical_key)


def match_solution_sets_loop(a, b, eps: float = MATCH_EPS) -> MatchResult:
    """match_solution_sets with the allowed lists built one pair at a time."""
    left = a.values() if isinstance(a, fl.SolutionReport) else list(a)
    right = b.values() if isinstance(b, fl.SolutionReport) else list(b)
    allowed = [
        [j for j, g in enumerate(right) if max_abs_diff(f, g) <= eps] for f in left
    ]
    owner = [-1] * len(right)

    def augment(i: int, seen: list[bool]) -> bool:
        for j in allowed[i]:
            if not seen[j]:
                seen[j] = True
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    for i in range(len(left)):
        augment(i, [False] * len(right))
    pairs = tuple(sorted((i, j) for j, i in enumerate(owner) if i >= 0))
    matched_left = {i for i, _ in pairs}
    return MatchResult(
        pairs=pairs,
        unmatched_left=tuple(i for i in range(len(left)) if i not in matched_left),
        unmatched_right=tuple(j for j in range(len(right)) if owner[j] < 0),
    )


def _json_default(o):
    """Complex numbers as {"im", "re"} objects, arrays as lists of them."""
    if isinstance(o, np.ndarray):
        return [complex(v) for v in o]
    if isinstance(o, complex):
        return {"im": float(o.imag), "re": float(o.real)}
    raise TypeError(f"{type(o).__name__} is not JSON serializable")


def json_report(obj) -> str:
    """A CLI report as json's own encoder writes it."""
    return json.dumps(obj, indent=2, sort_keys=True, default=_json_default)


def orbit_walk(sg: fl.FiniteSemigroup, x: int) -> fl.Orbit:
    """The orbit of x from its powers, taken until the first repeat."""
    seen: dict[int, int] = {}
    cur, k = x, 1
    while cur not in seen:
        seen[cur] = k
        cur = sg.mul(cur, x)
        k += 1
    i = seen[cur]
    return fl.Orbit(element=x, index=i, period=k - i)


def closed_subspace_svd(A: np.ndarray, M: np.ndarray) -> np.ndarray:
    """The closed subspace N of closed_system_roots from the null space of
    the symmetry forms, found by SVD also when they vanish, and the closure
    loop run until it changes nothing."""
    n = A.shape[1]
    A3 = A.reshape(n, n, n)
    forms = np.zeros((n * n, n + 1), dtype=A.dtype)
    forms[:, 1:] = (A3 - A3.transpose(1, 0, 2)).reshape(n * n, n)
    Q = _null_space(forms)
    while Q.shape[1]:
        outside = M @ Q
        outside -= Q @ (Q.conj().T @ outside)
        keep = _null_space(outside.reshape(-1, Q.shape[1]))
        if keep.shape[1] == Q.shape[1]:
            break
        Q = Q @ keep
    return Q


def verify_instance_loop(
    inst: fl.Instance, cfg: fl.OracleConfig | None = None
) -> fl.VerifyReport:
    """verify_instance with one residual, suite and bijection call per
    solution."""
    chars = fl.enumerate_multiplicative(inst.sg)
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
        found = fl.oracle_solve(kind, inst, cfg)
        return fl.family(kind, inst, chars).solutions + found.solutions

    def suite_entries(kind, suite_fn, sols):
        entries = []
        for i, sol in enumerate(sols):
            suite = suite_fn(sol.values, inst)
            eq_res = fl.residual(kind, sol.values, inst)
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

    roundtrip_back = 0.0
    for i, sol in enumerate(kan):
        try:
            g = kannappan_to_dalembert(sol.values, inst)
        except fl.ZeroDenominator:
            fail("nonzero_mass", 0.0, sol.provenance, i)
            continue
        g_res = fl.residual("dalembert", g, inst)
        try:
            ok_member = dalembert_admissible(g, inst)
        except fl.EquivalenceViolation:
            ok_member = False
        back = max_abs_diff(dalembert_to_kannappan(g, inst), sol.values)
        roundtrip_back = max(roundtrip_back, back)
        if g_res.max_abs > RESIDUAL_TOL or not ok_member or back > mu.tolerance(RESIDUAL_TOL, 1):
            fail("bijection_inverse", max(g_res.max_abs, back), sol.provenance, i, g_res.argmax)

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
        g_res = fl.residual("dalembert", g, inst)
        if g_res.max_abs > RESIDUAL_TOL:
            fail("dalembert_equation", g_res.max_abs, sol.provenance, i, g_res.argmax)
            continue
        if not conds.consistent:
            fail("integral_conditions_equivalence", max(conds.deviations), "dalembert", i)
            continue
        if abs(conds.mass) > mu.tolerance(ADMISSIBLE_TOL, 1) and conds.all_hold:
            f = dalembert_to_kannappan(g, inst)
            f_res = fl.residual("kannappan", f, inst)
            try:
                back = max_abs_diff(kannappan_to_dalembert(f, inst), g)
            except fl.ZeroDenominator:
                fail("nonzero_mass", 0.0, "dalembert", i)
                continue
            roundtrip_fwd = max(roundtrip_fwd, back)
            if f_res.max_abs > mu.tolerance(RESIDUAL_TOL, 2) or back > RESIDUAL_TOL:
                fail("bijection_forward", max(f_res.max_abs, back), "dalembert", i, f_res.argmax)

    return fl.VerifyReport(
        van_vleck_suites=vv_entries,
        kannappan_suites=kan_entries,
        dalembert_conditions=dal_entries,
        roundtrip_max={"backward": roundtrip_back, "forward": roundtrip_fwd},
        failures=failures,
    )
