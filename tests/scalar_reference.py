"""Scalar reference implementations the vectorized code is checked against.

right_integral and double_integral are plain Python loops over the atoms; the
inner sum of double_integral reuses right_integral verbatim, so the
finite-sum Fubini identity holds exactly, not merely within rounding.
pushforward_tau builds the image measure under tau, which is_tau_invariant
compares with mu without building it.
equation_matrix_add_at assembles each equation's linear part term by term
with np.add.at.  van_vleck_family_dirac is the sine family specialized to a unit point mass,
a cross-check of the general construction, and family_loop builds each
family one multiplicative function at a time, with the per-character
admissibility predicates of CharacterIntegral for Van Vleck and the
d'Alembert integral conditions for Kannappan; kannappan_character_loop
builds the cosine family by the character formula instead.  The set-at-a-time steps after
the solvers have their one-member-at-a-time loops here: dedup_canonical_loop
(a sort keyed by canonical_key, one distance per pair),
enumerate_multiplicative_loop (one multiplicativity scan per root),
match_solution_sets_loop (one distance per pair) and json_report (json's
encoder with a default hook for complex values).  orbit_walk follows the
powers of one element; verify_instance_loop
checks one solution at a time through the single-function calls (residual,
here row 0 of residuals on a stack of one, the identity suites and the
bijection maps), and closed_subspace_svd finds the closed subspace of the
solver by SVD even where the symmetry forms vanish.
multiplication_matrices stores the matrices M_y of the eigenvalue method on
v = (1, f), whose lower blocks A_y the solver reads off its table.

The last section holds checks of the paper's claims that no part of the
package runs: the mu-spherical equation, the Kannappan swap condition,
abelianness and the d'Alembert companion of a sine solution.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import permutations

import numpy as np

import feqlab as fl
from feqlab.algebra import _lower_images, _null_space, closed_system_roots
from feqlab.characters import CANON_DECIMALS, DRAWS, MULT_TOL, ROOT_TOL, dedup_canonical
from feqlab.equations import SOLUTION_DEGREE, _worst_rows, residuals
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
from feqlab.measures import right_integral_table
from feqlab.oracle import MatchResult

ABELIAN_TOL = 1e-12


def max_abs(f) -> float:
    return float(np.max(np.abs(np.asarray(f))))


def max_abs_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


@dataclass(frozen=True)
class Residual:
    """Worst absolute deviation and the argument tuple attaining it."""

    max_abs: float
    argmax: tuple[int, ...]


def residual(kind: str, f, inst: fl.Instance) -> Residual:
    """fl.residuals of the single function f: row 0 of a stack of one."""
    worst, at = residuals(kind, np.asarray(f)[None], inst)
    return Residual(float(worst[0]), tuple(at[0].tolist()))


def canonical_key(f, scale: float = 1.0) -> tuple[tuple[float, float], ...]:
    """Lexicographic sort key: (Re, Im) of f / scale per index, rounded at
    1e-8; the + 0.0 folds -0.0 into 0.0."""
    f = np.asarray(f, dtype=np.complex128)
    re, im = (np.round(part / scale, CANON_DECIMALS) + 0.0 for part in (f.real, f.imag))
    return tuple(zip(re.tolist(), im.tolist()))


def candidate_values(sg: fl.FiniteSemigroup, x: int) -> np.ndarray:
    """{0} plus the p-th roots of unity, p the orbit period of x."""
    _, period = fl.orbit_table(sg)
    p = int(period[x])
    return np.concatenate(([0j], np.exp(2j * np.pi * np.arange(p) / p)))


def is_multiplicative(sg: fl.FiniteSemigroup, chi) -> bool:
    """Exact scan of chi(x*y) = chi(x) chi(y) over all pairs."""
    v = np.asarray(chi)
    return bool(np.max(np.abs(v[sg.cayley] - np.outer(v, v))) <= MULT_TOL)


def right_integral(sg: fl.FiniteSemigroup, f, mu: fl.CentralMeasure, x: int) -> complex:
    """Integral of t -> f(x*t), i.e. sum_i w_i f(x * z_i)."""
    row = sg.cayley[x]
    return sum(
        (complex(w) * complex(f[row[z]]) for z, w in zip(mu.points, mu.weights)), 0j
    )


def pushforward_tau(
    sg: fl.FiniteSemigroup, mu: fl.CentralMeasure, tau: fl.Involution
) -> fl.CentralMeasure:
    """Image measure under tau: atoms (tau(z_i), w_i), remerged canonically."""
    return fl.central_measure(sg, [(tau(int(z)), w) for z, w in mu.atoms()])


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
        funcs.append(complex(chi[tz0]) * 0.5 * (chi - chi[inst.tau.perm]))
    kept = dedup_canonical_loop(funcs, eps=dedup_eps)
    F = np.array(kept, dtype=np.complex128).reshape(len(kept), inst.sg.order)
    res = np.array([residual("van_vleck", f, inst).max_abs for f in F])
    return fl.SolutionReport("van_vleck", F, res, "constructed")


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
        CharacterIntegral(chi, fl.total_mass_integral(chi, mu).item(),
                          fl.total_mass_integral(chi[inst.tau.perm], mu).item(), mu)
        for chi in chars
    ]


def family_loop(kind: str, inst: fl.Instance, chars=None) -> fl.SolutionReport:
    """family with one candidate member built per multiplicative function:
    a sine member tested by its own admissibility predicate, the even part g
    for d'Alembert, and for Kannappan the image (int g dmu) g of each g that
    dalembert_integral_conditions admits."""
    if chars is None:
        chars = fl.enumerate_multiplicative(inst.sg)
    funcs = []
    for ci in character_integral_loop(inst, chars):
        chi_tau = ci.chi[inst.tau.perm]
        if kind == "van_vleck":
            if not ci.van_vleck_admissible():
                continue
            f = 0.5 * (ci.chi - chi_tau) * ci.int_mu_tau
        elif kind == "kannappan":
            g = 0.5 * (ci.chi + chi_tau)
            if not dalembert_integral_conditions(g, inst).admissible[0]:
                continue
            f = dalembert_to_kannappan(g, inst)
        else:
            f = 0.5 * (ci.chi + chi_tau)
        funcs.append(f)
    return _canonical_family(kind, funcs, inst)


def kannappan_character_loop(inst: fl.Instance, chars=None) -> fl.SolutionReport:
    """The cosine family by the character formula, independent of the
    bijection: f = [(chi + chi o tau)/2] * int chi dmu for every chi with
    CharacterIntegral.kannappan_admissible."""
    if chars is None:
        chars = fl.enumerate_multiplicative(inst.sg)
    funcs = [0.5 * (ci.chi + ci.chi[inst.tau.perm]) * ci.int_mu
             for ci in character_integral_loop(inst, chars) if ci.kannappan_admissible()]
    return _canonical_family("kannappan", funcs, inst)


def _canonical_family(kind: str, funcs, inst: fl.Instance) -> fl.SolutionReport:
    """The candidate members funcs deduplicated in canonical order, with
    their residuals."""
    F = np.array(funcs, dtype=np.complex128).reshape(len(funcs), inst.sg.order)
    degree = SOLUTION_DEGREE[kind]
    F = F[dedup_canonical(F, inst.mu.tolerance(DEDUP_EPS, degree), inst.mu.tolerance(1.0, degree))]
    res, _ = residuals(kind, F, inst)
    return fl.SolutionReport(kind, F, res, "constructed")


def dedup_canonical_loop(funcs, eps: float, scale: float = 1.0) -> list[np.ndarray]:
    """Canonically sorted, without near-zero functions and near-duplicates
    (max-abs distance <= eps), keeping for each cluster the canonically
    smallest representative."""
    out: list[np.ndarray] = []
    for f in sorted(funcs, key=lambda f: canonical_key(f, scale)):
        if max_abs(f) > eps and all(max_abs_diff(f, kept) > eps for kept in out):
            out.append(f)
    return out


def enumerate_multiplicative_loop(sg: fl.FiniteSemigroup) -> list[np.ndarray]:
    """enumerate_multiplicative with one is_multiplicative scan per snapped
    root and exact repeats dropped through a dict of their bytes."""
    n = sg.order
    L = np.zeros((n, n, n))
    L[sg.cayley, np.arange(n)[:, None], np.arange(n)] = 2.0
    roots, _, _ = closed_system_roots(L, ROOT_TOL, draws=DRAWS)
    snapped = np.empty_like(roots)
    for x in range(n):
        cands = candidate_values(sg, x)
        nearest = np.abs(roots[:, x, None] - cands[None, :]).argmin(axis=1)
        snapped[:, x] = cands[nearest]
    found: dict[bytes, np.ndarray] = {}
    for chi in snapped:
        if is_multiplicative(sg, chi) and max_abs(chi) > MULT_TOL:
            found.setdefault(chi.tobytes(), chi)
    return sorted(found.values(), key=canonical_key)


def match_solution_sets_loop(a, b, eps: float) -> MatchResult:
    """match_solution_sets with the allowed lists built one pair at a time."""
    left, right = list(a), list(b)
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


def orbit_walk(sg: fl.FiniteSemigroup, x: int) -> tuple[int, int]:
    """The (index, period) of x from its powers, taken until the first
    repeat: the least i and p with x^(i+p) = x^i."""
    seen: dict[int, int] = {}
    cur, k = x, 1
    while cur not in seen:
        seen[cur] = k
        cur = sg.mul(cur, x)
        k += 1
    i = seen[cur]
    return i, k - i


def multiplication_matrices(L: np.ndarray) -> np.ndarray:
    """The matrices M_y of the eigenvalue method on v = (1, f), stacked as
    shape (n, n+1, n+1): row 0 of M_y is e_{1+y}, row 1+x is
    (0, L[:, x, y] / 2).  closed_system_roots acts with the lower blocks
    A_y = M_y[1:, 1:] alone."""
    n = len(L)
    M = np.zeros((n, n + 1, n + 1), dtype=np.complex128)
    M[:, 1:, 1:] = L.transpose(2, 1, 0) / 2.0
    M[np.arange(n), 0, 1 + np.arange(n)] = 1.0
    return M


def closed_subspace_svd(L: np.ndarray) -> np.ndarray:
    """The closed subspace W of closed_system_roots, the null space of the
    symmetry forms found by SVD also when they vanish, with the closure loop
    run until it changes nothing.  The loop takes its products A_y W from
    the solver's own _lower_images, whose bits the stored M_y do not give."""
    n = len(L)
    W = _null_space((L - L.transpose(0, 2, 1)).reshape(n, n * n).T)
    while W.shape[1]:
        outside = _lower_images(L, W)
        outside -= W @ (W.conj().T @ outside)
        keep = _null_space(outside.reshape(-1, W.shape[1]))
        if keep.shape[1] == W.shape[1]:
            break
        W = W @ keep
    return W


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
            deviations = dict(zip(suite.names, suite.deviations[0].tolist()))
            argmax = dict(zip(suite.names, (a[0].tolist() for a in suite.argmax)))
            eq_res = residual(kind, sol.values, inst)
            entries.append(
                {
                    "equation_residual": eq_res.max_abs,
                    "identities": deviations,
                    "mass": suite.mass[0].item(),
                    "provenance": sol.provenance,
                    "solution_index": i,
                }
            )
            if eq_res.max_abs > mu.tolerance(RESIDUAL_TOL, 2 * SOLUTION_DEGREE[kind]):
                fail(f"{kind}_equation", eq_res.max_abs, sol.provenance, i, eq_res.argmax)
                continue
            for name in suite.failures():
                dev, at = deviations.get(name, 0.0), argmax.get(name, ())
                fail(name, dev, sol.provenance, i, at)
        return entries

    vv_entries = suite_entries("van_vleck", van_vleck_identity_suite, solutions("van_vleck"))
    kan = solutions("kannappan")
    start = len(failures)
    kan_entries = suite_entries("kannappan", kannappan_identity_suite, kan)
    told = {(f["provenance"], f["solution_index"]) for f in failures[start:] if f["identity"] == "nonzero_mass"}

    roundtrip_back = 0.0
    for i, sol in enumerate(kan):
        try:
            g = kannappan_to_dalembert(sol.values, inst)
        except fl.ZeroDenominator:
            if (sol.provenance, i) not in told:  # else its suite reported it
                fail("nonzero_mass", 0.0, sol.provenance, i)
            continue
        g_res = residual("dalembert", g, inst)
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
        tau_shift, proportionality, double_mass = conds.holds[0].tolist()
        consistent, mass = conds.consistent[0].item(), conds.mass[0].item()
        dal_entries.append(
            {
                "conditions": {
                    "double_mass": double_mass,
                    "proportionality": proportionality,
                    "tau_shift": tau_shift,
                },
                "consistent": consistent,
                "mass": mass,
                "solution_index": i,
            }
        )
        g_res = residual("dalembert", g, inst)
        if g_res.max_abs > RESIDUAL_TOL:
            fail("dalembert_equation", g_res.max_abs, sol.provenance, i, g_res.argmax)
            continue
        if not consistent:
            worst = max(conds.deviations[0].tolist())
            fail("integral_conditions_equivalence", worst, sol.provenance, i)
            continue
        if conds.admissible[0]:
            f = dalembert_to_kannappan(g, inst)
            f_res = residual("kannappan", f, inst)
            try:
                back = max_abs_diff(kannappan_to_dalembert(f, inst), g)
            except fl.ZeroDenominator:
                fail("nonzero_mass", 0.0, sol.provenance, i)
                continue
            roundtrip_fwd = max(roundtrip_fwd, back)
            if f_res.max_abs > mu.tolerance(RESIDUAL_TOL, 2) or back > RESIDUAL_TOL:
                fail("bijection_forward", max(f_res.max_abs, back), sol.provenance, i, f_res.argmax)

    return fl.VerifyReport(
        van_vleck_suites=vv_entries,
        kannappan_suites=kan_entries,
        dalembert_conditions=dal_entries,
        roundtrip_max={"backward": roundtrip_back, "forward": roundtrip_fwd},
        failures=failures,
    )


# ---------------------------------------------------------------------------
# checks of the paper's claims that the package does not run


def _worst(dev: np.ndarray) -> Residual:
    worst, at = _worst_rows(dev[None])
    return Residual(float(worst[0]), tuple(at[0].tolist()))


def residual_mu_spherical(psi, inst: fl.Instance) -> Residual:
    """Spherical-function equation: int psi(x t y) dmu(t) = psi(x) psi(y)."""
    pa = np.asarray(psi)
    t = inst.sg.cayley
    mid = t[:, inst.mu.points]            # (x, i) -> x * z_i
    vals = pa[t[mid]]                     # (x, i, y) -> psi(x * z_i * y)
    lhs = np.einsum("i,xiy->xy", inst.mu.weights, vals)
    return _worst(lhs - np.outer(pa, pa))


def kannappan_condition_residual(f, inst: fl.Instance) -> Residual:
    """Deviation of the double-integral swap condition over all (x, y, z):

        int int f(x t y s z) dmu(t) dmu(s) = int int f(y t x s z) dmu(t) dmu(s)
    """
    fa = np.asarray(f)
    t = inst.sg.cayley
    n = inst.sg.order
    dev = np.zeros((n, n, n), dtype=np.complex128)
    for zi, wi in zip(inst.mu.points, inst.mu.weights):
        for zj, wj in zip(inst.mu.points, inst.mu.weights):
            a = t[t[:, zi]]        # (x, y) -> x * z_i * y
            b = t[a, zj]           # (x, y) -> x * z_i * y * z_j
            c = fa[t[b]]           # (x, y, z) -> f(x * z_i * y * z_j * z)
            dev += (wi * wj) * (c - c.transpose(1, 0, 2))
    return _worst(dev)


def is_abelian_function(f, sg: fl.FiniteSemigroup, depth: int = 3) -> bool:
    """Invariance of f(x_1 ... x_d) under permuting the factors, d <= depth.

    Depth is capped at 3: that already separates every case in the test
    corpus, while the full definition quantifies over all lengths.
    """
    if depth not in (2, 3):
        raise ValueError("depth must be 2 or 3")
    fa = np.asarray(f)
    t = sg.cayley
    pairs = fa[t]
    if np.max(np.abs(pairs - pairs.T)) > ABELIAN_TOL:
        return False
    if depth == 3:
        triples = fa[t[t]]  # (x, y, z) -> f(x*y*z)
        for axes in permutations((0, 1, 2)):
            if np.max(np.abs(triples.transpose(axes) - triples)) > ABELIAN_TOL:
                return False
    return True


@dataclass(frozen=True)
class TransformReport:
    dalembert_residual: float
    abelian: bool
    mean: complex         # int g dmu, zero for transforms of sine solutions
    double_mass: complex  # int int g(t s) dmu dmu, nonzero


def associated_dalembert(f, inst: fl.Instance) -> tuple[np.ndarray, TransformReport]:
    """The d'Alembert solution g(x) = int f(x t) dmu / int f dmu attached to a
    nonzero sine-type solution f, with its side conditions evaluated."""
    g = kannappan_to_dalembert(f, inst)
    report = TransformReport(
        dalembert_residual=residual("dalembert", g, inst).max_abs,
        abelian=is_abelian_function(g, inst.sg),
        mean=fl.total_mass_integral(g, inst.mu).item(),
        double_mass=fl.total_mass_integral(right_integral_table(inst.sg, g, inst.mu), inst.mu).item(),
    )
    return g, report
