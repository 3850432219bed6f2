"""Closed-form solution families, the mass-scaling bijection between
d'Alembert and Kannappan solutions, and the identity suites that verify them.

The construction goes through the multiplicative functions chi:

* d'Alembert (abelian part): the even parts g = (chi + chi o tau)/2;
* cosine family (Kannappan): f = (int g dmu) g for the g integral_conditions
  admits, the paper's bijection, which maps the admissible d'Alembert
  solutions onto the nonzero Kannappan solutions;
* sine family (Van Vleck):   f = [(chi - chi o tau)/2] * int chi(tau(t)) dmu,
  admissible when int chi dmu != 0 and int chi o tau dmu = -int chi dmu.

Non-abelian d'Alembert solutions have no constructive route here; they are
reachable only through the numeric oracle.

Every integral against mu is total_mass_integral or right_integral_table
of measures; with r the table of f, int int f(x t s) is the table of r and
int int f(t s) the mass of r.  Tilted integrals compose these with tau, as
x tau(z) = tau(tau(x) z) for central z: int h(x tau(t)) is the table of
h o tau read at tau(x), and int int f(tau(t) s) the mass of r o tau.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characters import dedup_canonical, enumerate_multiplicative
from .equations import SOLUTION_DEGREE, Instance, _worst_rows, residuals
from .errors import EquivalenceViolation, ZeroDenominator
from .measures import CentralMeasure, cmul, right_integral_table, total_mass_integral
from .semigroups import FiniteSemigroup, Involution, validate_involution

# Tolerances at ||mu|| = 1; a quantity of degree d in mu is compared with
# mu.tolerance(TOL, d); _vanishes alone decides whether int f dmu is zero
ADMISSIBLE_TOL = 1e-9   # admissibility and membership predicates
RESIDUAL_TOL = 1e-10    # residual assertions on constructed members
DEDUP_EPS = 1e-8        # max-abs distance below which two functions coincide


def _vanishes(mass, F, mu: CentralMeasure) -> np.ndarray:
    """Where int f dmu (mass) counts as zero for the rows f of F: |int f dmu|
    <= ADMISSIBLE_TOL * ||mu|| * max|f|, of degree 0 in mu and in f, so the
    size of neither decides; a zero row always vanishes."""
    return np.abs(mass) <= mu.tolerance(ADMISSIBLE_TOL, 1) * np.abs(F).max(axis=-1)


@dataclass(frozen=True, eq=False)
class CharacterIntegrals:
    """The multiplicative functions as one (m, n) stack chars, with their two
    integrals against mu, int chi dmu and int chi o tau dmu, each of shape
    (m,), from which the sine family is built.  The cosine family needs
    neither: its members are the images of the admissible even parts."""

    chars: np.ndarray
    int_mu: np.ndarray       # int chi dmu
    int_mu_tau: np.ndarray   # int chi o tau dmu
    mu: CentralMeasure

    def admissible(self) -> np.ndarray:
        """(m,) mask of the characters that build a sine-type member: int chi
        dmu does not vanish (_vanishes) and int chi o tau dmu = -int chi dmu
        within mu.tolerance(ADMISSIBLE_TOL, 1)."""
        gap = self.int_mu_tau + self.int_mu
        nonzero = ~_vanishes(self.int_mu, self.chars, self.mu)
        return nonzero & (np.abs(gap) < self.mu.tolerance(ADMISSIBLE_TOL, 1))


@dataclass(frozen=True, eq=False)
class Solution:
    values: np.ndarray
    residual: float
    provenance: str  # "constructed" or "oracle"


@dataclass(frozen=True, eq=False)
class SolutionReport:
    """Deduplicated, canonically ordered solution set of one equation: the
    read-only (m, n) stack values, the (m,) float array residuals, and where
    every member comes from ("constructed" or "oracle")."""

    equation: str
    values: np.ndarray
    residuals: np.ndarray
    provenance: str

    @property
    def solutions(self) -> tuple[Solution, ...]:
        """The members one at a time: row i of values with residual i."""
        return tuple(Solution(f, r, self.provenance)
                     for f, r in zip(self.values, self.residuals.tolist()))

    def __len__(self) -> int:
        return len(self.values)


def _stack(inst: Instance, chars) -> np.ndarray:
    """The multiplicative functions (all of them if chars is None) as one
    (m, n) stack."""
    if chars is None:
        chars = enumerate_multiplicative(inst.sg)
    return np.array(chars, dtype=np.complex128).reshape(len(chars), inst.sg.order)


def character_integrals(inst: Instance, chars=None) -> CharacterIntegrals:
    """Both integrals of every multiplicative function, as one stack."""
    X = _stack(inst, chars)
    int_mu = total_mass_integral(X, inst.mu)
    return CharacterIntegrals(X, int_mu, total_mass_integral(X[:, inst.tau.perm], inst.mu), inst.mu)


def family_stack(kind: str, inst: Instance, chars=None) -> np.ndarray:
    """The members of family(kind, ...) as one read-only (m, n) stack in
    canonical order, one expression over the stack chars of the characters
    (all of them if None); for kannappan the image under dalembert_to_kannappan
    of the admissible even parts, the d'Alembert rows before deduplication
    (module docstring)."""
    if kind not in SOLUTION_DEGREE:
        raise ValueError(f"unknown equation kind {kind!r}")
    perm = inst.tau.perm
    if kind == "van_vleck":
        integrals = character_integrals(inst, chars)
        keep = integrals.admissible()
        X = integrals.chars
        F = 0.5 * (X - X[:, perm])[keep] * integrals.int_mu_tau[keep, None]
    else:
        X = _stack(inst, chars)
        F = 0.5 * (X + X[:, perm])
        if kind == "kannappan":
            F = dalembert_to_kannappan(F[integral_conditions(F, inst).admissible], inst)
    scale = inst.mu.tolerance(1.0, SOLUTION_DEGREE[kind])
    eps = inst.mu.tolerance(DEDUP_EPS, SOLUTION_DEGREE[kind])
    F = F[dedup_canonical(F, eps, scale)]
    F.setflags(write=False)
    return F


def family(kind: str, inst: Instance, chars=None) -> SolutionReport:
    """Constructed solutions of one equation: the stack family_stack returns
    with the residual of every row.  van_vleck: all nonzero solutions (chi
    and chi o tau give the same member); dalembert: the abelian solutions
    (mu is ignored, so no integral is computed); kannappan: their images
    (int g dmu) g where g is admissible, all nonzero abelian solutions."""
    F = family_stack(kind, inst, chars)
    res, _ = residuals(kind, F, inst)
    return SolutionReport(kind, F, res, "constructed")


def van_vleck_family(inst: Instance, chars=None) -> SolutionReport:
    """All nonzero solutions of the sine-type equation."""
    return family("van_vleck", inst, chars)


def kannappan_abelian_family(inst: Instance, chars=None) -> SolutionReport:
    """All nonzero abelian solutions of the cosine-type equation."""
    return family("kannappan", inst, chars)


def dalembert_abelian_family(sg: FiniteSemigroup, tau: Involution, chars=None) -> np.ndarray:
    """Even parts g = (chi + chi o tau)/2 of the multiplicative functions, as
    the bare stack, once tau is validated.  The equation has no measure; they
    are built on the zero one."""
    validate_involution(sg, tau.perm)
    no_mu = CentralMeasure(points=np.zeros(0, np.int64), weights=np.zeros(0, complex))
    inst = Instance.of_validated(sg, tau, no_mu)
    return family_stack("dalembert", inst, chars)


# ---------------------------------------------------------------------------
# the mass-scaling bijection between admissible d'Alembert solutions and
# nonzero Kannappan solutions, both maps batched over the leading axes

def dalembert_to_kannappan(g, inst: Instance) -> np.ndarray:
    """Forward map: g -> (int g dmu) * g."""
    g = np.asarray(g)
    return cmul(total_mass_integral(g, inst.mu)[..., None], g)


def kannappan_to_dalembert(f, inst: Instance) -> np.ndarray:
    """Inverse map: f -> (x -> int f(x t) dmu / int f dmu).

    A vanishing denominator (_vanishes) means f was not a nonzero Kannappan
    solution in the first place, so it is reported as an error rather than
    patched over.
    """
    f = np.asarray(f)
    mass = total_mass_integral(f, inst.mu)
    small = _vanishes(mass, f, inst.mu)
    if small.any():
        raise ZeroDenominator(f"int f dmu = {complex(mass[small].ravel()[0])}, cannot invert")
    return right_integral_table(inst.sg, f, inst.mu) / mass[..., None]


@dataclass(frozen=True, eq=False)
class DalembertConditions:
    """The three equivalent integral conditions an admissible d'Alembert
    solution g satisfies, for every row g of an (m, n) stack:

    tau_shift:       int g(x t) dmu = int g(x tau(t)) dmu  for all x
    proportionality: int g(x t) dmu = g(x) int g dmu       for all x
    double_mass:     int int g(t s) dmu dmu = (int g dmu)^2

    holds and deviations have shape (m, 3), one column per condition in
    that order; mass is int g dmu, shape (m,); the (m,) mask admissible marks
    a mass that does not vanish (_vanishes) and all three conditions."""

    holds: np.ndarray
    deviations: np.ndarray
    mass: np.ndarray
    admissible: np.ndarray

    @property
    def consistent(self) -> np.ndarray:
        """(m,) mask: the three conditions agree."""
        return self.holds.all(axis=1) == self.holds.any(axis=1)

    @property
    def all_hold(self) -> np.ndarray:
        return self.holds.all(axis=1)


def integral_conditions(G, inst: Instance) -> DalembertConditions:
    """The three conditions on every row g of the (m, n) stack G, bit for bit
    as alone, each deviation compared with mu.tolerance(ADMISSIBLE_TOL, d) for
    its degree d in mu (1 for the shift tables, 2 for the double mass)."""
    G = np.asarray(G)
    sg, perm, mu = inst.sg, inst.tau.perm, inst.mu
    tol1 = mu.tolerance(ADMISSIBLE_TOL, 1)
    r = right_integral_table(sg, G, mu)
    mass = total_mass_integral(G, mu)
    dev = np.array([
        np.abs(r - right_integral_table(sg, G[:, perm], mu)[:, perm]).max(axis=1),
        np.abs(r - cmul(G, mass[:, None])).max(axis=1),
        np.abs(total_mass_integral(r, mu) - cmul(mass, mass)),
    ]).T
    holds = dev <= [tol1, tol1, mu.tolerance(ADMISSIBLE_TOL, 2)]
    return DalembertConditions(holds, dev, mass, ~_vanishes(mass, G, mu) & holds.all(axis=1))


def dalembert_integral_conditions(g, inst: Instance) -> DalembertConditions:
    """integral_conditions of the single function g, a stack of one."""
    return integral_conditions(np.asarray(g)[None], inst)


def dalembert_admissible(g, inst: Instance) -> bool:
    """Membership test for the admissible pool the bijection starts from:
    nonvanishing measure integral plus the three integral conditions.

    Raises EquivalenceViolation when the three conditions disagree, which for
    a genuine d'Alembert solution cannot happen.
    """
    conds = dalembert_integral_conditions(g, inst)
    if not conds.consistent[0]:
        raise EquivalenceViolation(*conds.holds[0].tolist())
    return bool(conds.admissible[0])


# ---------------------------------------------------------------------------
# identity suites

# degree in mu of the terms each identity compares (f itself has degree 1):
# the identity is checked against mu.tolerance(RESIDUAL_TOL, degree)
MU_DEGREE = {
    "odd_part": 1,
    "even_part": 1,
    "shift_symmetry": 2,
    "double_mass_plain": 3,
    "double_mass_tau": 3,
    "sandwich_tau": 3,
    "sandwich_plain": 3,
}


@dataclass(frozen=True, eq=False)
class SuiteReport:
    """The identity suite of every row of an (m, n) stack: the worst
    deviation of each identity named in names, shape (m, k); where each
    identity attains it, one (m, d) array per identity (d = 0 for a double
    mass); the measure integral of every row, shape (m,); and the failed
    checks, shape (m, k + 1), whose last column is nonzero_mass."""

    names: tuple[str, ...]
    deviations: np.ndarray
    argmax: tuple[np.ndarray, ...]
    mass: np.ndarray
    failed: np.ndarray

    def failures(self, i: int = 0) -> list[str]:
        """The names of the checks row i fails."""
        return [name for name, bad in zip(self.names + ("nonzero_mass",), self.failed[i]) if bad]


def _failed(names, deviations, mass, F, required, mu: CentralMeasure) -> np.ndarray:
    """SuiteReport.failed: identity name off by more than
    mu.tolerance(RESIDUAL_TOL, MU_DEGREE[name]), and last a mass that
    vanishes (_vanishes) for its row of F where required (a mask or True)."""
    tol = [mu.tolerance(RESIDUAL_TOL, MU_DEGREE[name]) for name in names]
    small = required & _vanishes(mass, F, mu)
    return np.concatenate([deviations > tol, small[:, None]], axis=1)


def identity_suites(kind: str, F, inst: Instance) -> SuiteReport:
    """The identity suites of the rows f of the (m, n) stack F as one table,
    row i bit for bit as f alone, for kind van_vleck or kannappan; each
    identity's tolerance is taken once for the whole stack.

    van_vleck, every nonzero sine-type solution:
    odd_part:          f o tau = -f
    double_mass_plain: int int f(t s) dmu dmu = 0
    double_mass_tau:   int int f(tau(t) s) dmu dmu = 0
    sandwich_tau:      int int f(x tau(t) s) = +f(x) int f dmu  for all x
    sandwich_plain:    int int f(x t s)      = -f(x) int f dmu  for all x
    shift_symmetry:    int f(tau(x) t) dmu = int f(x t) dmu     for all x
    plus int f dmu != 0.

    kannappan, every cosine-type solution:
    even_part:      f o tau = f
    sandwich_tau:   int int f(x tau(t) s) = f(x) int f dmu  for all x
    sandwich_plain: int int f(x t s)      = f(x) int f dmu  for all x
    plus int f dmu != 0 exactly when f != 0.
    """
    F = np.asarray(F)
    sg, perm, mu = inst.sg, inst.tau.perm, inst.mu
    mass = total_mass_integral(F, mu)
    r = right_integral_table(sg, F, mu)
    r_tau = r[:, perm]
    f_mass = cmul(F, mass[:, None])
    sandwich_tau = right_integral_table(sg, r_tau, mu)[:, perm] - f_mass
    sandwich_plain = right_integral_table(sg, r, mu)
    if kind == "van_vleck":
        checks = {
            "odd_part": F + F[:, perm],
            "double_mass_plain": total_mass_integral(r, mu),
            "double_mass_tau": total_mass_integral(r_tau, mu),
            "sandwich_tau": sandwich_tau,
            "sandwich_plain": sandwich_plain + f_mass,
            "shift_symmetry": r_tau - r,
        }
        required = True
    elif kind == "kannappan":
        checks = {
            "even_part": F - F[:, perm],
            "sandwich_tau": sandwich_tau,
            "sandwich_plain": sandwich_plain - f_mass,
        }
        required = np.abs(F).max(axis=1) > mu.tolerance(DEDUP_EPS, 1)
    else:
        raise ValueError(f"no identity suite for kind {kind!r}")
    names = tuple(checks)
    worst, argmax = zip(*map(_worst_rows, checks.values()))
    deviations = np.array(worst).T
    return SuiteReport(names, deviations, argmax, mass, _failed(names, deviations, mass, F, required, mu))


def van_vleck_identity_suite(f, inst: Instance) -> SuiteReport:
    """identity_suites of the single sine-type solution f, a stack of one."""
    return identity_suites("van_vleck", np.asarray(f)[None], inst)


def kannappan_identity_suite(f, inst: Instance) -> SuiteReport:
    """identity_suites of the single cosine-type solution f, a stack of one."""
    return identity_suites("kannappan", np.asarray(f)[None], inst)

