"""Closed-form solution families, the mass-scaling bijection between
d'Alembert and Kannappan solutions, and the identity suites that verify them.

The construction routes all go through multiplicative functions chi:

* sine family (Van Vleck):   f = [(chi - chi o tau)/2] * int chi(tau(t)) dmu,
  admissible when int chi dmu != 0 and int chi o tau dmu = -int chi dmu;
* cosine family (Kannappan): f = [(chi + chi o tau)/2] * int chi dmu,
  admissible when int chi dmu != 0 and int chi o tau dmu = +int chi dmu;
* d'Alembert (abelian part): g = (chi + chi o tau)/2.

Non-abelian d'Alembert solutions have no constructive route here; they are
reachable only through the numeric oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .characters import dedup_canonical, enumerate_multiplicative
from .equations import SOLUTION_DEGREE, Instance, _worst_rows, residuals
from .errors import EquivalenceViolation, ZeroDenominator
from .measures import CentralMeasure, atom_sum, cmul, right_integral_table, total_mass_integral
from .semigroups import FiniteSemigroup, Involution, validate_involution

# Tolerances at ||mu|| = 1; a quantity of degree d in mu is compared with
# mu.tolerance(TOL, d)
ADMISSIBLE_TOL = 1e-9   # admissibility and membership predicates
RESIDUAL_TOL = 1e-10    # residual assertions on constructed members
DEDUP_EPS = 1e-8        # max-abs distance below which two functions coincide


@dataclass(frozen=True, eq=False)
class CharacterIntegrals:
    """The multiplicative functions as one (m, n) stack chars, with their two
    integrals against mu, int chi dmu and int chi o tau dmu, each of shape
    (m,).  Both are of degree 1 in mu, so admissibility compares them with
    mu.tolerance(ADMISSIBLE_TOL, 1)."""

    chars: np.ndarray
    int_mu: np.ndarray       # int chi dmu
    int_mu_tau: np.ndarray   # int chi o tau dmu
    mu: CentralMeasure

    def admissible(self, kind: str) -> np.ndarray:
        """(m,) mask of the characters that build a member of kind: int chi
        dmu nonzero and int chi o tau dmu = -int chi dmu (van_vleck) or
        +int chi dmu (kannappan); every character for dalembert."""
        if kind == "dalembert":
            return np.ones(len(self.chars), dtype=bool)
        if kind == "van_vleck":
            gap = self.int_mu_tau + self.int_mu
        elif kind == "kannappan":
            gap = self.int_mu_tau - self.int_mu
        else:
            raise ValueError(f"unknown equation kind {kind!r}")
        tol = self.mu.tolerance(ADMISSIBLE_TOL, 1)
        return (np.abs(self.int_mu) > tol) & (np.abs(gap) < tol)


@dataclass(frozen=True, eq=False)
class Solution:
    values: np.ndarray
    residual: float
    provenance: str  # "constructed" or "oracle"


@dataclass(frozen=True, eq=False)
class SolutionReport:
    """Deduplicated, canonically ordered solution set of one equation."""

    equation: str
    solutions: tuple[Solution, ...]

    def values(self) -> list[np.ndarray]:
        return [s.values for s in self.solutions]

    def __len__(self) -> int:
        return len(self.solutions)


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


def family(kind: str, inst: Instance, chars=None, integrals=None) -> SolutionReport:
    """Constructed solutions of one equation: one expression over the stack
    of the characters that integrals.admissible(kind) keeps (see the module
    docstring).  van_vleck: all nonzero solutions (chi and chi o tau give
    the same member); kannappan: all nonzero abelian solutions; dalembert:
    the abelian solutions (mu is ignored, so no integral is computed).
    integrals is character_integrals(inst, chars), if the caller has it."""
    perm = inst.tau.perm
    if kind == "dalembert":
        X = _stack(inst, chars) if integrals is None else integrals.chars
        F = 0.5 * (X + X[:, perm])
    else:
        if integrals is None:
            integrals = character_integrals(inst, chars)
        keep = integrals.admissible(kind)  # ValueError for an unknown kind
        X = integrals.chars
        if kind == "van_vleck":
            F = 0.5 * (X - X[:, perm])[keep] * integrals.int_mu_tau[keep, None]
        else:
            F = 0.5 * (X + X[:, perm])[keep] * integrals.int_mu[keep, None]
    scale = inst.mu.tolerance(1.0, SOLUTION_DEGREE[kind])
    eps = inst.mu.tolerance(DEDUP_EPS, SOLUTION_DEGREE[kind])
    F = F[dedup_canonical(F, eps, scale)]
    res, _ = residuals(kind, F, inst)
    sols = tuple(Solution(f, r, "constructed") for f, r in zip(F, res.tolist()))
    return SolutionReport(equation=kind, solutions=sols)


def van_vleck_family(inst: Instance, chars=None) -> SolutionReport:
    """All nonzero solutions of the sine-type equation."""
    return family("van_vleck", inst, chars)


def kannappan_abelian_family(inst: Instance, chars=None) -> SolutionReport:
    """All nonzero abelian solutions of the cosine-type equation."""
    return family("kannappan", inst, chars)


def dalembert_abelian_family(sg: FiniteSemigroup, tau: Involution, chars=None) -> list[np.ndarray]:
    """Even parts g = (chi + chi o tau)/2 of the multiplicative functions, as
    a bare list, once tau is validated.  The equation has no measure; they
    are built on the zero one."""
    validate_involution(sg, tau.perm)
    no_mu = CentralMeasure(points=np.zeros(0, np.int64), weights=np.zeros(0, complex))
    inst = Instance.of_validated(sg, tau, no_mu)
    return family("dalembert", inst, chars).values()


# ---------------------------------------------------------------------------
# double integrals as gathers over the right-integral table
# r(u) = int f(u s) dmu(s):
#   int int f(x lead(t) s) dmu(t) dmu(s) = sum_i w_i r(x lead(z_i)),
# with lead the identity or tau; the double masses drop the x.

def _leads(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """The atom points z_i and their images tau(z_i)."""
    return inst.mu.points, inst.tau.perm[inst.mu.points]


def _shifted_sums(r: np.ndarray, inst: Instance, lead: np.ndarray) -> np.ndarray:
    """sum_i w_i r(x * lead_i) over all x."""
    return atom_sum(r[..., inst.sg.cayley[:, lead]], inst.mu)


def _double_mass(r: np.ndarray, inst: Instance, lead: np.ndarray) -> np.ndarray:
    """sum_i w_i r(lead_i)."""
    return atom_sum(r[..., lead], inst.mu)


# ---------------------------------------------------------------------------
# the mass-scaling bijection between admissible d'Alembert solutions and
# nonzero Kannappan solutions, both maps batched over the leading axes

def dalembert_to_kannappan(g, inst: Instance) -> np.ndarray:
    """Forward map: g -> (int g dmu) * g."""
    g = np.asarray(g)
    return cmul(atom_sum(g[..., inst.mu.points], inst.mu)[..., None], g)


def kannappan_to_dalembert(f, inst: Instance) -> np.ndarray:
    """Inverse map: f -> (x -> int f(x t) dmu / int f dmu).

    A vanishing denominator means f was not a nonzero Kannappan solution in
    the first place, so it is reported as an error rather than patched over.
    The mass has degree 2 in mu (f has degree 1).
    """
    f = np.asarray(f)
    mass = atom_sum(f[..., inst.mu.points], inst.mu)
    small = np.abs(mass) <= inst.mu.tolerance(ADMISSIBLE_TOL, 2)
    if small.any():
        raise ZeroDenominator(f"int f dmu = {complex(mass[small].ravel()[0])}, cannot invert")
    return right_integral_table(inst.sg, f, inst.mu) / mass[..., None]


@dataclass(frozen=True)
class DalembertConditions:
    """Truth values (and deviations) of the three equivalent integral
    conditions a d'Alembert solution must satisfy to be admissible:

    tau_shift:       int g(x t) dmu = int g(x tau(t)) dmu  for all x
    proportionality: int g(x t) dmu = g(x) int g dmu       for all x
    double_mass:     int int g(t s) dmu dmu = (int g dmu)^2
    """

    tau_shift: bool
    proportionality: bool
    double_mass: bool
    deviations: tuple[float, float, float]
    mass: complex
    mu: CentralMeasure

    @property
    def consistent(self) -> bool:
        return self.tau_shift == self.proportionality == self.double_mass

    @property
    def all_hold(self) -> bool:
        return self.tau_shift and self.proportionality and self.double_mass

    def admissible(self) -> bool:
        """A mass above mu.tolerance(ADMISSIBLE_TOL, 1) and all three conditions."""
        if not self.consistent:
            raise EquivalenceViolation(self.tau_shift, self.proportionality, self.double_mass)
        return abs(self.mass) > self.mu.tolerance(ADMISSIBLE_TOL, 1) and self.all_hold


def integral_conditions(G, inst: Instance) -> list[DalembertConditions]:
    """The three conditions for every row g of the (m, n) stack G, bit for bit
    as alone, each deviation compared with mu.tolerance(ADMISSIBLE_TOL, d) for
    its degree d in mu (1 for the shift tables, 2 for the double mass)."""
    G = np.asarray(G)
    mu = inst.mu
    tol = [mu.tolerance(ADMISSIBLE_TOL, d) for d in (1, 2)]
    plain, tilted = _leads(inst)
    r = right_integral_table(inst.sg, G, mu)
    r_tau = _shifted_sums(G, inst, tilted)
    mass = atom_sum(G[:, plain], mu)
    dd = _double_mass(r, inst, plain)
    d_shift = np.abs(r - r_tau).max(axis=1).tolist()
    d_prop = np.abs(r - cmul(G, mass[:, None])).max(axis=1).tolist()
    d_mass = np.abs(dd - cmul(mass, mass)).tolist()
    return [
        DalembertConditions(a <= tol[0], b <= tol[0], c <= tol[1], (a, b, c), m, mu)
        for a, b, c, m in zip(d_shift, d_prop, d_mass, mass.tolist())
    ]


def dalembert_integral_conditions(g, inst: Instance) -> DalembertConditions:
    """integral_conditions of the single function g."""
    return integral_conditions(np.asarray(g)[None], inst)[0]


def dalembert_admissible(g, inst: Instance) -> bool:
    """Membership test for the admissible pool the bijection starts from:
    nonvanishing measure integral plus the three integral conditions.

    Raises EquivalenceViolation when the three conditions disagree, which for
    a genuine d'Alembert solution cannot happen.
    """
    return dalembert_integral_conditions(g, inst).admissible()


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


@dataclass(frozen=True)
class SuiteReport:
    """Residuals of the identities a solution must satisfy, where each
    identity attains its worst deviation, the measure integral of the
    solution itself (which must be nonzero when required), and the measure
    the thresholds are taken from."""

    residuals: Mapping[str, float]
    argmax: Mapping[str, tuple[int, ...]]
    mass: complex
    mass_required: bool
    mu: CentralMeasure

    @classmethod
    def of(cls, checks, mass: complex, mass_required: bool, mu: CentralMeasure) -> "SuiteReport":
        """From one dict of (residual, argmax) pairs by identity name."""
        return cls(
            residuals={name: dev for name, (dev, _) in checks.items()},
            argmax={name: at for name, (_, at) in checks.items()},
            mass=mass,
            mass_required=mass_required,
            mu=mu,
        )

    def worst(self) -> float:
        return max(self.residuals.values())

    def failures(self) -> list[str]:
        """Identities off by more than mu.tolerance(RESIDUAL_TOL, MU_DEGREE[name]),
        and nonzero_mass for a required mass (degree 2) within
        mu.tolerance(ADMISSIBLE_TOL, 2) of zero."""
        bad = [
            name
            for name, dev in self.residuals.items()
            if dev > self.mu.tolerance(RESIDUAL_TOL, MU_DEGREE[name])
        ]
        if self.mass_required and abs(self.mass) <= self.mu.tolerance(ADMISSIBLE_TOL, 2):
            bad.append("nonzero_mass")
        return bad

    def passed(self) -> bool:
        return not self.failures()


def identity_suites(kind: str, F, inst: Instance) -> list[SuiteReport]:
    """The identity suite of every row f of the (m, n) stack F, bit for bit as
    alone, for kind van_vleck or kannappan.

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
    perm, mu = inst.tau.perm, inst.mu
    plain, tilted = _leads(inst)
    mass = atom_sum(F[:, plain], mu)
    r = right_integral_table(inst.sg, F, mu)
    f_mass = cmul(F, mass[:, None])
    if kind == "van_vleck":
        checks = {
            "odd_part": F + F[:, perm],
            "double_mass_plain": _double_mass(r, inst, plain),
            "double_mass_tau": _double_mass(r, inst, tilted),
            "sandwich_tau": _shifted_sums(r, inst, tilted) - f_mass,
            "sandwich_plain": _shifted_sums(r, inst, plain) + f_mass,
            "shift_symmetry": r[:, perm] - r,
        }
        required = [True] * len(F)
    elif kind == "kannappan":
        checks = {
            "even_part": F - F[:, perm],
            "sandwich_tau": _shifted_sums(r, inst, tilted) - f_mass,
            "sandwich_plain": _shifted_sums(r, inst, plain) - f_mass,
        }
        required = (np.abs(F).max(axis=1) > mu.tolerance(DEDUP_EPS, 1)).tolist()
    else:
        raise ValueError(f"no identity suite for kind {kind!r}")
    columns = [  # worst deviation over x and where, none for a double mass
        zip(worst.tolist(), map(tuple, at.tolist()))
        for worst, at in map(_worst_rows, checks.values())
    ]
    return [
        SuiteReport.of(dict(zip(checks, row)), m, mass_required=req, mu=mu)
        for m, req, *row in zip(mass.tolist(), required, *columns)
    ]


def van_vleck_identity_suite(f, inst: Instance) -> SuiteReport:
    """identity_suites of the single sine-type solution f."""
    return identity_suites("van_vleck", np.asarray(f)[None], inst)[0]


def kannappan_identity_suite(f, inst: Instance) -> SuiteReport:
    """identity_suites of the single cosine-type solution f."""
    return identity_suites("kannappan", np.asarray(f)[None], inst)[0]

