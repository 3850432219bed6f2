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

from .characters import (
    compose_tau,
    dedup_canonical,
    enumerate_multiplicative,
    max_abs,
)
from .equations import KINDS, SOLUTION_DEGREE, Instance, is_abelian_function, residual
from .errors import EquivalenceViolation, ZeroDenominator
from .measures import CentralMeasure, right_integral_table, total_mass_integral
from .semigroups import FiniteSemigroup, Involution

# Tolerances at ||mu|| = 1; a quantity of degree d in mu is compared with
# mu.tolerance(TOL, d)
ADMISSIBLE_TOL = 1e-9   # admissibility and membership predicates
RESIDUAL_TOL = 1e-10    # residual assertions on constructed members
DEDUP_EPS = 1e-8        # max-abs distance below which two functions coincide


@dataclass(frozen=True, eq=False)
class CharacterIntegrals:
    """A multiplicative function with its two integrals against mu.  Both
    are of degree 1 in mu, so the admissibility tests compare them with
    mu.tolerance(tol, 1)."""

    chi: np.ndarray
    int_mu: complex       # int chi dmu
    int_mu_tau: complex   # int chi o tau dmu
    mu: CentralMeasure

    def van_vleck_admissible(self, tol: float = ADMISSIBLE_TOL) -> bool:
        tol = self.mu.tolerance(tol, 1)
        return abs(self.int_mu) > tol and abs(self.int_mu_tau + self.int_mu) < tol

    def kannappan_admissible(self, tol: float = ADMISSIBLE_TOL) -> bool:
        tol = self.mu.tolerance(tol, 1)
        return abs(self.int_mu) > tol and abs(self.int_mu_tau - self.int_mu) < tol


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


def character_integrals(inst: Instance, chars=None) -> list[CharacterIntegrals]:
    if chars is None:
        chars = enumerate_multiplicative(inst.sg)
    out = []
    for chi in chars:
        out.append(
            CharacterIntegrals(
                chi=chi,
                int_mu=total_mass_integral(chi, inst.mu),
                int_mu_tau=total_mass_integral(compose_tau(chi, inst.tau), inst.mu),
                mu=inst.mu,
            )
        )
    return out


def family(
    kind: str, inst: Instance, chars=None, tol: float = ADMISSIBLE_TOL
) -> SolutionReport:
    """Constructed solutions of one equation, one candidate per multiplicative
    function chi (see the module docstring).  van_vleck: all nonzero solutions
    (chi and chi o tau give the same member); kannappan: all nonzero abelian
    solutions; dalembert: the abelian solutions (mu is ignored)."""
    if kind not in KINDS:
        raise ValueError(f"unknown equation kind {kind!r}")
    eps = inst.mu.tolerance(DEDUP_EPS, SOLUTION_DEGREE[kind])
    funcs = []
    for ci in character_integrals(inst, chars):
        chi_tau = compose_tau(ci.chi, inst.tau)
        if kind == "van_vleck":
            if not ci.van_vleck_admissible(tol):
                continue
            f = 0.5 * (ci.chi - chi_tau) * ci.int_mu_tau
        elif kind == "kannappan":
            if not ci.kannappan_admissible(tol):
                continue
            f = 0.5 * (ci.chi + chi_tau) * ci.int_mu
        else:
            f = 0.5 * (ci.chi + chi_tau)
        funcs.append(f)
    sols = tuple(
        Solution(values=f, residual=residual(kind, f, inst).max_abs, provenance="constructed")
        for f in dedup_canonical(funcs, eps)
    )
    return SolutionReport(equation=kind, solutions=sols)


def van_vleck_family(inst: Instance, chars=None, tol: float = ADMISSIBLE_TOL) -> SolutionReport:
    """All nonzero solutions of the sine-type equation."""
    return family("van_vleck", inst, chars, tol)


def kannappan_abelian_family(
    inst: Instance, chars=None, tol: float = ADMISSIBLE_TOL
) -> SolutionReport:
    """All nonzero abelian solutions of the cosine-type equation."""
    return family("kannappan", inst, chars, tol)


def dalembert_abelian_family(sg: FiniteSemigroup, tau: Involution, chars=None) -> list[np.ndarray]:
    """Even parts g = (chi + chi o tau)/2 of the multiplicative functions, as
    a bare list.  The equation has no measure; they are built on the zero one."""
    no_mu = CentralMeasure(points=np.zeros(0, np.int64), weights=np.zeros(0, complex))
    inst = Instance(sg=sg, tau=tau, mu=no_mu)
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
    return r[inst.sg.cayley[:, lead]] @ inst.mu.weights


def _double_mass(r: np.ndarray, inst: Instance, lead: np.ndarray) -> complex:
    """sum_i w_i r(lead_i)."""
    return complex(r[lead] @ inst.mu.weights)


# ---------------------------------------------------------------------------
# the mass-scaling bijection between admissible d'Alembert solutions and
# nonzero Kannappan solutions

def dalembert_to_kannappan(g, inst: Instance) -> np.ndarray:
    """Forward map: g -> (int g dmu) * g."""
    return total_mass_integral(g, inst.mu) * np.asarray(g)


def kannappan_to_dalembert(f, inst: Instance) -> np.ndarray:
    """Inverse map: f -> (x -> int f(x t) dmu / int f dmu).

    A vanishing denominator means f was not a nonzero Kannappan solution in
    the first place, so it is reported as an error rather than patched over.
    The mass has degree 2 in mu (f has degree 1).
    """
    mass = total_mass_integral(f, inst.mu)
    if abs(mass) <= inst.mu.tolerance(ADMISSIBLE_TOL, 2):
        raise ZeroDenominator(f"int f dmu = {mass}, cannot invert")
    return right_integral_table(inst.sg, np.asarray(f), inst.mu) / mass


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

    @property
    def consistent(self) -> bool:
        return self.tau_shift == self.proportionality == self.double_mass

    @property
    def all_hold(self) -> bool:
        return self.tau_shift and self.proportionality and self.double_mass


def dalembert_integral_conditions(g, inst: Instance) -> DalembertConditions:
    """The three conditions, each deviation compared with
    mu.tolerance(ADMISSIBLE_TOL, d) for its degree d in mu (1 for the two
    shift tables, 2 for the double mass; g itself has degree 0)."""
    ga = np.asarray(g)
    tol = [inst.mu.tolerance(ADMISSIBLE_TOL, d) for d in (1, 2)]
    plain, tilted = _leads(inst)
    r = right_integral_table(inst.sg, ga, inst.mu)
    r_tau = _shifted_sums(ga, inst, tilted)
    mass = total_mass_integral(ga, inst.mu)
    dd = _double_mass(r, inst, plain)
    d_shift = float(np.max(np.abs(r - r_tau)))
    d_prop = float(np.max(np.abs(r - ga * mass)))
    d_mass = abs(dd - mass * mass)
    return DalembertConditions(
        tau_shift=d_shift <= tol[0],
        proportionality=d_prop <= tol[0],
        double_mass=d_mass <= tol[1],
        deviations=(d_shift, d_prop, d_mass),
        mass=mass,
    )


def dalembert_admissible(g, inst: Instance) -> bool:
    """Membership test for the admissible pool the bijection starts from:
    nonvanishing measure integral plus the three integral conditions.

    Raises EquivalenceViolation when the three conditions disagree, which for
    a genuine d'Alembert solution cannot happen.
    """
    conds = dalembert_integral_conditions(g, inst)
    if not conds.consistent:
        raise EquivalenceViolation(
            conds.tau_shift, conds.proportionality, conds.double_mass
        )
    return abs(conds.mass) > inst.mu.tolerance(ADMISSIBLE_TOL, 1) and conds.all_hold


# ---------------------------------------------------------------------------
# identity suites

def _worst_over_x(values: np.ndarray) -> tuple[float, tuple[int, ...]]:
    x = int(np.argmax(values))
    return float(values[x]), (x,)


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


def van_vleck_identity_suite(f, inst: Instance) -> SuiteReport:
    """Identities every nonzero sine-type solution satisfies:

    odd_part:          f o tau = -f
    double_mass_plain: int int f(t s) dmu dmu = 0
    double_mass_tau:   int int f(tau(t) s) dmu dmu = 0
    sandwich_tau:      int int f(x tau(t) s) = +f(x) int f dmu  for all x
    sandwich_plain:    int int f(x t s)      = -f(x) int f dmu  for all x
    shift_symmetry:    int f(tau(x) t) dmu = int f(x t) dmu     for all x
    plus int f dmu != 0.
    """
    fa = np.asarray(f)
    tau, mu = inst.tau, inst.mu
    mass = total_mass_integral(fa, mu)
    plain, tilted = _leads(inst)
    r = right_integral_table(inst.sg, fa, mu)
    checks = {
        "odd_part": _worst_over_x(np.abs(fa + fa[tau.perm])),
        "double_mass_plain": (abs(_double_mass(r, inst, plain)), ()),
        "double_mass_tau": (abs(_double_mass(r, inst, tilted)), ()),
        "sandwich_tau": _worst_over_x(
            np.abs(_shifted_sums(r, inst, tilted) - fa * mass)
        ),
        "sandwich_plain": _worst_over_x(
            np.abs(_shifted_sums(r, inst, plain) + fa * mass)
        ),
        "shift_symmetry": _worst_over_x(np.abs(r[tau.perm] - r)),
    }
    return SuiteReport.of(checks, mass, mass_required=True, mu=mu)


def kannappan_identity_suite(f, inst: Instance) -> SuiteReport:
    """Identities every cosine-type solution satisfies:

    even_part:      f o tau = f
    sandwich_tau:   int int f(x tau(t) s) = f(x) int f dmu  for all x
    sandwich_plain: int int f(x t s)      = f(x) int f dmu  for all x
    plus int f dmu != 0 exactly when f != 0.
    """
    fa = np.asarray(f)
    tau, mu = inst.tau, inst.mu
    mass = total_mass_integral(fa, mu)
    plain, tilted = _leads(inst)
    r = right_integral_table(inst.sg, fa, mu)
    checks = {
        "even_part": _worst_over_x(np.abs(fa - fa[tau.perm])),
        "sandwich_tau": _worst_over_x(
            np.abs(_shifted_sums(r, inst, tilted) - fa * mass)
        ),
        "sandwich_plain": _worst_over_x(
            np.abs(_shifted_sums(r, inst, plain) - fa * mass)
        ),
    }
    required = max_abs(fa) > mu.tolerance(DEDUP_EPS, 1)
    return SuiteReport.of(checks, mass, mass_required=required, mu=mu)


@dataclass(frozen=True)
class TransformReport:
    dalembert_residual: float
    abelian: bool
    mean: complex         # int g dmu, zero for transforms of sine solutions
    double_mass: complex  # int int g(t s) dmu dmu, nonzero


def associated_dalembert(f, inst: Instance) -> tuple[np.ndarray, TransformReport]:
    """The d'Alembert solution g(x) = int f(x t) dmu / int f dmu attached to a
    nonzero sine-type solution f, with its side conditions evaluated."""
    g = kannappan_to_dalembert(f, inst)
    report = TransformReport(
        dalembert_residual=residual("dalembert", g, inst).max_abs,
        abelian=is_abelian_function(g, inst.sg),
        mean=total_mass_integral(g, inst.mu),
        double_mass=_double_mass(
            right_integral_table(inst.sg, g, inst.mu), inst, inst.mu.points
        ),
    )
    return g, report
