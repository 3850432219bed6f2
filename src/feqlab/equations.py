"""The residuals of every functional equation handled by the package.

Each equation is its linear part minus 2 f(x) f(y); residuals scans all
pairs (x, y) for every row of a stack of functions and reports each row's
worst absolute deviation together with where it happened.  Everything is an
exact finite computation in complex double precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SupportNotCentral
from .measures import CentralMeasure, cmul, right_integral_table
from .semigroups import FiniteSemigroup, Involution, center, validate_involution

# degree in mu of each equation's solutions: f solves the Van Vleck or
# Kannappan equation for mu exactly when lam f solves it for lam mu, and
# d'Alembert's equation ignores mu
SOLUTION_DEGREE = {"van_vleck": 1, "kannappan": 1, "dalembert": 0}
KINDS = tuple(SOLUTION_DEGREE)


@dataclass(frozen=True, eq=False)
class Instance:
    """A semigroup with a compatible involution and central measure."""

    sg: FiniteSemigroup
    tau: Involution
    mu: CentralMeasure

    def __post_init__(self):
        validate_involution(self.sg, self.tau.perm)
        central = set(center(self.sg))
        for z in self.mu.points:
            if int(z) not in central:
                raise SupportNotCentral(f"point {int(z)} is not central")

    @classmethod
    def of_validated(cls, sg: FiniteSemigroup, tau: Involution, mu: CentralMeasure) -> "Instance":
        """Skips the checks: tau is from validate_involution(sg, ...), mu from
        central_measure(sg, ...)."""
        inst = object.__new__(cls)
        inst.__dict__.update(sg=sg, tau=tau, mu=mu)
        return inst


def _worst_rows(dev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Worst absolute deviation of each member of the stack dev and the
    argument tuple attaining it, as arrays of shape (m,) and (m, dev.ndim - 1);
    the first occurrence in C order, the lexicographically smallest argmax."""
    mags = np.abs(dev).reshape(len(dev), math.prod(dev.shape[1:]))
    k = mags.argmax(axis=1)
    at = np.unravel_index(k, dev.shape[1:]) if dev.ndim > 1 else ()
    return mags[np.arange(len(k)), k], np.array(at, dtype=np.intp).reshape(dev.ndim - 1, len(k)).T


def linear_part(kind: str, F, inst: Instance) -> np.ndarray:
    """Linear side of one equation on inst at every (x, y), batched over the
    leading axes of F: shape F.shape[:-1] + (n, n).

    With r the right-integral table of F (r = F for d'Alembert, which ignores
    mu), Van Vleck is r(x tau(y)) - r(xy), and Kannappan and d'Alembert are
    r(xy) + r(x tau(y)).  The full equation is this minus 2 f(x) f(y).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown equation kind {kind!r}")
    Fa = np.asarray(F)
    t = inst.sg.cayley
    r = Fa if kind == "dalembert" else right_integral_table(inst.sg, Fa, inst.mu)
    plain, shifted = r[..., t], r[..., t[:, inst.tau.perm]]
    return shifted - plain if kind == "van_vleck" else plain + shifted


def residuals(kind: str, F, inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Worst deviation of every row f of the (m, n) stack F from one
    equation over all (x, y), shape (m,), and the first (x, y) attaining it,
    shape (m, 2); row i bit for bit as a stack of f alone:

    van_vleck: int f(x tau(y) t) - int f(x y t) = 2 f(x) f(y)
    kannappan: int f(x y t) + int f(x tau(y) t) = 2 f(x) f(y)
    dalembert: g(xy) + g(x tau(y)) = 2 g(x) g(y)   (mu is ignored)
    """
    F = np.asarray(F)
    return _worst_rows(linear_part(kind, F, inst) - 2 * cmul(F[..., :, None], F[..., None, :]))
