"""Residual evaluators for every functional equation handled by the package.

Each evaluator scans all argument tuples of its equation and reports the
worst absolute deviation together with where it happened.  Everything is an
exact finite computation in complex double precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .measures import CentralMeasure, cmul, right_integral_table
from .semigroups import FiniteSemigroup, Involution, center, validate_involution

ABELIAN_TOL = 1e-12
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
                raise ValueError(f"measure point {int(z)} is not central")

    @classmethod
    def of_validated(cls, sg: FiniteSemigroup, tau: Involution, mu: CentralMeasure) -> "Instance":
        """Skips the checks: tau is from validate_involution(sg, ...), mu from
        central_measure(sg, ...)."""
        inst = object.__new__(cls)
        inst.__dict__.update(sg=sg, tau=tau, mu=mu)
        return inst


@dataclass(frozen=True)
class Residual:
    """Worst absolute deviation and the argument tuple attaining it."""

    max_abs: float
    argmax: tuple[int, ...]


def _worst_rows(dev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Worst absolute deviation of each member of the stack dev and the
    argument tuple attaining it, as arrays of shape (m,) and (m, dev.ndim - 1);
    the first occurrence in C order, the lexicographically smallest argmax."""
    mags = np.abs(dev).reshape(len(dev), math.prod(dev.shape[1:]))
    k = mags.argmax(axis=1)
    at = np.unravel_index(k, dev.shape[1:]) if dev.ndim > 1 else ()
    return mags[np.arange(len(k)), k], np.array(at, dtype=np.intp).reshape(dev.ndim - 1, len(k)).T


def _worst(dev: np.ndarray) -> Residual:
    worst, at = _worst_rows(dev[None])
    return Residual(float(worst[0]), tuple(at[0].tolist()))


def linear_part(
    kind: str, F, sg: FiniteSemigroup, tau: Involution, mu: CentralMeasure | None = None
) -> np.ndarray:
    """Linear side of one equation at every (x, y), batched over the leading
    axes of F: shape F.shape[:-1] + (n, n).

    With r the right-integral table of F (r = F for d'Alembert, which ignores
    mu), Van Vleck is r(x tau(y)) - r(xy), and Kannappan and d'Alembert are
    r(xy) + r(x tau(y)).  The full equation is this minus 2 f(x) f(y).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown equation kind {kind!r}")
    Fa = np.asarray(F)
    t = sg.cayley
    r = Fa if kind == "dalembert" else right_integral_table(sg, Fa, mu)
    plain, shifted = r[..., t], r[..., t[:, tau.perm]]
    return shifted - plain if kind == "van_vleck" else plain + shifted


def _deviation(kind, F, sg, tau, mu=None) -> np.ndarray:
    """linear_part minus 2 f(x) f(y), batched over the leading axes of F."""
    F = np.asarray(F)
    return linear_part(kind, F, sg, tau, mu) - 2 * cmul(F[..., :, None], F[..., None, :])


def residuals(kind: str, F, inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """residual of every row of the (m, n) stack F, bit for bit as alone:
    the worst deviations, shape (m,), and their (x, y), shape (m, 2)."""
    return _worst_rows(_deviation(kind, F, inst.sg, inst.tau, inst.mu))


def residual(kind: str, f, inst: Instance) -> Residual:
    """Worst deviation of f from one equation over all (x, y):

    van_vleck: int f(x tau(y) t) - int f(x y t) = 2 f(x) f(y)
    kannappan: int f(x y t) + int f(x tau(y) t) = 2 f(x) f(y)
    dalembert: g(xy) + g(x tau(y)) = 2 g(x) g(y)   (mu is ignored)
    """
    return _worst(_deviation(kind, f, inst.sg, inst.tau, inst.mu))


def residual_van_vleck(f, inst: Instance) -> Residual:
    """Sine-type equation: int f(x tau(y) t) - int f(x y t) = 2 f(x) f(y)."""
    return residual("van_vleck", f, inst)


def residual_kannappan(f, inst: Instance) -> Residual:
    """Cosine-type equation: int f(x y t) + int f(x tau(y) t) = 2 f(x) f(y)."""
    return residual("kannappan", f, inst)


def residual_dalembert(g, sg: FiniteSemigroup, tau: Involution) -> Residual:
    """Classic d'Alembert equation: g(xy) + g(x tau(y)) = 2 g(x) g(y)."""
    return _worst(_deviation("dalembert", g, sg, tau))


def residual_mu_spherical(psi, inst: Instance) -> Residual:
    """Spherical-function equation: int psi(x t y) dmu(t) = psi(x) psi(y)."""
    pa = np.asarray(psi)
    t = inst.sg.cayley
    mid = t[:, inst.mu.points]            # (x, i) -> x * z_i
    vals = pa[t[mid]]                     # (x, i, y) -> psi(x * z_i * y)
    lhs = np.einsum("i,xiy->xy", inst.mu.weights, vals)
    return _worst(lhs - np.outer(pa, pa))


def kannappan_condition_residual(f, inst: Instance) -> Residual:
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


def is_abelian_function(f, sg: FiniteSemigroup, depth: int = 3) -> bool:
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
