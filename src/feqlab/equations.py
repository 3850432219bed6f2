"""Residual evaluators for every functional equation handled by the package.

Each evaluator scans all argument tuples of its equation and reports the
worst absolute deviation together with where it happened.  Everything is an
exact finite computation in complex double precision.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .measures import CentralMeasure, right_integral_table
from .semigroups import FiniteSemigroup, Involution, center, validate_involution

ABELIAN_TOL = 1e-12
KINDS = ("van_vleck", "kannappan", "dalembert")


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


@dataclass(frozen=True)
class Residual:
    """Worst absolute deviation and the argument tuple attaining it."""

    max_abs: float
    argmax: tuple[int, ...]


def _worst(dev: np.ndarray) -> Residual:
    mags = np.abs(dev)
    # first occurrence in C order = lexicographically smallest argmax
    idx = np.unravel_index(int(np.argmax(mags)), mags.shape)
    return Residual(float(mags[idx]), tuple(int(i) for i in idx))


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


def _residual(kind, f, sg, tau, mu=None) -> Residual:
    fa = np.asarray(f)
    return _worst(linear_part(kind, fa, sg, tau, mu) - 2 * np.outer(fa, fa))


def residual(kind: str, f, inst: Instance) -> Residual:
    """Worst deviation of f from one equation over all (x, y):

    van_vleck: int f(x tau(y) t) - int f(x y t) = 2 f(x) f(y)
    kannappan: int f(x y t) + int f(x tau(y) t) = 2 f(x) f(y)
    dalembert: g(xy) + g(x tau(y)) = 2 g(x) g(y)   (mu is ignored)
    """
    return _residual(kind, f, inst.sg, inst.tau, inst.mu)


def residual_van_vleck(f, inst: Instance) -> Residual:
    """Sine-type equation: int f(x tau(y) t) - int f(x y t) = 2 f(x) f(y)."""
    return residual("van_vleck", f, inst)


def residual_kannappan(f, inst: Instance) -> Residual:
    """Cosine-type equation: int f(x y t) + int f(x tau(y) t) = 2 f(x) f(y)."""
    return residual("kannappan", f, inst)


def residual_dalembert(g, sg: FiniteSemigroup, tau: Involution) -> Residual:
    """Classic d'Alembert equation: g(xy) + g(x tau(y)) = 2 g(x) g(y)."""
    return _residual("dalembert", g, sg, tau)


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


def is_abelian_function(
    f, sg: FiniteSemigroup, depth: int = 3, tol: float = ABELIAN_TOL
) -> bool:
    """Invariance of f(x_1 ... x_d) under permuting the factors, d <= depth.

    Depth is capped at 3: that already separates every case in the test
    corpus, while the full definition quantifies over all lengths.
    """
    if depth not in (2, 3):
        raise ValueError("depth must be 2 or 3")
    fa = np.asarray(f)
    t = sg.cayley
    pairs = fa[t]
    if np.max(np.abs(pairs - pairs.T)) > tol:
        return False
    if depth == 3:
        triples = fa[t[t]]  # (x, y, z) -> f(x*y*z)
        for axes in permutations((0, 1, 2)):
            if np.max(np.abs(triples.transpose(axes) - triples)) > tol:
                return False
    return True
