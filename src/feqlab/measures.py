"""Complex point measures supported on the center, and their integrals.

A measure is a finite sum of weighted Dirac masses at central elements, so
every integral below is an exact finite weighted sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMeasure, SupportNotCentral
from .semigroups import FiniteSemigroup, Involution, center


@dataclass(frozen=True, eq=False)
class CentralMeasure:
    """Atoms (point, weight), points distinct and sorted, weights nonzero."""

    points: np.ndarray   # int64, strictly increasing
    weights: np.ndarray  # complex128, nonzero

    def atoms(self) -> list[tuple[int, complex]]:
        return [(int(z), complex(w)) for z, w in zip(self.points, self.weights)]

    @property
    def total_weight(self) -> complex:
        return complex(sum(self.weights))

    @property
    def total_variation(self) -> float:
        """||mu|| = sum_i |w_i|; inf if the sum overflows."""
        return sum((math.hypot(w.real, w.imag) for w in self.weights), 0.0)

    @property
    def scale(self) -> float:
        """max(1, ||mu||): a quantity of degree d in mu is compared with a
        tolerance times scale**d."""
        return max(1.0, self.total_variation)


def central_measure(sg: FiniteSemigroup, atoms) -> CentralMeasure:
    """Build a measure in canonical form.

    Zero input weights are rejected outright; duplicate points are merged by
    summing weights and rejected if the merged weight cancels to zero.  The
    canonical (sorted, merged) form makes measure equality decidable.
    """
    merged: dict[int, complex] = {}
    for point, weight in atoms:
        z, w = int(point), complex(weight)
        if not 0 <= z < sg.order:
            raise InvalidMeasure(f"atom point {z} outside [0, {sg.order})")
        if not (math.isfinite(w.real) and math.isfinite(w.imag)):
            raise InvalidMeasure(f"atom at {z} has non-finite weight {w}")
        if w == 0:
            raise InvalidMeasure(f"atom at {z} has zero weight")
        merged[z] = merged.get(z, 0j) + w
    if not merged:
        raise InvalidMeasure("measure needs at least one atom")
    for z, w in merged.items():
        if w == 0:
            raise InvalidMeasure(f"atoms at {z} cancel to zero weight")
    central = set(center(sg))
    for z in merged:
        if z not in central:
            raise SupportNotCentral(f"point {z} is not central")
    points = np.array(sorted(merged), dtype=np.int64)
    weights = np.array([merged[int(z)] for z in points], dtype=np.complex128)
    points.setflags(write=False)
    weights.setflags(write=False)
    return CentralMeasure(points=points, weights=weights)


def right_integral_table(sg: FiniteSemigroup, f, mu: CentralMeasure) -> np.ndarray:
    """Integrals of t -> f(x*t), i.e. sum_i w_i f(x * z_i), over all x.

    Batched over the leading axes of f.
    """
    return np.asarray(f)[..., sg.cayley[:, mu.points]] @ mu.weights


def total_mass_integral(f, mu: CentralMeasure) -> complex:
    """Integral of f itself: sum_i w_i f(z_i)."""
    return sum(
        (complex(w) * complex(f[z]) for z, w in zip(mu.points, mu.weights)), 0j
    )


def pushforward_tau(
    sg: FiniteSemigroup, mu: CentralMeasure, tau: Involution
) -> CentralMeasure:
    """Image measure under tau: atoms (tau(z_i), w_i), remerged canonically."""
    return central_measure(sg, [(tau(int(z)), w) for z, w in mu.atoms()])


def is_tau_invariant(
    sg: FiniteSemigroup, mu: CentralMeasure, tau: Involution, tol: float = 1e-12
) -> bool:
    """Whether the pushforward under tau has the same merged atom set.

    Diagnostic only; none of the solution-family constructions require it.
    """
    pf = pushforward_tau(sg, mu, tau)
    if not np.array_equal(pf.points, mu.points):
        return False
    return bool(np.max(np.abs(pf.weights - mu.weights)) <= tol)
