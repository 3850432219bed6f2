"""Complex point measures supported on the center, and their integrals.

A measure is a finite sum of weighted Dirac masses at central elements, so
every integral below is an exact finite weighted sum, and no other module
gathers the atoms.  Integrals are batched over the leading axes of f and add
the atoms in order (atom_sum), so that a function's integral does not depend
on the stack it sits in; OpenBLAS rounds a matrix-vector product differently
depending on how many rows it gets.
"""
from __future__ import annotations

import functools
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

    @functools.cached_property
    def complex_weights(self) -> bool:
        """Whether a weight has a nonzero imaginary part.  Computed once."""
        return bool(self.weights.imag.any())

    @functools.cached_property
    def total_variation(self) -> float:
        """||mu|| = sum_i |w_i|; inf if the sum overflows.  Computed once."""
        return sum((math.hypot(w.real, w.imag) for w in self.weights), 0.0)

    def tolerance(self, base, degree: int):
        """base * ||mu||**degree: the tolerance on a quantity of degree
        `degree` in mu, base being its value at ||mu|| = 1.

        Both integral equations are homogeneous in (f, mu): f solves one for
        mu exactly when lam f solves it for lam mu.  Every tolerance on a
        quantity that depends on mu goes through here, so no answer depends
        on the size of mu.
        """
        return base * self.total_variation**degree


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


def cmul(a, b) -> np.ndarray:
    """a * b rounded as Python's complex product: four real products and two
    sums.  numpy's own product fuses a multiply and an add, on an operand
    that depends on the operands' order, shapes and strides."""
    re, im = a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real
    out = np.empty(np.shape(re), dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def atom_sum(values, mu: CentralMeasure) -> np.ndarray:
    """sum_i w_i values[..., i] in atom order from 0, the Python sum.  With real
    weights numpy's product rounds as cmul (one product of each part is an
    exact zero) up to signs of zeros, which the sum from 0 drops (the first
    term plus 0.0 has the bits of 0.0 plus it)."""
    w = mu.weights
    terms = cmul(w, np.asarray(values)) if mu.complex_weights else values * w
    out = np.add(terms[..., 0], 0.0, out=np.empty(terms.shape[:-1], dtype=np.complex128))
    for i in range(1, terms.shape[-1]):
        out += terms[..., i]
    return out


def right_integral_table(sg: FiniteSemigroup, f, mu: CentralMeasure) -> np.ndarray:
    """Integrals of t -> f(x*t), i.e. sum_i w_i f(x * z_i), over all x."""
    return atom_sum(np.asarray(f)[..., sg.cayley[:, mu.points]], mu)


def total_mass_integral(f, mu: CentralMeasure) -> np.ndarray:
    """Integral of f itself, sum_i w_i f(z_i), for every function along the
    leading axes of f: a 0-d array for one function."""
    return atom_sum(np.asarray(f)[..., mu.points], mu)


def is_tau_invariant(mu: CentralMeasure, tau: Involution) -> bool:
    """Whether the pushforward of mu under tau, the atoms (tau(z_i), w_i),
    equals mu.  tau is a bijection, so the pushforward only permutes the
    distinct points and keeps their weights as the same floats: the sorted
    images and their weights are compared with mu exactly.

    Diagnostic only; none of the solution-family constructions require it.
    """
    images = tau.perm[mu.points]
    order = np.argsort(images)
    return np.array_equal(images[order], mu.points) and np.array_equal(mu.weights[order], mu.weights)
