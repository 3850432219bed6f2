"""Scalar reference implementations the vectorized code is checked against.

right_integral and double_integral are plain Python loops over the atoms; the
inner sum of double_integral reuses right_integral verbatim, so the
finite-sum Fubini identity holds exactly, not merely within rounding.
equation_matrix_add_at assembles each equation's linear part term by term
with np.add.at.  van_vleck_family_dirac is the sine family specialized to a unit point mass,
a cross-check of the general construction.
"""
from __future__ import annotations

import numpy as np

import feqlab as fl
from feqlab.characters import dedup_canonical, max_abs
from feqlab.families import ADMISSIBLE_TOL, DEDUP_EPS


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
        f = complex(chi[tz0]) * 0.5 * (chi - fl.compose_tau(chi, inst.tau))
        if max_abs(f) > dedup_eps:
            funcs.append(f)
    sols = tuple(
        fl.Solution(
            values=f,
            residual=fl.residual_van_vleck(f, inst).max_abs,
            provenance="constructed",
        )
        for f in dedup_canonical(funcs, eps=dedup_eps)
    )
    return fl.SolutionReport(equation="van_vleck", solutions=sols)
