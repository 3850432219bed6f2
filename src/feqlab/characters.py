"""Enumeration of all nonzero multiplicative functions on a finite semigroup.

A complex-valued function on S is stored as a length-n complex vector
(one carrier for every function the package manipulates).  The equations
chi(x) chi(y) = chi(xy) form a closed quadratic system, so its complete
root set comes from one joint-eigenvector computation (algebra.py), whose
certificate says whether every root was found.  If x has orbit index i and
period p then chi(x)^i (chi(x)^p - 1) = 0, so chi(x) is 0 or a p-th root of
unity: each numeric root is snapped to these exact candidates and kept only
if the exact scan passes, so the values are exact and independent of how
the elements are labelled.
"""
from __future__ import annotations

import numpy as np

from .algebra import closed_system_roots
from .semigroups import FiniteSemigroup, Involution, orbit

MULT_TOL = 1e-12     # absolute slack for the exact multiplicativity scan
CANON_DECIMALS = 8   # rounding used by the canonical order and dedup
ROOT_TOL = 1e-9      # residual check of the numeric roots before snapping
DRAWS = 8            # combinations drawn at most while the certificate fails


def as_cfunc(values, order: int) -> np.ndarray:
    """Validate and freeze a total complex-valued function on S."""
    f = np.asarray(values, dtype=np.complex128)
    if f.shape != (order,):
        raise ValueError(f"expected {order} values, got shape {f.shape}")
    if not np.all(np.isfinite(f.real) & np.isfinite(f.imag)):
        raise ValueError("function values must be finite")
    f = f.copy()
    f.setflags(write=False)
    return f


def canonical_key(f) -> tuple[tuple[float, float], ...]:
    """Lexicographic sort key: (Re, Im) per index, rounded at 1e-8."""
    return tuple(
        (round(float(v.real), CANON_DECIMALS) + 0.0, round(float(v.imag), CANON_DECIMALS) + 0.0)
        for v in np.asarray(f)
    )


def max_abs(f) -> float:
    return float(np.max(np.abs(np.asarray(f))))


def max_abs_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def dedup_canonical(funcs, eps: float) -> list[np.ndarray]:
    """Canonically sorted, without near-zero functions and near-duplicates
    (max-abs distance <= eps), keeping for each cluster the canonically
    smallest representative."""
    out: list[np.ndarray] = []
    for f in sorted(funcs, key=canonical_key):
        if max_abs(f) > eps and all(max_abs_diff(f, kept) > eps for kept in out):
            out.append(f)
    return out


def candidate_values(sg: FiniteSemigroup, x: int) -> np.ndarray:
    """{0} plus the p-th roots of unity, p the orbit period of x."""
    p = orbit(sg, x).period
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    return np.concatenate(([0j], roots))


def is_multiplicative(sg: FiniteSemigroup, chi, tol: float = MULT_TOL) -> bool:
    """Exact scan of chi(x*y) = chi(x) chi(y) over all pairs."""
    v = np.asarray(chi)
    return bool(np.max(np.abs(v[sg.cayley] - np.outer(v, v))) <= tol)


def enumerate_multiplicative(
    sg: FiniteSemigroup, include_zero: bool = False, tol: float = MULT_TOL
) -> list[np.ndarray]:
    """All nonzero multiplicative functions, canonically ordered.

    Completeness rests on the certificate of closed_system_roots; when no
    draw certifies (a root of very high multiplicity, as at the zero
    function of a deep nilpotent semigroup), the roots of every draw are
    pooled.
    """
    n = sg.order
    A = np.zeros((n * n, n))
    A[np.arange(n * n), sg.cayley.ravel()] = 2.0
    roots, _, _ = closed_system_roots(A, ROOT_TOL, draws=DRAWS)
    snapped = np.empty_like(roots)
    for x in range(n):
        cands = candidate_values(sg, x)
        nearest = np.abs(roots[:, x, None] - cands[None, :]).argmin(axis=1)
        snapped[:, x] = cands[nearest]
    found: dict[bytes, np.ndarray] = {}
    for chi in snapped:
        if is_multiplicative(sg, chi, tol) and (include_zero or max_abs(chi) > tol):
            found.setdefault(chi.tobytes(), chi)
    for chi in found.values():
        chi.setflags(write=False)
    return sorted(found.values(), key=canonical_key)


def compose_tau(chi, tau: Involution) -> np.ndarray:
    """chi o tau; multiplicative again, since tau anti-commutes into the
    commutative target."""
    out = np.asarray(chi, dtype=np.complex128)[tau.perm].copy()
    out.setflags(write=False)
    return out
