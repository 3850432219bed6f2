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

A set of m functions is an (m, n) stack, and the steps after the solvers
take it whole: canonical_order sorts it with one lexsort, dedup_canonical
compares all pairs through one distance matrix, and the enumeration scans
every root with one gather.
"""
from __future__ import annotations

import numpy as np

from .algebra import closed_system_roots
from .semigroups import FiniteSemigroup, orbit_table

MULT_TOL = 1e-12     # absolute slack for the exact multiplicativity scan
CANON_DECIMALS = 8   # rounding used by the canonical order and dedup
ROOT_TOL = 1e-9      # residual check of the numeric roots before snapping
DRAWS = 8            # combinations drawn at most while the certificate fails


def _rounded_parts(F, scale: float) -> np.ndarray:
    """(Re, Im) of F / scale, interleaved along the last axis, rounded at
    1e-8; the + 0.0 folds -0.0 into 0.0."""
    F = np.asarray(F, dtype=np.complex128)
    parts = np.empty(F.shape[:-1] + (2 * F.shape[-1],))
    parts[..., 0::2] = F.real / scale
    parts[..., 1::2] = F.imag / scale
    return np.round(parts, CANON_DECIMALS) + 0.0


def canonical_order(F, scale: float = 1.0) -> np.ndarray:
    """Row indices of the (m, n) stack F in canonical order: a stable sort
    by the (Re, Im) parts of f / scale per index, rounded at 1e-8 and
    compared lexicographically, from one lexsort.  scale is the size of the
    solutions (a power of ||mu||), so the order does not depend on the size
    of the measure."""
    parts = _rounded_parts(F, scale)
    return np.lexsort(parts.T[::-1])


def max_abs_distances(A, B) -> np.ndarray:
    """(len(A), len(B)) matrix of max-abs distances between the rows of two
    stacks of functions."""
    if len(A) == 0 or len(B) == 0:
        return np.zeros((len(A), len(B)))
    A, B = np.asarray(A), np.asarray(B)
    return np.abs(A[:, None, :] - B[None, :, :]).max(axis=2)


def dedup_canonical(F, eps: float, scale: float = 1.0) -> np.ndarray:
    """Indices of the rows of the (m, n) stack F that survive dedup, in
    canonical order: going through that order, a row is kept when its
    max-abs is above eps and it is more than eps away from every row kept
    before it.  So near-zero functions are dropped and each cluster of
    near-duplicates keeps its canonically smallest representative."""
    if len(F) == 0:
        return np.zeros(0, dtype=np.intp)
    order = canonical_order(F, scale)
    G = np.asarray(F)[order]
    big = (np.abs(G).max(axis=1) > eps).tolist()
    near = (max_abs_distances(G, G) <= eps).tolist()
    kept: list[int] = []
    for i in range(len(G)):
        if big[i] and not any(near[i][k] for k in kept):
            kept.append(i)
    return order[kept]


def _candidates(p: int) -> np.ndarray:
    """{0} plus the p-th roots of unity."""
    return np.concatenate(([0j], np.exp(2j * np.pi * np.arange(p) / p)))


def enumerate_multiplicative(sg: FiniteSemigroup, include_zero: bool = False) -> list[np.ndarray]:
    """All nonzero multiplicative functions, canonically ordered.

    Completeness rests on the certificate of closed_system_roots; when no
    draw certifies (a root of very high multiplicity, as at the zero
    function of a deep nilpotent semigroup), the roots of every draw are
    pooled.  The roots are snapped one orbit period at a time and scanned as
    one stack: one gather checks every pair of every root, and exact repeats
    keep their first copy.
    """
    L = (sg.cayley == np.arange(sg.order)[:, None, None]) * 2  # 2 chi(x) chi(y) = 2 chi(xy)
    roots, _, _ = closed_system_roots(L, ROOT_TOL, draws=DRAWS)
    _, period = orbit_table(sg)
    S = np.empty_like(roots)
    for p in sorted(set(period.tolist())):
        cols = np.flatnonzero(period == p)
        cands = _candidates(p)
        nearest = np.abs(roots[:, cols, None] - cands).argmin(axis=2)
        S[:, cols] = cands[nearest]
    deviation = np.abs(S[:, sg.cayley] - S[:, :, None] * S[:, None, :]).max(axis=(1, 2))
    ok = deviation <= MULT_TOL
    if not include_zero:
        ok &= np.abs(S).max(axis=1) > MULT_TOL
    first: dict[bytes, int] = {}
    for i in np.flatnonzero(ok).tolist():
        first.setdefault(S[i].tobytes(), i)
    S = S[list(first.values())]
    S = S[canonical_order(S)]
    S.setflags(write=False)
    return list(S)

