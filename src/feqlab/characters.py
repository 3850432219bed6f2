"""Enumeration of all nonzero multiplicative functions on a finite semigroup.

A complex-valued function on S is stored as a length-n complex vector
(one carrier for every function the package manipulates).  The equations
chi(x) chi(y) = chi(xy) form a closed quadratic system, so its complete
root set comes from one joint-eigenvector computation (algebra.py), whose
certificate says whether every root was found.  If x has orbit index i and
period p then chi(x)^i (chi(x)^p - 1) = 0, so chi(x) is 0 or a p-th root of
unity: a numeric value r snaps to 0 where |r| < 1/2, else to exp(2 pi i k / p)
with k = rint(p arg(r) / 2 pi), and a root is kept only if the exact scan
passes, so the values are exact and independent of the element labels.

A set of m functions is an (m, n) stack, and the steps after the solvers
take it whole: canonical_order sorts it with one lexsort, dedup_canonical
compares all pairs through one distance matrix, built in row blocks, and
the enumeration scans every root with one gather.
"""
from __future__ import annotations

import numpy as np

from .algebra import closed_system_roots
from .semigroups import FiniteSemigroup, orbit_table

MULT_TOL = 1e-12     # absolute slack for the exact multiplicativity scan
CANON_DECIMALS = 8   # rounding used by the canonical order and dedup
ROOT_TOL = 1e-9      # residual check of the numeric roots before snapping
DRAWS = 8            # combinations drawn at most while the certificate fails
DISTANCE_BLOCK = 2**20  # complex differences max_abs_distances holds at once


def _rounded_parts(F, scale: float) -> np.ndarray:
    """(Re, Im) of F / scale, interleaved along the last axis as a float64 view
    of C-ordered F lays them, rounded at 1e-8; + 0.0 folds -0.0 into 0.0."""
    parts = np.ascontiguousarray(F, dtype=np.complex128).view(np.float64) / scale
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
    stacks of functions, reduced over row blocks of DISTANCE_BLOCK differences."""
    A, B = np.asarray(A), np.asarray(B)
    D = np.zeros((len(A), len(B)))
    rows = max(1, DISTANCE_BLOCK // max(1, B.size))
    for i in range(0, len(A) if len(B) else 0, rows):
        D[i:i + rows] = np.abs(A[i:i + rows, None, :] - B[None, :, :]).max(axis=2)
    return D


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


def enumerate_multiplicative(sg: FiniteSemigroup) -> np.ndarray:
    """All nonzero multiplicative functions as one read-only (m, n) stack,
    canonically ordered.

    Completeness rests on the certificate of closed_system_roots; when no
    draw certifies (eigenvalues closer than the absolute CLUSTER_TOL, as the
    oracle's for two small members of a near-cancelling measure), the roots
    of every draw are pooled.  The roots passed the ROOT_TOL residual, so
    each value lies near its closed-form snap, and one gather checks every
    pair of every snapped root.  dedup_canonical at MULT_TOL drops the zero
    function and keeps one of each run of exact copies: distinct functions
    differ by at least 2 sin(pi / p) in some value, so the order, rounded at
    1e-8, never ties them.
    """
    L = (sg.cayley == np.arange(sg.order)[:, None, None]) * 2  # 2 chi(x) chi(y) = 2 chi(xy)
    roots, _, _ = closed_system_roots(L, ROOT_TOL, draws=DRAWS)
    _, period = orbit_table(sg)
    k = np.rint(np.angle(roots) * period / (2 * np.pi)) % period
    S = np.where(np.abs(roots) < 0.5, 0j, np.exp(2j * np.pi * k / period))
    deviation = np.abs(S[:, sg.cayley] - S[:, :, None] * S[:, None, :]).max(axis=(1, 2))
    S = S[deviation <= MULT_TOL]
    S = S[dedup_canonical(S, MULT_TOL)]
    S.setflags(write=False)
    return S
