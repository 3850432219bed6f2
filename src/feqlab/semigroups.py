"""Finite semigroups as validated Cayley tables, plus a small builder zoo.

Elements are the indices 0..n-1; labels, if any, live in the CLI layer.
All types are immutable after validation and every operation is pure.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import (
    EntryOutOfRange,
    NotAntiHomomorphism,
    NotAssociative,
    NotInvolutive,
)


ASSOC_BLOCK = 2**20  # triples per block of the associativity scan


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class FiniteSemigroup:
    """An order-n semigroup given by its n-by-n Cayley table of indices."""

    order: int
    cayley: np.ndarray


@dataclass(frozen=True, eq=False)
class Involution:
    """A permutation tau with tau(xy) = tau(y)tau(x) and tau(tau(x)) = x."""

    perm: np.ndarray


def validate_semigroup(table) -> FiniteSemigroup:
    """Check range and associativity of a square index table.

    Associativity is a full O(n^3) scan in blocks of rows x, each block
    comparing (x*y)*z with x*(y*z) over at most ASSOC_BLOCK triples, so the
    memory stays O(n^2) for large n; up to n = 101 it is one block.  The
    failure reported is the first triple in (x, y, z) order.
    """
    t = np.asarray(table, dtype=np.int64)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] == 0:
        raise EntryOutOfRange(f"expected a non-empty square table, got shape {t.shape}")
    n = t.shape[0]
    if t.min() < 0 or t.max() >= n:
        bad = np.argwhere((t < 0) | (t >= n))[0]
        raise EntryOutOfRange(
            f"entry {t[bad[0], bad[1]]} at ({bad[0]}, {bad[1]}) outside [0, {n})"
        )
    rows = max(1, ASSOC_BLOCK // (n * n))
    for start in range(0, n, rows):
        block = t[start:start + rows]
        left = t[block, :]   # left[x, y, z] = (x*y)*z
        right = block[:, t]  # right[x, y, z] = x*(y*z)
        if not np.array_equal(left, right):
            x, y, z = np.argwhere(left != right)[0]
            raise NotAssociative((start + int(x), int(y), int(z)))
    return FiniteSemigroup(order=n, cayley=_frozen(t))


def validate_involution(sg: FiniteSemigroup, perm) -> Involution:
    """Check that perm is an involutive anti-automorphism of sg."""
    p = np.asarray(perm, dtype=np.int64)
    n = sg.order
    if p.shape != (n,) or not np.array_equal(np.sort(p), np.arange(n)):
        raise NotInvolutive(f"expected a permutation of [0, {n})")
    if not np.array_equal(p[p], np.arange(n)):
        x = int(np.flatnonzero(p[p] != np.arange(n))[0])
        raise NotInvolutive(f"tau(tau({x})) = {int(p[p[x]])} != {x}")
    t = sg.cayley
    lhs = p[t]                       # tau(x*y)
    rhs = t[np.ix_(p, p)].T          # tau(y)*tau(x)
    if not np.array_equal(lhs, rhs):
        x, y = np.argwhere(lhs != rhs)[0]
        raise NotAntiHomomorphism(
            f"tau({x}*{y}) = {int(lhs[x, y])} but tau({y})*tau({x}) = {int(rhs[x, y])}"
        )
    return Involution(perm=_frozen(p))


def center(sg: FiniteSemigroup) -> tuple[int, ...]:
    """Indices commuting with every element."""
    mask = (sg.cayley == sg.cayley.T).all(axis=1)
    return tuple(int(z) for z in np.flatnonzero(mask))


def orbit_table(sg: FiniteSemigroup) -> tuple[np.ndarray, np.ndarray]:
    """(index, period) of every x as two arrays, from one walk of x^k, k <= 2n.
    index + period <= n + 1, so x^n is on the cycle: the period is the least
    p with x^(n+p) = x^n, the index the least i with x^(i+p) = x^i."""
    n = sg.order
    x = np.arange(n)
    powers = np.empty((2 * n + 1, n), dtype=np.int64)  # powers[k] = x^k, k >= 1
    powers[1] = x
    for k in range(2, 2 * n + 1):
        powers[k] = sg.cayley[powers[k - 1], x]
    period = (powers[n + 1:] == powers[n]).argmax(axis=0) + 1
    i = np.arange(1, n + 1)[:, None]
    index = (powers[i + period, x] == powers[1:n + 1]).argmax(axis=0) + 1
    return index, period


def identity_of(sg: FiniteSemigroup) -> int | None:
    """Two-sided identity element, or None."""
    n = np.arange(sg.order)
    two_sided = (sg.cayley == n).all(axis=1) & (sg.cayley.T == n).all(axis=1)
    hits = np.flatnonzero(two_sided)
    return int(hits[0]) if hits.size else None


# ---------------------------------------------------------------------------
# builders (all deterministic; all outputs revalidated)

def cyclic_group(n: int) -> FiniteSemigroup:
    if n < 1:
        raise ValueError("order must be positive")
    i = np.arange(n)
    return validate_semigroup((i[:, None] + i[None, :]) % n)


def direct_product(a: FiniteSemigroup, b: FiniteSemigroup) -> FiniteSemigroup:
    """Product semigroup with pairs ordered lexicographically: (i, j) -> i*|b| + j."""
    nb = b.order
    t = a.cayley[:, None, :, None] * nb + b.cayley[None, :, None, :]
    n = a.order * nb
    return validate_semigroup(t.reshape(n, n))


def symmetric_group_3() -> FiniteSemigroup:
    """S3 with elements the permutations of (0,1,2) in lexicographic order."""
    perms = list(permutations(range(3)))
    index = {p: k for k, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms
    ]
    return validate_semigroup(table)


def left_zero(n: int) -> FiniteSemigroup:
    """x * y = x for all x, y."""
    if n < 1:
        raise ValueError("order must be positive")
    return validate_semigroup(np.tile(np.arange(n)[:, None], (1, n)))


def cyclic_semigroup(index: int, period: int) -> FiniteSemigroup:
    """Monogenic semigroup whose generator has the given index and period.

    Carrier is {x, x^2, ..., x^(index+period-1)}, so the order is
    index + period - 1; exponents at or past the index wrap modulo period.
    """
    if index < 1 or period < 1:
        raise ValueError("index and period must be positive")
    n = index + period - 1
    e = np.add.outer(np.arange(1, n + 1), np.arange(1, n + 1))  # exponent of x^a x^b
    return validate_semigroup(np.where(e > n, index + (e - index) % period, e) - 1)


def identity_involution(sg: FiniteSemigroup) -> Involution:
    """The identity map; an involution exactly when sg is abelian."""
    return validate_involution(sg, np.arange(sg.order))


def inverse_involution(sg: FiniteSemigroup) -> Involution:
    """Group inversion x -> x^(-1); requires sg to be a group."""
    e = identity_of(sg)
    if e is None:
        raise ValueError("semigroup has no identity, cannot invert")
    inv = np.full(sg.order, -1, dtype=np.int64)
    for x in range(sg.order):
        hits = np.flatnonzero((sg.cayley[x] == e) & (sg.cayley[:, x] == e))
        if hits.size != 1:
            raise ValueError(f"element {x} has no unique two-sided inverse")
        inv[x] = hits[0]
    return validate_involution(sg, inv)
