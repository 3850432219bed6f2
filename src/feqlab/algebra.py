"""Roots of closed quadratic systems as joint eigenvectors.

A system in n unknowns is closed when every product of two unknowns is a
linear form: 2 f(x) f(y) = sum_j L[j, x, y] f(j), where the (n, n, n) table L
is the linear side at each unit vector e_j, as equations.linear_part(kind,
eye(n), inst) returns it.  Multiplicativity (L[j, x, y] = 2 where xy = j) and
all three equations of the package are of this form.  Let A_y be the n x n
matrix with row x equal to L[:, x, y] / 2; the A_y are notation, and each
product with them is read off L.  The system says A_y f = f(y) f, so every
nonzero root is a joint eigenvector of the A_y and f is read off as the
joint eigenvalue (Stickelberger's eigenvalue method: Moller & Stetter 1995;
Cox, Little & O'Shea, Using Algebraic Geometry, ch. 2).  The zero function
is a root of every such system; it is known exactly and is row 0 of the
roots, with residual 0, outside any eigenproblem.

Rows (x, y) and (y, x) share their quadratic term, so L[:, x, y] - L[:, y, x]
is a linear form that vanishes on every root.  The nonzero roots therefore
lie in W, the largest subspace of C^n that these forms annihilate and that
every A_y maps into itself, one eigenvector each; there are at most dim W of
them.  One eig of the random combination B = W^H (sum_y c_y A_y) W separates
them by c . f.  Eigenvalues closer than CLUSTER_TOL form one cluster.  A
cluster holding one root of multiplicity m spans an m-dimensional invariant
subspace, with orthonormal basis Z (W times the unit eigenvector when m = 1),
on which every A_y has the single eigenvalue f(y); so every cluster's root is
read by one rule, f(y) = trace(Z^H A_y Z) / m.  Where the zero root is
multiple, B keeps the rest of its multiplicity at 0 and a cluster there reads
the zero root again.

Certificate: every cluster's root passes the residual check.  Two roots
merged into one cluster average to a point whose residual is
2 t (1 - t) max|f1 - f2|^2, which fails the check unless the two lie closer
than about sqrt(tol); so a certified draw has one root per cluster and,
every nonzero root lying in W, misses none.  A failed certificate is
answered by a fresh c.

L is cast to complex128 once: a mixed complex-by-float product is slow
under OpenBLAS threads.  Where the symmetry forms vanish (a commutative
table), W is all of C^n and no SVD or closure step runs.  The closure
stops once the part of A_y W outside W has Frobenius norm at most NULL_TOL:
the norm bounds the largest singular value, so _null_space would keep W.
"""
from __future__ import annotations

import functools

import numpy as np

NULL_TOL = 1e-9      # singular values below this (relative) span a null space
CLUSTER_TOL = 1e-4   # eigenvalues of B closer than this are one root


def _null_space(G: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of G, by QR and then an SVD of
    the R factor (an SVD of a tall G costs far more)."""
    _, s, vh = np.linalg.svd(np.linalg.qr(G, mode="r"))
    rank = int(np.count_nonzero(s > NULL_TOL * max(1.0, s[0])))
    return vh[rank:].conj().T


def _lower_images(L: np.ndarray, W: np.ndarray) -> np.ndarray:
    """A_y W for every y, stacked as shape (n, n, k)."""
    n, k = len(L), W.shape[1]
    return (L.reshape(n, n * n).T @ (W / 2.0)).reshape(n, n, k).transpose(1, 0, 2)


def _closed_subspace(L: np.ndarray) -> np.ndarray:
    """Orthonormal basis W of the closed subspace, shape (n, dim W).  With no
    symmetry forms W is the identity as _null_space returns it for zero
    forms, -0j and all."""
    n = len(L)
    if np.array_equal(L, L.transpose(0, 2, 1)):
        return np.eye(n, dtype=L.dtype).conj()
    W = _null_space((L - L.transpose(0, 2, 1)).reshape(n, n * n).T)  # the symmetry forms
    while 0 < W.shape[1] < n:
        outside = _lower_images(L, W)
        outside -= W @ (W.conj().T @ outside)
        if np.linalg.norm(outside) <= NULL_TOL:  # W is closed (module docstring)
            break
        keep = _null_space(outside.reshape(-1, W.shape[1]))
        if keep.shape[1] == W.shape[1]:
            break
        W = W @ keep
    return W


def _cluster_roots(L, W, B, lam, V) -> np.ndarray:
    """The zero root, then one root per cluster, a component of the graph of
    eigenvalues lam of B closer than CLUSTER_TOL, in order of smallest index:
    trace(Z^H A_y Z) / m for an orthonormal basis Z of its invariant subspace."""
    near = np.abs(lam[:, None] - lam[None, :]) <= CLUSTER_TOL
    label = np.arange(lam.size)
    while True:
        new = np.where(near, label[None, :], lam.size).min(axis=1, initial=lam.size)
        if (new == label).all():
            break
        label = new
    first = np.flatnonzero(label == np.arange(lam.size))  # label: the smallest index
    counts = np.bincount(label)[first]
    starts = counts.cumsum() - counts
    order = np.argsort(label, kind="stable")  # each cluster's columns side by side
    Y = V[:, order]
    for s, m in zip(starts[counts > 1].tolist(), counts[counts > 1].tolist()):
        shifted = B - lam[order[s:s + m]].mean() * np.eye(len(B))
        _, _, vh = np.linalg.svd(np.linalg.matrix_power(shifted, m))
        Y[:, s:s + m] = vh[-m:].conj().T
    Z, n = W @ Y, len(L)
    AZ = (Z.T @ L.reshape(n, n * n)).reshape(-1, n, n)  # 2 (A_y Z)[x, column] at [column, x, y]
    F = np.zeros((first.size + 1, n), dtype=np.complex128)
    F[1:] = np.add.reduceat((Z.conj().T[:, None] @ AZ)[:, 0], starts) / (2.0 * counts[:, None])
    return F


def _residuals(L: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Max-abs residual of L f - 2 f(x) f(y) for each row f of F."""
    n = len(L)
    R = (F @ L.reshape(n, n * n)).reshape(-1, n, n)
    R -= 2.0 * F[:, :, None] * F[:, None, :]  # in place: one n^3 temporary fewer
    return np.abs(R).reshape(F.shape[0], -1).max(axis=1)


@functools.lru_cache(maxsize=256)
def _combination(seed: int, n: int, k: int) -> np.ndarray:
    """Combination k of seed: a complex Gaussian c / ||c|| from an RNG seeded
    by (seed, k), drawn once per (seed, n, k) and read-only."""
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, k])
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c /= np.linalg.norm(c)
    c.setflags(write=False)
    return c


def closed_system_roots(
    L: np.ndarray, tol: float, seed: int = 0, draws: int = 1
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Roots of 2 f(x) f(y) = sum_j L[j, x, y] f(j) with their residuals, and
    whether a combination certified them (see the module docstring).

    Combination k is drawn from an RNG seeded by (seed, k), and a fresh one
    is drawn only while the certificate fails, at most draws in all.  A draw
    that certifies returns its own roots, the zero root included.  When none
    does, the roots of every draw whose residual is at most tol are pooled,
    so they may repeat and some may be missing.
    """
    L = np.asarray(L, dtype=np.complex128)
    n = len(L)
    W = _closed_subspace(L)
    roots, res = [], []
    for k in range(draws):
        B = W.conj().T @ ((L @ _combination(seed, n, k)).T / 2.0) @ W
        F = _cluster_roots(L, W, B, *np.linalg.eig(B))
        r = _residuals(L, F)
        ok = r <= tol
        if ok.all():
            return F, r, True
        roots.append(F[ok])
        res.append(r[ok])
    return np.concatenate(roots), np.concatenate(res), False
