"""Roots of closed quadratic systems as joint eigenvectors.

A system in n unknowns is closed when every product of two unknowns is a
linear form: 2 f(x) f(y) = sum_j L[j, x, y] f(j), where the (n, n, n) table L
is the linear side at each unit vector e_j, as equations.linear_part(kind,
eye(n), ...) returns it.  Multiplicativity (L[j, x, y] = 2 where xy = j) and
all three equations of the package are of this form.  Put v = (1, f) and let
M_y be the (n+1) x (n+1) matrix with row 0 equal to e_{1+y} and row 1+x equal
to (0, L[:, x, y] / 2); the M_y are notation, and each product with them is
read off L.  Every root satisfies M_y v = f(y) v, so the roots are the joint
eigenvectors of the M_y and f is read off as the joint eigenvalue
(Stickelberger's eigenvalue method: Moller & Stetter 1995; Cox, Little &
O'Shea, Using Algebraic Geometry, ch. 2).

Rows (x, y) and (y, x) share their quadratic term, so L[:, x, y] - L[:, y, x]
is a linear form that vanishes on every root.  The roots therefore span a
subspace of N, the largest subspace that these forms annihilate and that
every M_y maps into itself; there are at most dim N <= n + 1 of them.  One
eig of a random combination C = sum_y c_y M_y on N separates the roots by
the value c . f.  Eigenvalues closer than CLUSTER_TOL form one cluster; a
simple eigenvalue gives its root as v / v_0, and a cluster holding one root
of multiplicity m spans an m-dimensional invariant subspace W on which every
M_y has the single eigenvalue f(y), so its root is f(y) = trace(W^H M_y W) / m.

Certificate: every cluster's root passes the residual check.  Two roots
merged into one cluster average to a point whose residual is
2 t (1 - t) max|f1 - f2|^2, which fails the check unless the two lie closer
than about sqrt(tol); so a certified draw has one root per cluster and,
every root lying in N, misses none.  A failed certificate is answered by a
fresh c.

L is cast to complex128 once: a mixed complex-by-float product is slow
under OpenBLAS threads.  Where the symmetry forms vanish (a commutative
table), N is all of C^(n+1) and no SVD or closure step runs.
"""
from __future__ import annotations

import functools

import numpy as np

NULL_TOL = 1e-9      # singular values below this (relative) span a null space
CLUSTER_TOL = 1e-4   # eigenvalues of C closer than this are one root


def _null_space(G: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of G, by QR and then an SVD of
    the R factor (an SVD of a tall G costs far more)."""
    _, s, vh = np.linalg.svd(np.linalg.qr(G, mode="r"))
    rank = int(np.count_nonzero(s > NULL_TOL * max(1.0, s[0])))
    return vh[rank:].conj().T


def _images(L: np.ndarray, W: np.ndarray) -> np.ndarray:
    """M_y W for every y, stacked as shape (n, n+1, k)."""
    n, k = len(L), W.shape[1]
    out = np.empty((n, n + 1, k), dtype=np.complex128)
    out[:, 0] = W[1:]
    out[:, 1:] = (L.reshape(n, n * n).T @ (W[1:] / 2.0)).reshape(n, n, k).transpose(1, 0, 2)
    return out


def _closed_subspace(L: np.ndarray) -> np.ndarray:
    """Orthonormal basis Q of N, shape (n+1, dim N).  With no symmetry forms
    Q is the identity as _null_space returns it for zero forms, -0j and all."""
    n = len(L)
    if np.array_equal(L, L.transpose(0, 2, 1)):
        return np.eye(n + 1, dtype=L.dtype).conj()
    forms = np.zeros((n + 1, n, n), dtype=L.dtype)  # forms[:, x, y] is form (x, y)
    np.subtract(L, L.transpose(0, 2, 1), out=forms[1:])
    Q = _null_space(forms.reshape(n + 1, n * n).T)
    del forms  # an n^3 array the closure no longer needs
    while 0 < Q.shape[1] < n + 1:
        outside = _images(L, Q)
        outside -= Q @ (Q.conj().T @ outside)
        keep = _null_space(outside.reshape(-1, Q.shape[1]))
        if keep.shape[1] == Q.shape[1]:
            break
        Q = Q @ keep
    return Q


def _clusters(lam: np.ndarray, tol: float) -> list[np.ndarray]:
    """Connected components of the graph |lam_i - lam_j| <= tol, in order of
    their smallest index."""
    near = np.abs(lam[:, None] - lam[None, :]) <= tol
    label = np.arange(lam.size)
    if np.count_nonzero(near) == lam.size and near.diagonal().all():  # no two near
        return [label[i:i + 1] for i in range(lam.size)]
    while True:
        new = np.where(near, label[None, :], lam.size).min(axis=1)
        if np.array_equal(new, label):
            break
        label = new
    return [np.flatnonzero(label == k) for k in np.unique(label)]


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
    Q = _closed_subspace(L)
    roots, res = [], []
    for k in range(draws):
        c = _combination(seed, n, k)
        C = np.zeros((n + 1, n + 1), dtype=np.complex128)
        C[0, 1:] = c
        C[1:, 1:] = (L @ c).T / 2.0
        C = Q.conj().T @ C @ Q
        lam, V = np.linalg.eig(C)
        U = Q @ V  # eigenvectors as v = (v_0, ...) in C^(n+1)
        clusters = _clusters(lam, CLUSTER_TOL)
        F = np.empty((len(clusters), n), dtype=np.complex128)
        single = [i for i, idx in enumerate(clusters) if idx.size == 1]
        cols = [clusters[i][0] for i in single]
        with np.errstate(divide="ignore", invalid="ignore"):
            F[single] = (U[1:, cols] / U[0, cols]).T
        for i, idx in enumerate(clusters):
            if idx.size == 1:
                continue
            shifted = C - lam[idx].mean() * np.eye(C.shape[0])
            _, _, vh = np.linalg.svd(np.linalg.matrix_power(shifted, idx.size))
            W = Q @ vh[-idx.size:].conj().T  # orthonormal basis of the cluster
            F[i] = np.einsum("jm,yjm->y", W.conj(), _images(L, W)) / idx.size
        r = _residuals(L, F)
        ok = r <= tol
        if ok.all():
            return F, r, True
        roots.append(F[ok])
        res.append(r[ok])
    return np.concatenate(roots), np.concatenate(res), False
