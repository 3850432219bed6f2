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
every M_y maps into itself; there are at most dim N <= n + 1 of them.  M_y
sends e_0 to 0 and (0, w) to (w_y, A_y w), A_y = M_y[1:, 1:], so N is
e_0 + (0, W) for the largest such W in C^n under the A_y: the zero root's
direction e_0 is an exact basis column, whatever basis of W the SVD gives.
One eig of a random combination C = sum_y c_y M_y on N separates the roots
by c . f.  Eigenvalues closer than CLUSTER_TOL form one cluster; a simple
one gives its root as v / v_0, and a cluster holding one root of
multiplicity m spans an m-dimensional invariant subspace Z on which every
M_y has the single eigenvalue f(y), so its root is trace(Z^H M_y Z) / m.

Certificate: every cluster's root passes the residual check.  Two roots
merged into one cluster average to a point whose residual is
2 t (1 - t) max|f1 - f2|^2, which fails the check unless the two lie closer
than about sqrt(tol); so a certified draw has one root per cluster and,
every root lying in N, misses none.  A failed certificate is answered by a
fresh c.  When no two eigenvalues are near, one division reads every root.

L is cast to complex128 once: a mixed complex-by-float product is slow
under OpenBLAS threads.  Where the symmetry forms vanish (a commutative
table), N is all of C^(n+1) and no SVD or closure step runs.  The closure
stops once the part of A_y W outside W has Frobenius norm at most NULL_TOL:
the norm bounds the largest singular value, so _null_space would keep W.
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


def _lower_images(L: np.ndarray, W: np.ndarray) -> np.ndarray:
    """A_y W for every y, stacked as shape (n, n, k)."""
    n, k = len(L), W.shape[1]
    return (L.reshape(n, n * n).T @ (W / 2.0)).reshape(n, n, k).transpose(1, 0, 2)


def _images(L: np.ndarray, W: np.ndarray) -> np.ndarray:
    """M_y W for every y, stacked as shape (n, n+1, k)."""
    return np.concatenate((W[1:, None], _lower_images(L, W[1:])), axis=1)


def _closed_subspace(L: np.ndarray) -> np.ndarray:
    """Orthonormal basis Q = [[1, 0], [0, W]] of N, shape (n+1, dim N), with
    e_0 exact.  With no symmetry forms Q is the identity as _null_space
    returns it for zero forms, -0j and all."""
    n = len(L)
    if np.array_equal(L, L.transpose(0, 2, 1)):
        return np.eye(n + 1, dtype=L.dtype).conj()
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
    Q = np.eye(n + 1, W.shape[1] + 1, dtype=W.dtype)  # row 0 and column 0 are e_0
    Q[1:, 1:] = W
    return Q


def _cluster_roots(L, Q, C, lam, U, near) -> np.ndarray:
    """One root per cluster, a component of the graph near on the eigenvalues
    lam of C, in order of smallest index: v / v_0 (v in U) or the trace."""
    label = np.arange(lam.size)
    while True:
        new = np.where(near, label[None, :], lam.size).min(axis=1)
        if np.array_equal(new, label):
            break
        label = new
    first = np.flatnonzero(label == np.arange(lam.size))  # label: the smallest index
    counts = np.bincount(label)[first]
    F = np.empty((first.size, len(L)), dtype=np.complex128)
    single = counts == 1
    with np.errstate(divide="ignore", invalid="ignore"):
        F[single] = (U[1:, first[single]] / U[0, first[single]]).T
    for i in np.flatnonzero(~single).tolist():
        m = int(counts[i])
        shifted = C - lam[label == first[i]].sum() / m * np.eye(C.shape[0])  # the mean
        _, _, vh = np.linalg.svd(np.linalg.matrix_power(shifted, m))
        Z = Q @ vh[-m:].conj().T  # orthonormal basis of the cluster
        F[i] = np.einsum("jm,yjm->y", Z.conj(), _images(L, Z)) / m
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
        near = np.abs(lam[:, None] - lam[None, :]) <= CLUSTER_TOL
        if np.count_nonzero(near) == lam.size and near.diagonal().all():  # no two near
            with np.errstate(divide="ignore", invalid="ignore"):
                F = np.ascontiguousarray((U[1:] / U[0]).T)
        else:
            F = _cluster_roots(L, Q, C, lam, U, near)
        r = _residuals(L, F)
        ok = r <= tol
        if ok.all():
            return F, r, True
        roots.append(F[ok])
        res.append(r[ok])
    return np.concatenate(roots), np.concatenate(res), False
