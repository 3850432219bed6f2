"""Roots of closed quadratic systems as joint eigenvectors.

A system in n unknowns is closed when every product of two unknowns is a
linear form: f(x) f(y) = (A f)_{xy} / 2 for all pairs (x, y), with A of shape
n^2 x n and row x*n+y.  Multiplicativity (A[(x, y), xy] = 2) and all three
equations of the package are of this form.  Put v = (1, f) and let M_y be
the (n+1) x (n+1) matrix with row 0 equal to e_{1+y} and row 1+x equal to
(0, A[(x, y), :] / 2).  Every root satisfies M_y v = f(y) v, so the roots
are the joint eigenvectors of the M_y and f is read off as the joint
eigenvalue (Stickelberger's eigenvalue method: Moller & Stetter 1995; Cox,
Little & O'Shea, Using Algebraic Geometry, ch. 2).

Rows (x, y) and (y, x) share their quadratic term, so their difference is a
linear form that vanishes on every root.  The roots therefore span a
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

A is cast to complex128 once: a mixed complex-by-float product is slow
under OpenBLAS threads.  Where the symmetry forms vanish (a commutative
table), N is all of C^(n+1) and no SVD or closure step runs.
"""
from __future__ import annotations

import numpy as np

NULL_TOL = 1e-9      # singular values below this (relative) span a null space
CLUSTER_TOL = 1e-4   # eigenvalues of C closer than this are one root


def _null_space(G: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of a tall G, by QR and then an
    SVD of the small R factor (a tall SVD costs far more)."""
    d = G.shape[1]
    if G.shape[0] > d:
        G = np.linalg.qr(G, mode="r")
    _, s, vh = np.linalg.svd(G)
    rank = int(np.count_nonzero(s > NULL_TOL * max(1.0, s[0])))
    return vh[rank:].conj().T


def _multiplication_matrices(A: np.ndarray) -> np.ndarray:
    """The M_y stacked as shape (n, n+1, n+1)."""
    n = A.shape[1]
    M = np.zeros((n, n + 1, n + 1), dtype=A.dtype)
    M[:, 1:, 1:] = A.reshape(n, n, n).transpose(1, 0, 2) / 2.0
    M[np.arange(n), 0, 1 + np.arange(n)] = 1.0
    return M


def _closed_subspace(A: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Orthonormal basis Q of N, shape (n+1, dim N).  With no symmetry forms
    Q is the identity as _null_space returns it for zero forms, -0j and all."""
    n = A.shape[1]
    A3 = A.reshape(n, n, n)
    if np.array_equal(A3, A3.transpose(1, 0, 2)):
        return np.eye(n + 1, dtype=A.dtype).conj()
    forms = np.zeros((n * n, n + 1), dtype=A.dtype)
    forms[:, 1:] = (A3 - A3.transpose(1, 0, 2)).reshape(n * n, n)
    Q = _null_space(forms)
    while 0 < Q.shape[1] < n + 1:
        outside = M @ Q
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


def _residuals(A: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Max-abs residual of A f - 2 f(x) f(y) for each row f of F."""
    n = A.shape[1]
    R = (F @ A.T).reshape(-1, n, n)
    R -= 2.0 * F[:, :, None] * F[:, None, :]  # in place: one n^3 temporary fewer
    return np.abs(R).reshape(F.shape[0], -1).max(axis=1)


def closed_system_roots(
    A: np.ndarray, tol: float, seed: int = 0, draws: int = 1
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Roots of f(x) f(y) = (A f)_{xy} / 2 with their residuals, and whether
    a combination certified them (see the module docstring).

    Combination k is drawn from an RNG seeded by (seed, k), and a fresh one
    is drawn only while the certificate fails, at most draws in all.  The
    roots are those of every draw made whose residual is at most tol (the
    zero root included), so they may repeat; with certified False some may
    be missing.
    """
    A = np.asarray(A, dtype=np.complex128)
    n = A.shape[1]
    M = _multiplication_matrices(A)
    Q = _closed_subspace(A, M)
    roots, res = [], []
    certified = False
    for k in range(draws):
        rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, k])
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        C = Q.conj().T @ np.einsum("y,yij->ij", c / np.linalg.norm(c), M) @ Q
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
            F[i] = np.einsum("jm,yjm->y", W.conj(), M @ W) / idx.size
        r = _residuals(A, F)
        ok = r <= tol
        roots.append(F[ok])
        res.append(r[ok])
        if ok.all():
            certified = True
            break
    return np.concatenate(roots), np.concatenate(res), certified
