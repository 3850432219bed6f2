"""Independent numeric solver: random-restart undamped Gauss-Newton.

Each equation is a quadratic system in the n complex values of f: a linear
part A f (the measure-weighted shifts) plus the uniform quadratic term
-2 f(x) f(y), one complex equation per pair (x, y).  The residual is
holomorphic, so the solver steps in complex arithmetic: the minimum-norm
step -pinv(J^H J) J^H r, whose Gram matrix and gradient have a closed form
in A and f, so the n^2 x n Jacobian is never built.  A halving line search
follows each step; the pseudoinverse keeps rank-deficient Jacobians (e.g.
at f = 0) unexceptional.

Restarts are seeded independently by their counter and merged by canonical
sort, so the result is bit-identical across runs and thread counts.  Random
restarts cannot prove exhaustiveness; completeness statements are always of
the form "the oracle found nothing outside the constructed family".
"""
from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .characters import canonical_key, max_abs, max_abs_diff
from .equations import Instance, linear_part
from .errors import InvalidEnvironment
from .families import Solution, SolutionReport


class NoConvergenceBudget(RuntimeWarning):
    """Fewer than 10% of restarts converged; results may be thin."""


@dataclass(frozen=True)
class OracleConfig:
    restarts: int = 400
    start_radius: float = 2.0
    max_iters: int = 200
    converge_tol: float = 1e-12
    dedup_eps: float = 1e-6
    rng_seed: int = 0

    def __post_init__(self):
        if min(self.restarts, self.max_iters) < 1:
            raise ValueError("restarts and max_iters must be positive")
        if min(self.start_radius, self.converge_tol, self.dedup_eps) <= 0:
            raise ValueError("radius and tolerances must be positive")
        if self.dedup_eps <= self.converge_tol:
            raise ValueError("dedup_eps must exceed converge_tol")


def thread_count() -> int:
    """Worker cap from FEQLAB_THREADS; 0 or unset means auto."""
    raw = os.environ.get("FEQLAB_THREADS", "").strip()
    if not raw or raw == "0":
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise InvalidEnvironment(
            f"FEQLAB_THREADS must be a non-negative integer, got {raw!r}"
        )
    return value


def equation_matrix(kind: str, inst: Instance) -> np.ndarray:
    """Linear part A of the residual system: row x*n+y, one column per
    element, so that the full residual is A f - 2 f(x) f(y).  Column j is
    the equation's linear side evaluated at the j-th unit vector."""
    n = inst.sg.order
    columns = linear_part(kind, np.eye(n, dtype=np.complex128), inst.sg, inst.tau, inst.mu)
    # C order: einsum picks its loop order, and BLAS its kernel for A^H A, from
    # the strides, so the oracle's bits may depend on layout
    return np.ascontiguousarray(columns.reshape(n, n * n).T)


def _residual(A: np.ndarray, F: np.ndarray, rx: np.ndarray, ry: np.ndarray) -> np.ndarray:
    return np.einsum("kj,pj->kp", F, A) - 2.0 * F[:, rx] * F[:, ry]


def _sq_norm(rc: np.ndarray) -> np.ndarray:
    return np.einsum("kr,kr->k", rc.real, rc.real) + np.einsum(
        "kr,kr->k", rc.imag, rc.imag
    )


def _normal_equations(
    A: np.ndarray, AhA: np.ndarray, F: np.ndarray, rc: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix J^H J and gradient J^H r per row of F, in closed form.

    The Jacobian is J = A - 2Q, where row (x, y) of Q holds F_y in column x
    and F_x in column y.  With R = r as an n x n table and A3 = A as an
    n x n x n one, Q^H r = sum_x conj F_x R[x, :] + sum_y conj F_y R[:, y],
    Q^H A = M with M[j, m] = sum_x conj F_x A3[x, j, m] + sum_y conj F_y
    A3[j, y, m], and Q^H Q = 2 (|F|^2 I + F F^H), so J (n^2 x n per
    restart) is never formed.
    """
    K, n = F.shape
    Fc = F.conj()
    A3 = A.reshape(n, n, n)
    R = rc.reshape(K, n, n)
    M = np.einsum("kx,xjm->kjm", Fc, A3) + np.einsum("ky,jym->kjm", Fc, A3)
    G = AhA - 2.0 * (M + M.conj().transpose(0, 2, 1))
    G += 8.0 * np.einsum("kj,km->kjm", F, Fc)
    diag = np.arange(n)
    G[:, diag, diag] += 8.0 * np.einsum("kj,kj->k", Fc, F).real[:, None]
    QhR = np.einsum("kx,kxj->kj", Fc, R) + np.einsum("ky,kjy->kj", Fc, R)
    g = np.einsum("kp,pj->kj", rc, A.conj()) - 2.0 * QhR
    return G, g


def _gauss_newton_step(
    A: np.ndarray, AhA: np.ndarray, F: np.ndarray, rc: np.ndarray
) -> np.ndarray:
    """Minimum-norm Gauss-Newton step -pinv(J) r, as -pinv(J^H J) J^H r."""
    G, g = _normal_equations(A, AhA, F, rc)
    return -np.einsum("kjm,km->kj", np.linalg.pinv(G, hermitian=True), g)


def _start_point(seed: int, k: int, n: int, radius: float) -> np.ndarray:
    """Uniform draw from the complex disc of the given radius, per coordinate,
    from an RNG derived only from (seed, restart counter)."""
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, k])
    r = radius * np.sqrt(rng.uniform(size=n))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return r * np.exp(1j * theta)


def _sampling_radius(kind: str, inst: Instance, cfg: OracleConfig) -> float:
    """Effective start radius for one instance.

    Taking y = x at the argmax of |f| in either integral equation gives
    |f|^2 <= |f| * sum_i |w_i|, so every solution lives in the closed disc of
    radius sum_i |w_i| per coordinate (radius 1 for d'Alembert).  Sampling
    from twice that keeps the basins of boundary-norm solutions covered;
    cfg.start_radius acts as a floor, so unit-mass instances keep the
    configured disc.
    """
    bound = (
        1.0
        if kind == "dalembert"
        else float(np.sum(np.abs(inst.mu.weights)))
    )
    return max(cfg.start_radius, 2.0 * bound)


def _gauss_newton_chunk(
    A: np.ndarray, starts: np.ndarray, radius: float, cfg: OracleConfig
) -> list[tuple[np.ndarray, float] | None]:
    """Run all restarts of one chunk in lockstep.

    Every array operation below is elementwise per restart or per-matrix, and
    the products over restarts are einsums, whose sums run in the same order
    for any batch size (BLAS switches from gemm to gemv for one row, which
    changes the bits).  So each trajectory is exactly what a scalar
    implementation would produce; the batching (and hence the chunking
    across threads) cannot change results.
    """
    n = A.shape[1]
    K = starts.shape[0]
    rx = np.repeat(np.arange(n), n)
    ry = np.tile(np.arange(n), n)
    bound = 10.0 * radius
    AhA = A.conj().T @ A

    U = starts.astype(np.complex128)
    alive = np.ones(K, dtype=bool)
    results: list[tuple[np.ndarray, float] | None] = [None] * K

    def record_converged(idx: np.ndarray, F: np.ndarray, res: np.ndarray) -> np.ndarray:
        conv = res < cfg.converge_tol
        for j in np.flatnonzero(conv):
            results[int(idx[j])] = (F[j].copy(), float(res[j]))
        return conv

    for _ in range(cfg.max_iters):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        F = U[idx]
        rc = _residual(A, F, rx, ry)
        res = np.abs(rc).max(axis=1)
        conv = record_converged(idx, F, res)
        diverged = np.abs(F).max(axis=1) > bound
        drop = conv | diverged
        if drop.any():
            alive[idx[drop]] = False
            keep = ~drop
            idx, F, rc = idx[keep], F[keep], rc[keep]
            if idx.size == 0:
                continue

        step = _gauss_newton_step(A, AhA, F, rc)
        base = _sq_norm(rc)
        Unew = F.copy()
        alpha = np.ones(idx.size)
        pending = np.ones(idx.size, dtype=bool)
        for _ in range(60):
            cand = F + alpha[:, None] * step
            s = _sq_norm(_residual(A, cand, rx, ry))
            ok = pending & (s < base)
            Unew[ok] = cand[ok]
            pending &= ~ok
            if not pending.any():
                break
            alpha[pending] *= 0.5
        if pending.any():
            # no descent direction left at tiny steps: stalled, give up
            alive[idx[pending]] = False
        good = ~pending
        U[idx[good]] = Unew[good]

    idx = np.flatnonzero(alive)
    if idx.size:
        F = U[idx]
        res = np.abs(_residual(A, F, rx, ry)).max(axis=1)
        record_converged(idx, F, res)
    return results


def oracle_solve(kind: str, inst: Instance, cfg: OracleConfig | None = None) -> SolutionReport:
    """Find all solutions of the chosen equation reachable by the restarts.

    The measure is ignored for kind "dalembert".  Converged points are
    deduplicated by greedy clustering at dedup_eps (cluster representative:
    smallest residual, earliest restart on ties), the zero solution is
    dropped, and the rest is canonically sorted.
    """
    if cfg is None:
        cfg = OracleConfig()
    A = equation_matrix(kind, inst)
    n = inst.sg.order
    radius = _sampling_radius(kind, inst, cfg)
    workers = max(1, min(thread_count(), cfg.restarts))
    chunks = np.array_split(np.arange(cfg.restarts), workers)

    def run(chunk: np.ndarray) -> list[tuple[np.ndarray, float] | None]:
        starts = np.stack(
            [_start_point(cfg.rng_seed, int(k), n, radius) for k in chunk]
        )
        return _gauss_newton_chunk(A, starts, radius, cfg)

    if workers == 1:
        per_chunk = [run(chunks[0])]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_chunk = list(pool.map(run, chunks))

    converged: list[tuple[int, np.ndarray, float]] = []
    for chunk, outcomes in zip(chunks, per_chunk):
        for k, outcome in zip(chunk, outcomes):
            if outcome is not None:
                converged.append((int(k), outcome[0], outcome[1]))

    if len(converged) < 0.10 * cfg.restarts:
        warnings.warn(
            NoConvergenceBudget(
                f"{len(converged)}/{cfg.restarts} restarts converged on {kind}"
            )
        )

    clusters: list[dict] = []
    for k, f, res in converged:
        for c in clusters:
            if max_abs_diff(f, c["anchor"]) <= cfg.dedup_eps:
                if res < c["res"]:
                    c["f"], c["res"] = f, res
                break
        else:
            clusters.append({"anchor": f, "f": f, "res": res})

    finals = [
        (c["f"], c["res"]) for c in clusters if max_abs(c["f"]) > cfg.dedup_eps
    ]
    finals.sort(key=lambda fr: canonical_key(fr[0]))
    for f, _ in finals:
        f.setflags(write=False)
    return SolutionReport(
        equation=kind,
        solutions=tuple(
            Solution(values=f, residual=res, provenance="oracle") for f, res in finals
        ),
    )


@dataclass(frozen=True)
class MatchResult:
    """Maximum bipartite matching of two solution sets under a distance cap."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_left: tuple[int, ...]
    unmatched_right: tuple[int, ...]

    @property
    def is_match(self) -> bool:
        return not self.unmatched_left and not self.unmatched_right


def match_solution_sets(a, b, eps: float = 1e-6) -> MatchResult:
    """Match members of a against members of b at max-abs distance <= eps."""
    left = a.values() if isinstance(a, SolutionReport) else list(a)
    right = b.values() if isinstance(b, SolutionReport) else list(b)
    allowed = [
        [j for j, g in enumerate(right) if max_abs_diff(f, g) <= eps] for f in left
    ]
    owner = [-1] * len(right)

    def augment(i: int, seen: list[bool]) -> bool:
        for j in allowed[i]:
            if not seen[j]:
                seen[j] = True
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    for i in range(len(left)):
        augment(i, [False] * len(right))
    pairs = tuple(sorted((i, j) for j, i in enumerate(owner) if i >= 0))
    matched_left = {i for i, _ in pairs}
    return MatchResult(
        pairs=pairs,
        unmatched_left=tuple(i for i in range(len(left)) if i not in matched_left),
        unmatched_right=tuple(j for j in range(len(right)) if owner[j] < 0),
    )
