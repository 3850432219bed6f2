"""Independent numeric solver: the joint-eigenvector route of algebra.py.

Each equation is a closed quadratic system in the n complex values of f: a
linear part A f (the measure-weighted shifts) plus the uniform quadratic term
-2 f(x) f(y), one complex equation per pair (x, y).  Its roots are the joint
eigenvectors of n + 1 small matrices, read off from one eig of a seeded
random combination; a certificate says whether that eig found every root
(see algebra.closed_system_roots), and only a failed certificate draws a
fresh combination.

The system is solved as A / s with s = ||mu|| for the two integral
equations (s = 1 for d'Alembert, which ignores mu): its roots f / s have
modulus at most 1, and scaling mu by lam changes them only by the phase
lam / |lam|, so the residual check at CONVERGE_TOL is relative to the size of
the measure.  The roots are then
deduplicated as the construction's are, at MATCH_EPS relative to the size of
the solutions, which is also the distance at which the CLI matches the two
sets.  The result is a function of the seed alone: no threads, bit-identical
across reruns.
"""
from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import closed_system_roots
from .characters import dedup_canonical, max_abs_distances
from .equations import SOLUTION_DEGREE, Instance, linear_part
from .errors import InvalidEnvironment
from .families import Solution, SolutionReport


CONVERGE_TOL = 1e-12  # residual check on the system scaled to ||mu|| = 1
MATCH_EPS = 1e-6      # max-abs distance, at ||mu|| = 1, at which solutions coincide


class NoConvergenceBudget(RuntimeWarning):
    """No combination certified the roots; some may be missing."""


@dataclass(frozen=True)
class OracleConfig:
    restarts: int = 400  # at most this many combinations are drawn
    rng_seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be positive")


def thread_count() -> int:
    """Worker count from FEQLAB_THREADS; 0 or unset means the CPU count.
    The oracle itself runs on one thread whatever the setting."""
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
    return np.ascontiguousarray(columns.reshape(n, n * n).T)


def oracle_solve(kind: str, inst: Instance, cfg: OracleConfig | None = None) -> SolutionReport:
    """All nonzero solutions of the chosen equation, certified unless a
    NoConvergenceBudget warning says otherwise.

    The measure is ignored for kind "dalembert".  As in the construction,
    the zero solution and near-duplicates are dropped (dedup_canonical at
    MATCH_EPS, scaled like the solutions) and the rest is canonically
    sorted; each keeps the residual the solver computed for it.
    """
    if cfg is None:
        cfg = OracleConfig()
    A = equation_matrix(kind, inst)
    degree = SOLUTION_DEGREE[kind]
    s = inst.mu.tolerance(1.0, degree)
    roots, res, certified = closed_system_roots(A / s, CONVERGE_TOL, cfg.rng_seed, cfg.restarts)
    if not certified:
        warnings.warn(
            NoConvergenceBudget(
                f"no combination of {cfg.restarts} certified the roots of {kind}"
            )
        )
    roots *= s
    res = inst.mu.tolerance(res, 2 * degree)  # the residual of A has twice f's degree
    keep = dedup_canonical(roots, inst.mu.tolerance(MATCH_EPS, degree), s)
    finals = roots[keep]
    finals.setflags(write=False)
    # a root the solver returned more than once reports its last residual
    bits = roots.view(np.uint64)
    same = (bits[keep, None, :] == bits[None, :, :]).all(axis=2)
    last = (same * np.arange(len(roots))).max(axis=1, initial=0)
    return SolutionReport(
        equation=kind,
        solutions=tuple(
            Solution(values=f, residual=r, provenance="oracle")
            for f, r in zip(finals, res[last].tolist())
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


def match_solution_sets(a, b, eps: float = MATCH_EPS) -> MatchResult:
    """Match members of a against members of b at max-abs distance <= eps."""
    left = a.values() if isinstance(a, SolutionReport) else list(a)
    right = b.values() if isinstance(b, SolutionReport) else list(b)
    close = max_abs_distances(left, right) <= eps
    allowed = [np.flatnonzero(row).tolist() for row in close]
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
