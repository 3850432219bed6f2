"""Independent numeric solver: the joint-eigenvector route of algebra.py.

Each equation is a closed quadratic system in the n complex values of f: a
linear part (the measure-weighted shifts) plus the uniform quadratic term
-2 f(x) f(y), one complex equation per pair (x, y).  The solver reads the
linear part as one table L, equations.linear_part(kind, eye(n), inst),
which is the operator the residuals use.  The nonzero roots are the joint
eigenvectors of n small matrices, read off from one eig of a seeded random
combination, and the zero root is known exactly; a certificate says whether
that eig found every root (see algebra.closed_system_roots), and only a
failed certificate draws a fresh combination.

The system is solved as L / s with s = ||mu|| for the two integral
equations (s = 1 for d'Alembert, which ignores mu): its roots f / s have
modulus at most 1, and scaling mu by lam changes them only by the phase
lam / |lam|, so the residual check at CONVERGE_TOL is relative to the size of
the measure.  The roots are then deduplicated exactly as the construction's
are, at families.DEDUP_EPS relative to the size of the solutions; MATCH_EPS
is only the distance at which the CLI matches the two sets.  The result is a
function of the seed alone: no threads, bit-identical across reruns.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .algebra import closed_system_roots
from .characters import dedup_canonical, max_abs_distances
from .equations import SOLUTION_DEGREE, Instance, linear_part
from .families import DEDUP_EPS, SolutionReport


CONVERGE_TOL = 1e-12  # residual check on the system scaled to ||mu|| = 1
MATCH_EPS = 1e-6      # max-abs distance, at ||mu|| = 1, at which solutions coincide


class NoConvergenceBudget(RuntimeWarning):
    """No combination certified the roots; some may be missing."""


@dataclass(frozen=True)
class OracleConfig:
    restarts: ClassVar[int] = 400  # at most this many combinations are drawn
    rng_seed: int = 0


def thread_count() -> int:
    """The oracle's worker count: it runs on one thread."""
    return 1


def oracle_solve(kind: str, inst: Instance, cfg: OracleConfig | None = None) -> SolutionReport:
    """All nonzero solutions of the chosen equation, certified unless a
    NoConvergenceBudget warning says otherwise.

    The measure is ignored for kind "dalembert".  The zero solution and
    near-duplicates are dropped exactly as in the construction
    (dedup_canonical at DEDUP_EPS, scaled like the solutions) and the rest
    is canonically sorted; the report holds the solver's read-only stack of
    them and the residual the solver computed for each.
    """
    if cfg is None:
        cfg = OracleConfig()
    n = inst.sg.order
    L = linear_part(kind, np.eye(n, dtype=np.complex128), inst)
    degree = SOLUTION_DEGREE[kind]
    s = inst.mu.tolerance(1.0, degree)
    L /= s
    roots, res, certified = closed_system_roots(L, CONVERGE_TOL, cfg.rng_seed, cfg.restarts)
    if not certified:
        warnings.warn(
            NoConvergenceBudget(
                f"no combination of {cfg.restarts} certified the roots of {kind}"
            )
        )
    roots *= s
    res = inst.mu.tolerance(res, 2 * degree)  # the residual L f - 2 f f has twice f's degree
    keep = dedup_canonical(roots, inst.mu.tolerance(DEDUP_EPS, degree), s)
    finals = roots[keep]
    finals.setflags(write=False)
    return SolutionReport(kind, finals, res[keep], "oracle")


@dataclass(frozen=True)
class MatchResult:
    """Maximum bipartite matching of two solution sets under a distance cap."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_left: tuple[int, ...]
    unmatched_right: tuple[int, ...]

    @property
    def is_match(self) -> bool:
        return not self.unmatched_left and not self.unmatched_right


def match_solution_sets(a, b, eps: float) -> MatchResult:
    """Match the rows of the stack a against the rows of the stack b at
    max-abs distance <= eps, scaled like the solutions (the CLI passes
    mu.tolerance(MATCH_EPS, d)), from one distance matrix."""
    close = max_abs_distances(a, b) <= eps
    allowed = [np.flatnonzero(row).tolist() for row in close]
    owner = [-1] * len(b)

    def augment(i: int, seen: list[bool]) -> bool:
        for j in allowed[i]:
            if not seen[j]:
                seen[j] = True
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    for i in range(len(a)):
        augment(i, [False] * len(b))
    pairs = tuple(sorted((i, j) for j, i in enumerate(owner) if i >= 0))
    matched_left = {i for i, _ in pairs}
    return MatchResult(
        pairs=pairs,
        unmatched_left=tuple(i for i in range(len(a)) if i not in matched_left),
        unmatched_right=tuple(j for j in range(len(b)) if owner[j] < 0),
    )
