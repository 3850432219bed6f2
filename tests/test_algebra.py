"""closed_system_roots: the joint-eigenvector solver and its certificate."""
from __future__ import annotations

import numpy as np
import pytest

import feqlab as fl
from feqlab import algebra
from feqlab.algebra import closed_system_roots
from feqlab.characters import DRAWS, ROOT_TOL
from feqlab.equations import SOLUTION_DEGREE

from conftest import nilpotent_monoid
from scalar_reference import closed_subspace_svd, multiplication_matrices


def multiplicativity_table(sg):
    """L[j, x, y] = 2 where xy = j: the table of 2 chi(x) chi(y) = 2 chi(xy)."""
    n = sg.order
    L = np.zeros((n, n, n), dtype=np.complex128)
    L[sg.cayley, np.arange(n)[:, None], np.arange(n)] = 2.0
    return L


def equation_table(kind, inst):
    """The linear part on the unit vectors, scaled as the oracle scales it."""
    n = inst.sg.order
    L = fl.linear_part(kind, np.eye(n, dtype=np.complex128), inst.sg, inst.tau, inst.mu)
    return L / inst.mu.tolerance(1.0, SOLUTION_DEGREE[kind])


class TestCertificate:
    @pytest.mark.parametrize("kind", fl.KINDS)
    def test_first_draw_certifies_on_grid(self, grid, kind):
        for case in grid:
            roots, res, certified = closed_system_roots(equation_table(kind, case.inst), 1e-12)
            assert certified, case.name
            assert np.all(res <= 1e-12), case.name
            # the zero function is a root of every one of these systems
            assert min(np.abs(f).max() for f in roots) < 1e-12, case.name

    def test_starved_check_fails_every_draw(self):
        L = multiplicativity_table(fl.cyclic_group(4))
        roots, res, certified = closed_system_roots(L, 1e-300, draws=3)
        assert not certified
        # only roots whose residual is exactly 0 (such as the zero function) pass
        assert len(roots) == len(res) and np.all(res == 0.0)

    def test_same_seed_bit_identical(self):
        L = multiplicativity_table(fl.direct_product(fl.cyclic_group(2), fl.cyclic_group(4)))
        first = closed_system_roots(L, 1e-9, seed=5)
        second = closed_system_roots(L, 1e-9, seed=5)
        assert np.array_equal(first[0], second[0]) and np.array_equal(first[1], second[1])


class TestMultipleRoot:
    @pytest.mark.parametrize("k", [2, 3])
    def test_multiple_root_gives_one_root(self, k):
        # (1, 0, ..., 0) is a root of multiplicity k: its k eigenvalues form
        # one cluster, read off as one root with a small residual
        sg = nilpotent_monoid(k)
        roots, res, certified = closed_system_roots(multiplicativity_table(sg), 1e-12)
        assert certified
        expected = np.zeros(k + 1)
        expected[0] = 1.0
        near = [f for f in roots if np.abs(f - expected).max() < 1e-6]
        assert len(near) == 1
        assert len(roots) == 3  # the zero function, (1, 0, ..., 0) and the constant 1


def same_bits(a, b) -> bool:
    (r1, e1, c1), (r2, e2, c2) = a, b
    return (
        r1.shape == r2.shape
        and np.array_equal(r1.view(np.float64), r2.view(np.float64))
        and np.array_equal(e1, e2)
        and c1 == c2
    )


def grid_systems(grid):
    """Every equation system of the grid, scaled as the oracle scales it, and
    the multiplicativity system of each corpus semigroup, as (L, tol, draws)."""
    for case in grid:
        for kind in fl.KINDS:
            yield equation_table(kind, case.inst), fl.oracle.CONVERGE_TOL, fl.OracleConfig().restarts
    for sg in {case.sg_name: case.inst.sg for case in grid}.values():
        yield multiplicativity_table(sg), ROOT_TOL, DRAWS


class TestSameBits:
    def test_float_matrix_as_complex(self, corpus):
        # enumerate_multiplicative passes an integer 0/2 table
        for sg in [*corpus.values(), nilpotent_monoid(3), fl.left_zero(3)]:
            L = multiplicativity_table(sg)
            exact = closed_system_roots(L, ROOT_TOL, draws=DRAWS)
            assert same_bits(closed_system_roots(L.real.copy(), ROOT_TOL, draws=DRAWS), exact)
            assert same_bits(closed_system_roots(L.real.astype(int), ROOT_TOL, draws=DRAWS), exact)

    def test_identity_basis_as_svd(self, grid, monkeypatch):
        systems = list(grid_systems(grid))
        shortcut = [closed_system_roots(L, tol, draws=draws) for L, tol, draws in systems]
        monkeypatch.setattr(algebra, "_closed_subspace", closed_subspace_svd)
        for (L, tol, draws), fast in zip(systems, shortcut):
            assert same_bits(fast, closed_system_roots(L, tol, draws=draws))

    def test_images_are_the_stored_products(self, grid):
        # _images reads M_y W off the table; the stored M_y give the same
        # products up to the order of the sums
        rng = np.random.default_rng(13)
        for L, _, _ in grid_systems(grid):
            n = len(L)
            W = rng.standard_normal((n + 1, 3)) + 1j * rng.standard_normal((n + 1, 3))
            want = multiplication_matrices(L) @ W
            scale = np.abs(L).max() * np.abs(W).max() * n
            assert np.abs(algebra._images(L, W) - want).max() <= 1e-15 * scale
