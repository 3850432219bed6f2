"""closed_system_roots: the joint-eigenvector solver and its certificate."""
from __future__ import annotations

import numpy as np
import pytest

import feqlab as fl
from feqlab.algebra import closed_system_roots
from feqlab.equations import SOLUTION_DEGREE

from conftest import nilpotent_monoid


def multiplicativity_matrix(sg):
    n = sg.order
    A = np.zeros((n * n, n), dtype=np.complex128)
    A[np.arange(n * n), sg.cayley.ravel()] = 2.0
    return A


class TestCertificate:
    @pytest.mark.parametrize("kind", fl.KINDS)
    def test_first_draw_certifies_on_grid(self, grid, kind):
        for case in grid:
            A = fl.oracle.equation_matrix(kind, case.inst)
            s = case.inst.mu.tolerance(1.0, SOLUTION_DEGREE[kind])
            roots, res, certified = closed_system_roots(A / s, 1e-12)
            assert certified, case.name
            assert np.all(res <= 1e-12), case.name
            # the zero function is a root of every one of these systems
            assert min(np.abs(f).max() for f in roots) < 1e-12, case.name

    def test_starved_check_fails_every_draw(self):
        A = multiplicativity_matrix(fl.cyclic_group(4))
        roots, res, certified = closed_system_roots(A, 1e-300, draws=3)
        assert not certified
        # only roots whose residual is exactly 0 (such as the zero function) pass
        assert len(roots) == len(res) and np.all(res == 0.0)

    def test_same_seed_bit_identical(self):
        A = multiplicativity_matrix(fl.direct_product(fl.cyclic_group(2), fl.cyclic_group(4)))
        first = closed_system_roots(A, 1e-9, seed=5)
        second = closed_system_roots(A, 1e-9, seed=5)
        assert np.array_equal(first[0], second[0]) and np.array_equal(first[1], second[1])


class TestMultipleRoot:
    @pytest.mark.parametrize("k", [2, 3])
    def test_multiple_root_gives_one_root(self, k):
        # (1, 0, ..., 0) is a root of multiplicity k: its k eigenvalues form
        # one cluster, read off as one root with a small residual
        sg = nilpotent_monoid(k)
        roots, res, certified = closed_system_roots(multiplicativity_matrix(sg), 1e-12)
        assert certified
        expected = np.zeros(k + 1)
        expected[0] = 1.0
        near = [f for f in roots if np.abs(f - expected).max() < 1e-6]
        assert len(near) == 1
        assert len(roots) == 3  # the zero function, (1, 0, ..., 0) and the constant 1
