"""Residual evaluators, checked against plain-loop reference computations."""
from __future__ import annotations

import time

import numpy as np
import pytest

import feqlab as fl

from conftest import corpus_semigroups, involutions_for
from scalar_reference import (
    is_abelian_function,
    kannappan_condition_residual,
    residual,
    residual_mu_spherical,
)

Z4 = fl.cyclic_group(4)
NEG = fl.inverse_involution(Z4)
S3 = fl.symmetric_group_3()
S3_INV = fl.inverse_involution(S3)


def make_inst(sg, tau, atoms):
    return fl.Instance(sg=sg, tau=tau, mu=fl.central_measure(sg, atoms))


def on(sg, tau):
    """An instance for the d'Alembert equation, which ignores mu."""
    return make_inst(sg, tau, [(0, 1.0)])


def brute_van_vleck(f, inst):
    sg, tau, mu = inst.sg, inst.tau, inst.mu
    worst = 0.0
    for x in range(sg.order):
        for y in range(sg.order):
            lhs = sum(
                w * f[sg.mul(sg.mul(x, tau(y)), z)] - w * f[sg.mul(sg.mul(x, y), z)]
                for z, w in mu.atoms()
            )
            worst = max(worst, abs(lhs - 2 * f[x] * f[y]))
    return worst


def brute_kannappan(f, inst):
    sg, tau, mu = inst.sg, inst.tau, inst.mu
    worst = 0.0
    for x in range(sg.order):
        for y in range(sg.order):
            lhs = sum(
                w * f[sg.mul(sg.mul(x, y), z)] + w * f[sg.mul(sg.mul(x, tau(y)), z)]
                for z, w in mu.atoms()
            )
            worst = max(worst, abs(lhs - 2 * f[x] * f[y]))
    return worst


class TestInstance:
    def test_rejects_non_central_measure(self):
        mu = fl.central_measure(Z4, [(1, 1.0)])
        with pytest.raises(ValueError):
            fl.Instance(sg=S3, tau=S3_INV, mu=mu)

    def test_rejects_foreign_involution(self):
        mu = fl.central_measure(S3, [(0, 1.0)])
        with pytest.raises(fl.InvariantViolation):
            fl.Instance(sg=S3, tau=fl.identity_involution(Z4), mu=mu)

    def test_rejects_non_anti_homomorphism(self):
        mu = fl.central_measure(S3, [(0, 1.0)])
        tau = fl.Involution(perm=np.arange(6))  # bypasses validation
        with pytest.raises(fl.NotAntiHomomorphism):
            fl.Instance(sg=S3, tau=tau, mu=mu)


class TestVanVleck:
    def test_zero_solution(self):
        inst = make_inst(Z4, NEG, [(1, 1.0)])
        assert residual("van_vleck", np.zeros(4, complex), inst).max_abs == 0

    def test_sine_fixture_solves(self):
        # f(x) = sin(pi x / 2): check by brute force over all 16 pairs first
        inst = make_inst(Z4, NEG, [(1, 1.0)])
        f = np.array([0, 1, 0, -1], dtype=complex)
        assert brute_van_vleck(f, inst) < 1e-12
        assert residual("van_vleck", f, inst).max_abs < 1e-12

    def test_constant_one_fails_with_residual_two(self):
        inst = make_inst(Z4, NEG, [(1, 1.0)])
        res = residual("van_vleck", np.ones(4, complex), inst)
        assert res.max_abs == pytest.approx(2.0)
        assert res.argmax == (0, 0)

    def test_matches_brute_force_on_random_inputs(self):
        inst = make_inst(Z4, NEG, [(1, 1 + 1j), (2, -0.5)])
        rng = np.random.default_rng(0)
        for _ in range(5):
            f = rng.normal(size=4) + 1j * rng.normal(size=4)
            assert residual("van_vleck", f, inst).max_abs == pytest.approx(
                brute_van_vleck(f, inst), abs=1e-13
            )

    def test_odd_part_invariant_of_solutions(self):
        inst = make_inst(Z4, NEG, [(1, 1.0)])
        for sol in fl.van_vleck_family(inst).solutions:
            f = sol.values
            assert np.max(np.abs(f + f[NEG.perm])) < 1e-12


class TestKannappan:
    def test_zero_solution(self):
        inst = make_inst(Z4, NEG, [(2, 1.0)])
        assert residual("kannappan", np.zeros(4, complex), inst).max_abs == 0

    def test_cosine_fixture_solves(self):
        # f = -cos(pi x / 2): brute force over all 16 pairs first
        inst = make_inst(Z4, NEG, [(2, 1.0)])
        f = np.array([-1, 0, 1, 0], dtype=complex)
        assert brute_kannappan(f, inst) < 1e-12
        assert residual("kannappan", f, inst).max_abs < 1e-12

    def test_constant_two_on_two_atom_measure(self):
        # LHS = 8 and RHS = 8 everywhere
        inst = make_inst(Z4, NEG, [(1, 1.0), (3, 1.0)])
        f = np.full(4, 2.0, dtype=complex)
        assert residual("kannappan", f, inst).max_abs < 1e-12

    def test_matches_brute_force_on_random_inputs(self):
        inst = make_inst(Z4, NEG, [(0, 2j), (3, 1.0)])
        rng = np.random.default_rng(1)
        for _ in range(5):
            f = rng.normal(size=4) + 1j * rng.normal(size=4)
            assert residual("kannappan", f, inst).max_abs == pytest.approx(
                brute_kannappan(f, inst), abs=1e-13
            )

    def test_dirac_at_identity_reduces_to_dalembert(self):
        # with the unit mass at e both scans are the same computation
        rng = np.random.default_rng(2)
        for sg_name, sg in corpus_semigroups().items():
            e = fl.identity_of(sg)
            if e is None:
                continue
            for tau in involutions_for(sg).values():
                inst = make_inst(sg, tau, [(e, 1.0)])
                f = rng.normal(size=sg.order) + 1j * rng.normal(size=sg.order)
                a = residual("kannappan", f, inst)
                b = residual("dalembert", f, inst)
                assert a.max_abs == pytest.approx(b.max_abs, abs=1e-14)
                assert a.argmax == b.argmax


class TestDalembert:
    def test_constant_one(self):
        assert residual("dalembert", np.ones(4, complex), on(Z4, NEG)).max_abs == 0

    def test_cosine_on_z4(self):
        g = np.array([1, 0, -1, 0], dtype=complex)
        assert residual("dalembert", g, on(Z4, NEG)).max_abs < 1e-12

    def test_sign_character_on_s3(self):
        sign = np.array([1, -1, -1, 1, 1, -1], dtype=complex)
        worst = max(
            abs(
                sign[S3.mul(x, y)]
                + sign[S3.mul(x, S3_INV(y))]
                - 2 * sign[x] * sign[y]
            )
            for x in range(6)
            for y in range(6)
        )
        assert worst == 0
        assert residual("dalembert", sign, on(S3, S3_INV)).max_abs == 0


class TestMuSpherical:
    def test_zero_solution(self):
        inst = make_inst(Z4, NEG, [(2, 1.0)])
        assert residual_mu_spherical(np.zeros(4, complex), inst).max_abs == 0

    def test_character_with_identity_mass(self):
        # unit mass at e reduces the equation to multiplicativity
        sg = fl.cyclic_group(6)
        inst = make_inst(sg, fl.inverse_involution(sg), [(0, 1.0)])
        chi = np.exp(1j * np.pi * np.arange(6) / 3)
        assert residual_mu_spherical(chi, inst).max_abs < 1e-12

    def test_shifted_character_misses_by_two(self):
        inst = make_inst(Z4, NEG, [(2, 1.0)])
        psi = 1j ** np.arange(4)
        res = residual_mu_spherical(psi, inst)
        assert res.max_abs == pytest.approx(2.0)


class TestKannappanCondition:
    def test_abelian_semigroup_always_satisfies(self):
        inst = make_inst(Z4, NEG, [(1, 1 + 1j), (3, 2.0)])
        rng = np.random.default_rng(3)
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert kannappan_condition_residual(f, inst).max_abs < 1e-13

    def test_constant_function_always_satisfies(self):
        inst = make_inst(S3, S3_INV, [(0, 1.0)])
        f = np.full(6, 2 - 1j)
        assert kannappan_condition_residual(f, inst).max_abs == 0

    def test_transposition_indicator_on_s3_fails(self):
        # brute scan: f(x*y*z) vs f(y*x*z) must differ somewhere
        inst = make_inst(S3, S3_INV, [(0, 1.0)])
        f = np.zeros(6, dtype=complex)
        f[1] = 1.0  # indicator of a fixed transposition
        brute = max(
            abs(
                f[S3.mul(S3.mul(x, y), z)] - f[S3.mul(S3.mul(y, x), z)]
            )
            for x in range(6)
            for y in range(6)
            for z in range(6)
        )
        assert brute == 1.0
        res = kannappan_condition_residual(f, inst)
        assert res.max_abs == pytest.approx(brute)


class TestAbelianFunction:
    def test_any_function_on_abelian_semigroup(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert is_abelian_function(f, Z4)

    def test_constant_on_s3(self):
        assert is_abelian_function(np.full(6, 3j), S3)

    def test_transposition_indicator_fails_at_depth_two(self):
        f = np.zeros(6, dtype=complex)
        f[1] = 1.0
        assert not is_abelian_function(f, S3, depth=2)
        assert not is_abelian_function(f, S3, depth=3)

    def test_depth_must_be_two_or_three(self):
        with pytest.raises(ValueError):
            is_abelian_function(np.zeros(4, complex), Z4, depth=4)


class TestPerformance:
    def test_full_scans_fast_at_order_24(self):
        sg = fl.cyclic_group(24)
        tau = fl.inverse_involution(sg)
        inst = make_inst(sg, tau, [(1, 1.0), (5, 1 + 1j)])
        rng = np.random.default_rng(5)
        f = rng.normal(size=24) + 1j * rng.normal(size=24)
        t0 = time.monotonic()
        residual("van_vleck", f, inst)
        residual("kannappan", f, inst)
        residual("dalembert", f, inst)
        residual_mu_spherical(f, inst)
        kannappan_condition_residual(f, inst)
        assert time.monotonic() - t0 < 1.0


def test_grid_instances_are_mutually_valid(grid):
    # Instance construction re-validates; reaching here means the whole grid
    # passed, so just sanity-check the size breakdown
    names = {case.sg_name for case in grid}
    assert names == set(corpus_semigroups())
    assert len(grid) == 78
