"""Constructed solution families, the bijection, and the identity suites."""
from __future__ import annotations

import numpy as np
import pytest

import feqlab as fl
from feqlab.families import (
    RESIDUAL_TOL,
    SuiteReport,
    _failed,
    dalembert_integral_conditions,
    identity_suites,
    integral_conditions,
)

from scalar_reference import (
    associated_dalembert,
    canonical_key,
    double_integral,
    is_abelian_function,
    max_abs_diff,
    pushforward_tau,
    residual,
    right_integral,
    van_vleck_family_dirac,
)

Z4 = fl.cyclic_group(4)
Z6 = fl.cyclic_group(6)
NEG4 = fl.inverse_involution(Z4)
NEG6 = fl.inverse_involution(Z6)
ID4 = fl.identity_involution(Z4)


def make_inst(sg, tau, atoms):
    return fl.Instance(sg=sg, tau=tau, mu=fl.central_measure(sg, atoms))


def values_of(report):
    return report.values


def same_sets(a, b, eps=1e-8):
    got = sorted(a, key=canonical_key)
    want = sorted(b, key=canonical_key)
    return len(got) == len(want) and all(
        max_abs_diff(f, g) <= eps for f, g in zip(got, want)
    )


SINE = np.array([0, 1, 0, -1], dtype=complex)      # sin(pi x / 2) on Z4
COSINE = np.array([1, 0, -1, 0], dtype=complex)    # cos(pi x / 2) on Z4
ALT = np.array([1, -1, 1, -1], dtype=complex)


class TestVanVleckFamily:
    def test_z4_dirac1_single_solution(self):
        inst = make_inst(Z4, NEG4, [(1, 1.0)])
        # the fixture solves the equation: verified by the residual scan
        assert residual("van_vleck", SINE, inst).max_abs < 1e-12
        fam = fl.van_vleck_family(inst)
        assert same_sets(values_of(fam), [SINE])
        assert all(s.residual < 1e-10 for s in fam.solutions)
        assert all(s.provenance == "constructed" for s in fam.solutions)

    def test_z4_dirac2_empty(self):
        # chi(tau(2)) = -chi(2) would force chi(2) = 0 for every character
        inst = make_inst(Z4, NEG4, [(2, 1.0)])
        assert not fl.character_integrals(inst).admissible().any()
        assert len(fl.van_vleck_family(inst)) == 0

    def test_z4_two_atom_measure_empty(self):
        inst = make_inst(Z4, NEG4, [(1, 1.0), (3, 1.0)])
        assert len(fl.van_vleck_family(inst)) == 0

    @pytest.mark.parametrize("z", [0, 1, 2, 3])
    def test_identity_involution_always_empty(self, z):
        # chi o tau = chi makes the two integrals equal, so admissibility
        # would force int chi dmu = 0
        inst = make_inst(Z4, ID4, [(z, 1.0)])
        assert len(fl.van_vleck_family(inst)) == 0

    def test_chi_and_chi_tau_yield_identical_member(self, grid):
        for case in grid:
            inst = case.inst
            ci = fl.character_integrals(inst, case.chars)
            keep = ci.admissible()
            chi = ci.chars[keep]
            chi_t = chi[:, inst.tau.perm]
            f_chi = 0.5 * (chi - chi_t) * ci.int_mu_tau[keep, None]
            f_tau = 0.5 * (chi_t - chi) * ci.int_mu[keep, None]
            assert np.all(np.abs(f_chi - f_tau) < 1e-12)


class TestDiracSpecialization:
    def test_z4_matches_general_family(self):
        inst = make_inst(Z4, NEG4, [(1, 1.0)])
        special = van_vleck_family_dirac(inst)
        general = fl.van_vleck_family(inst)
        assert same_sets(values_of(special), values_of(general))
        assert same_sets(values_of(special), [SINE])

    def test_z6_dirac1_empty(self):
        # evaluate the point condition chi_k(tau(1)) = -chi_k(1) directly
        inst = make_inst(Z6, NEG6, [(1, 1.0)])
        for k in range(6):
            chi = np.exp(1j * np.pi * k * np.arange(6) / 3)
            assert abs(chi[5] + chi[1]) > 1e-9  # never admissible
        assert len(van_vleck_family_dirac(inst)) == 0

    def test_weighted_atom_rejected(self):
        inst = make_inst(Z4, NEG4, [(1, 2.0)])
        with pytest.raises(ValueError):
            van_vleck_family_dirac(inst)

    def test_two_atoms_rejected(self):
        inst = make_inst(Z4, NEG4, [(1, 1.0), (3, 1.0)])
        with pytest.raises(ValueError):
            van_vleck_family_dirac(inst)

    def test_agrees_on_every_unit_dirac_grid_case(self, grid):
        for case in grid:
            mu = case.inst.mu
            if len(mu.points) != 1 or complex(mu.weights[0]) != 1 + 0j:
                continue
            special = van_vleck_family_dirac(case.inst, case.chars)
            general = fl.van_vleck_family(case.inst, case.chars)
            assert same_sets(values_of(special), values_of(general))


class TestKannappanFamily:
    def test_z4_dirac2_three_solutions(self):
        # expected members from the construction, one per admissible k:
        # ((chi_k + chi_k o tau)/2) * chi_k(2), evaluated directly
        inst = make_inst(Z4, NEG4, [(2, 1.0)])
        expected = []
        for k in range(4):
            chi = 1j ** (k * np.arange(4) % 4)
            f = 0.5 * (chi + chi[NEG4.perm]) * chi[2]
            if not any(max_abs_diff(f, e) < 1e-8 for e in expected):
                expected.append(f)
        fam = fl.kannappan_abelian_family(inst)
        assert same_sets(values_of(fam), expected)
        assert same_sets(values_of(fam), [np.ones(4), -COSINE, ALT])
        for sol in fam.solutions:
            assert sol.residual < 1e-10
            assert is_abelian_function(sol.values, Z4)

    def test_z4_two_atom_measure(self):
        # int chi_k dmu = 2 cos(pi k / 2) kills k = 1, 3
        inst = make_inst(Z4, NEG4, [(1, 1.0), (3, 1.0)])
        masses = [sum(1j ** (k * z % 4) for z in (1, 3)) for k in range(4)]
        assert [abs(m) > 1e-9 for m in masses] == [True, False, True, False]
        fam = fl.kannappan_abelian_family(inst)
        expected = [np.full(4, 2.0), -2.0 * ALT]
        assert same_sets(values_of(fam), expected)

    def test_dirac_identity_reduces_to_dalembert_family(self, grid):
        for case in grid:
            e = fl.identity_of(case.inst.sg)
            mu = case.inst.mu
            if e is None or len(mu.points) != 1 or int(mu.points[0]) != e:
                continue
            if complex(mu.weights[0]) != 1 + 0j:
                continue
            fam = fl.kannappan_abelian_family(case.inst, case.chars)
            dal = fl.dalembert_abelian_family(
                case.inst.sg, case.inst.tau, case.chars
            )
            assert same_sets(values_of(fam), dal)

    def test_members_solve_and_are_abelian_across_grid(self, grid):
        for case in grid:
            fam = fl.kannappan_abelian_family(case.inst, case.chars)
            for sol in fam.solutions:
                assert sol.residual < 1e-10
                assert is_abelian_function(sol.values, case.inst.sg)


class TestDalembertFamily:
    def test_z4_negation(self):
        got = fl.dalembert_abelian_family(Z4, NEG4)
        assert same_sets(got, [np.ones(4), COSINE, ALT])

    def test_z2_identity(self):
        sg = fl.cyclic_group(2)
        got = fl.dalembert_abelian_family(sg, fl.identity_involution(sg))
        assert same_sets(got, [np.ones(2), np.array([1, -1], dtype=complex)])

    def test_one_element_semigroup(self):
        sg = fl.cyclic_group(1)
        got = fl.dalembert_abelian_family(sg, fl.identity_involution(sg))
        assert same_sets(got, [np.ones(1)])

    def test_members_solve_across_grid(self, grid):
        seen = set()
        for case in grid:
            key = (case.sg_name, case.tau_name)
            if key in seen:
                continue
            seen.add(key)
            for g in fl.dalembert_abelian_family(
                case.inst.sg, case.inst.tau, case.chars
            ):
                res = residual("dalembert", g, case.inst)
                assert res.max_abs < 1e-10


class TestFamilyBuilder:
    @pytest.mark.parametrize("kind", fl.KINDS)
    def test_matches_named_builder_on_grid(self, grid, kind):
        for case in grid:
            inst, chars = case.inst, case.chars
            got = fl.family(kind, inst, chars)
            if kind == "van_vleck":
                want = fl.van_vleck_family(inst, chars).values
            elif kind == "kannappan":
                want = fl.kannappan_abelian_family(inst, chars).values
            else:
                want = fl.dalembert_abelian_family(inst.sg, inst.tau, chars)
            assert len(got) == len(want), case.name
            assert all(np.array_equal(f, g) for f, g in zip(got.values, want)), case.name

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            fl.family("sine", make_inst(Z4, NEG4, [(1, 1.0)]))

    def test_suite_of_unknown_kind_rejected(self):
        # d'Alembert's equation has no identity suite
        with pytest.raises(ValueError):
            identity_suites("dalembert", SINE[None], make_inst(Z4, NEG4, [(1, 1.0)]))


class TestBijection:
    def test_forward_map_example(self):
        # int g dmu = g(2) = -1, so the image is -cos
        inst = make_inst(Z4, NEG4, [(2, 1.0)])
        f = fl.dalembert_to_kannappan(COSINE, inst)
        assert max_abs_diff(f, -COSINE) < 1e-15

    def test_forward_map_constant(self):
        inst = make_inst(Z4, NEG4, [(1, 0.5), (3, 0.5)])
        f = fl.dalembert_to_kannappan(np.ones(4, complex), inst)
        assert max_abs_diff(f, np.ones(4)) < 1e-15

    def test_inverse_map_example(self):
        # (T^-1 f)(x) = f(x + 2) / f(2) = cos(pi x / 2)
        inst = make_inst(Z4, NEG4, [(2, 1.0)])
        g = fl.kannappan_to_dalembert(-COSINE, inst)
        assert max_abs_diff(g, COSINE) < 1e-15

    def test_inverse_map_zero_denominator(self):
        inst = make_inst(Z4, NEG4, [(2, 1.0)])
        with pytest.raises(fl.ZeroDenominator):
            fl.kannappan_to_dalembert(SINE, inst)  # int f dmu = f(2) = 0

    def test_round_trips_on_grid(self, grid):
        for case in grid:
            inst = case.inst
            pool = [
                g
                for g in fl.dalembert_abelian_family(inst.sg, inst.tau, case.chars)
                if fl.dalembert_admissible(g, inst)
            ]
            for g in pool:
                f = fl.dalembert_to_kannappan(g, inst)
                assert residual("kannappan", f, inst).max_abs < 1e-9
                back = fl.kannappan_to_dalembert(f, inst)
                assert max_abs_diff(back, g) < 1e-10
            for sol in fl.kannappan_abelian_family(inst, case.chars).solutions:
                g = fl.kannappan_to_dalembert(sol.values, inst)
                assert residual("dalembert", g, inst).max_abs < 1e-9
                assert fl.dalembert_admissible(g, inst)
                fwd = fl.dalembert_to_kannappan(g, inst)
                assert max_abs_diff(fwd, sol.values) < 1e-10


class TestIntegralConditions:
    def test_cosine_on_dirac2_all_hold(self):
        inst = make_inst(Z4, NEG4, [(2, 1.0)])
        # direct evaluation: g(x+2) = -g(x) = g(x) g(2) and g(2+2) = g(2)^2
        assert np.allclose(COSINE[(np.arange(4) + 2) % 4], -COSINE)
        conds = dalembert_integral_conditions(COSINE, inst)
        assert conds.all_hold and conds.consistent
        assert fl.dalembert_admissible(COSINE, inst)

    def test_constant_one_all_hold(self):
        inst = make_inst(Z4, NEG4, [(1, 1.0)])
        conds = dalembert_integral_conditions(np.ones(4, complex), inst)
        assert conds.all_hold

    def test_equivalence_violation_probe(self):
        # cos(pi x / 2) is NOT a d'Alembert solution for tau = id, and feeding
        # it anyway makes the conditions disagree: the tau-shift condition is
        # vacuously true while the other two fail
        inst = make_inst(Z4, ID4, [(1, 1.0)])
        conds = dalembert_integral_conditions(COSINE, inst)
        # tau_shift, proportionality, double_mass
        assert conds.holds[0].tolist() == [True, False, False]
        with pytest.raises(fl.EquivalenceViolation):
            fl.dalembert_admissible(COSINE, inst)

    def test_sine_derived_transform_mass_zero(self):
        # the transform of the sine solution has zero measure integral, so
        # it sits outside the admissible pool but the conditions still agree
        inst = make_inst(Z4, NEG4, [(1, 1.0)])
        conds = dalembert_integral_conditions(COSINE, inst)
        assert conds.consistent and not conds.all_hold
        assert abs(conds.mass) < 1e-15

    def test_agreement_on_all_enumerated_solutions(self, grid):
        for case in grid:
            for g in fl.dalembert_abelian_family(
                case.inst.sg, case.inst.tau, case.chars
            ):
                conds = dalembert_integral_conditions(g, case.inst)
                assert conds.consistent


class TestVanVleckSuite:
    def test_sine_solution_passes_everything(self):
        inst = make_inst(Z4, NEG4, [(1, 1.0)])
        suite = fl.van_vleck_identity_suite(SINE, inst)
        assert suite.failures() == []
        assert suite.mass[0] == 1  # int f dmu = f(1)
        assert suite.deviations.max() < 1e-12

    def test_plain_sandwich_value_at_zero(self):
        # int int f(0 + t + s) = f(2) = 0 = -f(0) * mass
        inst = make_inst(Z4, NEG4, [(1, 1.0)])
        got = double_integral(Z4, SINE, inst.mu, "plain", x=0)
        assert got == -SINE[0] * 1

    def test_shift_symmetry_value_at_one(self):
        # int f(tau(1) + t) = f(0) = 0 = int f(1 + t) = f(2)
        inst = make_inst(Z4, NEG4, [(1, 1.0)])
        assert right_integral(Z4, SINE, inst.mu, NEG4.perm[1]) == SINE[0]
        assert right_integral(Z4, SINE, inst.mu, 1) == SINE[2]

    def test_non_solution_fails(self):
        inst = make_inst(Z4, NEG4, [(1, 1.0)])
        suite = fl.van_vleck_identity_suite(np.ones(4, complex), inst)
        assert suite.failures() != []
        assert "odd_part" in suite.failures()

    @pytest.mark.parametrize(
        "name, degree", [("odd_part", 1), ("shift_symmetry", 2), ("sandwich_tau", 3)]
    )
    def test_tolerance_scales_with_mu_degree(self, name, degree):
        # each identity may deviate by RESIDUAL_TOL * ||mu|| ** (its degree in mu)
        mu = fl.central_measure(Z4, [(0, 10.0)])

        def failures(dev):
            deviations, mass, required = np.array([[dev]]), np.ones(1, complex), np.ones(1, bool)
            failed = _failed((name,), deviations, mass, np.ones((1, 4), complex), required, mu)
            argmax = (np.zeros((1, 1), np.intp),)
            return SuiteReport((name,), deviations, argmax, mass, failed).failures()

        assert failures(0.9 * RESIDUAL_TOL * 10.0**degree) == []
        assert failures(1.1 * RESIDUAL_TOL * 10.0**degree) == [name]



class TestKannappanSuite:
    def test_cosine_solution_passes(self):
        inst = make_inst(Z4, NEG4, [(2, 1.0)])
        suite = fl.kannappan_identity_suite(-COSINE, inst)
        assert suite.failures() == []
        assert suite.mass[0] == 1  # int f dmu = -cos(pi) = 1

    def test_zero_function_passes_vacuously(self):
        inst = make_inst(Z4, NEG4, [(2, 1.0)])
        suite = fl.kannappan_identity_suite(np.zeros(4, complex), inst)
        assert suite.failures() == []
        assert suite.mass[0] == 0

    def test_constant_on_two_atom_measure(self):
        # plain sandwich: sum over 4 atom pairs of f = 8 = f(x) * mass = 2*4
        inst = make_inst(Z4, NEG4, [(1, 1.0), (3, 1.0)])
        f = np.full(4, 2.0, dtype=complex)
        assert double_integral(Z4, f, inst.mu, "plain", x=0) == 8
        assert fl.total_mass_integral(f, inst.mu) == 4
        assert fl.kannappan_identity_suite(f, inst).failures() == []


class TestAssociatedDalembert:
    def test_sine_to_cosine(self):
        inst = make_inst(Z4, NEG4, [(1, 1.0)])
        g, report = associated_dalembert(SINE, inst)
        assert max_abs_diff(g, COSINE) < 1e-15
        assert report.dalembert_residual < 1e-12
        assert report.abelian
        assert report.mean == 0          # int g dmu = g(1) = 0
        assert report.double_mass == -1  # int int g(ts) = g(2) = -1

    def test_zero_mass_input_rejected(self):
        inst = make_inst(Z4, NEG4, [(2, 1.0)])
        with pytest.raises(fl.ZeroDenominator):
            associated_dalembert(SINE, inst)

    def test_on_all_constructed_van_vleck_solutions(self, grid):
        for case in grid:
            for sol in fl.van_vleck_family(case.inst, case.chars).solutions:
                g, report = associated_dalembert(sol.values, case.inst)
                assert report.dalembert_residual < 1e-10
                assert report.abelian
                assert abs(report.mean) < 1e-10
                assert abs(report.double_mass) > 1e-9


class TestForwardSoundness:
    def test_constructed_families_solve_across_grid(self, grid):
        for case in grid:
            for sol in fl.van_vleck_family(case.inst, case.chars).solutions:
                assert sol.residual < 1e-10
            for sol in fl.kannappan_abelian_family(case.inst, case.chars).solutions:
                assert sol.residual < 1e-10


# bound fixed before the suites moved from the scalar loop to table gathers
GATHER_TOL = 1e-13


def scalar_sandwich_residuals(f, inst, plain_sign):
    """The suites' double-integral residuals from the scalar reference:
    sandwich_plain compares against plain_sign * f(x) int f dmu."""
    sg, tau, mu = inst.sg, inst.tau, inst.mu
    mass = fl.total_mass_integral(f, mu)
    xs = range(sg.order)
    return {
        "sandwich_tau": max(
            abs(double_integral(sg, f, mu, "left_tau", x=x, tau=tau) - f[x] * mass)
            for x in xs
        ),
        "sandwich_plain": max(
            abs(double_integral(sg, f, mu, "plain", x=x) - plain_sign * f[x] * mass)
            for x in xs
        ),
    }


class TestGathersMatchScalarReference:
    def test_van_vleck_suite(self, grid):
        for case in grid:
            inst = case.inst
            for f in fl.van_vleck_family(inst, case.chars).values:
                suite = fl.van_vleck_identity_suite(f, inst)
                got = dict(zip(suite.names, suite.deviations[0]))
                want = scalar_sandwich_residuals(f, inst, -1)
                want["double_mass_plain"] = abs(double_integral(inst.sg, f, inst.mu))
                want["double_mass_tau"] = abs(
                    double_integral(inst.sg, f, inst.mu, "left_tau", tau=inst.tau)
                )
                for name, value in want.items():
                    assert abs(got[name] - value) <= GATHER_TOL, (case.name, name)

    def test_kannappan_suite(self, grid):
        for case in grid:
            inst = case.inst
            for f in fl.kannappan_abelian_family(inst, case.chars).values:
                suite = fl.kannappan_identity_suite(f, inst)
                got = dict(zip(suite.names, suite.deviations[0]))
                for name, value in scalar_sandwich_residuals(f, inst, 1).items():
                    assert abs(got[name] - value) <= GATHER_TOL, (case.name, name)

    def test_dalembert_double_mass(self, grid):
        for case in grid:
            inst = case.inst
            for g in fl.dalembert_abelian_family(inst.sg, inst.tau, case.chars):
                conds = dalembert_integral_conditions(g, inst)
                want = abs(double_integral(inst.sg, g, inst.mu) - conds.mass[0]**2)
                assert abs(conds.deviations[0, 2] - want) <= GATHER_TOL, case.name

    def test_associated_dalembert_double_mass(self, grid):
        for case in grid:
            inst = case.inst
            for f in fl.van_vleck_family(inst, case.chars).values:
                g, report = associated_dalembert(f, inst)
                want = double_integral(inst.sg, g, inst.mu)
                assert abs(report.double_mass - want) <= GATHER_TOL, case.name

    # inverse involution, atoms at the central points (e, 1) and (e, 2),
    # which tau moves to (e, -1) and (e, -2); S3xZ3 is not commutative
    @pytest.mark.parametrize("group", ["S3xZ3", "Z4xZ6"])
    @pytest.mark.parametrize("atoms", [[(1, 1 + 2j), (0, 0.5)], [(1, 1.0), (2, -1.0)]],
                             ids=["(1+2j)d(e,1)+0.5d(e)", "d(e,1)-d(e,2)"])
    def test_random_stacks_with_atoms_tau_moves(self, group, atoms):
        left, right = {"S3xZ3": (fl.symmetric_group_3(), 3), "Z4xZ6": (fl.cyclic_group(4), 6)}[group]
        sg = fl.direct_product(left, fl.cyclic_group(right))
        tau = fl.inverse_involution(sg)
        inst = make_inst(sg, tau, atoms)
        mu = inst.mu
        assert not fl.is_tau_invariant(mu, tau)
        rng = np.random.default_rng(25)
        F = rng.normal(size=(4, sg.order)) + 1j * rng.normal(size=(4, sg.order))
        van_vleck = identity_suites("van_vleck", F, inst)
        kannappan = identity_suites("kannappan", F, inst)
        conds = integral_conditions(F, inst)
        xs = range(sg.order)
        tau_mu = pushforward_tau(sg, mu, tau)  # int h(x tau(t)) dmu = int h(x t) d(tau mu)
        for i, f in enumerate(F):
            mass = sum(w * f[z] for z, w in mu.atoms())
            r = [right_integral(sg, f, mu, x) for x in xs]
            want_vv = scalar_sandwich_residuals(f, inst, -1)
            want_vv.update(
                odd_part=max(abs(f[x] + f[tau.perm[x]]) for x in xs),
                double_mass_plain=abs(double_integral(sg, f, mu)),
                double_mass_tau=abs(double_integral(sg, f, mu, "left_tau", tau=tau)),
                shift_symmetry=max(abs(r[tau.perm[x]] - r[x]) for x in xs),
            )
            want_kan = scalar_sandwich_residuals(f, inst, 1)
            want_kan["even_part"] = max(abs(f[x] - f[tau.perm[x]]) for x in xs)
            want_conds = [
                max(abs(r[x] - right_integral(sg, f, tau_mu, x)) for x in xs),
                max(abs(r[x] - f[x] * mass) for x in xs),
                abs(double_integral(sg, f, mu) - mass * mass),
            ]
            for suite, want in ((van_vleck, want_vv), (kannappan, want_kan)):
                assert sorted(suite.names) == sorted(want)
                for name, got in zip(suite.names, suite.deviations[i]):
                    assert abs(got - want[name]) <= GATHER_TOL, (i, name)
            assert np.abs(conds.deviations[i] - want_conds).max() <= GATHER_TOL, i
