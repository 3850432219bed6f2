"""Central point measures: canonical form and the integral operators."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import feqlab as fl

from conftest import build_grid
from scalar_reference import double_integral, pushforward_tau, right_integral

Z4 = fl.cyclic_group(4)
NEG = fl.inverse_involution(Z4)


def z4_measure(*atoms):
    return fl.central_measure(Z4, list(atoms))


class TestConstruction:
    def test_atoms_sorted_and_merged(self):
        mu = z4_measure((3, 1.0), (1, 2.0), (3, 1.0))
        assert mu.atoms() == [(1, 2 + 0j), (3, 2 + 0j)]

    def test_zero_weight_rejected(self):
        with pytest.raises(fl.InvalidMeasure):
            z4_measure((1, 0.0))

    def test_cancelling_duplicates_rejected(self):
        with pytest.raises(fl.InvalidMeasure):
            z4_measure((1, 1.0), (1, -1.0))

    def test_empty_rejected(self):
        with pytest.raises(fl.InvalidMeasure):
            fl.central_measure(Z4, [])

    def test_point_out_of_range(self):
        with pytest.raises(fl.InvalidMeasure):
            z4_measure((4, 1.0))

    def test_non_central_point_rejected(self):
        s3 = fl.symmetric_group_3()
        with pytest.raises(fl.SupportNotCentral):
            fl.central_measure(s3, [(1, 1.0)])

    def test_complex_weights_allowed(self):
        mu = z4_measure((0, 1 + 1j), (2, -3j))
        assert sum(mu.weights) == 1 - 2j

    def test_total_variation_sums_moduli(self):
        mu = z4_measure((0, 3 + 4j), (2, -2.0))
        assert mu.total_variation == 7.0

    def test_non_finite_weight_rejected(self):
        with pytest.raises(fl.InvalidMeasure):
            z4_measure((1, float("nan")))
        with pytest.raises(fl.InvalidMeasure):
            z4_measure((1, complex(0, float("inf"))))


class TestRightIntegral:
    def test_single_atom_is_translation(self):
        mu = z4_measure((2, 1.0))
        f = np.array([10, 20, 30, 40], dtype=complex)
        for x in range(4):
            assert right_integral(Z4, f, mu, x) == f[(x + 2) % 4]

    def test_two_atom_example(self):
        # direct summation: f(0+1) + f(0+3) = 1 + (-1) = 0
        mu = z4_measure((1, 1.0), (3, 1.0))
        f = np.array([0, 1, 0, -1], dtype=complex)
        assert right_integral(Z4, f, mu, 0) == 0

    def test_zero_function(self):
        mu = z4_measure((1, 1.0), (3, 2.0))
        f = np.zeros(4, dtype=complex)
        assert all(right_integral(Z4, f, mu, x) == 0 for x in range(4))

    def test_table_agrees_with_scalar(self):
        mu = z4_measure((1, 1 + 1j), (2, -0.5))
        rng = np.random.default_rng(7)
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        table = fl.measures.right_integral_table(Z4, f, mu)
        for x in range(4):
            assert abs(table[x] - right_integral(Z4, f, mu, x)) < 1e-14


class TestTotalMass:
    def test_dirac(self):
        mu = z4_measure((2, 1.0))
        f = np.array([1, 2, 3, 4], dtype=complex)
        assert fl.total_mass_integral(f, mu) == 3

    def test_character_mass_cancels(self):
        # chi(x) = i^x against delta_1 + delta_3: i + i^3 = 0
        mu = z4_measure((1, 1.0), (3, 1.0))
        chi = 1j ** np.arange(4)
        assert abs(fl.total_mass_integral(chi, mu)) < 1e-15

    def test_constant_times_total_weight(self):
        mu = z4_measure((0, 1 + 1j), (1, 2.0))
        f = np.full(4, 0.5 - 2j)
        assert fl.total_mass_integral(f, mu) == (0.5 - 2j) * (3 + 1j)


    def test_total_variation_computed_once(self):
        mu = z4_measure((0, 3 + 4j), (2, -2.0))
        assert mu.tolerance(1.0, 1) == mu.total_variation == 7.0
        assert vars(mu)["total_variation"] == 7.0  # cached on the measure


def bits(z) -> list[int]:
    """The bit patterns of complex values, signs of zeros included."""
    return np.asarray(z, dtype=np.complex128).reshape(-1).view(np.uint64).tolist()


class TestAtomOrder:
    """Every row of a stack integrates to the Python sum of its atoms in
    atom order, bit for bit, whatever the stack."""

    @pytest.mark.parametrize(
        "mu",
        [
            z4_measure((0, 0.3 - 1.7j), (1, 1 + 1j), (3, -2.25 + 0.1j)),
            z4_measure((0, 0.3), (1, -1.7), (3, 2.25)),  # real weights
        ],
        ids=["complex", "real"],
    )
    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_rows_are_python_sums(self, m, mu):
        rng = np.random.default_rng(m)
        F = rng.normal(size=(m, 4)) + 1j * rng.normal(size=(m, 4))
        F[0, :2] = [-0.0, complex(-0.0, -0.0)]  # signed zeros
        masses = fl.total_mass_integral(F, mu)
        table = fl.measures.right_integral_table(Z4, F, mu)
        for f, mass, row in zip(F, masses, table):
            want = sum((complex(w) * complex(f[z]) for z, w in zip(mu.points, mu.weights)), 0j)
            assert bits(mass) == bits(want) == bits(fl.total_mass_integral(f, mu))
            assert bits(row) == bits([right_integral(Z4, f, mu, x) for x in range(4)])

    def test_cmul_is_the_python_product(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=64) + 1j * rng.normal(size=64)
        b = rng.normal(size=64) + 1j * rng.normal(size=64)
        assert fl.measures.cmul(a, b).tolist() == [complex(x) * complex(y) for x, y in zip(a, b)]
        # a strided or broadcast operand rounds the same way
        assert np.array_equal(fl.measures.cmul(a[::2], b[0]), fl.measures.cmul(a, b[0])[::2])


class TestPushforward:
    def test_symmetric_support_invariant(self):
        mu = z4_measure((1, 1.0), (3, 1.0))
        pf = pushforward_tau(Z4, mu, NEG)
        assert pf.atoms() == mu.atoms()
        assert fl.is_tau_invariant(mu, NEG)

    def test_asymmetric_support_not_invariant(self):
        mu = z4_measure((1, 1.0))
        pf = pushforward_tau(Z4, mu, NEG)
        assert pf.atoms() == [(3, 1 + 0j)]
        assert not fl.is_tau_invariant(mu, NEG)

    @pytest.mark.parametrize("w1, w3", [(1e-13, 2e-13), (1e-3, 2e-3)])
    def test_tiny_weights_compared_exactly(self, w1, w3):
        # weights far below any absolute tolerance still differ
        assert not fl.is_tau_invariant(z4_measure((1, w1), (3, w3)), NEG)

    @pytest.mark.parametrize("w", [1e-13, 1e-3, 1 + 2j, 1e40])
    def test_equal_weights_invariant_at_any_size(self, w):
        assert fl.is_tau_invariant(z4_measure((1, w), (3, w)), NEG)

    def test_identity_always_invariant(self):
        tau = fl.identity_involution(Z4)
        mu = z4_measure((0, 2j), (3, 1.0))
        assert fl.is_tau_invariant(mu, tau)

    def test_invariance_is_the_pushforward_on_grid(self):
        # is_tau_invariant against building the image measure; each grid
        # measure, then its support closed under tau with equal weights and
        # the first weight moved by one ulp
        moved = 0
        for case in build_grid():
            mu, tau, sg = case.inst.mu, case.inst.tau, case.inst.sg
            support = sorted(set(mu.points.tolist()) | set(tau.perm[mu.points].tolist()))
            closed = fl.central_measure(sg, [(z, 1.0) for z in support])
            bumped = fl.central_measure(
                sg, [(z, np.nextafter(1.0, 2.0) if i == 0 else 1.0) for i, z in enumerate(support)])
            for m in (mu, closed, bumped):
                want = pushforward_tau(sg, m, tau).atoms() == m.atoms()
                assert fl.is_tau_invariant(m, tau) == want, case.name
            assert fl.is_tau_invariant(closed, tau)
            moved += not fl.is_tau_invariant(bumped, tau)
        assert moved > 0

    def test_pushforward_involutive_on_grid(self):
        for case in build_grid():
            mu, tau, sg = case.inst.mu, case.inst.tau, case.inst.sg
            twice = pushforward_tau(sg, pushforward_tau(sg, mu, tau), tau)
            assert twice.atoms() == mu.atoms()


class TestDoubleIntegral:
    def test_single_atom_no_base_point(self):
        mu = z4_measure((2, 1.0))
        f = np.array([5, 6, 7, 8], dtype=complex)
        assert double_integral(Z4, f, mu, "plain") == f[0]  # f(2+2)

    def test_plain_with_base_point(self):
        mu = z4_measure((1, 1.0))
        f = np.array([0, 1, 0, -1], dtype=complex)
        assert double_integral(Z4, f, mu, "plain", x=0) == f[2]

    def test_zero_function(self):
        mu = z4_measure((1, 1 + 2j), (2, 3.0))
        f = np.zeros(4, dtype=complex)
        assert double_integral(Z4, f, mu, "plain") == 0
        assert double_integral(Z4, f, mu, "left_tau", tau=NEG) == 0

    def test_left_tau_matches_manual_sum(self):
        mu = z4_measure((1, 1 + 1j), (2, -2.0))
        rng = np.random.default_rng(3)
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        x = 3
        manual = sum(
            complex(wi) * complex(wj) * complex(f[(x + (-zi % 4) + zj) % 4])
            for zi, wi in mu.atoms()
            for zj, wj in mu.atoms()
        )
        got = double_integral(Z4, f, mu, "left_tau", x=x, tau=NEG)
        assert abs(got - manual) < 1e-13

    def test_fubini_is_exact(self):
        # double integral == iterated right integrals, exactly (identical
        # floating point operations, not just within tolerance)
        for case in build_grid():
            sg, mu = case.inst.sg, case.inst.mu
            rng = np.random.default_rng(11)
            f = rng.normal(size=sg.order) + 1j * rng.normal(size=sg.order)
            g = np.array(
                [right_integral(sg, f, mu, y) for y in range(sg.order)]
            )
            for x in range(sg.order):
                lhs = double_integral(sg, f, mu, "plain", x=x)
                rhs = right_integral(sg, g, mu, x)
                assert lhs == rhs

    def test_unknown_mode_rejected(self):
        mu = z4_measure((1, 1.0))
        with pytest.raises(ValueError):
            double_integral(Z4, np.zeros(4, complex), mu, "inner_tau")


finite_complex = st.complex_numbers(
    allow_nan=False, allow_infinity=False, max_magnitude=5
)
vec4 = st.lists(finite_complex, min_size=4, max_size=4).map(
    lambda v: np.array(v, dtype=complex)
)


class TestLinearity:
    @settings(max_examples=40, deadline=None)
    @given(vec4, vec4, finite_complex, finite_complex)
    def test_right_integral_linear(self, fa, fb, s1, s2):
        mu = z4_measure((1, 1 + 1j), (3, -2.0))
        combo = s1 * fa + s2 * fb
        for x in range(4):
            lhs = right_integral(Z4, combo, mu, x)
            rhs = s1 * right_integral(Z4, fa, mu, x) + s2 * right_integral(
                Z4, fb, mu, x
            )
            assert abs(lhs - rhs) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(vec4, vec4, finite_complex, finite_complex)
    def test_total_mass_linear(self, fa, fb, s1, s2):
        mu = z4_measure((0, 0.5j), (2, 2.0))
        lhs = fl.total_mass_integral(s1 * fa + s2 * fb, mu)
        rhs = s1 * fl.total_mass_integral(fa, mu) + s2 * fl.total_mass_integral(
            fb, mu
        )
        assert abs(lhs - rhs) < 1e-12
