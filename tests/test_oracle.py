"""The numeric oracle: completeness fixtures, determinism, matching."""
from __future__ import annotations

import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest

import feqlab as fl
from conftest import ladder_instances, nilpotent_monoid
from feqlab.equations import SOLUTION_DEGREE
from feqlab.families import family_stack
from scalar_reference import equation_matrix_add_at, max_abs_diff, residual

Z4 = fl.cyclic_group(4)
NEG = fl.inverse_involution(Z4)

SINE = np.array([0, 1, 0, -1], dtype=complex)
COSINE = np.array([1, 0, -1, 0], dtype=complex)


def make_inst(sg, tau, atoms):
    return fl.Instance(sg=sg, tau=tau, mu=fl.central_measure(sg, atoms))


def abelian(*factors):
    return reduce(fl.direct_product, (fl.cyclic_group(m) for m in factors))


def assert_bit_identical(a, b):
    assert len(a) == len(b)
    for sa, sb in zip(a.solutions, b.solutions):
        assert np.array_equal(sa.values, sb.values)
        assert sa.residual == sb.residual


@pytest.fixture(scope="module")
def z4_d1():
    return make_inst(Z4, NEG, [(1, 1.0)])


@pytest.fixture(scope="module")
def z4_d2():
    return make_inst(Z4, NEG, [(2, 1.0)])


class TestConfig:
    def test_defaults(self):
        cfg = fl.OracleConfig()
        assert cfg.restarts == 400 and cfg.rng_seed == 0

    def test_unknown_kind_rejected(self, z4_d1):
        with pytest.raises(ValueError):
            fl.oracle_solve("vanvleck", z4_d1)

    def test_runs_on_one_thread(self):
        assert fl.oracle.thread_count() == 1


class TestVanVleckCompleteness:
    def test_z4_dirac1_finds_exactly_the_sine(self, z4_d1):
        rep = fl.oracle_solve("van_vleck", z4_d1)
        assert len(rep.solutions) == 1
        assert max_abs_diff(rep.solutions[0].values, SINE) < 1e-6
        assert rep.solutions[0].provenance == "oracle"

    def test_z4_dirac2_empty(self, z4_d2):
        assert len(fl.oracle_solve("van_vleck", z4_d2)) == 0

    def test_z4_two_atoms_empty(self):
        inst = make_inst(Z4, NEG, [(1, 1.0), (3, 1.0)])
        assert len(fl.oracle_solve("van_vleck", inst)) == 0

    def test_identity_involution_empty(self):
        sg = fl.cyclic_group(3)
        inst = make_inst(sg, fl.identity_involution(sg), [(1, 1.0)])
        assert len(fl.oracle_solve("van_vleck", inst)) == 0

    def test_order_eight_group_two_solutions(self):
        # Z2 x Z4 with the mass at (0, 1): the admissible characters give
        # (-1)^(j a) sin(pi b / 2) for j = 0, 1
        sg = fl.direct_product(fl.cyclic_group(2), fl.cyclic_group(4))
        inst = make_inst(sg, fl.inverse_involution(sg), [(1, 1.0)])
        constructed = fl.van_vleck_family(inst)
        assert len(constructed) == 2
        found = fl.oracle_solve("van_vleck", inst)
        assert fl.match_solution_sets(constructed.values, found.values, eps=1e-6).is_match


class TestKannappanCompleteness:
    def test_z4_dirac2_finds_three(self, z4_d2):
        rep = fl.oracle_solve("kannappan", z4_d2)
        constructed = fl.kannappan_abelian_family(z4_d2)
        result = fl.match_solution_sets(constructed.values, rep.values, eps=1e-6)
        assert result.is_match
        assert len(rep.solutions) == 3


class TestSoundness:
    def test_reported_residuals_within_budget(self, z4_d2):
        rep = fl.oracle_solve("kannappan", z4_d2)
        for sol in rep.solutions:
            assert sol.residual < fl.oracle.CONVERGE_TOL * 10

    def test_independent_reevaluation(self, z4_d1, z4_d2):
        # the equation engine is a separate code path from the solver's own
        # residual assembly
        for kind, inst in [("van_vleck", z4_d1), ("kannappan", z4_d2)]:
            for sol in fl.oracle_solve(kind, inst).solutions:
                assert residual(kind, sol.values, inst).max_abs < 1e-11

    def test_dalembert_reevaluation(self):
        s3 = fl.symmetric_group_3()
        inst = make_inst(s3, fl.inverse_involution(s3), [(0, 1.0)])
        rep = fl.oracle_solve("dalembert", inst)
        assert len(rep.solutions) == 2
        for sol in rep.solutions:
            assert residual("dalembert", sol.values, inst).max_abs < 1e-11

    def test_pairwise_distance_exceeds_dedup_eps(self, z4_d2):
        rep = fl.oracle_solve("kannappan", z4_d2)
        vals = rep.values
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                assert max_abs_diff(vals[i], vals[j]) > 1e-6


class TestDeterminism:
    def test_same_seed_bit_identical(self, z4_d1):
        a = fl.oracle_solve("van_vleck", z4_d1)
        b = fl.oracle_solve("van_vleck", z4_d1)
        assert_bit_identical(a, b)

    def test_different_seed_same_solution_set(self, z4_d1):
        a = fl.oracle_solve("van_vleck", z4_d1, fl.OracleConfig(rng_seed=0))
        b = fl.oracle_solve("van_vleck", z4_d1, fl.OracleConfig(rng_seed=97))
        assert fl.match_solution_sets(a.values, b.values, eps=1e-6).is_match


class TestStability:
    def test_doubling_restarts_weighted_measure(self):
        # heavier measures give solutions of norm above 1; the oracle solves
        # the system scaled by ||mu|| and must still find the constructed set
        inst = make_inst(Z4, NEG, [(0, 1 + 1j), (1, 2.0)])
        base = fl.oracle_solve("kannappan", inst)
        assert fl.match_solution_sets(
            fl.kannappan_abelian_family(inst).values, base.values, eps=1e-6
        ).is_match


class TestEquationMatrix:
    @pytest.mark.parametrize("kind", fl.KINDS)
    def test_bit_identical_to_add_at_reference_on_grid(self, grid, kind):
        # the solver's table is the linear part on the unit vectors
        for case in grid:
            n = case.inst.sg.order
            L = fl.linear_part(kind, np.eye(n, dtype=np.complex128), case.inst)
            got = L.reshape(n, n * n).T
            assert np.array_equal(got, equation_matrix_add_at(kind, case.inst)), case.name


class TestMemory:
    def test_solver_holds_few_cubes(self):
        # the solver reads one n^3 table; on Z64 with the inverse involution
        # the closure runs, and the peak stays within 4 complex n^3 arrays
        n = 64
        sg = fl.cyclic_group(n)
        inst = make_inst(sg, fl.inverse_involution(sg), [(1, 1.0)])
        tracemalloc.start()
        try:
            rep = fl.oracle_solve("kannappan", inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rep) == 2
        assert peak <= 4 * 16 * n**3


class TestConvergenceBudget:
    def test_starved_solver_warns(self, z4_d1, monkeypatch):
        monkeypatch.setattr(fl.oracle, "CONVERGE_TOL", 1e-300)
        with pytest.warns(fl.NoConvergenceBudget):
            fl.oracle_solve("van_vleck", z4_d1)


def nilpotent_cases():
    for k in (2, 3):
        sg = nilpotent_monoid(k)
        tau = fl.identity_involution(sg)
        menus = [[(z, 1.0)] for z in range(k + 1)] + [[(0, 1 + 1j), (1, 2.0)]]
        for atoms in menus:
            yield f"a^{k}=0 {atoms}", make_inst(sg, tau, atoms)


def ladder_cases():
    """The instances of the ladder-oracle benchmark and the kinds it asks
    for, built with library calls."""
    s3z2 = fl.direct_product(fl.symmetric_group_3(), fl.cyclic_group(2))
    rows = [
        (abelian(8), [(2, 1.0)], ("van_vleck", "kannappan")),
        (abelian(3, 3), [(0, 1.0)], ("kannappan", "dalembert")),
        (s3z2, [(0, 1.0)], ("kannappan", "dalembert")),
        (abelian(2, 6), [(0, 1.0), (3, 2.0)], ("kannappan", "dalembert")),
        (abelian(13), [(1, 1.0)], ("kannappan", "dalembert")),
        (abelian(2, 2, 2, 2), [(0, 1.0)], ("kannappan", "dalembert")),
        (abelian(4, 4), [(4, 1.0)], ("kannappan",)),
        (abelian(4, 4), [(0, 1 + 1j), (1, 2.0)], ("dalembert",)),
    ]
    for sg, atoms, kinds in rows:
        inst = make_inst(sg, fl.inverse_involution(sg), atoms)
        for kind in kinds:
            yield f"order {sg.order} {atoms} {kind}", kind, inst


class TestBeyondTheGrid:
    @pytest.mark.parametrize("kind", fl.KINDS)
    def test_nilpotent_monoids_match_construction(self, kind):
        # (1, 0, ...) is a multiple root of the multiplicativity system, and
        # the equations have multiple roots of their own: each must come out
        # as one certified root
        for name, inst in nilpotent_cases():
            with warnings.catch_warnings():
                warnings.simplefilter("error", fl.NoConvergenceBudget)
                found = fl.oracle_solve(kind, inst)
            constructed = fl.family(kind, inst)
            assert fl.match_solution_sets(constructed.values, found.values, eps=1e-6).is_match, name

    def test_ladder_members_all_found(self):
        total = 0
        for name, kind, inst in ladder_cases():
            found = fl.oracle_solve(kind, inst)
            constructed = fl.family(kind, inst)
            assert fl.match_solution_sets(constructed.values, found.values, eps=1e-6).is_match, name
            total += len(constructed)
        assert total == 95


class TestGridCompleteness:
    def test_oracle_reproduces_constructed_families(self, grid, oracle_cache):
        # two-sided set equality on every corpus instance: the oracle finds
        # nothing outside the constructed family and misses nothing in it
        for case in grid:
            for kind, constructed in (
                ("van_vleck", fl.van_vleck_family(case.inst, case.chars)),
                ("kannappan", fl.kannappan_abelian_family(case.inst, case.chars)),
            ):
                found = oracle_cache(case, kind)
                result = fl.match_solution_sets(constructed.values, found.values, eps=1e-6)
                assert result.is_match, (case.name, kind, result)


class TestAccuracy:
    def test_matched_pairs_agree_to_rounding(self, grid, oracle_cache):
        # each oracle member is read off its eigenvector by a trace, so it
        # lies within rounding of the constructed member it matches
        cases = [(case.name, case.inst, lambda kind, case=case: oracle_cache(case, kind)) for case in grid]
        cases += [(name, inst, lambda kind, inst=inst: fl.oracle_solve(kind, inst))
                  for name, inst in ladder_instances().items()]
        for name, inst, solve in cases:
            for kind in fl.KINDS:
                built, found = family_stack(kind, inst), solve(kind).values
                eps = inst.mu.tolerance(fl.oracle.MATCH_EPS, SOLUTION_DEGREE[kind])
                result = fl.match_solution_sets(built, found, eps)
                assert result.is_match, (name, kind)
                for i, j in result.pairs:
                    gap = np.abs(built[i] - found[j]).max()
                    assert gap <= inst.mu.tolerance(1e-14, SOLUTION_DEGREE[kind]), (name, kind, gap)

    def test_small_member_is_not_merged_with_zero(self):
        # on Z2 with mu = delta_0 - 0.9999999 delta_1 the Kannappan member
        # 1e-7 (1, 1) has an eigenvalue within CLUSTER_TOL of the zero
        # root's; the solver keeps the zero root out of its eigenproblem, so
        # the two do not form one cluster read as their average
        sg = fl.cyclic_group(2)
        inst = make_inst(sg, fl.identity_involution(sg), [(0, 1.0), (1, -0.9999999)])
        built, found = family_stack("kannappan", inst), fl.oracle_solve("kannappan", inst).values
        small = int(np.argmin(np.abs(built).max(axis=1)))
        assert np.allclose(built[small], 1e-7, rtol=1e-6, atol=0.0)
        gap = np.abs(found - built[small]).max(axis=1).min()
        assert gap <= inst.mu.tolerance(1e-12, 1), gap


class TestMatching:
    def test_identical_reports_match(self, z4_d2):
        rep = fl.oracle_solve("kannappan", z4_d2)
        result = fl.match_solution_sets(rep.values, rep.values, eps=1e-6)
        assert result.is_match
        assert result.pairs == tuple((i, i) for i in range(len(rep)))

    def test_left_surplus_reported(self):
        result = fl.match_solution_sets([SINE], [], eps=1e-6)
        assert not result.is_match
        assert result.unmatched_left == (0,)
        assert result.unmatched_right == ()

    def test_right_surplus_reported(self):
        result = fl.match_solution_sets([], [SINE, COSINE], eps=1e-6)
        assert result.unmatched_right == (0, 1)

    def test_eps_controls_matching(self):
        near = SINE + 1e-7
        assert fl.match_solution_sets([SINE], [near], eps=1e-6).is_match
        assert not fl.match_solution_sets([SINE], [near], eps=1e-8).is_match

    def test_constructed_vs_oracle_on_z4(self, z4_d1):
        constructed = fl.van_vleck_family(z4_d1)
        found = fl.oracle_solve("van_vleck", z4_d1)
        assert fl.match_solution_sets(constructed.values, found.values, eps=1e-6).is_match

    def test_permutation_resolved_by_matching(self):
        result = fl.match_solution_sets([SINE, COSINE], [COSINE, SINE], eps=1e-6)
        assert result.is_match
        assert result.pairs == ((0, 1), (1, 0))
