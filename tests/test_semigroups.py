"""Semigroup core: table validation, involutions, center, orbits, builders."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import feqlab as fl

from conftest import involutions_for, nilpotent_monoid
from scalar_reference import orbit_walk


def orbit_of(sg, x) -> tuple[int, int]:
    """(index, period) of x, read from the orbit table."""
    index, period = fl.orbit_table(sg)
    return int(index[x]), int(period[x])


def power(sg, x: int, k: int) -> int:
    """x^k, k >= 1, by repeated multiplication."""
    acc = x
    for _ in range(k - 1):
        acc = sg.cayley[acc, x]
    return acc


def brute_first_nonassociative(table) -> tuple[int, int, int] | None:
    """Exhaustive triple scan, the reference for the validator."""
    n = len(table)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    return (x, y, z)
    return None


class TestValidateSemigroup:
    def test_z4_addition_table(self):
        table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        sg = fl.validate_semigroup(table)
        assert sg.order == 4
        assert sg.cayley[3, 2] == 1

    def test_z2_table(self):
        sg = fl.validate_semigroup([[0, 1], [1, 0]])
        assert sg.order == 2

    def test_not_associative_reports_first_triple(self):
        table = [[1, 0], [0, 0]]
        expected = brute_first_nonassociative(table)
        assert expected == (0, 0, 1)
        with pytest.raises(fl.NotAssociative) as exc:
            fl.validate_semigroup(table)
        assert exc.value.triple == expected

    def test_failure_in_a_later_block_is_the_first_triple(self):
        # rows below 64 are left-zero rows, x*y = x, so every triple starting
        # there is associative; at n = 128 the scan runs in blocks of 64 rows
        n = 128
        assert fl.semigroups.ASSOC_BLOCK // (n * n) == 64
        i = np.arange(n)
        table = np.where(i[:, None] < 64, i[:, None], (i[:, None] + i[None, :]) % n)
        unchunked = np.argwhere(table[table, :] != table[:, table])[0]
        assert unchunked[0] >= 64
        with pytest.raises(fl.NotAssociative) as exc:
            fl.validate_semigroup(table)
        assert exc.value.triple == tuple(int(v) for v in unchunked)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
    def test_order_512_stays_in_bounded_memory(self):
        # Unchunked, this scan would hold two 512^3 int64 tensors, 1 GB each.
        # The peak is read as VmHWM: ru_maxrss would carry over the test
        # runner's own peak through the exec.
        code = (
            "import re, numpy as np, feqlab as fl\n"
            "i = np.arange(512)\n"
            "fl.validate_semigroup((i[:, None] + i[None, :]) % 512)\n"
            "print(re.search(r'VmHWM:\\s*(\\d+)', open('/proc/self/status').read())[1])\n"
        )
        src = Path(fl.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert int(out.stdout) < 100 * 1024  # kB

    def test_entry_out_of_range(self):
        with pytest.raises(fl.EntryOutOfRange):
            fl.validate_semigroup([[0, 1], [1, 2]])

    def test_rejects_non_square(self):
        with pytest.raises(fl.EntryOutOfRange):
            fl.validate_semigroup([[0, 1, 0], [1, 0, 1]])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_brute_force_on_random_tables(self, data):
        n = data.draw(st.integers(min_value=2, max_value=4))
        table = data.draw(
            st.lists(
                st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
        bad = brute_first_nonassociative(table)
        if bad is None:
            assert fl.validate_semigroup(table).order == n
        else:
            with pytest.raises(fl.NotAssociative) as exc:
                fl.validate_semigroup(table)
            assert exc.value.triple == bad


class TestValidateInvolution:
    def test_z4_negation(self):
        sg = fl.cyclic_group(4)
        tau = fl.validate_involution(sg, [0, 3, 2, 1])
        assert tau.perm[1] == 3

    def test_z4_identity_is_valid_on_abelian(self):
        sg = fl.cyclic_group(4)
        assert fl.validate_involution(sg, [0, 1, 2, 3]).perm[2] == 2

    def test_s3_identity_is_not_anti_homomorphism(self):
        sg = fl.symmetric_group_3()
        with pytest.raises(fl.NotAntiHomomorphism):
            fl.validate_involution(sg, np.arange(6))

    def test_non_involutive_automorphism_rejected(self):
        # x -> 2x on Z5 is an automorphism but squares to x -> 4x != id
        sg = fl.cyclic_group(5)
        with pytest.raises(fl.NotInvolutive):
            fl.validate_involution(sg, [0, 2, 4, 1, 3])

    def test_non_bijection_rejected(self):
        with pytest.raises(fl.NotInvolutive):
            fl.validate_involution(fl.cyclic_group(3), [0, 0, 1])


class TestCenter:
    def test_abelian_center_is_everything(self):
        assert fl.center(fl.cyclic_group(4)) == (0, 1, 2, 3)

    def test_s3_center_is_identity_only(self):
        sg = fl.symmetric_group_3()
        brute = tuple(
            z
            for z in range(6)
            if all(sg.cayley[z, x] == sg.cayley[x, z] for x in range(6))
        )
        assert brute == (0,)
        assert fl.center(sg) == brute

    def test_left_zero_center_empty(self):
        assert fl.center(fl.left_zero(2)) == ()

    def test_center_closed_under_product(self, corpus):
        for sg in corpus.values():
            cen = set(fl.center(sg))
            for z1 in cen:
                for z2 in cen:
                    assert sg.cayley[z1, z2] in cen

    def test_involution_preserves_center(self, corpus):
        for sg in corpus.values():
            cen = set(fl.center(sg))
            for tau in involutions_for(sg).values():
                assert all(tau.perm[z] in cen for z in cen)


class TestOrbit:
    def test_z4_generator(self):
        assert orbit_of(fl.cyclic_group(4), 1) == (1, 4)

    def test_idempotent(self):
        assert orbit_of(fl.cyclic_group(4), 0) == (1, 1)

    def test_generator_with_cube_equal_square(self):
        sg = fl.cyclic_semigroup(2, 1)
        assert power(sg, 0, 3) == power(sg, 0, 2)
        assert orbit_of(sg, 0) == (2, 1)

    def test_square_of_generator_in_three_element_semigroup(self):
        # in {x, x^2, x^3} with x^4 = x^3, the element y = x^2 satisfies
        # y^3 = y^2, found by iterating powers until the first repeat
        sg = fl.cyclic_semigroup(3, 1)
        assert sg.order == 3
        assert power(sg, 1, 3) == power(sg, 1, 2)
        assert orbit_of(sg, 1) == (2, 1)

    def test_power_periodicity(self, corpus):
        for sg in corpus.values():
            for x in range(sg.order):
                i, p = orbit_of(sg, x)
                for k in range(sg.order + 1):
                    assert power(sg, x, i + p + k) == power(sg, x, i + k)


    @pytest.mark.parametrize(
        "sg",
        [
            fl.cyclic_group(1),
            fl.cyclic_group(12),
            fl.cyclic_group(13),
            fl.cyclic_group(127),
            fl.direct_product(fl.cyclic_group(4), fl.cyclic_group(4)),
            fl.cyclic_semigroup(3, 4),
            fl.cyclic_semigroup(5, 1),
            fl.cyclic_semigroup(7, 5),
            fl.cyclic_semigroup(12, 1),
            fl.left_zero(3),
            nilpotent_monoid(4),
        ],
        ids=["Z1", "Z12", "Z13", "Z127", "Z4xZ4", "C(3,4)", "C(5,1)", "C(7,5)", "C(12,1)",
             "left_zero(3)", "nil(4)"],
    )
    def test_table_is_orbit_of_every_element(self, sg):
        assert_table_is_orbits(sg)

    def test_table_on_corpus(self, corpus):
        for sg in corpus.values():
            assert_table_is_orbits(sg)


def assert_table_is_orbits(sg):
    index, period = fl.orbit_table(sg)
    assert list(zip(index.tolist(), period.tolist())) == [orbit_walk(sg, x) for x in range(sg.order)]


class TestBuilders:
    def test_every_builder_output_validates(self, corpus):
        for sg in corpus.values():
            assert fl.validate_semigroup(sg.cayley).order == sg.order

    def test_one_element_semigroup(self):
        assert fl.cyclic_group(1).order == 1

    def test_klein_four_squares_to_identity(self):
        sg = fl.direct_product(fl.cyclic_group(2), fl.cyclic_group(2))
        e = fl.identity_of(sg)
        assert e == 0
        assert all(sg.cayley[x, x] == e for x in range(4))

    def test_direct_product_lexicographic_indexing(self):
        a, b = fl.cyclic_group(2), fl.cyclic_group(3)
        sg = fl.direct_product(a, b)
        # (1, 2) has index 1*3 + 2 = 5; (1, 2)*(1, 1) = (0, 0)
        assert sg.cayley[5, 4] == 0

    def test_cyclic_semigroup_generator_contract(self):
        sg = fl.cyclic_semigroup(2, 2)
        assert sg.order == 3
        assert power(sg, 0, 4) == power(sg, 0, 2)
        assert orbit_of(sg, 0) == (2, 2)

    def test_left_zero_multiplication(self):
        sg = fl.left_zero(3)
        assert all(sg.cayley[x, y] == x for x in range(3) for y in range(3))

    def test_left_zero_admits_no_involution(self):
        sg = fl.left_zero(2)
        with pytest.raises(fl.NotAntiHomomorphism):
            fl.identity_involution(sg)

    def test_inverse_involution_requires_group(self):
        with pytest.raises(ValueError):
            fl.inverse_involution(fl.cyclic_semigroup(2, 2))

    def test_inverse_involution_requires_every_inverse(self):
        # the monoid {1, a, 0} has an identity, but a has no inverse
        with pytest.raises(ValueError, match="element 1 has no unique two-sided inverse"):
            fl.inverse_involution(nilpotent_monoid(2))

    @pytest.mark.parametrize("build, args", [
        (fl.cyclic_group, (0,)),
        (fl.left_zero, (0,)),
        (fl.cyclic_semigroup, (0, 1)),
        (fl.cyclic_semigroup, (1, 0)),
    ])
    def test_builders_reject_non_positive_sizes(self, build, args):
        with pytest.raises(ValueError, match="must be positive"):
            build(*args)

    def test_inverse_involution_on_s3(self):
        sg = fl.symmetric_group_3()
        tau = fl.inverse_involution(sg)
        e = fl.identity_of(sg)
        assert all(sg.cayley[x, tau.perm[x]] == e for x in range(6))
