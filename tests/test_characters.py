"""Multiplicative-function enumeration against independent brute force."""
from __future__ import annotations

import time
import tracemalloc
from itertools import product

import numpy as np
import pytest

import feqlab as fl
import scalar_reference
from feqlab import characters

from conftest import corpus_semigroups, involutions_for, nilpotent_monoid
from scalar_reference import (
    canonical_key,
    candidate_values,
    enumerate_multiplicative_loop,
    is_multiplicative,
    max_abs_diff,
)


def brute_multiplicative(sg, tol=1e-12):
    """Full Cartesian product over the candidate sets; no pruning at all."""
    cands = [candidate_values(sg, x) for x in range(sg.order)]
    found = []
    for values in product(*cands):
        v = np.array(values, dtype=complex)
        if np.max(np.abs(v)) <= tol:
            continue
        if all(
            abs(v[sg.cayley[x, y]] - v[x] * v[y]) <= tol
            for x in range(sg.order)
            for y in range(sg.order)
        ):
            found.append(v)
    return sorted(found, key=canonical_key)


def same_function_sets(a, b, eps=1e-8):
    return len(a) == len(b) and all(
        max_abs_diff(f, g) <= eps for f, g in zip(a, b)
    )


class TestCandidateValues:
    @pytest.mark.parametrize(
        "builder,x,poly",
        [
            (lambda: fl.cyclic_group(4), 1, [1, 0, 0, 0, -1, 0]),   # z^5 - z
            (lambda: fl.cyclic_group(4), 0, [1, -1, 0]),            # z^2 - z
            (lambda: fl.cyclic_semigroup(2, 1), 0, [1, -1, 0, 0]),  # z^3 - z^2
        ],
    )
    def test_matches_polynomial_roots(self, builder, x, poly):
        # the candidate set is exactly the root set of z^(i+p) - z^i
        roots = np.roots(poly)
        expected = []
        for r in roots:
            if not any(abs(r - e) < 1e-8 for e in expected):
                expected.append(r)
        got = candidate_values(builder(), x)
        assert len(got) == len(expected)
        for r in expected:
            assert min(abs(got - r)) < 1e-8

    def test_z4_generator_values(self):
        got = sorted(candidate_values(fl.cyclic_group(4), 1), key=lambda z: (z.real, z.imag))
        expected = sorted([0, 1, 1j, -1, -1j], key=lambda z: (z.real, z.imag))
        assert np.allclose(got, expected)

    def test_idempotent_values(self):
        got = candidate_values(fl.cyclic_group(4), 0)
        assert sorted(got, key=abs) == [0, 1]


class TestEnumerate:
    @pytest.mark.parametrize(
        "name",
        ["Z2", "Z3", "Z4", "C21", "C22"],
    )
    def test_agrees_with_brute_force_small(self, name):
        sg = corpus_semigroups()[name]
        assert sg.order <= 5
        expected = brute_multiplicative(sg)
        got = fl.enumerate_multiplicative(sg)
        assert same_function_sets(got, expected)

    @pytest.mark.parametrize("k", [2, 3])
    def test_nilpotent_monoid_brute_force(self, k):
        # (1, 0, ..., 0) is a multiple root of the multiplicativity system
        sg = nilpotent_monoid(k)
        assert same_function_sets(fl.enumerate_multiplicative(sg), brute_multiplicative(sg))

    def test_left_zero_brute_force(self):
        sg = fl.left_zero(2)
        expected = brute_multiplicative(sg)
        got = fl.enumerate_multiplicative(sg)
        assert same_function_sets(got, expected)
        assert len(got) == 1 and np.allclose(got[0], 1)

    def test_z4_characters(self):
        got = fl.enumerate_multiplicative(fl.cyclic_group(4))
        expected = sorted(
            [1j ** (k * np.arange(4)) for k in range(4)], key=canonical_key
        )
        assert same_function_sets(got, expected)

    def test_one_element_semigroup(self):
        got = fl.enumerate_multiplicative(fl.cyclic_group(1))
        assert len(got) == 1 and got[0][0] == 1

    @pytest.mark.parametrize("name,count", [("Z2", 2), ("Z4", 4), ("Z6", 6), ("Z2xZ2", 4)])
    def test_abelian_group_character_count(self, name, count):
        sg = corpus_semigroups()[name]
        assert len(fl.enumerate_multiplicative(sg)) == count

    def test_larger_abelian_groups_any_labelling(self):
        # an abelian group of order n has exactly n characters, however its
        # elements are labelled; the four together take well under a second
        rng = np.random.default_rng(30)
        z30 = fl.cyclic_group(30).cayley
        p = rng.permutation(30)
        relabelled = np.empty_like(z30)
        relabelled[np.ix_(p, p)] = p[z30]
        groups = [
            fl.cyclic_group(14),
            fl.cyclic_group(16),
            fl.direct_product(fl.cyclic_group(2), fl.cyclic_group(8)),
            fl.validate_semigroup(relabelled),
        ]
        start = time.perf_counter()
        counts = [len(fl.enumerate_multiplicative(sg)) for sg in groups]
        elapsed = time.perf_counter() - start
        assert counts == [14, 16, 16, 30]
        assert elapsed < 1.0

    def test_s3_characters_are_trivial_and_sign(self):
        from itertools import permutations

        sg = fl.symmetric_group_3()
        perms = list(permutations(range(3)))

        def parity(p):
            inversions = sum(
                p[i] > p[j] for i in range(3) for j in range(i + 1, 3)
            )
            return (-1) ** inversions

        sign = np.array([parity(p) for p in perms], dtype=complex)
        got = fl.enumerate_multiplicative(sg)
        assert len(got) == 2
        assert any(max_abs_diff(chi, np.ones(6)) < 1e-12 for chi in got)
        assert any(max_abs_diff(chi, sign) < 1e-12 for chi in got)

    def test_all_enumerated_pass_exact_scan(self, corpus):
        for sg in corpus.values():
            for chi in fl.enumerate_multiplicative(sg):
                assert is_multiplicative(sg, chi)

    def test_no_duplicates_and_canonical_order(self, corpus):
        for sg in corpus.values():
            chars = fl.enumerate_multiplicative(sg)
            keys = [canonical_key(chi) for chi in chars]
            assert keys == sorted(keys)
            for i in range(len(chars)):
                for j in range(i + 1, len(chars)):
                    assert max_abs_diff(chars[i], chars[j]) > 1e-8


class TestSnap:
    @pytest.mark.parametrize("p", range(1, 17))
    def test_closed_form_snap_is_the_candidate_argmin(self, p, monkeypatch):
        # on Z_p x {1, 0} every value is 0 or a root of unity whose order
        # divides p; roots moved by up to 0.1 off the exact characters and
        # off the zero function snap with the bits of the argmin over the
        # candidates {0} and the q-th roots of unity, q the orbit period
        sg = fl.direct_product(fl.cyclic_group(p), nilpotent_monoid(1))
        exact = fl.enumerate_multiplicative(sg)
        assert len(exact) == 2 * p
        rng = np.random.default_rng(p)
        noisy = np.repeat(np.vstack([exact, np.zeros(sg.order)]), 3, axis=0)
        noisy += 0.1 * rng.uniform(size=noisy.shape) * np.exp(2j * np.pi * rng.uniform(size=noisy.shape))

        def solver(L, tol, seed=0, draws=1):
            return noisy.copy(), np.zeros(len(noisy)), True

        monkeypatch.setattr(characters, "closed_system_roots", solver)
        monkeypatch.setattr(scalar_reference, "closed_system_roots", solver)
        got = fl.enumerate_multiplicative(sg)
        want = np.array(enumerate_multiplicative_loop(sg))
        assert np.array_equal(got.view(np.float64), want.view(np.float64))
        assert np.array_equal(got.view(np.float64), exact.view(np.float64))


class TestDistances:
    def test_blocks_equal_one_expression(self, monkeypatch):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((40, 30)) + 1j * rng.standard_normal((40, 30))
        B = rng.standard_normal((25, 30)) + 1j * rng.standard_normal((25, 30))
        one_block = np.abs(A[:, None, :] - B[None, :, :]).max(axis=2)
        monkeypatch.setattr(characters, "DISTANCE_BLOCK", 1500)  # 2 rows of A a block
        assert np.array_equal(characters.max_abs_distances(A, B), one_block)
        assert characters.max_abs_distances(A[:0], B).shape == (0, 25)
        assert characters.max_abs_distances(A, B[:0]).shape == (40, 0)

    def test_peak_memory_is_one_block(self):
        # the (m, m, n) differences of a (257, 256) stack would take 258 MiB
        rng = np.random.default_rng(5)
        A = rng.standard_normal((257, 256)) + 1j * rng.standard_normal((257, 256))
        tracemalloc.start()
        try:
            characters.max_abs_distances(A, A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 16 * characters.DISTANCE_BLOCK


class TestComposeTau:
    def test_identity_tau(self):
        sg = fl.cyclic_group(4)
        tau = fl.identity_involution(sg)
        chi = 1j ** np.arange(4)
        assert max_abs_diff(chi[tau.perm], chi) == 0

    def test_negation_tau(self):
        sg = fl.cyclic_group(4)
        tau = fl.inverse_involution(sg)
        chi = 1j ** np.arange(4)
        expected = 1j ** (-np.arange(4) % 4)
        assert max_abs_diff(chi[tau.perm], expected) < 1e-15

    def test_involutive(self):
        sg = fl.cyclic_group(6)
        tau = fl.inverse_involution(sg)
        chi = np.exp(1j * np.pi * np.arange(6) / 3)
        twice = chi[tau.perm][tau.perm]
        assert max_abs_diff(twice, chi) == 0

    def test_closure_on_corpus(self):
        for sg in corpus_semigroups().values():
            chars = fl.enumerate_multiplicative(sg)
            for tau in involutions_for(sg).values():
                for chi in chars:
                    image = chi[tau.perm]
                    assert is_multiplicative(sg, image)
                    assert any(max_abs_diff(image, c) <= 1e-8 for c in chars)

