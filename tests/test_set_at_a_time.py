"""Set-at-a-time steps against their one-member-at-a-time references.

canonical_order, dedup_canonical, enumerate_multiplicative and
match_solution_sets work on whole (m, n) stacks of functions, and the CLI
writes each report in one pass.  Each must give exactly what the loops in
scalar_reference.py give: the same members, in the same order, and the same
bytes on stdout.
"""
from __future__ import annotations

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import feqlab as fl
from feqlab import cli
from feqlab.characters import canonical_order, dedup_canonical
from feqlab.equations import SOLUTION_DEGREE
from feqlab.families import DEDUP_EPS
from feqlab.oracle import MATCH_EPS

from conftest import corpus_semigroups, nilpotent_monoid
from scalar_reference import (
    canonical_key,
    dedup_canonical_loop,
    enumerate_multiplicative_loop,
    json_report,
    match_solution_sets_loop,
)

# values on and beside the 1e-8 rounding grid, signed zeros and ties
GRID_VALUES = np.array(
    [0.0, -0.0, 1e-8, -1e-8, 2e-8, 5e-9, -5e-9, 1.5e-8, 2.5e-8, 1e-9, 0.5, -0.5, 1.0]
)


def grid_stack(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """m functions on n points whose parts lie on or next to the 1e-8 grid,
    with many rows equal up to rounding."""
    re = rng.choice(GRID_VALUES, (m, n)) + rng.choice([0.0, 1e-17, -3e-12], (m, n))
    im = rng.choice(GRID_VALUES, (m, n))
    return re + 1j * im


def near_duplicates(rng: np.random.Generator, m: int, n: int, eps: float) -> np.ndarray:
    """m functions drawn as copies of a few centres moved by about eps, plus
    some rows of size about eps."""
    centres = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    centres[0] *= eps
    F = centres[rng.integers(0, 3, m)]
    return F + eps * (rng.uniform(-1.5, 1.5, (m, n)) + 1j * rng.uniform(-1.5, 1.5, (m, n)))


def dyadic(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """m functions with parts in quarters, so that many distances are exactly
    the eps = 0.25 of the tests and the comparison with eps decides."""
    return (rng.integers(-2, 3, (m, n)) + 1j * rng.integers(-2, 3, (m, n))) / 4


def assert_same_rows(got, want):
    assert len(got) == len(want)
    for f, g in zip(got, want):
        assert np.array_equal(f, g)


@pytest.mark.parametrize("scale", [1.0, 1e-50, 3.0, 1e40])
@pytest.mark.parametrize("seed", range(10))
def test_canonical_order_is_the_sorted_order(seed, scale):
    rng = np.random.default_rng(seed)
    F = scale * grid_stack(rng, 40, 3)
    order = canonical_order(F, scale)
    want = sorted(range(len(F)), key=lambda i: canonical_key(F[i], scale))
    assert order.tolist() == want


@pytest.mark.parametrize("seed", range(20))
def test_dedup_matches_loop_on_random_stacks(seed):
    rng = np.random.default_rng(seed)
    eps = 10.0 ** rng.integers(-9, -5)
    scale = float(rng.choice([1.0, 1e-7, 1e6]))
    for F in (near_duplicates(rng, 25, 4, eps) * scale, grid_stack(rng, 25, 4) * scale):
        got = F[dedup_canonical(F, eps * scale, scale)]
        assert_same_rows(got, dedup_canonical_loop(list(F), eps * scale, scale))
    F = dyadic(rng, 25, 2)
    assert_same_rows(F[dedup_canonical(F, 0.25)], dedup_canonical_loop(list(F), 0.25))


@pytest.mark.parametrize("seed", range(20))
def test_match_matches_loop_on_random_stacks(seed):
    rng = np.random.default_rng(seed)
    eps = 1e-6
    F = near_duplicates(rng, 12, 3, eps)
    left, right = list(F[: rng.integers(0, 12)]), list(F[6:])
    assert fl.match_solution_sets(left, right, eps) == match_solution_sets_loop(left, right, eps)
    left, right = list(dyadic(rng, 8, 2)), list(dyadic(rng, 8, 2))
    assert fl.match_solution_sets(left, right, 0.25) == match_solution_sets_loop(left, right, 0.25)


@pytest.mark.parametrize("seed", range(10))
def test_match_on_stacks_matches_loop(seed):
    # read-only (m, n) stacks as reports hold them, empty ones included
    rng = np.random.default_rng(seed)
    F = near_duplicates(rng, 12, 3, 1e-6)
    F.setflags(write=False)
    for k in (0, 1, int(rng.integers(2, 12))):
        for left, right in ((F[:k], F[6:]), (F[6:], F[:k])):
            assert fl.match_solution_sets(left, right, 1e-6) == match_solution_sets_loop(
                left, right, 1e-6
            ), k


def test_empty_stacks():
    empty = np.zeros((0, 3), dtype=complex)
    assert dedup_canonical(empty, 1e-8).size == 0
    assert canonical_order(empty).size == 0
    one = [np.ones(3, dtype=complex)]
    assert fl.match_solution_sets([], one, 1e-6) == match_solution_sets_loop([], one, 1e-6)
    assert fl.match_solution_sets(one, [], 1e-6) == match_solution_sets_loop(one, [], 1e-6)


def test_grid_dedup_and_match_match_loops(grid, oracle_cache):
    """Constructed and oracle members of every grid case and kind, stacked
    together with a zero row, so each dedup cluster holds near-duplicates
    from both routes."""
    for case in grid:
        mu = case.inst.mu
        for kind in fl.KINDS:
            d = SOLUTION_DEGREE[kind]
            built = fl.family(kind, case.inst, case.chars)
            found = oracle_cache(case, kind)
            n = case.inst.sg.order
            F = np.concatenate([built.values, found.values, np.zeros((1, n))])
            scale = mu.tolerance(1.0, d)
            for eps in (mu.tolerance(DEDUP_EPS, d), mu.tolerance(MATCH_EPS, d)):
                got = F[dedup_canonical(F, eps, scale)]
                assert_same_rows(got, dedup_canonical_loop(list(F), eps, scale))
                assert fl.match_solution_sets(
                    built.values, found.values, eps
                ) == match_solution_sets_loop(built.values, found.values, eps), (case.name, kind)


@pytest.mark.parametrize("kind", fl.KINDS)
def test_reports_hold_one_read_only_stack(grid, oracle_cache, kind):
    """family and oracle_solve report the solver's (m, n) stack and (m,)
    residuals; the per-member view reads row i of both, bit for bit."""
    for case in grid:
        n = case.inst.sg.order
        for rep in (fl.family(kind, case.inst, case.chars), oracle_cache(case, kind)):
            F, res, m = rep.values, rep.residuals, len(rep)
            assert F.shape == (m, n) and F.dtype == np.complex128, case.name
            assert F.flags.c_contiguous and not F.flags.writeable, case.name
            assert res.shape == (m,) and res.dtype == np.float64, case.name
            assert len(rep.solutions) == m
            for i, sol in enumerate(rep.solutions):
                assert sol.values.tobytes() == F[i].tobytes(), case.name
                assert np.float64(sol.residual).tobytes() == res[i].tobytes(), case.name
                assert sol.provenance == rep.provenance


def test_enumerate_matches_loop():
    zoo = dict(corpus_semigroups())
    zoo["nilpotent12"] = nilpotent_monoid(12)  # 9 roots snap to 3 functions
    zoo["left_zero3"] = fl.left_zero(3)
    zoo["C32"] = fl.cyclic_semigroup(3, 2)
    zoo["Z2^4"] = fl.direct_product(
        fl.direct_product(fl.cyclic_group(2), fl.cyclic_group(2)),
        fl.direct_product(fl.cyclic_group(2), fl.cyclic_group(2)),
    )
    for name, sg in zoo.items():
        got = fl.enumerate_multiplicative(sg)
        assert_same_rows(got, enumerate_multiplicative_loop(sg))
        assert not got.flags.writeable, name


# ---------------------------------------------------------------------------
# the one-pass report writer

complex_arrays = st.lists(st.complex_numbers(), max_size=4).map(
    lambda vs: np.array(vs, dtype=np.complex128)
)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text()
    | st.complex_numbers()
    | complex_arrays
)
reports = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(obj=reports)
def test_writer_equals_json_dumps(obj):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit(obj)
    assert buf.getvalue() == json_report(obj) + "\n"


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": np.zeros(0, dtype=complex)},
        {"é": "ünïcødé ☃", "n": None, "t": True, "f": False, "i": -3},
        [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 0.1],
        complex(float("nan"), -0.0),
        np.array([1 + 2j, -0.0 - 0.0j, complex(float("inf"), 1)]),
    ],
    ids=["dict", "list", "tuple", "empty-containers", "scalars", "floats", "complex", "array"],
)
def test_writer_edge_cases(obj):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit(obj)
    assert buf.getvalue() == json_report(obj) + "\n"


def test_writer_refuses_what_json_refuses():
    for obj in (np.int64(3), {"x": object()}):
        with pytest.raises(TypeError):
            json_report(obj)
        with pytest.raises(TypeError):
            cli._emit(obj)
