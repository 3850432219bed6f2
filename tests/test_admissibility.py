"""Admissibility decided once on the stack of characters, at one constant.

family builds each equation's members as one stack; it must give the bytes
of family_loop in scalar_reference.py, which builds one member per
character, and CharacterIntegrals.admissible must give the per-character
Van Vleck predicate.  The Kannappan members, the images of the admissible
even parts, must agree with the character formula kannappan_character_loop.
No public function or method takes a tolerance parameter.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect

import numpy as np
import pytest

import feqlab as fl
from feqlab import families

from conftest import build_grid, ladder_instances
from scalar_reference import (
    CharacterIntegral,
    character_integral_loop,
    family_loop,
    kannappan_character_loop,
)

CASES = {case.name: case.inst for case in build_grid()} | ladder_instances()
Z2 = fl.cyclic_group(2)
NEAR_CANCELLING = {  # Z2, tau = id, mu = delta_0 - w delta_1
    f"Z2/id/d0-{w}d1": fl.Instance(sg=Z2, tau=fl.identity_involution(Z2),
                                   mu=fl.central_measure(Z2, [(0, 1.0), (1, -w)]))
    for w in (0.999, 0.99999, 0.9999999, 0.999999999)
}


@functools.cache
def chars_of(name: str) -> np.ndarray:
    return fl.enumerate_multiplicative(CASES[name].sg)


def test_case_count():
    assert len(CASES) == 86


@pytest.mark.parametrize("kind", fl.KINDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_family_matches_loop_bit_for_bit(name, kind):
    inst = CASES[name]
    chars = chars_of(name)
    got, want = fl.family(kind, inst, chars), family_loop(kind, inst, chars)
    assert got.values.shape == want.values.shape == (len(want), inst.sg.order)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.residuals.tolist() == want.residuals.tolist()
    assert got.provenance == want.provenance == "constructed"


@pytest.mark.parametrize("name", sorted(CASES))
def test_admissible_masks_match_predicates(name):
    inst = CASES[name]
    chars = chars_of(name)
    stacked = fl.character_integrals(inst, chars)
    loop = character_integral_loop(inst, chars)
    assert stacked.chars.shape == (len(chars), inst.sg.order)
    assert stacked.int_mu.tolist() == [ci.int_mu for ci in loop]
    assert stacked.int_mu_tau.tolist() == [ci.int_mu_tau for ci in loop]
    assert stacked.admissible().tolist() == [ci.van_vleck_admissible() for ci in loop]


def test_admissible_masks_match_predicates_at_the_boundary():
    # t = ADMISSIBLE_TOL * ||mu||; every difference below is exact, so each
    # integral sits on a tolerance: a nonzero integral must exceed t, and
    # int chi o tau dmu must lie strictly within t of -int chi dmu
    inst = CASES["Z2/inv/d0"]
    t = inst.mu.tolerance(families.ADMISSIBLE_TOL, 1)
    int_mu = np.array([2 * t, t, 2 * t, t, 1.0], dtype=complex)
    int_mu_tau = np.array([-t, -t, t, t, -1.0], dtype=complex)
    stacked = fl.CharacterIntegrals(np.ones((5, 2), complex), int_mu, int_mu_tau, inst.mu)
    loop = [CharacterIntegral(np.ones(2), a, b, inst.mu)
            for a, b in zip(int_mu.tolist(), int_mu_tau.tolist())]
    assert stacked.admissible().tolist() == [ci.van_vleck_admissible() for ci in loop]
    assert stacked.admissible().tolist() == [False] * 4 + [True]


SEMILATTICE = fl.validate_semigroup([[0, 0], [0, 1]])  # 0 is a zero, 1 the identity


def on_the_floor(lam: complex, steps: int) -> fl.Instance:
    """mu = lam delta_0 + w lam / |lam| delta_1 with |w| on the vanishing
    floor ADMISSIBLE_TOL * ||mu|| = ADMISSIBLE_TOL * (|lam| + |w|) exactly
    (its fixed point), then moved up by steps floats; the floor itself does
    not move."""
    unit, w = lam / abs(lam), families.ADMISSIBLE_TOL * abs(lam)
    for _ in range(10):
        mu = fl.central_measure(SEMILATTICE, [(0, lam), (1, w * unit)])
        w, last = mu.tolerance(families.ADMISSIBLE_TOL, 1), w
        if w == last:
            break
    floor = w
    for _ in range(steps):
        w = np.nextafter(w, np.inf)
    mu = fl.central_measure(SEMILATTICE, [(0, lam), (1, w * unit)])
    assert mu.tolerance(families.ADMISSIBLE_TOL, 1) == floor == last
    return fl.Instance(sg=SEMILATTICE, tau=fl.identity_involution(SEMILATTICE), mu=mu)


@pytest.mark.parametrize("lam", [1.0, 1e-40, 1e-9j, 1e40])
@pytest.mark.parametrize("steps, vanishes", [(0, True), (1, False)])
def test_vanishing_mass_is_one_rule_at_the_boundary(lam, steps, vanishes):
    # the character g = (0, 1) is a d'Alembert solution with int g dmu = w,
    # and the cosine-type row f = lam g has int f dmu = w lam: both sit
    # exactly on |int f dmu| = ADMISSIBLE_TOL * ||mu|| * max|f|, or one step
    # above it.  Every site decides alike, and (f, mu) -> (lam f, lam mu)
    # keeps the verdict.
    inst = on_the_floor(lam, steps)
    g = np.array([0.0, 1.0], dtype=complex)
    f = lam * g
    conds = fl.dalembert_integral_conditions(g, inst)
    assert conds.all_hold.tolist() == [True]
    assert conds.admissible.tolist() == [not vanishes]
    assert fl.kannappan_identity_suite(f, inst).failed[:, -1].tolist() == [vanishes]
    if vanishes:
        with pytest.raises(fl.ZeroDenominator):
            fl.kannappan_to_dalembert(f, inst)
    else:
        assert np.isfinite(fl.kannappan_to_dalembert(f, inst)).all()


@pytest.mark.parametrize("kind, column", [("van_vleck", "int_mu_tau")])
def test_members_carry_the_integral_of_their_kind(kind, column, monkeypatch):
    # sine members scale by int chi o tau dmu; moving that integral by a
    # relative 2^-40 moves every member with it
    inst = CASES["Z4/inv/d1"]
    ci = fl.character_integrals(inst)
    bumped = dataclasses.replace(ci, **{column: getattr(ci, column) * (1 + 2**-40)})
    base = fl.family(kind, inst)
    monkeypatch.setattr(families, "character_integrals", lambda inst, chars=None: bumped)
    got = fl.family(kind, inst)
    assert len(got) == len(base) > 0
    for a, b in zip(base.values, got.values):
        assert not np.array_equal(a, b)
        assert np.abs(b - a * (1 + 2**-40)).max() <= 1e-15


@pytest.mark.parametrize("name", sorted(CASES | NEAR_CANCELLING))
def test_kannappan_family_matches_character_formula(name):
    # the images (int g dmu) g of the admissible even parts g against the
    # members [(chi + chi o tau)/2] int chi dmu of the characters with
    # int chi o tau dmu = int chi dmu: the same members in the same order
    inst = (CASES | NEAR_CANCELLING)[name]
    chars = fl.enumerate_multiplicative(inst.sg)
    got, want = fl.family("kannappan", inst, chars), kannappan_character_loop(inst, chars)
    assert got.values.shape == want.values.shape
    assert np.abs(got.values - want.values).max(initial=0.0) <= inst.mu.tolerance(1e-13, 1)


def public_callables():
    """The public functions of feqlab and the methods of its public classes."""
    for name, obj in vars(fl).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        if inspect.isclass(obj):
            for attr in vars(obj):
                member = getattr(obj, attr)
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(member) or inspect.ismethod(member):
                    yield f"{name}.{attr}", member
        elif callable(obj):
            yield name, obj


def test_no_public_name_takes_a_tolerance():
    names = dict(public_callables())
    assert "family" in names and "CharacterIntegrals.admissible" in names
    knobs = [name for name, fn in names.items() if "tol" in inspect.signature(fn).parameters]
    assert knobs == []
