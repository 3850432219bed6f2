"""verify_instance as a library call, checked set-at-a-time.

verify_instance checks each kind's solutions as one stack; it must give
what verify_instance_loop in scalar_reference.py gives one solution at a
time, and each member's numbers must not depend on the stack it sits in.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import feqlab as fl
from feqlab import verify
from feqlab.equations import residuals
from feqlab.families import (
    MU_DEGREE,
    RESIDUAL_TOL,
    SolutionReport,
    identity_suites,
    integral_conditions,
)

import scalar_reference
from conftest import build_grid, ladder_instances
from scalar_reference import residual, verify_instance_loop

Z4 = fl.cyclic_group(4)
Z4_D1 = fl.Instance(
    sg=Z4, tau=fl.inverse_involution(Z4), mu=fl.central_measure(Z4, [(1, 1.0)])
)
CASES = {case.name: case.inst for case in build_grid()} | ladder_instances()


def test_passes_on_z4_d1():
    report = fl.verify_instance(Z4_D1)
    assert report.passed and report.failures == []
    assert len(report.van_vleck_suites) >= 1  # the sine, constructed and found
    assert report.dalembert_conditions
    assert max(report.roundtrip_max.values()) < 1e-12


def test_forged_family_lands_in_failures(monkeypatch):
    real = verify.family_stack
    bad = np.full(4, 7.0, dtype=complex)

    def fake_family_stack(kind, inst, chars=None):
        if kind != "van_vleck":
            return real(kind, inst, chars)
        return bad[None]

    monkeypatch.setattr(verify, "family_stack", fake_family_stack)
    report = fl.verify_instance(Z4_D1)
    assert not report.passed
    first = report.failures[0]
    assert first["identity"] == "van_vleck_equation"
    assert (first["provenance"], first["solution_index"]) == ("constructed", 0)
    assert first["max_abs"] == report.van_vleck_suites[0]["equation_residual"] > 1


def assert_same_report(got: fl.VerifyReport, want: fl.VerifyReport, mu: fl.CentralMeasure):
    """Equal up to floats, which agree within 1e-13 * ||mu||^d for their
    degree d in mu."""

    def close(a, b, degree):
        assert abs(a - b) <= mu.tolerance(1e-13, degree), (a, b)

    assert got.passed == want.passed
    for key in ("van_vleck_suites", "kannappan_suites"):
        assert len(getattr(got, key)) == len(getattr(want, key))
        for g, w in zip(getattr(got, key), getattr(want, key)):
            assert g.keys() == w.keys() and g["identities"].keys() == w["identities"].keys()
            assert (g["provenance"], g["solution_index"]) == (w["provenance"], w["solution_index"])
            close(g["equation_residual"], w["equation_residual"], 2)
            close(g["mass"], w["mass"], 2)
            for name, dev in g["identities"].items():
                close(dev, w["identities"][name], MU_DEGREE[name])
    assert len(got.dalembert_conditions) == len(want.dalembert_conditions)
    for g, w in zip(got.dalembert_conditions, want.dalembert_conditions):
        assert {k: v for k, v in g.items() if k != "mass"} == {
            k: v for k, v in w.items() if k != "mass"
        }
        close(g["mass"], w["mass"], 1)
    assert got.roundtrip_max.keys() == want.roundtrip_max.keys()
    close(got.roundtrip_max["backward"], want.roundtrip_max["backward"], 1)
    close(got.roundtrip_max["forward"], want.roundtrip_max["forward"], 0)
    assert len(got.failures) == len(want.failures)
    for g, w in zip(got.failures, want.failures):
        assert {k: v for k, v in g.items() if k != "max_abs"} == {
            k: v for k, v in w.items() if k != "max_abs"
        }
        close(g["max_abs"], w["max_abs"], 3)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stack_matches_loop(name):
    inst = CASES[name]
    assert_same_report(fl.verify_instance(inst), verify_instance_loop(inst), inst.mu)


def test_stack_matches_loop_on_failures(monkeypatch):
    # forged members ahead of the real ones, so that the failure paths run:
    # equations that fail, a cosine-type member of zero mass, and twice a
    # real cosine-type member, whose round trip comes back halved
    real, real_stack = fl.family, verify.family_stack
    cosine = real("kannappan", Z4_D1).solutions[0].values
    forged = {
        "van_vleck": [np.full(4, 7.0, dtype=complex)],
        "kannappan": [np.array([1.0, 0.0, -1.0, 0.0], dtype=complex), 2 * cosine],
        "dalembert": [np.array([1.0, 2.0, 1.0, 2.0], dtype=complex)],
    }

    def fake_family(kind, inst, chars=None):
        built = real(kind, inst, chars)
        F = np.concatenate([np.array(forged[kind]), built.values])
        res = np.concatenate([np.zeros(len(forged[kind])), built.residuals])
        return SolutionReport(F, res, "constructed")

    def fake_family_stack(kind, inst, chars=None):
        return np.concatenate([np.array(forged[kind]), real_stack(kind, inst, chars)])

    monkeypatch.setattr(verify, "family_stack", fake_family_stack)
    monkeypatch.setattr(fl, "family", fake_family)  # the loop's family
    got, want = fl.verify_instance(Z4_D1), verify_instance_loop(Z4_D1)
    assert {f["identity"] for f in got.failures} == {
        "van_vleck_equation",
        "kannappan_equation",
        "nonzero_mass",
        "bijection_inverse",
        "dalembert_equation",
    }
    assert_same_report(got, want, Z4_D1.mu)


WEIGHTED = [name for name in sorted(CASES) if "/w" in name]  # two atoms, complex weights


def stacks(inst: fl.Instance, kind: str) -> np.ndarray:
    sols = fl.family(kind, inst).solutions + fl.oracle_solve(kind, inst).solutions
    return np.array([s.values for s in sols]).reshape(len(sols), inst.sg.order)


def assert_row_is_alone(table, i, alone):
    """Every field of row i of the stack table equals the stack-of-one table
    alone bit for bit."""
    for field in dataclasses.fields(table):
        got, want = getattr(table, field.name), getattr(alone, field.name)
        if field.name == "argmax":
            assert len(got) == len(want)
            assert all(np.array_equal(a[i:i + 1], b) for a, b in zip(got, want)), field.name
        elif isinstance(got, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got[i:i + 1], want), field.name
        else:
            assert got == want, field.name


@pytest.mark.parametrize("kind", ["van_vleck", "kannappan"])
def test_empty_stack_gives_empty_tables(kind):
    empty = np.zeros((0, 4), dtype=complex)
    suites = identity_suites(kind, empty, Z4_D1)
    k = len(suites.names)
    assert k == {"van_vleck": 6, "kannappan": 3}[kind]
    assert suites.deviations.shape == (0, k) and suites.deviations.dtype == np.float64
    assert suites.failed.shape == (0, k + 1) and suites.failed.dtype == bool
    assert suites.mass.shape == (0,) and suites.mass.dtype == np.complex128
    # one argument x per row, none for a double mass
    want = [(0, 0 if n.startswith("double_mass") else 1) for n in suites.names]
    assert [a.shape for a in suites.argmax] == want
    assert all(a.dtype == np.intp for a in suites.argmax)
    conds = integral_conditions(empty, Z4_D1)
    assert conds.holds.shape == (0, 3) and conds.holds.dtype == bool
    assert conds.deviations.shape == (0, 3) and conds.deviations.dtype == np.float64
    assert conds.mass.shape == (0,) and conds.mass.dtype == np.complex128
    for mask in (conds.consistent, conds.all_hold, conds.admissible):
        assert mask.shape == (0,) and mask.dtype == bool


@pytest.mark.parametrize("name", WEIGHTED)
@pytest.mark.parametrize("kind", fl.KINDS)
def test_member_numbers_do_not_depend_on_the_stack(name, kind):
    inst = CASES[name]
    F = stacks(inst, kind)
    # the stack, its reverse, two copies and a strided view put each member
    # at other offsets and strides
    for S in (F, F[::-1], np.concatenate([F, F]), np.repeat(F, 2, axis=1)[:, ::2]):
        res, at = residuals(kind, S, inst)
        conds = integral_conditions(S, inst)
        suites = identity_suites(kind, S, inst) if kind != "dalembert" else None
        for i, f in enumerate(S.copy()):  # each member alone, as a fresh array
            alone = residual(kind, f, inst)
            assert (alone.max_abs, alone.argmax) == (res[i], tuple(at[i]))
            assert_row_is_alone(conds, i, fl.dalembert_integral_conditions(f, inst))
            if suites is not None:
                suite_fn = {
                    "van_vleck": fl.van_vleck_identity_suite,
                    "kannappan": fl.kannappan_identity_suite,
                }[kind]
                assert_row_is_alone(suites, i, suite_fn(f, inst))
        if kind == "kannappan":
            live = S[np.abs(fl.total_mass_integral(S, inst.mu)) > inst.mu.tolerance(1e-9, 2)]
            G = fl.kannappan_to_dalembert(live, inst)
            back = fl.dalembert_to_kannappan(G, inst)
            for f, g, b in zip(live, G, back):
                assert np.array_equal(fl.kannappan_to_dalembert(f, inst), g)
                assert np.array_equal(fl.dalembert_to_kannappan(g, inst), b)


def test_tolerance_calls_do_not_depend_on_the_member_count(monkeypatch):
    # each check takes its tolerances once per stack, not once per member
    calls = []
    tolerance = fl.CentralMeasure.tolerance

    def counted(mu, tol, degree):
        calls.append(degree)
        return tolerance(mu, tol, degree)

    monkeypatch.setattr(fl.CentralMeasure, "tolerance", counted)
    counts, members = [], []
    for name in ("Z4/inv/d1", "S3/inv/d0"):
        calls.clear()
        report = fl.verify_instance(CASES[name])
        counts.append(len(calls))
        members.append(len(report.van_vleck_suites) + len(report.kannappan_suites)
                       + len(report.dalembert_conditions))
    assert members[0] != members[1]
    assert counts[0] == counts[1]


def test_each_failure_is_reported_once(monkeypatch):
    # a forged cosine-type member of zero mass ahead of the real ones: its
    # mass is reported once, by its suite row or else by the bijection loop,
    # which skips it
    real = verify.family_stack
    forged = np.array([[1.0, 0.0, -1.0, 0.0]], dtype=complex)

    def fake_family_stack(kind, inst, chars=None):
        built = real(kind, inst, chars)
        return np.concatenate([forged, built]) if kind == "kannappan" else built

    monkeypatch.setattr(verify, "family_stack", fake_family_stack)
    failures = [(f["identity"], f["provenance"], f["solution_index"]) for f in fl.verify_instance(Z4_D1).failures]
    assert ("nonzero_mass", "constructed", 0) in failures
    assert len(failures) == len(set(failures)), failures


COSINE = np.array([1.0, 0.0, -1.0, 0.0], dtype=complex)


def rows_of(F, f) -> np.ndarray:
    """Mask of the rows of the stack F equal to f within rounding."""
    return np.abs(np.asarray(F) - f).max(axis=1) <= 1e-12


def test_identities_failed_by_a_solution_are_reported_in_order(monkeypatch):
    # a forged suite table in which the second of the two sine members,
    # which solves its equation, fails double_mass_tau and sandwich_plain:
    # one failure per identity, in the table's order, with the table's
    # deviation and argmax of that member's row
    inst = CASES["Z2xZ4/inv/d1"]
    target = fl.family("van_vleck", inst).values[1]
    real = identity_suites

    def forged(kind, F, inst):
        suites = real(kind, F, inst)
        if kind != "van_vleck":
            return suites
        rows = rows_of(F, target)
        deviations, failed = suites.deviations.copy(), suites.failed.copy()
        argmax = [a.copy() for a in suites.argmax]
        for name, dev in (("sandwich_plain", 0.25), ("double_mass_tau", 0.5)):
            k = suites.names.index(name)
            deviations[rows, k], failed[rows, k] = dev, True
        argmax[suites.names.index("sandwich_plain")][rows] = [5]
        return dataclasses.replace(suites, deviations=deviations, argmax=tuple(argmax), failed=failed)

    monkeypatch.setattr(verify, "identity_suites", forged)
    monkeypatch.setattr(scalar_reference, "van_vleck_identity_suite",
                        lambda f, inst: forged("van_vleck", np.asarray(f)[None], inst))
    got = fl.verify_instance(inst)
    hit = [(e["provenance"], e["solution_index"]) for e in got.van_vleck_suites
           if e["identities"]["sandwich_plain"] == 0.25]
    assert hit == [("constructed", 1), ("oracle", 3)]
    assert got.failures == [
        {"argmax": argmax, "identity": name, "max_abs": dev, "provenance": prov, "solution_index": i}
        for prov, i in hit
        for name, dev, argmax in (("double_mass_tau", 0.5, []), ("sandwich_plain", 0.25, [5]))
    ]
    assert_same_report(got, verify_instance_loop(inst), inst.mu)


def forge_conditions(monkeypatch, target, **fields):
    """verify's integral_conditions, and the loop's, with the given (3,) holds
    and deviations rows or admissible value on the rows equal to target."""
    real = integral_conditions

    def forged(G, inst):
        conds = real(G, inst)
        rows = rows_of(G, target)
        edits = {name: getattr(conds, name).copy() for name in fields}
        for name, value in fields.items():
            edits[name][rows] = value
        return dataclasses.replace(conds, **edits)

    monkeypatch.setattr(verify, "integral_conditions", forged)
    monkeypatch.setattr(scalar_reference, "dalembert_integral_conditions",
                        lambda g, inst: forged(np.asarray(g)[None], inst))


ROUTES = ("constructed", "oracle")  # the provenance of the two rows dalembert_rows finds


def dalembert_rows(inst, target) -> tuple[np.ndarray, list[int]]:
    """The d'Alembert solutions verify_instance checks, and the indices of
    the rows equal to target, the constructed copy first."""
    built = verify.family_stack("dalembert", inst)
    D = np.concatenate([built, fl.oracle_solve("dalembert", inst).values])
    rows = np.flatnonzero(rows_of(D, target)).tolist()
    assert len(rows) == 2 and rows[0] < len(built) <= rows[1]  # the constructed copy and the oracle's
    return D, rows


def test_inconsistent_conditions_are_reported(monkeypatch):
    # the cosine solves d'Alembert's equation with mass 0 and fails all three
    # conditions; forged to hold only the proportionality, the conditions
    # disagree, and the worst deviation is reported
    _, rows = dalembert_rows(Z4_D1, COSINE)
    forge_conditions(monkeypatch, COSINE, holds=[False, True, False], deviations=[0.25, 0.0, 0.5])
    got = fl.verify_instance(Z4_D1)
    assert got.failures == [
        {"argmax": [], "identity": "integral_conditions_equivalence", "max_abs": 0.5,
         "provenance": prov, "solution_index": i}
        for i, prov in zip(rows, ROUTES)
    ]
    assert [got.dalembert_conditions[i]["consistent"] for i in rows] == [False, False]
    assert_same_report(got, verify_instance_loop(Z4_D1), Z4_D1.mu)


def test_admitted_member_of_zero_mass_is_reported(monkeypatch):
    # the cosine, of mass 0, forged admissible: its image is zero, so the
    # forward map has no member to go back from
    _, rows = dalembert_rows(Z4_D1, COSINE)
    forge_conditions(monkeypatch, COSINE, admissible=True)
    got = fl.verify_instance(Z4_D1)
    assert got.failures == [
        {"argmax": [], "identity": "nonzero_mass", "max_abs": 0.0,
         "provenance": prov, "solution_index": i}
        for i, prov in zip(rows, ROUTES)
    ]
    assert_same_report(got, verify_instance_loop(Z4_D1), Z4_D1.mu)


def test_admitted_member_whose_image_fails_is_reported(monkeypatch):
    # on delta_0 + delta_1 the cosine has mass 1 but fails tau_shift; forged
    # admissible, its image (int g dmu) g = g is no Kannappan solution
    inst = CASES["Z4/inv/d0+d1"]
    D, rows = dalembert_rows(inst, COSINE)
    forge_conditions(monkeypatch, COSINE, admissible=True)
    F = fl.dalembert_to_kannappan(D[rows], inst)
    f_res, f_at = residuals("kannappan", F, inst)
    back = np.abs(fl.kannappan_to_dalembert(F, inst) - D[rows]).max(axis=1)
    assert (f_res > inst.mu.tolerance(RESIDUAL_TOL, 2)).all()
    got = fl.verify_instance(inst)
    assert got.failures == [
        {"argmax": at.tolist(), "identity": "bijection_forward", "max_abs": max(res, b),
         "provenance": prov, "solution_index": i}
        for i, prov, res, at, b in zip(rows, ROUTES, f_res, f_at, back)
    ]
    assert_same_report(got, verify_instance_loop(inst), inst.mu)
