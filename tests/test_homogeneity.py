"""Homogeneity in the measure.

f solves the Van Vleck or Kannappan equation for mu exactly when lam f solves
it for lam mu, and d'Alembert's equation ignores mu.  So scaling the measure
by lam, over the whole accepted range of sizes and by an imaginary lam too,
must scale the constructed and the oracle solution sets by lam (by 1 for
d'Alembert) and leave every verdict unchanged.
"""
from __future__ import annotations

import json
import warnings
from functools import reduce

import pytest

import feqlab as fl
from feqlab import cli
from feqlab.equations import SOLUTION_DEGREE

from scalar_reference import max_abs_diff

LAMBDAS = [
    1e-50, 1e-40, 1e-12, 1e-9, 1e-9j, 1e-7, 1e-5, 1e-2, 1,
    1e4, 1e8, 1e10, 1e20, 1e40, 1e50,
]


def abelian(*factors):
    return reduce(fl.direct_product, (fl.cyclic_group(m) for m in factors))


Z4, Z2xZ4, Z6 = abelian(4), abelian(2, 4), abelian(6)
CASES = {
    "Z4/inv/d1": (Z4, fl.inverse_involution(Z4), [(1, 1.0)]),
    "Z2xZ4/id/w01": (Z2xZ4, fl.identity_involution(Z2xZ4), [(0, 1 + 1j), (1, 2.0)]),
    "Z6/inv/d0+d3": (Z6, fl.inverse_involution(Z6), [(0, 1.0), (3, 1.0)]),
}


# member order: scaling mu by a positive factor keeps the listed order
ORDERED = {
    "Z2xZ4/id/d1": (Z2xZ4, fl.identity_involution(Z2xZ4), [(1, 1.0)]),
    "Z2xZ4/inv/d1": (Z2xZ4, fl.inverse_involution(Z2xZ4), [(1, 1.0)]),
}


def scaled(name, lam):
    sg, tau, atoms = {**CASES, **ORDERED}[name]
    return fl.Instance(sg=sg, tau=tau, mu=fl.central_measure(sg, [(z, lam * w) for z, w in atoms]))


@pytest.fixture(scope="module")
def unit_families():
    return {
        (name, kind): fl.family(kind, scaled(name, 1)).values
        for name in CASES
        for kind in fl.KINDS
    }


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
@pytest.mark.parametrize("name", CASES)
def test_solution_sets_scale_with_mu(name, lam, unit_families):
    inst = scaled(name, lam)
    for kind in fl.KINDS:
        factor = lam ** SOLUTION_DEGREE[kind]
        want = [factor * f for f in unit_families[name, kind]]
        eps = 1e-9 * abs(factor)
        built = fl.family(kind, inst)
        assert fl.match_solution_sets(want, built.values, eps).is_match, kind
        with warnings.catch_warnings():
            warnings.simplefilter("error", fl.NoConvergenceBudget)
            found = fl.oracle_solve(kind, inst)
        assert fl.match_solution_sets(want, found.values, eps).is_match, kind
    report = fl.verify_instance(inst)
    assert report.passed, report.failures[:1]


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
@pytest.mark.parametrize("name", ORDERED)
def test_member_order_scales_with_mu(name, lam):
    """The canonical order is taken relative to the size of the solutions,
    so lam mu lists |lam|^d times the members of (lam / |lam|) mu in the
    same order, d the solutions' degree in mu."""
    size = abs(lam)
    unit, inst = scaled(name, lam / size), scaled(name, lam)
    for kind in fl.KINDS:
        factor = size ** SOLUTION_DEGREE[kind]
        for solve in (fl.family, fl.oracle_solve):
            want = solve(kind, unit).values
            got = solve(kind, inst).values
            assert len(got) == len(want), (kind, solve.__name__)
            for f, g in zip(want, got):
                assert max_abs_diff(factor * f, g) <= 1e-9 * factor, (kind, solve.__name__)


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_cli_exits_0_at_every_weight(tmp_path, capsys, lam):
    w = complex(lam)
    spec = {
        "order": 4,
        "cayley": [(i + j) % 4 for i in range(4) for j in range(4)],
        "involution": [0, 3, 2, 1],
        "measure": [{"point": 1, "re": w.real, "im": w.imag}],
    }
    path = tmp_path / "z4.json"
    path.write_text(json.dumps(spec))
    for argv in (
        ["solve", "vanvleck", str(path), "--oracle"],
        ["solve", "kannappan", str(path), "--oracle"],
        ["solve", "dalembert", str(path), "--oracle"],
        ["verify-theorems", str(path)],
    ):
        assert cli.main(argv) == 0, argv
        capsys.readouterr()
