"""Shared corpus fixtures: the semigroup zoo and the instance grid.

The grid crosses every corpus semigroup with its valid involutions (group
inversion where the carrier is a group, the identity map where it is abelian)
and a standard measure menu: a Dirac mass at each central point, the unit sum
of the first two central points, and a complex-weighted pair.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

import feqlab as fl


def corpus_semigroups() -> dict[str, fl.FiniteSemigroup]:
    return {
        "Z2": fl.cyclic_group(2),
        "Z3": fl.cyclic_group(3),
        "Z4": fl.cyclic_group(4),
        "Z6": fl.cyclic_group(6),
        "Z2xZ2": fl.direct_product(fl.cyclic_group(2), fl.cyclic_group(2)),
        "Z2xZ4": fl.direct_product(fl.cyclic_group(2), fl.cyclic_group(4)),
        "S3": fl.symmetric_group_3(),
        "C21": fl.cyclic_semigroup(2, 1),
        "C22": fl.cyclic_semigroup(2, 2),
    }


def nilpotent_monoid(k: int) -> fl.FiniteSemigroup:
    """{1, a, ..., a^(k-1), 0} with a^k = 0, elements in that order.  Its
    multiplicative function (1, 0, ..., 0) is a root of multiplicity k."""
    e = np.arange(k + 1)
    t = np.minimum(e[:, None] + e[None, :], k)
    return fl.validate_semigroup(t)


def involutions_for(sg: fl.FiniteSemigroup) -> dict[str, fl.Involution]:
    out: dict[str, fl.Involution] = {}
    try:
        out["inv"] = fl.inverse_involution(sg)
    except ValueError:
        pass
    try:
        tau = fl.identity_involution(sg)
    except fl.FeqlabError:
        pass
    else:
        if not any(np.array_equal(tau.perm, t.perm) for t in out.values()):
            out["id"] = tau
    return out


def measures_for(sg: fl.FiniteSemigroup) -> dict[str, list[tuple[int, complex]]]:
    cen = fl.center(sg)
    out: dict[str, list[tuple[int, complex]]] = {}
    for z in cen:
        out[f"d{z}"] = [(z, 1.0)]
    if len(cen) >= 2:
        z1, z2 = cen[0], cen[1]
        out[f"d{z1}+d{z2}"] = [(z1, 1.0), (z2, 1.0)]
        out[f"w{z1}{z2}"] = [(z1, 1 + 1j), (z2, 2.0)]
    return out


@dataclass(frozen=True)
class GridCase:
    name: str
    sg_name: str
    tau_name: str
    mu_name: str
    inst: fl.Instance
    chars: tuple


def build_grid() -> list[GridCase]:
    cases = []
    for sg_name, sg in corpus_semigroups().items():
        chars = tuple(fl.enumerate_multiplicative(sg))
        for tau_name, tau in involutions_for(sg).items():
            for mu_name, atoms in measures_for(sg).items():
                inst = fl.Instance(sg=sg, tau=tau, mu=fl.central_measure(sg, atoms))
                cases.append(
                    GridCase(
                        name=f"{sg_name}/{tau_name}/{mu_name}",
                        sg_name=sg_name,
                        tau_name=tau_name,
                        mu_name=mu_name,
                        inst=inst,
                        chars=chars,
                    )
                )
    return cases


def pytest_configure(config):
    # an oracle run that stops certifying its roots errors out instead of
    # passing on a partial set; pytest.warns still captures the warning
    config.addinivalue_line("filterwarnings", "error::feqlab.oracle.NoConvergenceBudget")


@pytest.fixture(scope="session")
def corpus():
    return corpus_semigroups()


@pytest.fixture(scope="session")
def grid():
    return build_grid()


@pytest.fixture(scope="session")
def oracle_cache():
    """Memoized oracle runs shared across tests.

    The d'Alembert equation ignores the measure, so its cache key drops the
    measure name and each (semigroup, involution) pair is solved once.
    """
    cache: dict = {}

    def run(case: GridCase, kind: str, **overrides) -> fl.SolutionReport:
        frozen = tuple(sorted(overrides.items()))
        if kind == "dalembert":
            key = (case.sg_name, case.tau_name, kind, frozen)
        else:
            key = (case.name, kind, frozen)
        if key not in cache:
            cache[key] = fl.oracle_solve(kind, case.inst, fl.OracleConfig(**overrides))
        return cache[key]

    return run
