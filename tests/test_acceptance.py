"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on the terminal.  Completeness criteria are phrased oracle-side: the
oracle finds no solution outside the constructed family.  The converse
rests on the oracle's certificate (see feqlab/algebra.py), which these
criteria do not rely on.
"""
from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import feqlab as fl
from feqlab import cli
from feqlab.families import dalembert_integral_conditions

from scalar_reference import max_abs_diff

RESIDUAL_TOL = 1e-10
SET_EPS = 1e-6

Z4 = fl.cyclic_group(4)
NEG = fl.inverse_involution(Z4)
SINE = np.array([0, 1, 0, -1], dtype=complex)


@contextlib.contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {num} PASS: {title}")


def make_inst(sg, tau, atoms):
    return fl.Instance(sg=sg, tau=tau, mu=fl.central_measure(sg, atoms))


def same_sets(a, b, eps=SET_EPS):
    return fl.match_solution_sets(a, b, eps=eps).is_match


def is_unit_dirac_at_identity(case):
    e = fl.identity_of(case.inst.sg)
    mu = case.inst.mu
    return (
        e is not None
        and len(mu.points) == 1
        and int(mu.points[0]) == e
        and complex(mu.weights[0]) == 1 + 0j
    )


def test_criterion_1_forward_soundness(grid):
    with criterion(1, "constructed sine families solve their equation grid-wide"):
        t0 = time.monotonic()
        members = 0
        for case in grid:
            for sol in fl.van_vleck_family(case.inst, case.chars).solutions:
                assert sol.residual < RESIDUAL_TOL, case.name
                members += 1
        elapsed = time.monotonic() - t0
        assert members > 0  # the check is not vacuous
        assert elapsed < 10.0


def test_criterion_2_van_vleck_completeness():
    with criterion(2, "sine-equation solution sets on the order-4 cyclic group"):
        t0 = time.monotonic()
        inst = make_inst(Z4, NEG, [(1, 1.0)])
        # fixture verified by direct substitution over all 16 pairs
        for x in range(4):
            for y in range(4):
                lhs = SINE[(x - y + 1) % 4] - SINE[(x + y + 1) % 4]
                assert lhs == 2 * SINE[x] * SINE[y]
        # independent exhaustive oracle: all 5^4 functions with values in
        # {0, 1, i, -1, -i}
        roots = [0, 1, 1j, -1, -1j]
        exhaustive = [
            np.array(v, dtype=complex)
            for v in product(roots, repeat=4)
            if any(v)
            and fl.residual("van_vleck", np.array(v, dtype=complex), inst).max_abs
            < 1e-9
        ]
        assert len(exhaustive) == 1
        assert max_abs_diff(exhaustive[0], SINE) == 0

        found = fl.oracle_solve("van_vleck", inst, fl.OracleConfig(restarts=400))
        assert same_sets(found, [SINE])
        assert same_sets(found, fl.van_vleck_family(inst))

        for atoms in ([(2, 1.0)], [(1, 1.0), (3, 1.0)]):
            other = make_inst(Z4, NEG, atoms)
            report = fl.oracle_solve(
                "van_vleck", other, fl.OracleConfig(restarts=400)
            )
            assert len(report) == 0
            assert len(fl.van_vleck_family(other)) == 0
        assert time.monotonic() - t0 < 5.0


def test_criterion_3_kannappan_completeness():
    with criterion(3, "cosine-equation solution sets on the order-4 cyclic group"):
        t0 = time.monotonic()
        inst = make_inst(Z4, NEG, [(2, 1.0)])
        expected = [
            np.ones(4, dtype=complex),
            np.array([-1, 0, 1, 0], dtype=complex),
            np.array([1, -1, 1, -1], dtype=complex),
        ]
        for f in expected:
            assert fl.residual("kannappan", f, inst).max_abs < 1e-12
        constructed = fl.kannappan_abelian_family(inst)
        found = fl.oracle_solve("kannappan", inst, fl.OracleConfig(restarts=400))
        assert same_sets(constructed, expected)
        assert same_sets(found, expected)

        inst2 = make_inst(Z4, NEG, [(1, 1.0), (3, 1.0)])
        expected2 = [
            np.full(4, 2.0, dtype=complex),
            -2.0 * np.array([1, -1, 1, -1], dtype=complex),
        ]
        for f in expected2:
            assert fl.residual("kannappan", f, inst2).max_abs < 1e-12
        assert same_sets(fl.kannappan_abelian_family(inst2), expected2)
        assert same_sets(
            fl.oracle_solve("kannappan", inst2, fl.OracleConfig(restarts=400)),
            expected2,
        )
        assert time.monotonic() - t0 < 5.0


def test_criterion_4_reduction_identity(grid, oracle_cache):
    with criterion(
        4, "unit mass at the identity reduces the cosine equation to d'Alembert"
    ):
        checked = 0
        for case in grid:
            if not is_unit_dirac_at_identity(case):
                continue
            checked += 1
            dal = oracle_cache(case, "dalembert")
            kan_oracle = oracle_cache(case, "kannappan")
            kan_constructed = fl.kannappan_abelian_family(case.inst, case.chars)
            assert same_sets(kan_oracle, dal), case.name
            assert same_sets(kan_constructed, dal), case.name
        assert checked >= 7  # one per monoid, more where two involutions exist


def test_criterion_5_identity_suites_on_oracle_solutions(grid, oracle_cache):
    with criterion(5, "identity suites hold on every oracle-found solution"):
        vv_total = kan_total = 0
        for case in grid:
            for sol in oracle_cache(case, "van_vleck").solutions:
                suite = fl.van_vleck_identity_suite(sol.values, case.inst)
                assert suite.worst() < RESIDUAL_TOL, (case.name, suite.residuals)
                assert abs(suite.mass) > 1e-9, case.name
                vv_total += 1
            for sol in oracle_cache(case, "kannappan").solutions:
                suite = fl.kannappan_identity_suite(sol.values, case.inst)
                assert suite.worst() < RESIDUAL_TOL, (case.name, suite.residuals)
                assert abs(suite.mass) > 1e-9, case.name
                kan_total += 1
        assert vv_total > 0 and kan_total > 0


def test_criterion_6_bijection(grid, oracle_cache):
    with criterion(6, "mass-scaling bijection round-trips and memberships"):
        fwd = back = 0
        for case in grid:
            inst = case.inst
            pool = [
                g
                for g in fl.dalembert_abelian_family(inst.sg, inst.tau, case.chars)
                if fl.dalembert_admissible(g, inst)
            ]
            for g in pool:
                f = fl.dalembert_to_kannappan(g, inst)
                assert fl.residual("kannappan", f, inst).max_abs < 1e-9, case.name
                assert max_abs_diff(f, np.zeros_like(f)) > 1e-9
                assert max_abs_diff(fl.kannappan_to_dalembert(f, inst), g) < 1e-10
                fwd += 1
            for sol in oracle_cache(case, "kannappan").solutions:
                g = fl.kannappan_to_dalembert(sol.values, inst)
                assert fl.residual("dalembert", g, inst).max_abs < 1e-9
                assert fl.dalembert_admissible(g, inst), case.name
                assert (
                    max_abs_diff(fl.dalembert_to_kannappan(g, inst), sol.values)
                    < 1e-10
                ), case.name
                back += 1
        assert fwd > 0 and back > 0


def test_criterion_7_condition_equivalence(grid, oracle_cache):
    with criterion(
        7, "the three integral conditions agree on every d'Alembert solution"
    ):
        checked = 0
        for case in grid:
            enumerated = list(
                fl.dalembert_abelian_family(case.inst.sg, case.inst.tau, case.chars)
            ) + [s.values for s in oracle_cache(case, "dalembert").solutions]
            for g in enumerated:
                conds = dalembert_integral_conditions(g, case.inst)
                assert conds.consistent, (case.name, conds)
                checked += 1
        assert checked > 0


def test_criterion_8_trivial_exclusions(grid, oracle_cache):
    with criterion(8, "identity involutions and identity point masses exclude sine solutions"):
        id_cases = dirac_e_cases = 0
        for case in grid:
            sg = case.inst.sg
            if np.array_equal(case.inst.tau.perm, np.arange(sg.order)):
                id_cases += 1
                assert len(fl.van_vleck_family(case.inst, case.chars)) == 0
                assert len(oracle_cache(case, "van_vleck")) == 0
            if is_unit_dirac_at_identity(case):
                dirac_e_cases += 1
                # admissibility would need chi(e) = -chi(e), i.e. chi(e) = 0
                integrals = fl.character_integrals(case.inst, case.chars)
                assert not integrals.admissible("van_vleck").any()
                assert len(fl.van_vleck_family(case.inst, case.chars)) == 0
                assert len(oracle_cache(case, "van_vleck")) == 0
        assert id_cases > 0 and dirac_e_cases >= 7


def test_criterion_9_determinism(tmp_path, capsys):
    with criterion(9, "seeded runs are byte-identical across reruns and thread counts"):
        spec = {
            "order": 4,
            "cayley": [(i + j) % 4 for i in range(4) for j in range(4)],
            "involution": [0, 3, 2, 1],
            "measure": [{"point": 1, "re": 1.0, "im": 0.0}],
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(spec))
        argv = ["solve", "vanvleck", str(path), "--oracle", "--seed", "0"]

        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

        # the solver's products go through BLAS, whose thread count is set
        # when numpy loads: each count gets a process of its own
        src = Path(fl.__file__).resolve().parents[1]
        outputs = {}
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
            run = subprocess.run(
                [sys.executable, "-m", "feqlab.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert run.returncode == 0, run.stderr
            outputs[threads] = run.stdout
        assert outputs["1"] == outputs["2"] == first
