"""verify_instance as a library call."""
from __future__ import annotations

import numpy as np

import feqlab as fl
from feqlab import verify
from feqlab.families import Solution, SolutionReport

Z4 = fl.cyclic_group(4)
Z4_D1 = fl.Instance(
    sg=Z4, tau=fl.inverse_involution(Z4), mu=fl.central_measure(Z4, [(1, 1.0)])
)


def test_passes_on_z4_d1():
    report = fl.verify_instance(Z4_D1)
    assert report.passed and report.failures == []
    assert len(report.van_vleck_suites) >= 1  # the sine, constructed and found
    assert report.dalembert_conditions
    assert max(report.roundtrip_max.values()) < 1e-12


def test_forged_family_lands_in_failures(monkeypatch):
    real = verify.family
    bad = np.full(4, 7.0, dtype=complex)

    def fake_family(kind, inst, chars=None, **kw):
        if kind != "van_vleck":
            return real(kind, inst, chars, **kw)
        member = Solution(values=bad, residual=0.0, provenance="constructed")
        return SolutionReport(equation=kind, solutions=(member,))

    monkeypatch.setattr(verify, "family", fake_family)
    report = fl.verify_instance(Z4_D1)
    assert not report.passed
    first = report.failures[0]
    assert first["identity"] == "van_vleck_equation"
    assert (first["provenance"], first["solution_index"]) == ("constructed", 0)
    assert first["max_abs"] == report.van_vleck_suites[0]["equation_residual"] > 1
