"""CLI behavior: spec parsing, exit codes, report schemas, reproducibility."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import feqlab as fl
from feqlab import cli, verify
from feqlab.families import SolutionReport

from conftest import build_grid, ladder_instances
from scalar_reference import character_integral_loop


def write_spec(tmp_path, name="inst.json", **overrides):
    spec = {
        "order": 4,
        "cayley": [(i + j) % 4 for i in range(4) for j in range(4)],
        "involution": [0, 3, 2, 1],
        "measure": [{"point": 1, "re": 1.0, "im": 0.0}],
    }
    spec.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


NEAR_CANCELLING_Z2 = {  # Z2, tau = id, mu = delta_0 - 0.9999999 delta_1
    "order": 2,
    "cayley": [0, 1, 1, 0],
    "involution": [0, 1],
    "measure": [{"point": 0, "re": 1.0, "im": 0.0}, {"point": 1, "re": -0.9999999, "im": 0.0}],
}


def spec_of(inst: fl.Instance) -> dict:
    return {
        "order": int(inst.sg.order),
        "cayley": inst.sg.cayley.ravel().tolist(),
        "involution": inst.tau.perm.tolist(),
        "measure": [{"point": z, "re": w.real, "im": w.imag} for z, w in inst.mu.atoms()],
    }


CASES = {case.name: case.inst for case in build_grid()} | ladder_instances()


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def forge_family(monkeypatch, kind, values):
    """Make verify's constructed family of `kind` the single member `values`;
    the other kinds keep their real families."""
    real = verify.family_stack

    def fake_family_stack(k, inst, chars=None):
        if k != kind:
            return real(k, inst, chars)
        return np.asarray(values, dtype=complex)[None]

    monkeypatch.setattr(verify, "family_stack", fake_family_stack)


def s3_cayley():
    return [int(v) for v in fl.symmetric_group_3().cayley.ravel()]


class TestValidateCommand:
    def test_valid_z4(self, tmp_path, capsys):
        path = write_spec(tmp_path)
        code, out = run(capsys, "validate", path)
        assert code == 0
        report = json.loads(out)
        assert report["order"] == 4
        assert report["center"] == [0, 1, 2, 3]
        assert report["tau_invariant_measure"] is False
        assert {"element": 1, "index": 1, "period": 4} in report["orbits"]

    def test_labels_echoed(self, tmp_path, capsys):
        path = write_spec(tmp_path, labels=["e", "a", "b", "c"])
        code, out = run(capsys, "validate", path)
        assert code == 0
        assert json.loads(out)["labels"] == ["e", "a", "b", "c"]

    def test_non_central_point_on_s3(self, tmp_path, capsys):
        path = write_spec(
            tmp_path,
            order=6,
            cayley=s3_cayley(),
            involution=[int(v) for v in fl.inverse_involution(fl.symmetric_group_3()).perm],
            measure=[{"point": 1, "re": 1.0, "im": 0.0}],
        )
        code, out = run(capsys, "validate", path)
        assert code == 2
        assert json.loads(out)["error"]["invariant"] == "support not central"

    def test_not_associative_table(self, tmp_path, capsys):
        path = write_spec(
            tmp_path,
            order=2,
            cayley=[1, 0, 0, 0],
            involution=[0, 1],
            measure=[{"point": 0, "re": 1.0, "im": 0.0}],
        )
        code, out = run(capsys, "validate", path)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["invariant"] == "not associative"
        assert "(0, 0, 1)" in err["message"]

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, out = run(capsys, "validate", str(path))
        assert code == 2
        assert json.loads(out)["error"]["invariant"] == "spec format"

    def test_missing_key(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"order": 2}))
        code, out = run(capsys, "validate", str(path))
        assert code == 2

    def test_missing_file(self, tmp_path, capsys):
        code, out = run(capsys, "validate", str(tmp_path / "nope.json"))
        assert code == 2

    def test_non_numeric_weight(self, tmp_path, capsys):
        path = write_spec(
            tmp_path, measure=[{"point": 1, "re": "one", "im": 0.0}]
        )
        code, out = run(capsys, "validate", path)
        assert code == 2
        assert json.loads(out)["error"]["invariant"] == "spec format"


class TestCharsCommand:
    def test_z4_characters(self, tmp_path, capsys):
        path = write_spec(tmp_path)
        code, out = run(capsys, "chars", path)
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 4
        assert [e["index"] for e in report["characters"]] == [0, 1, 2, 3]
        # exactly the two characters of order four are sine-admissible here
        assert sum(e["van_vleck_admissible"] for e in report["characters"]) == 2

    def test_one_element_semigroup(self, tmp_path, capsys):
        path = write_spec(
            tmp_path,
            order=1,
            cayley=[0],
            involution=[0],
            measure=[{"point": 0, "re": 1.0, "im": 0.0}],
        )
        code, out = run(capsys, "chars", path)
        assert code == 0
        assert json.loads(out)["count"] == 1

    def test_left_zero_fails_validation_before_enumeration(self, tmp_path, capsys):
        path = write_spec(
            tmp_path,
            order=3,
            cayley=[0, 0, 0, 1, 1, 1, 2, 2, 2],
            involution=[0, 1, 2],
            measure=[{"point": 0, "re": 1.0, "im": 0.0}],
        )
        code, out = run(capsys, "chars", path)
        assert code == 2

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_kannappan_column_matches_character_formula(self, tmp_path, capsys, name):
        # the column reads the d'Alembert conditions of the even parts; on
        # the grid and ladder it must agree with int chi o tau dmu = int chi dmu
        inst = CASES[name]
        code, out = run(capsys, "chars", write_spec(tmp_path, **spec_of(inst)))
        assert code == 0
        loop = character_integral_loop(inst, fl.enumerate_multiplicative(inst.sg))
        column = [e["kannappan_admissible"] for e in json.loads(out)["characters"]]
        assert column == [ci.kannappan_admissible() for ci in loop]


class TestSolveCommand:
    def test_vanvleck_with_oracle(self, tmp_path, capsys):
        path = write_spec(tmp_path)
        code, out = run(capsys, "solve", "vanvleck", path, "--oracle")
        assert code == 0
        report = json.loads(out)
        assert report["match"]["verdict"] == "match"
        assert len(report["solutions"]) == 1
        values = [v["re"] for v in report["solutions"][0]["values"]]
        assert values == pytest.approx([0, 1, 0, -1], abs=1e-12)

    def test_kannappan_with_oracle(self, tmp_path, capsys):
        path = write_spec(tmp_path, measure=[{"point": 2, "re": 1.0, "im": 0.0}])
        code, out = run(capsys, "solve", "kannappan", path, "--oracle")
        assert code == 0
        report = json.loads(out)
        assert len(report["solutions"]) == 3
        assert report["match"]["verdict"] == "match"

    def test_identity_involution_empty_match(self, tmp_path, capsys):
        path = write_spec(tmp_path, involution=[0, 1, 2, 3])
        code, out = run(capsys, "solve", "vanvleck", path, "--oracle")
        assert code == 0
        report = json.loads(out)
        assert report["solutions"] == []
        assert report["oracle"]["solutions"] == []
        assert report["match"]["verdict"] == "match"

    def test_dalembert_constructed_only(self, tmp_path, capsys):
        path = write_spec(tmp_path)
        code, out = run(capsys, "solve", "dalembert", path)
        assert code == 0
        report = json.loads(out)
        assert len(report["solutions"]) == 3
        assert "oracle" not in report

    def test_include_zero_appends(self, tmp_path, capsys):
        path = write_spec(tmp_path)
        code, out = run(capsys, "solve", "vanvleck", path, "--include-zero")
        report = json.loads(out)
        assert report["solutions"][-1]["provenance"] == "appended_zero"
        assert all(
            v == {"im": 0.0, "re": 0.0} for v in report["solutions"][-1]["values"]
        )

    def test_near_cancelling_measure_keeps_the_small_member(self, tmp_path, capsys):
        # on Z2 with mu = delta_0 - 0.9999999 delta_1, int 1 dmu = 1e-7, so
        # (1e-7, 1e-7) is a member: below the matching distance, above the
        # dedup distance, and both routes keep it
        path = write_spec(tmp_path, **NEAR_CANCELLING_Z2)
        code, out = run(capsys, "solve", "kannappan", path, "--oracle")
        assert code == 0
        report = json.loads(out)
        assert len(report["solutions"]) == len(report["oracle"]["solutions"]) == 2
        assert report["match"]["verdict"] == "match"

    def test_near_cancelling_measure_verifies(self, tmp_path, capsys):
        # the member 1e-7 (1, 1) is a genuine solution: int f dmu = 1e-14 lies
        # below 1e-9 * ||mu||^2 = 4e-9, but far above the vanishing floor
        # 1e-9 * ||mu|| * max|f| = 2e-16
        path = write_spec(tmp_path, **NEAR_CANCELLING_Z2)
        code, out = run(capsys, "verify-theorems", path)
        report = json.loads(out)
        assert (code, report["pass"]) == (0, True), report.get("first_failure")

    def test_mismatch_exit_code(self, tmp_path, capsys, monkeypatch):
        # forge an oracle that reports a bogus extra solution
        def fake_oracle(kind, inst, cfg=None):
            bogus = np.full((1, inst.sg.order), 9.0, dtype=complex)
            return SolutionReport(kind, bogus, np.zeros(1), "oracle")

        monkeypatch.setattr(cli, "oracle_solve", fake_oracle)
        path = write_spec(tmp_path)
        code, out = run(capsys, "solve", "vanvleck", path, "--oracle")
        assert code == 3
        report = json.loads(out)
        assert report["match"]["verdict"] == "mismatch"
        assert report["match"]["unmatched_oracle"] == [0]


class TestVerifyCommand:
    def test_passes_on_z4(self, tmp_path, capsys):
        path = write_spec(tmp_path)
        code, out = run(capsys, "verify-theorems", path)
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["van_vleck_suites"]
        assert report["dalembert_conditions"]

    def test_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # forge a constructed family containing a non-solution
        forge_family(monkeypatch, "van_vleck", np.full(4, 7.0, dtype=complex))
        path = write_spec(tmp_path)
        code, out = run(capsys, "verify-theorems", path)
        assert code == 4
        report = json.loads(out)
        assert report["pass"] is False
        failure = report["first_failure"]
        assert failure["identity"] == "van_vleck_equation"
        assert len(failure["argmax"]) == 2

    def test_zero_mass_solution_reported_not_crashed(self, tmp_path, capsys, monkeypatch):
        # forge a cosine-type "solution" whose measure integral vanishes; the
        # inverse map is undefined there and must surface as a suite failure
        sine = np.array([0, 1, 0, -1], dtype=complex)  # mass at point 2 is 0
        forge_family(monkeypatch, "kannappan", sine)
        path = write_spec(tmp_path, measure=[{"point": 2, "re": 1.0, "im": 0.0}])
        code, out = run(capsys, "verify-theorems", path)
        assert code == 4
        report = json.loads(out)
        assert any(f["identity"] == "nonzero_mass" for f in report["failures"])

    def test_forged_dalembert_member_fails(self, tmp_path, capsys, monkeypatch):
        # g is no d'Alembert solution (residual 2), yet its three integral
        # conditions all fail together, so only the equation itself catches it
        forge_family(monkeypatch, "dalembert", np.array([1, 0.5, 0, 0], dtype=complex))
        code, out = run(capsys, "verify-theorems", write_spec(tmp_path))
        assert code == 4
        report = json.loads(out)
        assert report["pass"] is False
        failure = report["first_failure"]
        assert failure["identity"] == "dalembert_equation"
        assert (failure["provenance"], failure["solution_index"]) == ("constructed", 0)
        assert failure["max_abs"] == 2.0

    def test_vacuous_pass_on_empty_instance(self, tmp_path, capsys):
        # C(2,1) with the identity involution: no sine solutions at all, the
        # cosine side still has the constant family
        path = write_spec(
            tmp_path,
            order=2,
            cayley=[1, 1, 1, 1],
            involution=[0, 1],
            measure=[{"point": 0, "re": 1.0, "im": 0.0}],
        )
        code, out = run(capsys, "verify-theorems", path)
        assert code == 0


class TestHeavyMeasure:
    """Tolerances scale with the measure's total variation."""

    WEIGHTS = [(100.0, 0.0), (1000.0, 0.0), (0.0, 100.0), (1e4, 0.0), (1e5, 0.0),
               (1e6, 0.0), (1e7, 0.0), (0.0, 1e7)]

    @pytest.mark.parametrize("re, im", WEIGHTS)
    def test_heavy_atom_passes(self, tmp_path, capsys, re, im):
        path = write_spec(tmp_path, measure=[{"point": 1, "re": re, "im": im}])
        code, out = run(capsys, "verify-theorems", path)
        assert code == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize("re, im", WEIGHTS)
    @pytest.mark.parametrize("kind", ["vanvleck", "kannappan", "dalembert"])
    def test_heavy_atom_oracle_matches(self, tmp_path, capsys, kind, re, im):
        path = write_spec(tmp_path, measure=[{"point": 1, "re": re, "im": im}])
        code, out = run(capsys, "solve", kind, path, "--oracle")
        assert code == 0
        report = json.loads(out)
        assert len(report["solutions"]) == len(report["oracle"]["solutions"]) >= 1

    @pytest.mark.parametrize("weight", [1.0, 1000.0])
    @pytest.mark.parametrize("kind", ["van_vleck", "kannappan"])
    def test_moved_member_still_fails(self, tmp_path, capsys, monkeypatch, kind, weight):
        path = write_spec(tmp_path, measure=[{"point": 1, "re": weight, "im": 0.0}])
        inst, _ = cli.load_instance_file(path)
        f = fl.family(kind, inst).solutions[0].values.copy()
        x = int(np.argmax(np.abs(f)))
        f[x] += 1e-6 * abs(f[x])
        forge_family(monkeypatch, kind, f)
        code, out = run(capsys, "verify-theorems", path)
        assert code == 4
        failed = {(e["provenance"], e["solution_index"]) for e in json.loads(out)["failures"]}
        assert ("constructed", 0) in failed


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = write_spec(tmp_path)
        _, first = run(capsys, "solve", "vanvleck", path, "--oracle", "--seed", "0")
        _, second = run(capsys, "solve", "vanvleck", path, "--oracle", "--seed", "0")
        assert first == second

    def test_byte_identical_across_openblas_threads(self, tmp_path):
        # the oracle runs on one thread; OpenBLAS threads would reach any
        # sum left to BLAS, where rounding depends on the split
        z4z4 = fl.direct_product(fl.cyclic_group(4), fl.cyclic_group(4))
        weighted = [{"point": 0, "re": 1.0, "im": 1.0}, {"point": 1, "re": 2.0, "im": 0.0}]
        big = write_spec(
            tmp_path,
            "z4xz4.json",
            order=16,
            cayley=z4z4.cayley.ravel().tolist(),
            involution=fl.inverse_involution(z4z4).perm.tolist(),
            measure=weighted,
        )
        requests = [
            ["solve", "kannappan", big, "--oracle"],
            ["verify-theorems", write_spec(tmp_path, "z4.json", measure=weighted)],
        ]
        src = Path(fl.__file__).resolve().parents[1]
        outputs = {}
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
            outputs[threads] = [
                subprocess.run(
                    [sys.executable, "-m", "feqlab.cli", *argv],
                    capture_output=True, text=True, env=env, timeout=120,
                )
                for argv in requests
            ]
        for one, two in zip(outputs["1"], outputs["2"]):
            assert one.returncode == two.returncode == 0, one.stderr + two.stderr
            assert one.stdout == two.stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ("validate", "SPEC"),
            ("chars", "SPEC"),
            ("solve", "vanvleck", "SPEC"),
            ("solve", "kannappan", "SPEC", "--oracle", "--include-zero"),
            ("solve", "dalembert", "SPEC", "--oracle", "--include-zero"),
            ("verify-theorems", "SPEC"),
        ],
        ids=lambda argv: "-".join(a.lstrip("-") for a in argv if a != "SPEC"),
    )
    def test_json_is_key_sorted(self, tmp_path, capsys, argv):
        path = write_spec(tmp_path, measure=[{"point": 1, "re": 1.0, "im": -0.5}])
        _, out = run(capsys, *(path if a == "SPEC" else a for a in argv))
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class TestHardening:
    @pytest.mark.parametrize(
        "overrides",
        [
            {
                "order": True,
                "cayley": [0],
                "involution": [0],
                "measure": [{"point": 0, "re": 1.0, "im": 0.0}],
            },
            {"cayley": [True if k == 1 else (k // 4 + k % 4) % 4 for k in range(16)]},
            {"involution": [0, 3, 2, True]},
            {"measure": [{"point": True, "re": 1.0, "im": 0.0}]},
            {"measure": [{"point": 1, "re": True, "im": 0.0}]},
            {"measure": [{"point": 1, "re": 1.0, "im": False}]},
        ],
        ids=["order", "cayley", "involution", "point", "re", "im"],
    )
    def test_json_booleans_rejected(self, tmp_path, capsys, overrides):
        code, out = run(capsys, "validate", write_spec(tmp_path, **overrides))
        assert code == 2
        assert json.loads(out)["error"]["invariant"] == "spec format"

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    @pytest.mark.parametrize(
        "command", [("chars",), ("solve", "vanvleck"), ("verify-theorems",)]
    )
    def test_bad_tol_exits_2(self, tmp_path, capsys, command, tol):
        code, out = run(capsys, *command, write_spec(tmp_path), "--tol", tol)
        assert code == 2
        assert json.loads(out)["error"]["invariant"] == "option value"

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "vanvleck", "SPEC", "--seed", "abc"),
            ("verify-theorems", "SPEC", "--seed", "1.5"),
            ("solve", "kannappan", "SPEC", "--tol", "-1e-5"),
            ("chars", "SPEC", "--tol", "-inf"),
            ("solve", "vanvleck"),
            ("frobnicate", "SPEC"),
            ("solve", "sine", "SPEC"),
            ("validate", "SPEC", "--oracle"),
            (),
            ("chars", "SPEC", "--tol", "1e-9"),
            ("solve", "vanvleck", "SPEC", "--tol", "1e-9"),
            ("verify-theorems", "SPEC", "--tol", "1e-9"),
        ],
        ids=[
            "seed-not-int", "seed-float", "tol-two-tokens", "tol-minus-inf",
            "missing-spec-file", "unknown-command", "unknown-kind", "unknown-flag",
            "no-command", "tol-chars", "tol-solve", "tol-verify-theorems",
        ],
    )
    def test_refused_options_exit_2_as_json(self, tmp_path, capsys, argv):
        path = write_spec(tmp_path)
        code = cli.main([path if a == "SPEC" else a for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        assert json.loads(captured.out)["error"]["invariant"] == "option value"

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: feqlab")

    @pytest.mark.parametrize(
        "raw",
        [
            b"\xff\xfe{}",
            b'{"order": 1, "cayley": [0], "involution": [0], "measure": '
            b'[{"point": 0, "re": 1' + b"0" * 400 + b', "im": 0.0}]}',
            b"[" * 100_000,
            b'{"order": 1' + b"0" * 5000 + b"}",
        ],
        ids=["not-utf8", "weight-beyond-float", "nested-too-deep", "too-many-digits"],
    )
    def test_unreadable_spec_exits_2(self, tmp_path, capsys, raw):
        path = tmp_path / "raw.json"
        path.write_bytes(raw)
        code, out = run(capsys, "validate", str(path))
        assert code == 2
        assert json.loads(out)["error"]["invariant"] == "spec format"

    @pytest.mark.parametrize("value", [10**23, -(10**23)])
    @pytest.mark.parametrize("key", ["cayley", "involution"])
    def test_integers_beyond_int64_rejected(self, tmp_path, capsys, key, value):
        spec = {
            "order": 1,
            "cayley": [0],
            "involution": [0],
            "measure": [{"point": 0, "re": 1.0, "im": 0.0}],
        }
        spec[key] = [value]
        code, out = run(capsys, "validate", write_spec(tmp_path, **spec))
        assert code == 2
        assert json.loads(out)["error"]["invariant"] == "spec format"

    @staticmethod
    def zero_semigroup_spec(tmp_path, weights):
        return write_spec(
            tmp_path,
            order=2,
            cayley=[0, 0, 0, 0],
            involution=[0, 1],
            measure=[
                {"point": p, "re": re, "im": im} for p, (re, im) in enumerate(weights)
            ],
        )

    @pytest.mark.parametrize(
        "weights",
        [[(1e308, 1e308)], [(1e308, 0.0), (1e308, 0.0)], [(6e49, 0.0), (0.0, 6e49)]],
        ids=["abs-overflows", "sum-overflows", "above-cap"],
    )
    @pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["plain", "oracle"])
    def test_measure_total_variation_capped(self, tmp_path, capsys, weights, oracle):
        path = self.zero_semigroup_spec(tmp_path, weights)
        code, out = run(capsys, "solve", "kannappan", path, *oracle)
        assert code == 2
        assert json.loads(out)["error"]["invariant"] == "spec format"

    def test_measure_at_total_variation_cap_accepted(self, tmp_path, capsys):
        path = self.zero_semigroup_spec(tmp_path, [(5e49, 0.0), (0.0, 5e49)])
        code, _ = run(capsys, "validate", path)
        assert code == 0

    def test_measure_below_total_variation_floor_rejected(self, tmp_path, capsys):
        path = write_spec(tmp_path, measure=[{"point": 1, "re": 1e-60, "im": 0.0}])
        code, out = run(capsys, "validate", path)
        assert code == 2
        assert json.loads(out)["error"]["invariant"] == "spec format"

    @pytest.mark.parametrize(
        "argv",
        [["verify-theorems"]]
        + [["solve", k, "--oracle"] for k in ("vanvleck", "kannappan", "dalembert")],
        ids=lambda argv: argv[-1] if argv[0] == "verify-theorems" else argv[1],
    )
    def test_measure_at_total_variation_floor_accepted(self, tmp_path, capsys, argv):
        path = write_spec(tmp_path, measure=[{"point": 1, "re": 1e-50, "im": 0.0}])
        code, _ = run(capsys, argv[0], *argv[1:2], path, *argv[2:])
        assert code == 0
