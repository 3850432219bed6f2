"""Fast self-test of the benchmark itself (a few seconds, no timing).

    python3 perfbench/selftest.py

Checks that the workload generator is a function of the seed, and that a
corrupted response is counted in failed_frac.
"""
from __future__ import annotations

import json
import shutil
import unittest
from pathlib import Path

import run
import workloads


def _snapshot(workload: workloads.Workload, directory: Path) -> tuple[list[bytes], list[list[str]]]:
    paths = workload.write_specs(str(directory))
    files = [Path(p).read_bytes() for p in paths]
    argv = [req.argv(Path(paths[req.spec]).name) for req in workload.round]
    return files, argv


class GeneratorTest(unittest.TestCase):
    def setUp(self):
        self.dir = run.WORK / "selftest"
        self.addCleanup(shutil.rmtree, self.dir, True)

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            first = _snapshot(workloads.build(name, 7), self.dir / f"{name}-a")
            again = _snapshot(workloads.build(name, 7), self.dir / f"{name}-b")
            other = _snapshot(workloads.build(name, 8), self.dir / f"{name}-c")
            self.assertEqual(first, again, name)
            self.assertNotEqual(first, other, name)

    def test_round_mix_does_not_depend_on_seed(self):
        def shapes(workload):
            return sorted((r.command, r.spec, r.kind or "", r.oracle) for r in workload.round)

        for name in workloads.WORKLOADS:
            self.assertEqual(shapes(workloads.build(name, 1)), shapes(workloads.build(name, 2)))

    def test_corpus_is_the_test_grid(self):
        workload = workloads.build("corpus-mix", 0)
        self.assertEqual(len(workload.specs), 78)
        commands = [r.command for r in workload.round]
        self.assertEqual(sum(r.oracle for r in workload.round), 47)
        self.assertEqual(commands.count("verify-theorems"), 12)


class CorruptionTest(unittest.TestCase):
    """A response the program did not give must count as failed."""

    @classmethod
    def setUpClass(cls):
        cls.fl = run.load_program(run.ROOT)
        corpus = workloads.build("corpus-mix", 7)
        z4 = next(i for i, s in enumerate(corpus.specs) if s.name == "Z4/inv/d1")
        z2 = next(i for i, s in enumerate(corpus.specs) if s.name == "Z2/inv/d1")
        cls.workload = workloads.Workload("selftest", corpus.specs, [
            workloads.Request("solve", z4, "vanvleck"),
            workloads.Request("solve", z2, "kannappan", True, 5),
            workloads.Request("validate", z4),
        ])
        cls.dir = run.WORK / "selftest-specs"
        cls.runner = run.Runner(cls.fl, cls.workload, cls.workload.write_specs(str(cls.dir)))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir, ignore_errors=True)

    def _failed_frac(self, records: list[dict]) -> float:
        run.check_determinism(records, self.workload)
        return run.end_to_end(records, 1.0, 1.0)[1]["failed_frac"][0]

    def _clean_and_corrupted(self, index: int, mutate) -> tuple[float, float]:
        code, stdout = self.runner._call(self.workload.round[index])
        clean = self.runner.record(index, code, stdout, 0.01, True)
        bad_code, bad_stdout = mutate(code, json.loads(stdout))
        corrupted = self.runner.record(index, bad_code, bad_stdout, 0.01, True)
        return self._failed_frac([clean]), self._failed_frac([corrupted])

    def test_perturbed_member_fails_the_residual_check(self):
        def mutate(code, report):
            report["solutions"][0]["values"][1]["re"] += 0.25
            return code, json.dumps(report)

        self.assertEqual(self._clean_and_corrupted(0, mutate), (0.0, 1.0))

    def test_false_verdict_and_exit_code_fail(self):
        def wrong_verdict(code, report):
            report["match"]["verdict"] = "mismatch"
            return 3, json.dumps(report)

        def wrong_exit(code, report):
            return 4, json.dumps(report)

        self.assertEqual(self._clean_and_corrupted(1, wrong_verdict), (0.0, 1.0))
        self.assertEqual(self._clean_and_corrupted(1, wrong_exit), (0.0, 1.0))

    def test_changed_stdout_on_repeat_fails(self):
        code, stdout = self.runner._call(self.workload.round[2])
        first = self.runner.record(2, code, stdout, 0.01, True)
        again = self.runner.record(2, code, stdout.replace("\n", " \n", 1), 0.01, True)
        self.assertEqual(self._failed_frac([first, again]), 0.5)


if __name__ == "__main__":
    unittest.main()
