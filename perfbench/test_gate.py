"""Smoke test for the benchmark's correctness gate.

Runs one small ``verify-bounds`` campaign through ``child.py``, then checks
that the gate passes the pristine outputs and counts a truncated CSV and a
single flipped byte as failed operations.  Run from the repository root::

    python3 perfbench/test_gate.py
"""

from __future__ import annotations

import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

MODE = "verify-bounds"
BASE = {"n_arms": 2, "horizon": 60, "trajectories": 4, "means": "0.9,0.1", "reward_kind": "bernoulli"}


class GateSmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.saved_work = run.WORK
        run.WORK = cls.saved_work / "selftest"
        shutil.rmtree(run.WORK, ignore_errors=True)
        run.WORK.mkdir(parents=True)
        cls.bench = run.Bench(seed=3)
        cls.report = cls.bench.campaign(MODE, BASE)
        cls.config = cls.bench.config(BASE)
        cls.outdir = run.WORK / "out"

    @classmethod
    def tearDownClass(cls) -> None:
        shutil.rmtree(run.WORK, ignore_errors=True)
        run.WORK = cls.saved_work
        try:
            run.WORK.rmdir()
        except OSError:  # absent, or in use by a benchmark run
            pass

    def setUp(self) -> None:
        self.assertIsNotNone(self.report, "the pristine campaign failed the gate")
        self.copy = run.WORK / f"copy-{self._testMethodName}"
        shutil.copytree(self.outdir, self.copy)

    def tearDown(self) -> None:
        shutil.rmtree(self.copy, ignore_errors=True)

    def judge(self) -> list[str]:
        """Gate the copy as the benchmark gates a campaign run, counting it."""
        return self.bench.judge(MODE, self.config, self.copy, 0, "")

    def test_pristine_outputs_pass(self) -> None:
        before = self.bench.failed
        self.assertEqual(self.judge(), [])
        self.assertEqual(self.bench.failed, before)

    def test_truncated_csv_fails(self) -> None:
        path = self.copy / "violation_profile.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-5]))
        before = self.bench.failed
        problems = self.judge()
        self.assertTrue(any("violation_profile.csv has" in p for p in problems), problems)
        self.assertEqual(self.bench.failed, before + 1)

    def test_flipped_byte_fails(self) -> None:
        path = self.copy / "drivers.csv"
        data = bytearray(path.read_bytes())
        last_digit = max(i for i, b in enumerate(data) if chr(b).isdigit())
        data[last_digit] = ord("1") if data[last_digit] != ord("1") else ord("2")
        path.write_bytes(bytes(data))
        before = self.bench.failed
        problems = self.judge()
        self.assertEqual(problems, ["outputs differ from the reference run: ['drivers.csv']"])
        self.assertEqual(self.bench.failed, before + 1)


if __name__ == "__main__":
    unittest.main()
