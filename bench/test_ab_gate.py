#!/usr/bin/env python3
"""Unit tests of bench/ab_gate.py's verdict rules on synthetic run lists.

    python3 bench/test_ab_gate.py

No perfbench run: only the functions that turn two sides' per-run values
into pair wins, median ratios and verdicts, and the base tree's export,
on a throwaway git repository.
"""

import os
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab_gate  # noqa: E402

RATE = {"name": "sim_cycles_per_s", "unit": "1/s", "better": "higher",
        "bound": 0.25}
WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}


class HeadWinsTest(unittest.TestCase):
    def test_ties_count_for_neither_side(self):
        self.assertEqual(ab_gate.head_wins(RATE, [1, 2, 3], [1, 3, 2]), 1)
        self.assertEqual(ab_gate.head_wins(RATE, [5, 5], [5, 5]), 0)

    def test_direction_follows_the_metric(self):
        self.assertEqual(ab_gate.head_wins(RATE, [1, 1, 1], [2, 2, 0]), 2)
        self.assertEqual(ab_gate.head_wins(WALL, [1, 1, 1], [2, 2, 0]), 1)


class GateVerdictTest(unittest.TestCase):
    def test_reports_wins_and_median_ratio(self):
        m = ab_gate.judge(RATE, [100, 100, 100, 100, 100],
                          [110, 90, 110, 110, 100])
        self.assertEqual(m["head_wins"], 3)
        self.assertEqual(m["pairs"], 5)
        self.assertAlmostEqual(m["median_ratio"], 1.10)
        self.assertEqual(m["verdict"], "pass")

    def test_worse_than_the_bound_fails(self):
        m = ab_gate.judge(WALL, [1.0] * 5, [1.3] * 5)
        self.assertEqual(m["verdict"], "fail")
        self.assertEqual(m["head_wins"], 0)

    def test_base_spread_wider_than_the_bound_is_unresolved(self):
        m = ab_gate.judge(RATE, [50, 60, 100, 140, 150], [10] * 5)
        self.assertEqual(m["verdict"], "unresolved")


class ClaimVerdictTest(unittest.TestCase):
    BASE = [100, 102, 98, 101, 99, 100, 103, 97, 100, 100]

    def test_nine_wins_and_a_gain_past_the_base_iqr_pass(self):
        head = [120] * 9 + [90]
        m = ab_gate.judge_claim(RATE, self.BASE, head)
        self.assertEqual(m["head_wins"], 9)
        self.assertGreater(m["gain"], m["base_iqr"])
        self.assertEqual(m["verdict"], "pass")

    def test_eight_wins_fail(self):
        head = [120] * 8 + [90, 90]
        m = ab_gate.judge_claim(RATE, self.BASE, head)
        self.assertEqual(m["head_wins"], 8)
        self.assertEqual(m["verdict"], "fail")

    def test_ties_do_not_count_as_wins(self):
        head = [120] * 8 + [self.BASE[8], self.BASE[9]]
        self.assertEqual(ab_gate.judge_claim(RATE, self.BASE, head)["verdict"],
                         "fail")

    def test_a_gain_within_the_base_iqr_fails(self):
        base = [90, 110, 95, 105, 100, 92, 108, 97, 103, 100]
        head = [b + 1 for b in base]  # wins every pair by a hair
        m = ab_gate.judge_claim(RATE, base, head)
        self.assertEqual(m["head_wins"], 10)
        self.assertLessEqual(m["gain"], m["base_iqr"])
        self.assertEqual(m["verdict"], "fail")

    def test_lower_is_better_metric(self):
        base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.0, 1.01, 0.99]
        faster = [0.8] * 10
        self.assertEqual(ab_gate.judge_claim(WALL, base, faster)["verdict"],
                         "pass")
        slower = [1.2] * 10
        self.assertEqual(ab_gate.judge_claim(WALL, base, slower)["verdict"],
                         "fail")


class BaseExportTest(unittest.TestCase):
    def test_a_commit_is_exported_once_and_replaced_by_the_next(self):
        with tempfile.TemporaryDirectory() as repo:
            def commit(text):
                with open(os.path.join(repo, "file"), "w") as f:
                    f.write(text)
                subprocess.run(["git", "-C", repo, "add", "file"], check=True)
                subprocess.run(["git", "-C", repo, "-c", "user.name=t",
                                "-c", "user.email=t@t", "commit", "-qm",
                                text], check=True)

            def exported():
                with open(os.path.join(base, "file")) as f:
                    return f.read()

            subprocess.run(["git", "init", "-q", repo], check=True)
            work = os.path.join(repo, ".bench_build", "ab_gate")
            base = os.path.join(work, "base")
            built = os.path.join(base, "built")
            with mock.patch.multiple(ab_gate, ROOT=repo, WORK_DIR=work,
                                     BASE_TREE=base):
                commit("one")
                first = ab_gate.checkout_base("HEAD")
                self.assertEqual(exported(), "one")
                self.assertFalse(os.path.exists(os.path.join(base, ".git")))
                open(built, "w").close()  # what a perfbench build leaves
                self.assertEqual(ab_gate.checkout_base(first), first)
                self.assertTrue(os.path.exists(built))
                commit("two")
                self.assertNotEqual(ab_gate.checkout_base("HEAD"), first)
                self.assertEqual(exported(), "two")
                self.assertFalse(os.path.exists(built))


if __name__ == "__main__":
    unittest.main()
