"""Tests of the benchmark itself: the reference loop and the checks.

    python3 bench/selftest.py

The reference loop must not depend on the program and must run with the
garbage collector paused; the checks must reject a planted wrong witness
and a planted wrong threshold.
"""

from __future__ import annotations

import ast
import dataclasses
import gc
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import refloop  # noqa: E402
import workloads  # noqa: E402
from oracle import CheckFailed  # noqa: E402


class ReferenceLoopTest(unittest.TestCase):
    def test_imports_nothing_from_monochrome(self):
        with open(refloop.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
        self.assertEqual(imported, {"__future__", "gc", "time"})

    def test_runs_with_the_collector_paused(self):
        seen = []
        work = refloop._work

        def spy(iterations):
            seen.append(gc.isenabled())
            return work(iterations)

        refloop._work = spy
        try:
            gc.enable()
            self.assertGreater(refloop.measure(100, 3), 0.0)
            self.assertEqual(seen, [False, False, False])
            self.assertTrue(gc.isenabled())
        finally:
            refloop._work = work


class OracleTest(unittest.TestCase):
    def test_stream_and_windows_follow_the_documented_definitions(self):
        # splitmix64 of 0x9E3779B97F4A7C15, the first value of seed 0
        self.assertEqual(oracle.stream_value(0, 0), 0xE220A8397B1DCDAF)
        self.assertEqual(oracle.Ring("Zi").window("B=1")[:3], [(0, 0), (-1, 0), (0, -1)])
        self.assertEqual(oracle.Ring("GF(3)[x]").window("d=2")[:5], [(), (1,), (2,), (0, 1), (1, 1)])

    def test_least_forced_windows_by_enumeration(self):
        got = workloads.expected_threshold(0)["thresholds"]
        self.assertEqual((got["t"], got["0;t"]), (8, 15))


class PlantedErrorTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        import monochrome

        cls.mono = monochrome

    def test_wrong_witness_is_caught(self):
        mono = self.mono
        spec = mono.parse_ring_spec("Z")
        coloring = mono.random_coloring(mono.enumerate_window(spec, mono.WindowParams(60)), 2, 5)
        got = workloads._raw_witnesses(mono.witness_scan(coloring, mono.parse_family(spec, "0;t")))
        cw = oracle.Colored.seeded(oracle.Ring("Z"), "N=60", 2, 5)
        expected = oracle.scan(cw, oracle.parse_family(oracle.Ring("Z"), "0;t"))
        self.assertTrue(expected)
        workloads.check_witnesses(got, expected, "Z N=60")

        x, y, c = got[len(got) // 2]
        recolored = list(got)
        recolored[len(got) // 2] = (x, y, 3 - c)
        with self.assertRaises(CheckFailed):
            workloads.check_witnesses(recolored, expected, "Z N=60")
        with self.assertRaises(CheckFailed):
            workloads.check_witnesses(got[:-1], expected, "Z N=60")

    def test_wrong_threshold_is_caught(self):
        mono = self.mono
        family = mono.parse_family(mono.parse_ring_spec("Z"), "t")
        result = mono.moreira_number(2, family, 20)
        truth = workloads.expected_threshold(0)["thresholds"]["t"]
        workloads.check_threshold(result, truth, "F=t")
        with self.assertRaises(CheckFailed):
            workloads.check_threshold(dataclasses.replace(result, n=result.n + 1), truth, "F=t")
        with self.assertRaises(CheckFailed):
            workloads.check_threshold(result, truth - 1, "F=t")


if __name__ == "__main__":
    unittest.main()
