"""Self-test of the benchmark: python3 perfbench/selftest.py (from any directory).

Runs every workload at reduced size through the same child-process path
as run.py, plain and traced, and requires its output check to pass; it
also checks the span arithmetic, the discovery of trace-folding sim
functions and that the speed probe's time is kept out of the sim time.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORK = run.WORK / "selftest"


def setUpModule():
    os.chdir(run.ROOT)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)


class SpanArithmetic(unittest.TestCase):
    def test_self_times_of_nested_spans(self):
        # A[0,10] holds B[1,4] (which holds C[2,3]) and D[5,9]
        parent = np.array([-1, 0, 1, 0])
        start = np.array([0.0, 1.0, 2.0, 5.0])
        end = np.array([10.0, 4.0, 3.0, 9.0])
        own = run.self_times(parent, start, end)
        np.testing.assert_allclose(own, [3.0, 2.0, 1.0, 4.0])
        self.assertAlmostEqual(own.sum(), 10.0)

    def test_recorded_spans_reconstruct_wall(self):
        spans = tracer.Spans()
        leaf = spans.wrap("layer.leaf", lambda: sum(range(1000)))
        mid = spans.wrap("layer.mid", lambda: [leaf() for _ in range(3)])
        top = spans.wrap("layer.top", lambda: (mid(), leaf()))
        launched = tracer.clock()
        top()
        exited = tracer.clock()
        path = WORK / "spans.npz"
        spans.save(path)
        summary, problems = run.summarize_spans(path, launched, exited)
        self.assertEqual(problems, [])
        calls = {name: f["calls"] for name, f in summary["functions"].items()}
        self.assertEqual(calls, {"layer.top": 1, "layer.mid": 1, "layer.leaf": 4})
        total = sum(f["self_s"] for f in summary["functions"].values())
        self.assertAlmostEqual(total + summary["unspanned_s"], exited - launched, places=9)


class Discovery(unittest.TestCase):
    def test_trace_folders_are_found_by_signature(self):
        import tagsplit.sim

        found = tracer.trace_folders(tagsplit.sim)
        self.assertIn("run_trace", found)
        self.assertNotIn("warm_fill", found)


class Probe(unittest.TestCase):
    def test_probe_time_is_taken_out_of_fold_time(self):
        probe = tracer.SpeedProbe()
        probe._sets = [[] for _ in range(probe.SETS)]
        timer = tracer.FoldTimer(probe)
        timer.wrap(lambda trace: probe._sample(None, None))(trace=None)
        self.assertEqual(len(probe.times), 1)
        self.assertGreaterEqual(timer.seconds, 0.0)
        self.assertLess(timer.seconds, probe.seconds / 2)


class SmallWorkloads(unittest.TestCase):
    def test_each_workload_passes_its_check(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.BUILDERS))
        layer_names = {m["name"] for m in spec["per_layer"]}
        for name, build in workloads.BUILDERS.items():
            with self.subTest(workload=name):
                work = WORK / name
                work.mkdir()
                workload = build(work, seed=3, small=True)
                judge = run.Judge(workload, work, golden=None)
                for traced in (False, True):
                    inv = run.invoke(workload, work, traced, timeout=120)
                    self.assertEqual(inv.code, 0)
                    judge(inv)
                    self.assertEqual(inv.problems, [])
                    self.assertGreater(inv.peak_rss_mib, 0)
                    if not traced:
                        self.assertGreater(inv.record["probe_mean_s"], 0)
                values = run.per_layer(inv, workload, judge.error)
                self.assertEqual(set(values) | {"trace.overhead_s", "sim.accesses_per_s",
                                                 "host.wall_s", "host.probe_slice_s"}, layer_names)

    def test_check_rejects_a_wrong_hit_count(self):
        work = WORK / "mutated"
        work.mkdir()
        workload = workloads.sim_uniform(work, seed=5, small=True)
        inv = run.invoke(workload, work, False, timeout=120)
        stdout = (work / "stdout.txt").read_text(encoding="ascii")
        report = workloads.parse_report(stdout.encode("ascii"))
        wrong = stdout.replace(f"hits: {report['hits']}\n",
                               f"hits: {int(report['hits']) + 1}\n")
        self.assertEqual(inv.code, 0)
        self.assertEqual(workload.check(stdout.encode("ascii"))[0], [])
        self.assertNotEqual(workload.check(wrong.encode("ascii"))[0], [])

    def test_a_run_past_its_deadline_is_killed_and_failed(self):
        work = WORK / "late"
        work.mkdir()
        workload = workloads.sim_uniform(work, seed=5, small=True)
        inv = run.invoke(workload, work, False, timeout=0.01)
        self.assertNotEqual(inv.code, 0)
        self.assertTrue(any("timed out" in p for p in inv.problems))


if __name__ == "__main__":
    unittest.main()
