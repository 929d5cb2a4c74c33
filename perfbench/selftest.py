"""Self-test of the benchmark, at toy size.

    python3 perfbench/selftest.py

Runs every workload on toy inputs and checks that its outputs pass, that a
tampered reference is flagged, that each pass imports cayleyx afresh, that
traced counts repeat exactly between two traced runs of one seed, that a
deleted layer is reported absent, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import unittest
from unittest import mock

import run  # first: caps the BLAS threads and puts src/ on the path

import checks
import workloads

SEED = 3


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        self.workdir = os.path.join(run.ROOT, ".perfbench_tmp", f"selftest-{os.getpid()}")
        self.addCleanup(shutil.rmtree, self.workdir, True)

    def toy(self, workload, name="a", reference=None):
        ops = run.setup(workload, SEED, os.path.join(self.workdir, name), size="toy")
        if reference is not None:
            ops = workloads.make_ops(workload, "toy", SEED,
                                     os.path.join(self.workdir, name, "tampered"), reference)
        return ops

    def test_every_workload_passes_its_checks(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                _passes, failures, _calibration = run.measure(self.toy(workload), 0)
                self.assertEqual(failures, [{}])

    def test_tampered_reference_is_flagged(self):
        reference = workloads.load_reference()
        tampered = copy.deepcopy(reference)
        label = workloads.construct_label(*workloads.CONSTRUCT["toy"][0])
        tampered["construct"]["toy"][label]["diameter"] += 1
        _walls, problems = run.run_pass(self.toy("construct", reference=tampered))
        self.assertEqual(list(problems), [label])

        label = workloads.search_label(*workloads.SEARCH["toy"][1])
        tampered["search"]["toy"][label] += 1
        _walls, problems = run.run_pass(self.toy("search", reference=tampered))
        self.assertEqual(list(problems), [label])

        ops = self.toy("analyze")
        ops[2].expect = checks.graph_reference(*ops[2].graph)
        ops[2].expect["components"] += 1
        _walls, problems = run.run_pass(ops)
        self.assertEqual(list(problems), [ops[2].label])

    def test_tampered_spectrum_is_flagged(self):
        ops = self.toy("construct")
        _walls, problems = run.run_pass(ops)
        self.assertEqual(problems, {})
        path = os.path.join(ops[0].out, "spectrum.csv")
        with open(path) as f:
            lines = f.read().splitlines()
        value, mult, exact = lines[1].split(",")
        lines[1] = ",".join([str(int(value) + 1), mult, exact])
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        self.assertTrue(checks.check_op(ops[0], 0, ""))

    def test_each_pass_imports_cayleyx_afresh(self):
        ops = self.toy("search")
        run.run_pass(ops)
        first = sys.modules["cayleyx.gf2"]
        run.run_pass(ops)
        self.assertIsNot(sys.modules["cayleyx.gf2"], first)

    def test_counts_repeat_between_traced_runs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                runs = []
                for name in ("first", "second"):
                    spans_path = os.path.join(self.workdir, name, "spans.jsonl")
                    metrics, failures, extra = run.measure_traced(
                        self.toy(workload, name), 0, spans_path)
                    self.assertEqual(failures, [{}, {}])
                    self.assertEqual(extra["absent"], [])
                    runs.append({m: metrics[m] for m in run.COUNT_METRICS})
                self.assertEqual(runs[0], runs[1])
                self.assertGreater(runs[0]["groups.tuple_ops"], 0)

    def test_deleted_layer_is_reported_absent(self):
        import_cli = run.import_cli

        def import_without_two_layers():
            cli = import_cli()
            from cayleyx import graphs, spectral

            del graphs.CayleyGraph.srg_check
            del spectral.crossing_counts_batch
            return cli

        ops = self.toy("construct")
        with mock.patch.object(run, "import_cli", import_without_two_layers):
            _passes, failures, _calibration = run.measure(ops, 0)
            self.assertEqual(failures, [{}])
            metrics, failures, extra = run.measure_traced(
                ops, 0, os.path.join(self.workdir, "spans.jsonl"))
        self.assertEqual(failures, [{}, {}])
        self.assertEqual(sorted(extra["absent"]),
                         ["graphs.srg_check.s", "spectral.crossing_counts_batch.s"])
        self.assertEqual(metrics["graphs.srg_check.s"], 0)

    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.LAYER_UNITS)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))

    def test_refuses_to_run_without_program_sources(self):
        bare = os.path.join(self.workdir, "bare")
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "construct", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("metrics", proc.stdout)


if __name__ == "__main__":
    unittest.main()
