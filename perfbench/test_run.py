#!/usr/bin/env python3
"""Self-tests of the pipeline benchmark. Run from the repository root:

    python3 perfbench/test_run.py

The pipeline tests build perfbench_pipeline (as run.py does) and run a few
short passes of the real workloads.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


class Names(unittest.TestCase):
    def test_every_printed_name_matches(self):
        names = run.WORKLOADS + [n for n, _ in run.END_TO_END] + [m[0] for m in run.PER_LAYER]
        names.append("iter_mt_ms")
        for name in names:
            self.assertRegex(name, run.NAME_RE)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_lists_what_run_prints(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], run.WORKLOADS)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         [(m[0], m[1]) for m in run.PER_LAYER])
        e2e = {n for n, _ in run.END_TO_END} | {"iter_mt_ms", "none"}
        for _, _, moves, where in run.PER_LAYER:
            self.assertIn(moves, e2e)
            self.assertTrue(set(where) <= set(run.WORKLOADS))


class Percentiles(unittest.TestCase):
    def test_reported_only_with_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(list(range(199)), 0.95))
        self.assertEqual(run.tail_percentile(list(range(200)), 0.95), 189)
        self.assertIsNone(run.tail_percentile(list(range(999)), 0.99))
        self.assertEqual(run.tail_percentile(list(range(1000)), 0.99), 989)
        self.assertIsNone(run.tail_percentile([], 0.5))

    def test_highest_tail_picks_the_highest_allowed_level(self):
        self.assertEqual(run.highest_tail(list(range(1000)))[0], 0.99)
        self.assertEqual(run.highest_tail(list(range(100)))[0], 0.9)
        self.assertIsNone(run.highest_tail(list(range(30))))


def span(name, start, end, parent="pass"):
    return {"name": name, "parent": parent, "pass": 0, "start_ms": start, "end_ms": end}


class Coverage(unittest.TestCase):
    def test_layers_plus_unattributed_add_up_to_the_pass(self):
        spans = [span("sparse.parse", 1, 4), span("partition", 4, 9), span("gate", 9.5, 10),
                 span("pass", 0, 10, parent="")]
        total, layers, unattributed = run.layer_coverage(spans)
        self.assertEqual(total, 10)
        self.assertEqual(layers, {"sparse.parse": 3, "partition": 5, "gate": 0.5})
        self.assertAlmostEqual(sum(layers.values()) + unattributed, total)

    def test_overlapping_layers_are_rejected(self):
        spans = [span("partition", 1, 5), span("models.decode", 4, 6),
                 span("pass", 0, 10, parent="")]
        with self.assertRaises(run.CoverageError):
            run.layer_coverage(spans)

    def test_a_layer_outside_the_pass_is_rejected(self):
        with self.assertRaises(run.CoverageError):
            run.layer_coverage([span("gate", 8, 12), span("pass", 0, 10, parent="")])


class Pipeline(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build_dir = run.build(ROOT)
        cls.work = cls.build_dir / "selftest"
        cls.work.mkdir(exist_ok=True)

    def passes(self, workload, seed, count, corrupt=None):
        out = self.work / f"{workload}-{seed}-{count}-{corrupt}.json"
        cmd = [str(self.build_dir / "perfbench_pipeline"), "--workload", workload,
               "--seed", str(seed), "--seconds", "0", "--trace", "1", "--passes", str(count),
               "--workdir", str(self.work), "--out", str(out)]
        if corrupt is not None:
            cmd += ["--corrupt-pass", str(corrupt)]
        subprocess.run(cmd, check=True, stderr=subprocess.DEVNULL, timeout=300)
        return json.loads(out.read_text())

    def test_one_seed_gives_identical_inputs_and_counts(self):
        keys = ["volume_words", "messages", "cutsize", "tasks"]
        for workload in ("ken11-multilevel", "spgemm-sherman3"):
            with self.subTest(workload=workload):
                runs = [self.passes(workload, 3, 2), self.passes(workload, 3, 2)]
                passes = [p for doc in runs for p in doc["passes"]]
                self.assertTrue(all(p["ok"] for p in passes), [p["error"] for p in passes])
                self.assertEqual(len({doc["input"]["hash"] for doc in runs}), 1)
                self.assertEqual({p["input_hash"] for p in passes}, {runs[0]["input"]["hash"]})
                for key in keys:
                    self.assertEqual(len({p["counts"].get(key) for p in passes}), 1, key)
                other = self.passes(workload, 4, 1)
                self.assertNotEqual(other["input"]["hash"], runs[0]["input"]["hash"])

    def test_a_corrupted_output_counts_as_failed(self):
        for workload in ("ken11-multilevel", "spgemm-sherman3"):
            with self.subTest(workload=workload):
                doc = self.passes(workload, 1, 2, corrupt=1)
                self.assertEqual([p["ok"] for p in doc["passes"]], [True, False])
                self.assertIn("max error", doc["passes"][1]["error"])
                self.assertIn("bit-identical", doc["passes"][1]["error"])
                values, *_ = run.e2e_metrics(doc)
                self.assertEqual(values["pass_rate"], 0.5)
                self.assertEqual(run.layer_metrics(doc)["fail_rate"], 0.5)

    def test_traced_passes_cover_every_layer(self):
        doc = self.passes("spgemm-sherman3", 1, 2)
        traced = [p for p in doc["passes"] if p["traced"]]
        self.assertEqual(len(traced), 1)
        _, layers, unattributed = run.layer_coverage(traced[0]["spans"])
        for name in ("spgemm.tasks", "spgemm.model", "partition", "models.decode",
                     "spgemm.schedule", "exec.compile", "exec.iter_serial", "exec.iter_mt",
                     "comm.analyze", "gate", "trace.report"):
            self.assertIn(name, layers)
        self.assertGreaterEqual(unattributed, 0.0)
        self.assertGreater(traced[0]["counts"]["rb_node_eff"], 0.0)
        self.assertGreater(traced[0]["counts"]["expand_eff"], 0.0)


if __name__ == "__main__":
    unittest.main()
