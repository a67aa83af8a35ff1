"""Self-tests of the benchmark, at tiny sizes (about a minute).

    python3 -m unittest perfbench/selftest.py

Run from the root of a chordlab checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, check=True, timeout=170,
    )
    return json.loads(out.stdout.decode().splitlines()[-1])


def declared(kind: str) -> set[str]:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


class TinyRuns(unittest.TestCase):
    def test_every_workload_runs_without_failures(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                result = bench(name, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 2)
                self.assertEqual(set(result["metrics"]), declared("end_to_end"))

    def test_traced_stdout_matches_untraced(self):
        # the traced run counts a failure for any command whose traced
        # stdout or exit code differs from the untraced pass
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                result = bench(name, 1)
                self.assertTrue(result["correct"])
                self.assertEqual(result["attempted"],
                                 2 * len(workloads.build(name, 3, "tiny").commands)
                                 + (name == "sl2-eval"))
                self.assertEqual(set(result["metrics"]), declared("per_layer"))
                calls = result["metrics"]["cli.main.calls"]["value"]
                self.assertEqual(calls, len(workloads.build(name, 3, "tiny").commands))


class Generator(unittest.TestCase):
    def setUp(self):
        self.dirs = []

    def tearDown(self):
        for d in self.dirs:
            shutil.rmtree(d, ignore_errors=True)

    def files(self, seed: int) -> dict[str, bytes]:
        d = os.path.join(run.WORK_ROOT, f"selftest-{os.getpid()}-{len(self.dirs)}")
        os.makedirs(d)
        self.dirs.append(d)
        out = {}
        for name, path in workloads.generate(workloads.build("sl2-eval", seed), seed,
                                             d).items():
            with open(path, "rb") as fh:
                out[name] = fh.read()
        return out

    def test_deterministic_per_seed(self):
        self.assertEqual(self.files(5), self.files(5))
        self.assertEqual(workloads.build("sampled-order8", 5),
                         workloads.build("sampled-order8", 5))

    def test_changes_with_seed(self):
        a, b = self.files(5), self.files(6)
        for name in a:
            self.assertNotEqual(a[name], b[name])
        self.assertNotEqual(workloads.build("sampled-order8", 5).commands,
                            workloads.build("sampled-order8", 6).commands)

    def test_words_are_distinct_classes(self):
        for name, data in self.files(5).items():
            words = data.decode().split()
            classes = {workloads.rotation_class(tuple(map(ord, w))) for w in words}
            self.assertEqual(len(classes), len(words), name)

    def test_per_layer_list_matches_tracer(self):
        self.assertEqual(declared("per_layer"),
                         {n for n, _, _ in tracer.per_layer_metrics()})


if __name__ == "__main__":
    unittest.main()
