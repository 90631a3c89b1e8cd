"""Tests of run.py's output contract: python3 perfbench/tests/test_run.py"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

RESULT = {
    "correct": True, "attempted": 52, "failed": 1,
    "metrics": {"wall_s": {"value": 5.25, "unit": "s"}},
    "digest": {"workload": "00ff", "recorded": "checked"},
    "meta": {"cpu": "x", "nproc": 4, "build_type": "Release",
             "compiler": "GNU", "source": "tree:1", "schema": 4, "seed": 1},
}


class RunContract(unittest.TestCase):
    def test_result_line_has_exactly_the_contract_keys(self):
        line = json.loads(run.result_line(RESULT))
        self.assertEqual(list(line), ["correct", "attempted", "failed", "metrics"])
        self.assertEqual(line["metrics"]["wall_s"], {"value": 5.25, "unit": "s"})

    def test_summary_reports_failed_ratio_with_its_base(self):
        text = "\n".join(run.summary(RESULT))
        self.assertIn("failed_ratio", text)
        self.assertIn("1 failed of 52 points attempted", text)
        self.assertIn("nproc 4", text)

    def test_declared_metrics_match_benchmark_json(self):
        spec_path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.exists(spec_path):
            self.skipTest("no BENCHMARK.json")
        self.assertIn("setup_s", run.declared_metrics(0))
        self.assertIn("trace.coverage", run.declared_metrics(1))


if __name__ == "__main__":
    unittest.main()
