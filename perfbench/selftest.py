"""Fast self-test of the benchmark harness at tiny trial budgets.

Run from the repository root: ``python3 perfbench/selftest.py`` (about a
minute; most of it is the cold CLI processes). It checks the tail rule, the
tracer's self-time arithmetic and attribute restoration, that the output
checks catch broken outputs, that every workload runs clean in both modes and
reports exactly the metrics ``BENCHMARK.json`` lists, that call counts repeat
exactly, and that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
import time
import unittest

import run  # also puts src on sys.path
from run import OUT, ROOT, WORK
import checks
import plans
import tracer
from thermoscale import estimators, rng, sweep

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]


def tiny_campaign(workload: str = "thermal-sweep"):
    plan = plans.campaign_plan(workload, 7, 0, tiny=True)
    records = sweep.collect_sweep_records(plan)
    fit = sweep.fit_from_records(records)
    csv, jsonl = io.StringIO(), io.StringIO()
    sweep.write_results(records, fit, "csv", csv)
    sweep.write_results(records, fit, "jsonl", jsonl)
    return plan, records, fit, csv.getvalue(), jsonl.getvalue()


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(run.tail([float(x) for x in range(1, 21)]), (10.0, 50.0))
        self.assertEqual(run.tail([float(x) for x in range(1, 101)]), (90.0, 90.0))

    def test_too_few_samples_reports_the_maximum(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0))
        self.assertEqual(run.tail([float(x) for x in range(1, 20)]), (19.0, 100.0))


class TracerArithmetic(unittest.TestCase):
    def test_self_time_excludes_children(self):
        spans = tracer.Tracer()
        spans.keep_spans = True
        with spans.span("outer"):
            time.sleep(0.01)
            for _ in range(2):
                with spans.span("inner"):
                    time.sleep(0.005)
        totals = spans.totals()
        self.assertEqual(totals["inner"][0], 2)
        self.assertAlmostEqual(totals["outer"][2], totals["outer"][1] - totals["inner"][1], places=9)
        ids = {row[0]: row for row in spans.span_rows()}
        outer = next(row for row in ids.values() if row[1] == "outer")
        self.assertEqual(outer[2], 0)
        self.assertTrue(all(row[2] == outer[0] for row in ids.values() if row[1] == "inner"))

    def test_install_counts_calls_and_uninstall_restores(self):
        before = {name: dict(vars(m)) for name, m in sys.modules.items() if name.split(".")[0] == "thermoscale"}
        generators = rng.RngStream.generators
        spans = tracer.Tracer()
        spans.install()
        try:
            spec = estimators.TwoLevelSpec(16, 1.0)
            estimators.run_thermalizing_trials(spec, 1.0, 50, "jeffreys", rng.RngStream(3))
        finally:
            spans.uninstall()
        totals = spans.totals()
        self.assertEqual(totals["rng.generators"][0], 50)
        self.assertEqual(totals["estimators.estimate_beta_from_count"][0], 50)
        self.assertEqual(totals["thermal.invert_mean_fraction"][0], 50)
        self.assertEqual(totals["thermal.excitation_probability"][0], 1)
        self.assertIs(rng.RngStream.generators, generators)
        after = {name: dict(vars(m)) for name, m in sys.modules.items() if name.split(".")[0] == "thermoscale"}
        self.assertEqual(before, after)


class OutputChecks(unittest.TestCase):
    def setUp(self):
        WORK.mkdir(parents=True, exist_ok=True)
        self.jsonl_path = WORK / "selftest.jsonl"

    def problems(self, plan, records, fit, csv, jsonl):
        self.jsonl_path.write_text(jsonl)
        return checks.campaign_problems(plan, csv, str(self.jsonl_path), records, fit)

    def test_clean_campaign_passes(self):
        self.assertEqual(self.problems(*tiny_campaign()), [])

    def test_broken_outputs_are_caught(self):
        plan, records, fit, csv, jsonl = tiny_campaign()
        lines = csv.splitlines(keepends=True)
        n, emp, theory, invalid, trials = lines[1].rstrip("\n").split(",")
        broken = {
            "non-finite CSV value": "".join([lines[0], f"{n},nan,{theory},{invalid},{trials}\n", *lines[2:]]),
            "trial count": "".join([lines[0], f"{n},{emp},{theory},{invalid},{int(trials) + 1}\n", *lines[2:]]),
            "theory column": "".join([lines[0], f"{n},{emp},{float(theory) * 1.001!r},{invalid},{trials}\n", *lines[2:]]),
        }
        for what, text in broken.items():
            with self.subTest(what):
                self.assertNotEqual(self.problems(plan, records, fit, text, jsonl), [])
        with self.subTest("non-finite JSONL token"):
            bad = jsonl.replace('"invalid_fraction": 0', '"invalid_fraction": NaN', 1)
            self.assertNotEqual(bad, jsonl)
            self.assertNotEqual(self.problems(plan, records, fit, csv, bad), [])

    def test_cli_checks(self):
        self.assertNotEqual(checks.cli_problems(["verify"], 0, "ok  a (x)\nFAIL b (y)\n", ""), [])
        self.assertNotEqual(checks.cli_problems(["verify"], 1, "", "boom"), [])
        argv = ["stats", "--epsilon", "1.0", "--beta", "0.5", "--n", "3"]
        self.assertNotEqual(checks.cli_problems(argv, 0, "log_z=1\n", ""), [])

    def test_gates_evaluate(self):
        for workload in plans.CAMPAIGNS:
            plan, records, fit, _, _ = tiny_campaign(workload)
            ratios = [1.0] * len(records) if workload == "noon-sweep" else None
            ok, detail = checks.gate(workload, records, fit, ratios)
            self.assertIsInstance(ok, bool)
            self.assertTrue(detail.startswith("A"))


class Workloads(unittest.TestCase):
    def check_report(self, report, trace):
        self.assertTrue(report["correct"], report["failures"])
        self.assertEqual(report["failed"], 0)
        self.assertGreaterEqual(report["attempted"], 1)
        names = PER_LAYER if trace else END_TO_END
        self.assertEqual(set(report["metrics"]), set(names))
        for name, m in report["metrics"].items():
            self.assertTrue(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name)
            if not trace:
                self.assertGreater(m["value"], 0, name)

    def test_every_workload_both_modes(self):
        counts = {}
        for workload in plans.WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=workload, trace=trace):
                    report = run.run_workload(workload, 11, 0.0, trace, tiny=True)
                    self.check_report(report, trace)
                    if trace:
                        counts[workload] = {k: v["value"] for k, v in report["metrics"].items() if v["unit"] == "count"}
        trials = {w: len(p.n_values) * p.trials_per_n for w, p in ((w, plans.campaign_plan(w, 11, 0, True)) for w in plans.WORKLOADS)}
        thermal, noon, bath = counts["thermal-sweep"], counts["noon-sweep"], counts["bath-floor"]
        self.assertEqual(thermal["estimators.estimate_beta_from_count.calls"], trials["thermal-sweep"])
        self.assertEqual(thermal["thermal.excitation_probability.calls"], 4)  # one per size
        self.assertEqual(noon["estimators.estimate_beta_from_count.calls"], 0)
        self.assertEqual(bath["estimators.estimate_beta_from_count.calls"], 0)
        self.assertEqual(bath["rng.generators.calls"], trials["bath-floor"])
        self.assertGreaterEqual(bath["thermal.excitation_probability.calls"], trials["bath-floor"])
        self.assertGreater(counts["cli-cold"]["oracle.enumerate_thermal.calls"], 0)
        again = run.run_workload("noon-sweep", 12, 0.0, True, tiny=True)
        self.assertEqual({k: v["value"] for k, v in again["metrics"].items() if v["unit"] == "count"}, noon)

    def test_refuses_to_run_without_sources(self):
        bare = OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        args = ["--workload", "thermal-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
        result = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=bare, capture_output=True, text=True, timeout=120)
        shutil.rmtree(bare)
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn('"correct"', result.stdout)


if __name__ == "__main__":
    unittest.main()
