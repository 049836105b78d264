"""Self-tests of run.py's helpers: the metric-name charset, the output
schema round-trip, and BENCHMARK.json against the contract it must meet.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402


class MetricNames(unittest.TestCase):
    def test_accepts_layer_names(self):
        for name in ("setup_s", "core.voter_ms", "serve.admit_us_p99", "9lives", "a" * 64):
            self.assertTrue(run.valid_name(name), name)

    def test_rejects_bad_names(self):
        for name in ("", "_lead", ".lead", "has space", "slash/ed", "a" * 65, "é", None, 3):
            self.assertFalse(run.valid_name(name), name)

    def test_units(self):
        for unit in ("ms", "s", "1/s", "count", "%", "MiB", "fraction"):
            self.assertTrue(run.valid_unit(unit), unit)
        for unit in ("", "a" * 17, "m s", "µs"):
            self.assertFalse(run.valid_unit(unit), unit)


class ResultSchema(unittest.TestCase):
    METRICS = {"latency_ms": (1.2034, "ms"), "setup_s": (0.8127, "s"), "serve.shed": (0, "count")}

    def test_round_trip(self):
        line = run.format_result(True, 1000, 0, self.METRICS)
        self.assertEqual(run.parse_result(line), (True, 1000, 0, self.METRICS))
        self.assertEqual(set(json.loads(line)), {"correct", "attempted", "failed", "metrics"})

    def test_keeps_every_digit(self):
        value = 0.1234567890123456
        line = run.format_result(True, 1, 0, {"x": (value, "s")})
        self.assertEqual(run.parse_result(line)[3]["x"][0], value)

    def test_refuses_non_finite_and_bad_names(self):
        with self.assertRaises(run.BenchError):
            run.format_result(True, 1, 0, {"x": (float("nan"), "s")})
        with self.assertRaises(run.BenchError):
            run.format_result(True, 1, 0, {"bad name": (1.0, "s")})

    def test_parse_rejects_schema_breaches(self):
        good = json.loads(run.format_result(True, 5, 0, self.METRICS))
        breaches = [
            dict(good, extra=1),
            dict(good, attempted=0),
            dict(good, failed=1.5),
            dict(good, correct="yes"),
            dict(good, metrics={"x": {"value": 1.0}}),
            dict(good, metrics={"x": {"value": "1", "unit": "s"}}),
        ]
        for doc in breaches:
            with self.assertRaises(ValueError, msg=doc):
                run.parse_result(json.dumps(doc))


class BenchmarkSpec(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.REPO, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_keys_and_limits(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(run.valid_name(name), name)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertTrue(run.valid_unit(m["unit"]), m)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))

    def test_every_workload_maps_every_end_to_end_metric(self):
        for workload in run.WORKLOADS:
            self.assertEqual(set(run.E2E_SOURCES[workload]),
                             {m["name"] for m in self.spec["end_to_end"]})


if __name__ == "__main__":
    unittest.main()
