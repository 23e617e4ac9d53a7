#!/usr/bin/env python3
"""Tests of the benchmark's own pieces: the percentile and sample-count
rule, metric-name and BENCHMARK.json validation, the BENCHMARK.json
round-trip, and the output checks that turn raw runs into a result line.

Run with: python3 perfbench/test_run.py
"""

import copy
import json
import math
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def raw_run(traced=False, digests=("aaaa", "aaaa", "aaaa"), steps=250, quality=None,
            workload="serve_clean", layers=None, unit_ms=None):
    quality = quality or {"utilization": 0.8, "qdelay_ms": 12.0, "p95_qdelay_ms": 30.0,
                          "loss_rate": 0.01, "fcc": 0.7, "fcs": 0.2, "reward": 0.5}
    return {
        "workload": workload, "seed": 1, "traced": int(traced), "domains": 2,
        "peak_heap_mb": 100.0, "calib_ms": [run.CALIB_REF_MS] * 10,
        "repeats": [{"setup_s": [0.2, 0.1, 0.3], "wall_s": 2.0, "decisions": 1000,
                     "units": steps, "digest": d, "quality": dict(quality),
                     "unit_ms": (unit_ms[k] if unit_ms else
                                 [float(i) for i in range(1, steps + 1)])}
                    for k, d in enumerate(digests)],
        "layers": layers or {},
    }


class PercentileRule(unittest.TestCase):
    def test_p95_needs_200_samples(self):
        self.assertTrue(run.tail_supported(200, 0.95))
        self.assertFalse(run.tail_supported(199, 0.95))
        self.assertTrue(run.tail_supported(20, 0.50))
        self.assertFalse(run.tail_supported(19, 0.50))
        self.assertTrue(run.tail_supported(1000, 0.99))

    def test_percentile_interpolates(self):
        xs = [5.0, 1.0, 3.0, 2.0, 4.0]
        self.assertEqual(run.percentile(xs, 0.0), 1.0)
        self.assertEqual(run.percentile(xs, 0.5), 3.0)
        self.assertEqual(run.percentile(xs, 1.0), 5.0)
        self.assertAlmostEqual(run.percentile(xs, 0.95), 4.8)
        with self.assertRaises(ValueError):
            run.percentile([], 0.5)

    def test_quartiles_match_statistics(self):
        vals = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, med, q3 = run.quartiles(vals)
        e1, _, e3 = statistics.quantiles(vals, n=4)
        self.assertEqual((q1, q3), (e1, e3))
        self.assertEqual(med, statistics.median(vals))

    def test_too_few_steps_fail_the_run(self):
        spec = run.load_spec()["end_to_end"]
        result, problems = run.assemble(raw_run(steps=66, digests=("a", "a")), spec)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertTrue(any("p95" in p for p in problems))

    def test_units_take_their_fastest_repeat(self):
        spec = run.load_spec()["end_to_end"]
        result, problems = run.assemble(raw_run(steps=66, digests=("a",) * 4), spec)
        self.assertEqual(problems, [])
        slow = [2.0 * i for i in range(1, 67)]
        fast = [float(i) for i in range(1, 67)]
        mixed = [s if i % 2 else f for i, (s, f) in enumerate(zip(slow, fast))]
        reps = raw_run(steps=66, unit_ms=[slow, mixed, slow, slow],
                       digests=("a",) * 4)["repeats"]
        self.assertEqual(run.best_units(reps), [min(s, m) for s, m in zip(slow, mixed)])
        for q in (0.50, 0.95):
            self.assertEqual(run.step_quantile(reps, q),
                             run.percentile(run.best_units(reps), q))
        # Two repeats of 66 units: 132 samples leave too few beyond a p95.
        self.assertIsNone(run.step_quantile(reps[:2], 0.95))
        self.assertIsNotNone(run.step_quantile(reps[:2], 0.50))

    def test_throughput_uses_fastest_units(self):
        slow_first = [5.0] * 100 + [1.0] * 100
        slow_last = [1.0] * 100 + [5.0] * 100
        raw = raw_run(steps=200, unit_ms=[slow_first, slow_last, slow_first])
        result, problems = run.assemble(raw, run.load_spec()["end_to_end"])
        self.assertEqual(problems, [])
        self.assertAlmostEqual(result["metrics"]["decisions_per_s"]["value"], 1000 / 0.2)

    def test_setup_is_fastest_trial(self):
        reps = raw_run()["repeats"]
        for r, trials in zip(reps, ([0.3, 0.2], [0.5, 0.4, 0.6], [0.15, 0.9])):
            r["setup_s"] = trials
        self.assertEqual(run.setup_time(reps), 0.15)

    def test_only_first_repeat_needs_quality(self):
        spec = run.load_spec()["end_to_end"]
        raw = raw_run()
        for r in raw["repeats"][1:]:
            r["quality"] = {}
        self.assertEqual(run.assemble(raw, spec)[1], [])
        raw["repeats"][0]["quality"] = {}
        result, problems = run.assemble(raw, spec)
        self.assertFalse(result["correct"])

    def test_timings_scale_to_reference_host(self):
        spec = run.load_spec()["end_to_end"]
        base = run.assemble(raw_run(), spec)[0]["metrics"]
        slow = raw_run()
        slow["calib_ms"] = [2.0 * run.CALIB_REF_MS] * 10
        result, problems = run.assemble(slow, spec)
        self.assertEqual(problems, [])
        for name, m in result["metrics"].items():
            factor = {"s": 0.5, "ms": 0.5, "1/s": 2.0}.get(m["unit"], 1.0)
            self.assertAlmostEqual(m["value"], base[name]["value"] * factor, msg=name)
        self.assertEqual(result["metrics"]["qdelay_ms"]["unit"], "sim_ms")
        slow["calib_ms"] = []
        self.assertFalse(run.assemble(slow, spec)[0]["correct"])

    def test_unequal_decisions_fail(self):
        raw = raw_run()
        raw["repeats"][1]["decisions"] = 999
        result, problems = run.assemble(raw, run.load_spec()["end_to_end"])
        self.assertFalse(result["correct"])
        self.assertTrue(any("decisions" in p for p in problems))

    def test_mismatched_repeats_fail(self):
        raw = raw_run(steps=200, unit_ms=[[1.0] * 200, [1.0] * 199, [1.0] * 200])
        result, problems = run.assemble(raw, run.load_spec()["end_to_end"])
        self.assertFalse(result["correct"])


class NameValidation(unittest.TestCase):
    def test_names(self):
        for good in ["setup_s", "rl.update.ms", "0x", "a-b_c.d"]:
            self.assertTrue(run.NAME_RE.match(good), good)
        for bad in ["", "_x", ".x", "a b", "a/b", "x" * 65]:
            self.assertFalse(run.NAME_RE.match(bad), bad)

    def test_units(self):
        for good in ["ms", "s", "1/s", "count", "%", "frac"]:
            self.assertTrue(run.UNIT_RE.match(good), good)
        for bad in ["", "m s", "x" * 17]:
            self.assertFalse(run.UNIT_RE.match(bad), bad)

    def test_spec_problems(self):
        spec = run.load_spec()
        self.assertEqual(run.validate_spec(spec), [])
        dup = copy.deepcopy(spec)
        dup["per_layer"].append(dict(dup["per_layer"][0]))
        self.assertTrue(any("more than once" in p for p in run.validate_spec(dup)))
        no_setup = copy.deepcopy(spec)
        no_setup["end_to_end"] = [m for m in spec["end_to_end"] if m["name"] != "setup_s"]
        self.assertTrue(any("setup_s" in p for p in run.validate_spec(no_setup)))
        loose = copy.deepcopy(spec)
        loose["end_to_end"][0]["bound"] = 0.3
        self.assertTrue(run.validate_spec(loose))
        extra = dict(spec, notes="x")
        self.assertTrue(run.validate_spec(extra))
        escape = dict(spec, command=["python3", "../x.py"])
        self.assertTrue(run.validate_spec(escape))


class SpecRoundTrip(unittest.TestCase):
    def test_round_trip(self):
        spec = run.load_spec()
        again = json.loads(run.dump_spec(spec))
        self.assertEqual(again, spec)
        self.assertEqual(run.validate_spec(again), [])

    def test_manifest_covers_spec(self):
        spec = run.load_spec()
        manifest = run.load_manifest()
        layers = {m["name"] for m in spec["per_layer"]}
        workloads = {w["name"] for w in spec["workloads"]}
        self.assertEqual(set(manifest["applies_to"]), layers)
        for name, ws in manifest["applies_to"].items():
            self.assertTrue(set(ws) <= workloads, name)
        e2e = {m["name"] for m in spec["end_to_end"]}
        self.assertTrue(e2e <= set(manifest["end_to_end"]))


class OutputChecks(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_good_run(self):
        result, problems = run.assemble(raw_run(), self.spec["end_to_end"])
        self.assertEqual(problems, [])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertEqual(result["attempted"], 750)
        self.assertEqual(result["failed"], 0)
        m = result["metrics"]
        self.assertEqual(list(m), [x["name"] for x in self.spec["end_to_end"]])
        self.assertEqual(m["setup_s"]["value"], 0.1)
        self.assertAlmostEqual(m["decisions_per_s"]["value"], 1000 / (250 * 251 / 2 / 1e3))
        self.assertAlmostEqual(m["step_p50_ms"]["value"], 125.5)

    def test_digest_disagreement_fails(self):
        result, problems = run.assemble(raw_run(digests=("aaaa", "bbbb", "aaaa")),
                                        self.spec["end_to_end"])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 750)
        self.assertTrue(any("digest" in p for p in problems))

    def test_fraction_out_of_range_fails(self):
        q = {"utilization": 1.2, "qdelay_ms": 1.0, "p95_qdelay_ms": 2.0,
             "loss_rate": 0.0, "fcc": 0.5, "fcs": 0.5, "reward": 0.1}
        result, problems = run.assemble(raw_run(quality=q), self.spec["end_to_end"])
        self.assertFalse(result["correct"])
        self.assertTrue(any("utilization" in p for p in problems))

    def test_non_finite_fails(self):
        raw = raw_run()
        raw["peak_heap_mb"] = math.nan
        result, problems = run.assemble(raw, self.spec["end_to_end"])
        self.assertFalse(result["correct"])
        self.assertTrue(math.isfinite(result["metrics"]["peak_heap_mb"]["value"]))
        json.loads(json.dumps(result, allow_nan=False))

    def test_traced_layers(self):
        applies = run.load_manifest()["applies_to"]
        per_layer = self.spec["per_layer"]
        serving = [n for n, ws in applies.items() if "serve_clean" in ws]
        layers = {n: 1.5 for n in serving}
        result, problems = run.assemble(raw_run(traced=True, layers=layers),
                                        per_layer, applies)
        self.assertEqual(problems, [])
        self.assertEqual(list(result["metrics"]), [m["name"] for m in per_layer])
        self.assertEqual(result["metrics"]["rl.update.ms"]["value"], 0.0)
        del layers[serving[0]]
        result, problems = run.assemble(raw_run(traced=True, layers=layers),
                                        per_layer, applies)
        self.assertFalse(result["correct"])

    def test_traced_mismatch_fails(self):
        result, _ = run.assemble(raw_run(traced=True, digests=("aaaa", "cccc")),
                                 self.spec["per_layer"])
        self.assertFalse(result["correct"])


if __name__ == "__main__":
    unittest.main()
