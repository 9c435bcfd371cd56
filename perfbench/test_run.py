#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_run.py

Builds `dartmon` and the helper like a benchmark run does (the first run
may take a few minutes), then checks the lag computation, the exposition
parser on a real exposition, the oracle check (the helper's Rust tests)
and that a run emits exactly the metric names of BENCHMARK.json.
"""

import json
import math
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class LagTest(unittest.TestCase):
    def test_lag_is_timed_from_when_the_newest_counted_packet_was_due(self):
        rate, t0 = 1000.0, 10.0
        # Packet i is due at t0 + i / rate; a scrape counting c packets
        # dates from packet c - 1.
        scrapes = [(10.5, 0), (12.5, 2048), (13.1, 3072)]
        lags = run.lag_observations(scrapes, t0, rate)
        self.assertEqual(len(lags), 2, "a scrape that counts nothing gives no observation")
        self.assertAlmostEqual(lags[0], 12.5 - (10.0 + 2.047))
        self.assertAlmostEqual(lags[1], 13.1 - (10.0 + 3.071))

    def test_block_ingest_puts_lag_between_the_delay_and_one_block_more(self):
        # A daemon that counts whole 1024-packet blocks `delay` seconds after
        # the block's last packet was due: every lag lies in
        # [delay, delay + 1024 / rate).
        rate, t0, delay = 100_000.0, 0.0, 0.002
        scrapes = []
        for k in range(1, 500):
            tc = t0 + k * 0.0203
            blocks = max(0, math.floor(((tc - delay - t0) * rate + 1) / 1024))
            scrapes.append((tc, blocks * 1024))
        lags = run.lag_observations(scrapes, t0, rate)
        self.assertGreater(len(lags), 400)
        for lag in lags:
            self.assertGreaterEqual(lag, delay - 1e-9)
            self.assertLess(lag, delay + 1024 / rate + 1e-9)
        median = sorted(lags)[len(lags) // 2]
        self.assertAlmostEqual(median, delay + 512 / rate, delta=0.1 * 1024 / rate)


class ExpositionTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        _, exe = run.build()
        cls.sample = run.helper(exe, "expo")

    def test_le_bounds_are_read_from_a_real_exposition(self):
        text = self.sample["exposition"]
        buckets = run.histogram_buckets(text, "dart_rtt_ns", {"shard": "0"})
        bounds = [le for le, _ in buckets]
        self.assertGreater(len(bounds), 2)
        self.assertEqual(bounds, sorted(bounds))
        self.assertEqual(bounds[-1], math.inf)
        counts = [c for _, c in buckets]
        self.assertEqual(counts, sorted(counts), "cumulative counts never fall")
        self.assertEqual(counts[-1], self.sample["samples"])
        series = run.parse_exposition(text)
        self.assertEqual(series['dart_rtt_ns_count{shard="0"}'], self.sample["samples"])

    def test_quantile_buckets_hold_the_exact_quantiles(self):
        # The histogram holds exactly the samples the quantiles come from,
        # so each exact quantile falls in the quantile's own bucket.
        buckets = run.histogram_buckets(self.sample["exposition"], "dart_rtt_ns", {"shard": "0"})
        for q, key in ((0.5, "p50_ns"), (0.99, "p99_ns")):
            self.assertEqual(run.bucket_of_quantile(buckets, q),
                             run.bucket_of_value(buckets, self.sample[key]))

    def test_other_label_sets_are_not_mixed_in(self):
        self.assertEqual(run.histogram_buckets(self.sample["exposition"], "dart_rtt_ns",
                                               {"shard": "9"}), [])


class OracleCheckTest(unittest.TestCase):
    def cargo_test(self, *filters):
        env = dict(os.environ, CARGO_TARGET_DIR=run.target_dir())
        r = subprocess.run(["cargo", "test", "--release", "--offline", "--manifest-path",
                            os.path.join(run.HERE, "helper", "Cargo.toml"), *filters],
                           cwd=run.ROOT, env=env, capture_output=True, text=True)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        return r.stdout

    def test_oracle_check_rejects_a_planted_fabricated_sample(self):
        out = self.cargo_test("oracle_check_rejects_a_planted_fabricated_sample")
        self.assertIn("1 passed", out)

    def test_helper_unit_tests_pass(self):
        self.assertIn("0 failed", self.cargo_test())


class MetricNamesTest(unittest.TestCase):
    def test_a_run_emits_the_names_and_units_of_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                                "--workload", "analyze-upload", "--seed", "7",
                                "--seconds", "1", "--trace", str(trace)],
                               capture_output=True, text=True, timeout=900)
            self.assertEqual(r.returncode, 0, r.stderr[-3000:])
            final = json.loads(r.stdout.strip().splitlines()[-1])
            self.assertEqual(sorted(final), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(final["correct"])
            self.assertEqual(final["failed"], 0)
            emitted = {k: v["unit"] for k, v in final["metrics"].items()}
            declared = {m["name"]: m["unit"] for m in bench[key]}
            self.assertEqual(emitted, declared)


if __name__ == "__main__":
    unittest.main(verbosity=2)
