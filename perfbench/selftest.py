#!/usr/bin/env python3
"""Self-tests for the benchmark's own arithmetic.

    python3 perfbench/selftest.py

Covers self time with nested and back-to-back child spans, the rule for the
tail percentile, step splitting, the units of rates, and that the metric
names in ``BENCHMARK.json`` are the ones the benchmark produces.
"""

from __future__ import annotations

import json
import unittest
from pathlib import Path

import perlayer
import stats
import tracing

HERE = Path(__file__).resolve().parent


def span(sid, parent, name, start, end, **extra):
    return dict(id=sid, parent=parent, name=name, start=start, end=end, phase="moe",
                round=0, ok=True, **extra)


class SelfTime(unittest.TestCase):
    def test_no_children(self):
        self.assertAlmostEqual(stats.self_time(1.0, 3.0, []), 2.0)

    def test_back_to_back_children(self):
        # [0, 10] with children [1, 3] and [3, 6]: 5 covered, 5 self.
        self.assertAlmostEqual(stats.self_time(0.0, 10.0, [(1.0, 3.0), (3.0, 6.0)]), 5.0)

    def test_overlapping_and_nested_intervals_count_once(self):
        # [2, 4] lies inside [1, 5]; [4.5, 7] overlaps it: union [1, 7] = 6.
        self.assertAlmostEqual(
            stats.self_time(0.0, 10.0, [(1.0, 5.0), (2.0, 4.0), (4.5, 7.0)]), 4.0)

    def test_children_clipped_to_parent(self):
        self.assertAlmostEqual(stats.self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]), 2.0)

    def test_grandchildren_are_covered_by_their_parent(self):
        spans = [span(0, None, "a", 0.0, 10.0), span(1, 0, "b", 1.0, 4.0),
                 span(2, 1, "c", 2.0, 3.0), span(3, 0, "b", 4.0, 6.0)]
        index = stats.children_index(spans)
        self.assertAlmostEqual(stats.span_self_time(spans[0], index), 5.0)
        self.assertAlmostEqual(stats.span_self_time(spans[1], index), 2.0)
        self.assertAlmostEqual(stats.span_self_time(spans[2], index), 1.0)


class TailPercentile(unittest.TestCase):
    def test_hundred_samples_give_p90(self):
        self.assertEqual(stats.tail_percentile(100), 90)

    def test_fewer_samples_lower_the_percentile(self):
        # 40 samples: p75 leaves 10 above rank 30, p76 leaves 9.
        self.assertEqual(stats.tail_percentile(40), 75)

    def test_never_above_preferred(self):
        self.assertEqual(stats.tail_percentile(1000), 90)

    def test_too_few_samples(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50)

    def test_ten_samples_beyond(self):
        for n in range(20, 400):
            p = stats.tail_percentile(n)
            ordered = list(range(n))
            beyond = sum(1 for x in ordered if x > stats.nearest_rank(ordered, p))
            self.assertGreaterEqual(beyond, stats.TAIL_SAMPLES, n)
            if p < 90:
                tighter = stats.nearest_rank(ordered, p + 1)
                self.assertLess(sum(1 for x in ordered if x > tighter), stats.TAIL_SAMPLES)

    def test_summary(self):
        s = stats.summary([float(x) for x in range(1, 101)])
        self.assertEqual((s["n"], s["p50"], s["tail_pct"], s["tail"]), (100, 50.5, 90, 90.0))


class Steps(unittest.TestCase):
    def test_steps_run_from_forward_to_forward(self):
        spans = [span(0, None, "trainer.train", 0.0, 10.0),
                 span(1, 0, "model.forward_cache", 0.5, 2.0),
                 span(2, 0, "trainer.adamw_step", 3.0, 4.0),
                 span(3, 0, "model.forward_cache", 5.0, 6.0),
                 span(4, 0, "trainer.adamw_step", 8.0, 9.0)]
        steps = stats.train_steps(spans[0], stats.children_index(spans), "model.forward_cache")
        self.assertEqual([(lo, hi) for lo, hi, _ in steps], [(0.5, 5.0), (5.0, 10.0)])
        self.assertEqual([[k["id"] for k in kids] for _, _, kids in steps], [[1, 2], [3, 4]])
        self.assertAlmostEqual(
            stats.self_time(0.5, 5.0, [(k["start"], k["end"]) for k in steps[0][2]]), 2.0)


class Units(unittest.TestCase):
    def test_tokens_per_s(self):
        self.assertAlmostEqual(stats.tokens_per_s(20 * 16 * 64, 2.0), 10240.0)

    def test_mb_per_s_uses_binary_megabytes(self):
        self.assertAlmostEqual(stats.mb_per_s(3 * 2**20, 1.5), 2.0)

    def test_gflops_per_s(self):
        spans = [span(0, None, "model.forward_cache", 0.0, 0.5, flops=2e9),
                 span(1, None, "model.forward_cache", 1.0, 1.5, flops=1e9)]
        metrics, _ = perlayer.compute(spans, traced_rounds=1)
        self.assertAlmostEqual(metrics["model.forward.gflops_per_s"], 3.0)


class Tracing(unittest.TestCase):
    def test_absent_function_is_reported_not_raised(self):
        recorder = tracing.Recorder("test", 0)
        recorder.wrap("json", "no_such_function", "json.no_such_function")
        recorder.wrap("no_such_module_xyz", "f", "missing.f")
        self.assertEqual(recorder.absent, ["json.no_such_function", "missing.f"])

    def test_spans_nest_and_restore(self):
        import types
        import sys

        module = types.ModuleType("perfbench_selftest_mod")
        module.inner = lambda: 1
        module.outer = lambda: module.inner() + 1
        sys.modules[module.__name__] = module
        try:
            recorder = tracing.Recorder("test", 0)
            recorder.wrap(module.__name__, "inner", "m.inner")
            recorder.wrap(module.__name__, "outer", "m.outer")
            self.assertEqual(module.outer(), 2)
            with recorder.paused():
                module.outer()
        finally:
            del sys.modules[module.__name__]
        inner, outer = sorted(recorder.spans, key=lambda s: s["id"])[::-1]
        self.assertEqual((outer["name"], outer["parent"]), ("m.outer", None))
        self.assertEqual((inner["name"], inner["parent"]), ("m.inner", outer["id"]))
        self.assertEqual(len(recorder.spans), 2)


class Names(unittest.TestCase):
    def test_per_layer_names_match_benchmark_json(self):
        with open(HERE.parent / "BENCHMARK.json", "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        metrics, _ = perlayer.compute([], traced_rounds=0)
        produced = set(metrics) | {"trace.overhead_pct"}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, produced)


if __name__ == "__main__":
    unittest.main()
