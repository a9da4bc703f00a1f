"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
from stats import chunk_medians, chunk_spans, percentile  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(percentile(values, 0.5), 50)
        self.assertEqual(percentile(values, 0.9), 90)

    def test_keeps_ten_samples_beyond(self):
        self.assertEqual(percentile(list(range(1, 101)), 0.9), 90)
        with self.assertRaises(ValueError):
            percentile(list(range(1, 100)), 0.9)
        self.assertEqual(percentile(list(range(1, 21)), 0.5), 10)
        with self.assertRaises(ValueError):
            percentile(list(range(1, 20)), 0.5)


class ChunkMediansTest(unittest.TestCase):
    @staticmethod
    def clock(durations, chunk):
        """Completion times of chunks of `chunk` ops with these durations."""
        done, t = [], 0
        for d in durations:
            for k in range(chunk):
                done.append(t + d * (k + 1) // chunk)
            t += d
        return done

    def test_drops_warm_up_and_takes_the_median_chunk(self):
        # Chunk 0 (warm-up) is the slowest and is dropped; the median of
        # the other five durations is 20.
        durations = [500, 10, 40, 20, 30, 15]
        done = self.clock(durations, 4)
        cpu = [2 * t for t in done]
        self.assertEqual(chunk_medians(done, cpu, 4), (20, 40))

    def test_slow_phase_under_half_the_run_does_not_move_it(self):
        steady = self.clock([10] * 9, 5)
        slowed = self.clock([10] * 6 + [25] * 3, 5)
        for done in (steady, slowed):
            self.assertEqual(chunk_medians(done, done, 5)[0], 10)

    def test_partial_chunk_is_dropped_and_too_few_chunks_raise(self):
        done = self.clock([10] * 4, 3) + [95]
        self.assertEqual(len(chunk_spans(done, 3)), 4)
        with self.assertRaises(ValueError):
            chunk_medians(done[:9], done[:9], 3)


class SpeedScaleTest(unittest.TestCase):
    def test_ops_scale_by_the_picks_around_them(self):
        # Ops 0-1 run on a CPU probing 100 us at both picks around them.
        # At count 2 a segment ends (pick 1) and the next starts (pick 2):
        # ops 2-3 run on the CPU pick 2 chose, probing 200 us, half speed.
        loop = {"type": [0, 1, 0, 1], "pick_at": [0, 2, 2, 4],
                "pick_ns": [100_000, 50_000, 200_000, 100_000],
                "pick_was_ns": [0, 100_000, 0, 200_000]}
        scales = run.op_scales(loop)
        self.assertEqual(scales, [1.0, 1.0, 0.5, 0.5])
        self.assertEqual(run.scaled_clock([10, 20, 30, 40], scales),
                         [10, 20, 25, 30])


class MetricNamesTest(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        for key, names in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
            self.assertEqual([(m["name"], m["unit"]) for m in spec[key]], names)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(gen.WORKLOADS))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs_and_ops_valid_in_order(self):
        for workload in gen.WORKLOADS:
            first = gen.generate(workload, 5, 1)
            self.assertEqual(first, gen.generate(workload, 5, 1))
            self.assertNotEqual(first, gen.generate(workload, 6, 1))
            _, preload, ops = first
            live = {fid for _, fid, _ in preload}
            for code, fid, size in ops:
                if code == gen.UPLOAD:
                    self.assertGreater(size, 0)
                    self.assertNotIn(fid, live)
                    live.add(fid)
                else:
                    self.assertIn(fid, live)
                    if code == gen.DELETE:
                        live.remove(fid)


if __name__ == "__main__":
    unittest.main()
