"""Tests of the benchmark's own arithmetic: percentiles under the ten-
samples-beyond rule, quartile spreads, and self time from nested spans,
including spans split across exec lanes.

  python3 -m unittest discover -s perfbench/tests
"""
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import benchmath  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


def ev(ph, name, tid, ts_us, cpu_us=None):
    e = {"ph": ph, "name": name, "tid": tid, "ts": ts_us}
    if cpu_us is not None:
        e["args"] = {"cpu_us": cpu_us}
    return e


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(benchmath.percentile([4, 1, 3, 2], 0.5), 2.5)
        self.assertEqual(benchmath.percentile(range(101), 0.9), 90)
        self.assertEqual(benchmath.percentile([7], 0.9), 7)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            benchmath.percentile([], 0.5)
        with self.assertRaises(ValueError):
            benchmath.percentile([1, 2], 1.5)

    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(benchmath.tail_quantile(100, 0.9), 0.9)
        self.assertEqual(benchmath.tail_quantile(1000, 0.9), 0.9)
        self.assertAlmostEqual(benchmath.tail_quantile(50, 0.9), 0.8)
        # Too few samples for any tail: fall back to the median.
        self.assertEqual(benchmath.tail_quantile(5, 0.9), 0.5)
        self.assertEqual(benchmath.tail_quantile(20, 0.9), 0.5)

    def test_reported_quantile_always_has_ten_beyond(self):
        for n in range(21, 400):
            q = benchmath.tail_quantile(n, 0.9)
            self.assertGreaterEqual(benchmath.samples_beyond(n, q), 10, n)
            # ... and is the highest such quantile up to 0.9.
            if q < 0.9:
                self.assertLess(benchmath.samples_beyond(n, q + 1.0 / n), 10, n)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [9.8, 10.1, 10.0, 10.4, 9.9, 10.2, 10.0, 10.3, 9.7, 10.1]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchmath.quartile_spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_constant_values_have_no_spread(self):
        self.assertEqual(benchmath.quartile_spread([2.0] * 10), 0.0)


class ReferenceSpeedTest(unittest.TestCase):
    def test_factor_uses_mean_of_both_neighbours(self):
        self.assertAlmostEqual(benchmath.reference_factor(0.1, 0.1), 1.0)
        # Host at two thirds of the reference speed: times shrink by 2/3.
        self.assertAlmostEqual(benchmath.reference_factor(0.14, 0.16), 2 / 3)
        self.assertAlmostEqual(benchmath.reference_factor(0.05, 0.05), 2.0)

    def test_rejects_non_positive_times(self):
        with self.assertRaises(ValueError):
            benchmath.reference_factor(0.0, 0.1)

    def test_each_iteration_pairs_with_its_neighbours(self):
        records = [
            {"type": "setup"},
            {"type": "reference", "seconds": 0.2},
            {"type": "iteration", "index": 0, "wall_s": 4.0},
            {"type": "reference", "seconds": 0.2},
            {"type": "iteration", "index": 1, "wall_s": 3.0},
            {"type": "reference", "seconds": 0.1},
            {"type": "finish"},
        ]
        run.attach_reference_factors(records)
        self.assertAlmostEqual(run.at_reference(records[2], "wall_s"), 2.0)
        self.assertAlmostEqual(run.at_reference(records[4], "wall_s"), 2.0)

    def test_iteration_without_reference_after_fails(self):
        records = [{"type": "reference", "seconds": 0.1},
                   {"type": "iteration", "index": 0, "wall_s": 1.0},
                   {"type": "finish"}]
        with self.assertRaises(run.BenchError):
            run.attach_reference_factors(records)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans_on_one_lane(self):
        spans = layers.spans_from_events([
            ev("B", "bench.iteration", 0, 0),
            ev("B", "core.coverage", 0, 10),
            ev("B", "spice.run_transient", 0, 20),
            ev("B", "spice.run_op", 0, 22),
            ev("E", "spice.run_op", 0, 25),
            ev("E", "spice.run_transient", 0, 60),
            ev("E", "core.coverage", 0, 90),
            ev("E", "bench.iteration", 0, 100),
        ])
        by_name = {s.name: s for s in spans}
        us = 1e-6
        self.assertAlmostEqual(by_name["bench.iteration"].self_time("wall"), 20 * us)
        self.assertAlmostEqual(by_name["core.coverage"].self_time("wall"), 40 * us)
        self.assertAlmostEqual(by_name["spice.run_transient"].self_time("wall"), 37 * us)
        self.assertAlmostEqual(by_name["spice.run_op"].self_time("wall"), 3 * us)
        self_by_layer = layers.layer_self(spans, "wall")
        self.assertAlmostEqual(self_by_layer["spice"], 40 * us)
        self.assertAlmostEqual(self_by_layer["core"], 40 * us)
        # What no layer claims is the root's own time.
        self.assertAlmostEqual(100 * us - sum(self_by_layer.values()), 20 * us)

    def test_cpu_basis_uses_thread_cpu_of_each_span(self):
        spans = layers.spans_from_events([
            ev("B", "core.rmin", 0, 0),
            ev("B", "spice.run_transient", 0, 10),
            ev("E", "spice.run_transient", 0, 40, cpu_us=30),
            ev("E", "core.rmin", 0, 100, cpu_us=45),  # waited 55 us
        ])
        self.assertAlmostEqual(layers.layer_self(spans, "cpu")["core"], 15e-6)
        self.assertAlmostEqual(layers.layer_self(spans, "wall")["core"], 70e-6)

    def test_sweep_split_across_exec_lanes(self):
        # Main thread (tid 0) runs lane 0 inside core.rmin; workers 1 and 2
        # run the other lanes. A second sweep follows on the main thread.
        events = [
            ev("B", "bench.iteration", 0, 0),
            ev("B", "core.rmin", 0, 0),
            ev("B", "exec.lane", 0, 10),
            ev("B", "spice.run_transient", 0, 10),
            ev("E", "spice.run_transient", 0, 50),
            ev("E", "exec.lane", 0, 50),
            ev("B", "exec.lane", 0, 100),
            ev("E", "exec.lane", 0, 130),
            ev("E", "core.rmin", 0, 140),
            ev("E", "bench.iteration", 0, 150),
            # Worker 1 starts just before lane 0 and ends last.
            ev("B", "exec.lane", 1, 9),
            ev("B", "spice.run_transient", 1, 9),
            ev("E", "spice.run_transient", 1, 60),
            ev("E", "exec.lane", 1, 70),
            ev("B", "exec.lane", 1, 101),
            ev("E", "exec.lane", 1, 131),
            ev("B", "exec.lane", 2, 12),
            ev("E", "exec.lane", 2, 30),
        ]
        spans = layers.spans_from_events(events)
        main = layers.main_tid(spans)
        self.assertEqual(main, 0)
        sweeps = layers.parallel_sweeps(spans, main)
        self.assertEqual([n for _, n, _ in sweeps], [3, 2])
        us = 1e-6
        (w1, _, b1), (w2, _, b2) = sweeps
        self.assertAlmostEqual(w1, 61 * us)  # 9 .. 70
        self.assertAlmostEqual(b1, (40 + 61 + 18) * us)
        self.assertAlmostEqual(w2, 31 * us)  # 100 .. 131
        self.assertAlmostEqual(b2, 60 * us)
        m = layers.exec_metrics(spans, main, 150 * us)
        self.assertAlmostEqual(m["exec.sweep_wall_s"], 92 * us)
        self.assertAlmostEqual(m["exec.idle_s"], (61 * 3 + 31 * 2) * us - (119 + 60) * us)
        self.assertAlmostEqual(m["exec.occupancy"], 179 / 245)
        self.assertAlmostEqual(m["exec.serial_s"], 58 * us)
        # Lane self time (item bodies outside spice) is core time; the main
        # thread's core.rmin self time excludes its own lane.
        core = layers.layer_self(spans, "wall")["core"]
        lanes_self = (0 + 30) + (10 + 30) + 18  # lane minus spice children
        rmin_self = 140 - 40 - 30
        self.assertAlmostEqual(core, (lanes_self + rmin_self) * us)

    def test_no_parallel_sweep(self):
        spans = layers.spans_from_events([ev("B", "bench.iteration", 0, 0),
                                          ev("E", "bench.iteration", 0, 5)])
        m = layers.exec_metrics(spans, 0, 5e-6)
        self.assertEqual(m["exec.occupancy"], 0.0)
        self.assertAlmostEqual(m["exec.serial_s"], 5e-6)


class ServedOracleTest(unittest.TestCase):
    ORACLE = {"digests": {"transfer points=5": "01", "sta k=1": "02"}}

    @staticmethod
    def records(bodies, failed=0, client_errors=()):
        return [
            {"type": "setup", "variant": 1},
            {"type": "iteration", "index": 0, "attempted": 2, "failed": failed,
             "outputs": {"bodies": bodies},
             "detail": {"client_errors": list(client_errors)}},
            {"type": "finish",
             "checks": {"direct_checked": 2, "direct_mismatched": 0}},
        ]

    def check(self, *args, **kwargs):
        return run.check_outputs("served_mix", self.records(*args, **kwargs),
                                 self.ORACLE)

    def test_every_body_matches(self):
        self.assertEqual(self.check({"transfer points=5": "01", "sta k=1": "02"}), [])

    def test_wrong_body_fails(self):
        self.assertEqual(len(self.check({"transfer points=5": "01", "sta k=1": "03"})), 1)

    def test_missing_spec_fails(self):
        problems = self.check({"transfer points=5": "01"})
        self.assertEqual(len(problems), 1)
        self.assertIn("never answered", problems[0])

    def test_busy_or_dead_client_fails(self):
        bodies = {"transfer points=5": "01", "sta k=1": "02"}
        self.assertEqual(len(self.check(bodies, failed=1)), 1)
        self.assertEqual(len(self.check(bodies, client_errors=["reset"])), 1)


if __name__ == "__main__":
    unittest.main()
