"""Unit tests of the perfbench report helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import report

HERE = os.path.dirname(os.path.abspath(__file__))


class TailPercentileTest(unittest.TestCase):
    def test_thousand_samples_reach_p99_with_ten_beyond(self):
        samples = [float(i) for i in range(1, 1001)]
        self.assertEqual(report.tail_percentile(samples), (99.0, 990.0, 1000))

    def test_fewer_samples_step_down_the_ladder(self):
        # 334 samples: p99 leaves 3 beyond, p95 leaves 16.
        samples = list(range(334))
        pct, value, count = report.tail_percentile(samples)
        self.assertEqual((pct, count), (95.0, 334))
        self.assertEqual(value, 317)
        self.assertGreaterEqual(sum(1 for s in samples if s > value), 10)

    def test_twenty_samples_leave_only_the_median(self):
        self.assertEqual(report.tail_percentile(list(range(20)))[0], 50.0)

    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(report.tail_percentile(list(range(19))))
        self.assertIsNone(report.tail_percentile([]))

    def test_order_of_samples_does_not_matter(self):
        samples = [float(i) for i in range(1000)]
        self.assertEqual(report.tail_percentile(samples[::-1]),
                         report.tail_percentile(samples))


def span(sid, parent, name, start, end, request=-1, thread=1):
    return [sid, parent, name, start, end, request, thread]


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertAlmostEqual(
            report.self_times([span(1, 0, "a", 1.0, 3.5)])[1], 2.5)

    def test_parent_minus_union_of_overlapping_children(self):
        spans = [span(1, 0, "job", 0.0, 10.0),
                 span(2, 1, "x", 1.0, 4.0),
                 span(3, 1, "y", 3.0, 5.0),   # overlaps x: union is [1, 5]
                 span(4, 1, "z", 7.0, 8.0)]
        own = report.self_times(spans)
        self.assertAlmostEqual(own[1], 10.0 - 4.0 - 1.0)
        self.assertAlmostEqual(own[2], 3.0)

    def test_grandchildren_are_not_subtracted_twice(self):
        spans = [span(1, 0, "fit", 0.0, 10.0),
                 span(2, 1, "stage", 2.0, 8.0),
                 span(3, 2, "inner", 3.0, 5.0)]
        own = report.self_times(spans)
        self.assertAlmostEqual(own[1], 4.0)
        self.assertAlmostEqual(own[2], 4.0)
        self.assertAlmostEqual(own[3], 2.0)

    def test_spans_of_another_thread_are_not_children(self):
        # Two workers run jobs at the same time; each job nests only its
        # own thread's spans.
        spans = [span(1, 0, "job", 0.0, 6.0, request=0, thread=1),
                 span(2, 0, "job", 0.0, 6.0, request=1, thread=2),
                 span(3, 1, "solve", 1.0, 5.0, request=0, thread=1),
                 span(4, 2, "solve", 2.0, 3.0, request=1, thread=2)]
        own = report.self_times(spans)
        self.assertAlmostEqual(own[1], 2.0)
        self.assertAlmostEqual(own[2], 5.0)
        totals = report.self_time_by_name(spans)
        self.assertAlmostEqual(totals["job"], 7.0)
        self.assertAlmostEqual(totals["solve"], 5.0)

    def test_child_clipped_to_parent(self):
        spans = [span(1, 0, "p", 0.0, 2.0), span(2, 1, "c", 1.0, 3.0)]
        self.assertAlmostEqual(report.self_times(spans)[1], 1.0)

    def test_filter_by_request(self):
        spans = [span(1, 0, "solve", 0.0, 1.0, request=3),
                 span(2, 0, "solve", 2.0, 5.0)]
        totals = report.self_time_by_name(spans, keep=lambda s: s[5] >= 0)
        self.assertAlmostEqual(totals["solve"], 1.0)


class PrinterTest(unittest.TestCase):
    UNITS = {"b_s": "s", "a_ms": "ms"}

    def test_every_name_with_its_unit_in_order(self):
        res = report.result({"b_s": 1.5, "a_ms": 0.25}, self.UNITS, 10, 0)
        self.assertEqual(list(res["metrics"]), ["b_s", "a_ms"])
        self.assertEqual(res["metrics"]["a_ms"], {"value": 0.25, "unit": "ms"})
        lines = report.render({"workload": "w"}, res)
        self.assertTrue(lines[1].startswith("b_s"))
        self.assertTrue(lines[1].rstrip().endswith(" s"))
        self.assertTrue(lines[2].startswith("a_ms"))
        self.assertTrue(lines[2].rstrip().endswith(" ms"))
        last = json.loads(lines[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(last["correct"])

    def test_failed_check_marks_the_run_incorrect(self):
        res = report.result({"b_s": 1.0}, self.UNITS, 10, 1)
        self.assertFalse(res["correct"])
        self.assertFalse(json.loads(report.render({}, res)[-1])["correct"])

    def test_nothing_attempted_is_incorrect(self):
        self.assertFalse(report.result({}, self.UNITS, 0, 0)["correct"])

    def test_unknown_metric_has_no_unit(self):
        with self.assertRaises(KeyError):
            report.result({"c": 1.0}, self.UNITS, 1, 0)


# The smallest records each workload's metrics can be made from.
RECORDS = {
    "serve_loop": {
        "values": {"ari": 0.35, "serve.save_s": 0.01, "serve.load_s": 0.02,
                   "serve.model_bytes": 1e6, "mvsc.iterations": 7,
                   "la.matvecs_per_fit": 300, "trace.labels_match": 1},
        "samples": {"fit_s": [3.0, 2.0, 4.0], "assign1_ms": [1.0, 2.0, 1.5],
                    "assign256_ms": [20.0, 16.0, 24.0],
                    "predict1_ms": [0.5], "assign1_alloc_kb": [8.0],
                    "assign256_alloc_kb": [900.0]}},
    "stream_replay": {
        "values": {"ari": 0.99, "stream_s": 30.0,
                   "stream.full_resolves": 20,
                   "stream.resolves_before_drift": 11,
                   "stream.detect_delay_batches": 0,
                   "la.matvecs_per_resolve": 86, "la.matvecs_per_update": 17},
        "samples": {"update_ms": [200.0, 180.0], "resolve_ms": [1800.0],
                    "resolve_pts_per_s": [27000.0]}},
    "job_sweep": {
        "values": {"ari": 0.83, "exec.stage_hits": 91,
                   "exec.stage_misses": 9, "exec.busy_share": 0.9,
                   "la.matvecs_per_job": 500, "mvsc.ari_min": 0.5},
        "samples": {"sweep_s": [6.0, 7.0], "solve_ms": [40.0, 60.0, 50.0],
                    "job_pts_per_s": [9000.0, 11000.0, 10000.0]}},
    "anchor_fit": {
        "values": {"ari": 0.84, "fit_s": 20.0, "mvsc.iterations": 50,
                   "la.matvecs_per_fit": 900, "trace.labels_match": 1,
                   **{f"mvsc.{kind}.set{i}": 1.0 for i in range(3)
                      for kind in ("iterations", "ari")}},
        "samples": {"set_fit_s": [10.0, 5.0, 5.5],
                    "set_pts_per_s": [2e4, 4e4, 3.6e4]}},
}


def record(workload):
    out = json.loads(json.dumps(RECORDS[workload]))
    out["values"].update({"peak_rss_mb": 100.0, "data.generate_s": 0.1,
                          "la.lazy_init_s": 0.3, "la.block_mode_shapes": 0})
    out["spans"] = [span(1, 0, "mvsc.solve", 0.0, 1.0, request=0)]
    return out


class MetricSetTest(unittest.TestCase):
    """Every workload reports every metric of its kind, in table order."""

    def test_end_to_end_has_every_metric_on_every_workload(self):
        for workload in report.WORKLOADS:
            metrics = report.end_to_end(workload, record(workload),
                                        [1.0, 2.0, 3.0])
            self.assertEqual(list(metrics), list(report.E2E_UNITS), workload)
            self.assertEqual(metrics["setup_s"], 2.0)
            for name, value in metrics.items():
                self.assertGreater(value, 0.0, (workload, name))

    def test_end_to_end_definitions(self):
        serve = report.end_to_end("serve_loop", record("serve_loop"), [1.0])
        self.assertEqual(serve["fit_s"], 3.0)
        self.assertEqual(serve["call_p50_ms"], 1.5)
        self.assertEqual(serve["pts_per_s"], 256.0 / 0.020)
        stream = report.end_to_end("stream_replay", record("stream_replay"),
                                   [1.0])
        self.assertEqual(stream["fit_s"], 30.0)
        self.assertEqual(stream["call_p50_ms"], 190.0)
        anchor = report.end_to_end("anchor_fit", record("anchor_fit"), [1.0])
        self.assertEqual(anchor["fit_s"], 20.0)
        self.assertEqual(anchor["call_p50_ms"], 5500.0)
        self.assertEqual(anchor["pts_per_s"], 3.6e4)
        jobs = report.end_to_end("job_sweep", record("job_sweep"), [1.0])
        self.assertEqual(jobs["fit_s"], 6.5)
        self.assertEqual(jobs["pts_per_s"], 10000.0)

    def test_per_layer_has_every_metric_on_every_workload(self):
        for workload in report.WORKLOADS:
            metrics = report.per_layer(workload, record(workload),
                                       record(workload))
            self.assertEqual(list(metrics), list(report.LAYER_UNITS),
                             workload)
            self.assertEqual(metrics["trace.overhead"], 0.0)

    def test_layers_a_workload_does_not_enter_read_zero(self):
        metrics = report.per_layer("stream_replay", record("stream_replay"),
                                   record("stream_replay"))
        self.assertEqual(metrics["serve.assign1_count"], 0.0)
        self.assertEqual(metrics["exec.stage_hits"], 0.0)
        self.assertEqual(metrics["stream.full_resolves"], 20)


class BenchmarkJsonTest(unittest.TestCase):
    """The metric tables here and BENCHMARK.json name the same metrics."""

    def setUp(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_end_to_end_names_and_units(self):
        self.assertEqual([(m["name"], m["unit"])
                          for m in self.spec["end_to_end"]],
                         list(report.E2E_UNITS.items()))

    def test_per_layer_names_and_units(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         report.LAYER_UNITS)

    def test_workloads(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         report.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
