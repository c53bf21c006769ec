"""Self-tests of the benchmark's own arithmetic and gates.

``run.py`` runs them at the start of every run and refuses to measure
if one fails.  Standalone, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/selftest.py
"""

from __future__ import annotations

import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import timing  # noqa: E402
import tracing  # noqa: E402

REF = timing.REFERENCE_PROBE_S


class TailTest(unittest.TestCase):
    def test_tail_is_highest_percentile_with_ten_beyond(self):
        self.assertEqual(timing.tail_percentile(10000), 99.9)
        self.assertEqual(timing.tail_percentile(9999), 99.0)
        self.assertEqual(timing.tail_percentile(1000), 99.0)
        self.assertEqual(timing.tail_percentile(999), 95.0)
        self.assertEqual(timing.tail_percentile(200), 95.0)
        self.assertEqual(timing.tail_percentile(100), 90.0)
        self.assertIsNone(timing.tail_percentile(15))

    def test_nearest_rank_leaves_ten_samples_beyond_p99(self):
        values = list(range(1, 1001))
        p99 = timing.percentile(values, 99.0)
        self.assertEqual(p99, 990)
        self.assertEqual(sum(1 for v in values if v > p99), 10)
        self.assertEqual(timing.percentile(values[::-1], 50.0), 500)

    def test_thin_tail_is_refused(self):
        timing.require_tail(1000, 99.0, "q")
        with self.assertRaises(ValueError):
            timing.require_tail(999, 99.0, "q")


class ProbeScalingTest(unittest.TestCase):
    def test_sample_scaled_to_reference_speed(self):
        self.assertAlmostEqual(timing.scale(2.0, REF), 2.0)
        self.assertAlmostEqual(timing.scale(2.0, 2 * REF), 1.0)
        self.assertAlmostEqual(timing.scale(3.0, 1.5 * REF), 2.0)

    def test_window_averages_probes_on_both_sides(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        w = timing.PROBE_WINDOW
        self.assertEqual(w, 4)
        self.assertAlmostEqual(timing.window(values, 4), 5.5)  # 2..9
        self.assertAlmostEqual(timing.window(values, 0), 3.0)  # 1..5
        self.assertAlmostEqual(timing.window(values, 8), 8.0)  # 6..10

    def test_clock_scales_samples_and_phase(self):
        # One probe per side keeps the arithmetic visible.
        clock = timing.ProbedClock(
            probes=[REF, REF, 2 * REF, 2 * REF],
            samples=[(1.0, 0, "query"), (3.0, 1, "query"),
                     (4.0, 2, "update")],
            segments=[1.5, 3.0, 4.0],
        )
        original = timing.PROBE_WINDOW
        timing.PROBE_WINDOW = 1
        try:
            self.assertEqual(clock.scaled("query"), [1.0, 2.0])
            self.assertEqual(clock.scaled("update"), [2.0])
            self.assertEqual(clock.raw("query"), [1.0, 3.0])
            self.assertAlmostEqual(clock.scaled_phase(), 1.5 + 2.0 + 2.0)
            self.assertAlmostEqual(clock.raw_phase(), 8.5)
        finally:
            timing.PROBE_WINDOW = original

    def test_probe_measures_fixed_work(self):
        self.assertGreater(timing.probe(), 0.0)


class OkRatioTest(unittest.TestCase):
    def test_sheds_errors_and_timeouts_are_failures(self):
        import workloads
        from repro.exceptions import Overloaded, QueryError

        class Flaky:
            def __init__(self):
                self.calls = 0

            def suggest_detailed(self, query, k):
                self.calls += 1
                if self.calls == 2:
                    raise Overloaded("full", retry_after=0.1)
                if self.calls == 3:
                    raise TimeoutError("slow")
                if self.calls == 4:
                    raise QueryError("bad")
                return [], None

        class Record:
            dirty_text = "q"

        ops = [("query", Record())] * 5
        run = workloads.in_process_pass(Flaky(), ops)
        outcomes = [outcome for outcome, _ in run.results]
        self.assertEqual(outcomes, ["ok", "shed", "timeout", "error", "ok"])
        answered = outcomes.count("ok")
        self.assertAlmostEqual(timing.ok_ratio(len(ops), answered), 0.4)
        with self.assertRaises(ValueError):
            timing.ok_ratio(0, 0)


class SelfTimeTest(unittest.TestCase):
    # op, name, start, end, parent, value
    SPANS = [
        [0, "service", 0.0, 10.0, -1, 0],
        [0, "engine", 1.0, 4.0, 0, 0],
        [0, "fastss", 2.0, 3.0, 1, 0],
        [0, "fastss", 2.2, 2.7, 2, 0],
        [0, "index", 5.0, 6.0, 0, 0],
        [1, "service", 20.0, 21.0, -1, 0],
    ]

    def test_self_time_subtracts_direct_children(self):
        selfs = tracing.self_times(self.SPANS)
        for got, want in zip(selfs, [6.0, 2.0, 0.5, 0.5, 1.0, 1.0]):
            self.assertAlmostEqual(got, want)

    def test_summary_counts_nested_same_name_once(self):
        summary = tracing.summarize(self.SPANS, {0: 1.0, 1: 2.0})
        self.assertEqual(summary["fastss"]["calls"], 1)
        self.assertAlmostEqual(summary["fastss"]["total"], 1.0)
        self.assertAlmostEqual(summary["fastss"]["self"], 1.0)
        self.assertAlmostEqual(summary["service"]["total"], 10.0 + 2.0)

    def test_residual_is_end_to_end_minus_self_times(self):
        residual = tracing.residuals(self.SPANS, {0: 10.5, 1: 1.0, 2: 0.3})
        self.assertAlmostEqual(residual[0], 0.5)
        self.assertAlmostEqual(residual[1], 0.0)
        self.assertAlmostEqual(residual[2], 0.3)

    def test_recorder_wraps_and_restores(self):
        class Layer:
            def work(self, n):
                return list(range(n))

        original = Layer.__dict__["work"]
        with tracing.SpanRecorder() as recorder:
            recorder.wrap(Layer, "work", "layer", value=len)
            recorder.op = 7
            self.assertEqual(Layer().work(3), [0, 1, 2])
        self.assertIs(Layer.__dict__["work"], original)
        (span,) = recorder.spans
        self.assertEqual((span[0], span[1], span[4], span[5]),
                         (7, "layer", -1, 3))
        self.assertGreaterEqual(span[3], span[2])


class GateTest(unittest.TestCase):
    def setUp(self):
        from repro.core.suggestion import Suggestion

        self.Suggestion = Suggestion
        self.answer = [Suggestion(("rose", "fpga"), 0.25, "/dblp/article")]

    def test_corrupted_score_trips_byte_identity(self):
        import workloads

        good = {0: workloads.canonical(self.answer)}
        bent = [self.Suggestion(("rose", "fpga"), 0.25 + 2 ** -54,
                                "/dblp/article")]
        self.assertEqual(workloads.compare_answers(good, good, "x"), [])
        self.assertTrue(workloads.compare_answers(
            {0: workloads.canonical(bent)}, good, "x"))

    def test_suggestion_without_results_trips_validity(self):
        import workloads

        class NoResults:
            def search(self, text, k):
                return []

        self.assertTrue(workloads.check_valid(NoResults(), {0: self.answer}))

    def test_changed_counts_trip_determinism(self):
        import workloads

        self.assertEqual(workloads.compare_counts([(1, 2)], [(1, 2)], "x"),
                         [])
        self.assertTrue(workloads.compare_counts([(1, 2)], [(1, 3)], "x"))

    def test_missing_update_trips_visibility(self):
        import inputs
        import workloads

        update = inputs.Update(record={}, probe=object(), token="zanzibar")
        ops = [("update", update), ("query", None)]
        seen = [(1, None), ("ok", ([self.Suggestion(
            ("zanzibar", "fpga"), 0.5, "/dblp/article")], None))]
        lost = [(1, None), ("ok", (self.answer, None))]
        gate = workloads.UpdateMix.check_workload
        self.assertEqual(gate(None, workloads.Pass(ops, None, seen, 0.0)), [])
        self.assertTrue(gate(None, workloads.Pass(ops, None, lost, 0.0)))


def passes() -> bool:
    """Run the self-tests quietly; print the report only on failure."""
    stream = io.StringIO()
    suite = unittest.defaultTestLoader.loadTestsFromModule(
        sys.modules[__name__]
    )
    result = unittest.TextTestRunner(stream=stream, verbosity=0).run(suite)
    if not result.wasSuccessful():
        sys.stderr.write(stream.getvalue())
    return result.wasSuccessful()


if __name__ == "__main__":
    unittest.main()
