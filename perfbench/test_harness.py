"""Tests of the benchmark's own arithmetic: python3 perfbench/test_harness.py"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness as h  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_disjoint_children_are_subtracted(self):
        self.assertAlmostEqual(h.self_time((0.0, 10.0), [(1.0, 3.0), (5.0, 6.0)]), 7.0)

    def test_overlapping_children_count_once(self):
        self.assertAlmostEqual(h.self_time((0.0, 10.0), [(1.0, 4.0), (3.0, 5.0)]), 6.0)

    def test_children_are_clipped_to_the_parent(self):
        self.assertAlmostEqual(h.self_time((2.0, 8.0), [(0.0, 3.0), (7.0, 9.0)]), 4.0)

    def test_no_children_and_empty_children(self):
        self.assertEqual(h.self_time((1.0, 2.5), []), 1.5)
        self.assertEqual(h.self_time((1.0, 2.5), [(2.0, 2.0)]), 1.5)

    def test_parts_sum_to_the_parent(self):
        parent = (0.0, 1.0)
        kids = [(0.1, 0.4), (0.5, 0.9)]
        child_sum = sum(e - s for s, e in kids)
        self.assertAlmostEqual(child_sum + h.self_time(parent, kids), 1.0)


class TailPercentile(unittest.TestCase):
    def test_picks_highest_percentile_with_ten_beyond(self):
        self.assertEqual(h.tail_percentile(list(range(10000)))[0], 99.9)
        self.assertEqual(h.tail_percentile(list(range(1000)))[0], 99.0)
        self.assertEqual(h.tail_percentile(list(range(999)))[0], 95.0)
        self.assertEqual(h.tail_percentile(list(range(200)))[0], 95.0)
        self.assertEqual(h.tail_percentile(list(range(199)))[0], 90.0)

    def test_reports_value_and_sample_count(self):
        pct, value, n = h.tail_percentile([float(i) for i in range(1, 1001)])
        self.assertEqual((pct, value, n), (99.0, 990.0, 1000))

    def test_too_few_samples_has_no_supported_percentile(self):
        self.assertEqual(h.tail_percentile([1.0] * 19), (None, None, 19))
        self.assertEqual(h.tail_percentile([1.0] * 20)[0], 50.0)

    def test_nearest_rank(self):
        self.assertEqual(h.nearest_rank([5.0], 99), 5.0)
        self.assertEqual(h.nearest_rank([3.0, 1.0, 2.0, 4.0], 50), 2.0)
        self.assertEqual(h.nearest_rank([3.0, 1.0, 2.0, 4.0], 100), 4.0)


class OpenLoopSchedule(unittest.TestCase):
    def test_lateness_is_send_minus_due(self):
        late = h.lateness([0.0, 0.001, 0.002], [0.0001, 0.0011, 0.0050])
        for got, want in zip(late, [0.0001, 0.0001, 0.003]):
            self.assertAlmostEqual(got, want)

    def test_latency_counts_from_due_not_send(self):
        # A stalled generator sends late; the wait still counts.
        lat = h.latency_from_due([0.0, 0.001], [0.010, 0.011], [h.OK, h.OK])
        self.assertAlmostEqual(lat[0], 0.010)
        self.assertAlmostEqual(lat[1], 0.010)

    def test_failed_requests_miss_every_limit(self):
        lat = h.latency_from_due([0.0, 0.0, 0.0], [0.1, 0.1, 0.1],
                                 [h.SHED, h.DEADLINE, h.ERROR])
        self.assertTrue(all(math.isinf(x) for x in lat))
        self.assertEqual(h.nearest_rank(lat + [0.1] * 97, 99), math.inf)


class Windows(unittest.TestCase):
    def test_one_stall_moves_one_window(self):
        due = [i * 0.01 for i in range(500)]
        lat = [1.0] * 500
        lat[10] = 100.0  # a stall inside the first window
        values, smallest = h.window_percentiles(due, lat, 99.0, 1.0)
        self.assertEqual(len(values), 5)
        self.assertEqual(h.median(values), 1.0)
        self.assertEqual(smallest, 100)
        self.assertEqual(h.nearest_rank(lat, 100.0), 100.0)

    def test_percentile_per_window(self):
        due = [0.0, 0.1, 1.0, 1.1, 2.0, 2.1]
        lat = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        self.assertEqual(h.window_percentiles(due, lat, 100.0, 0.7),
                         ([2.0, 4.0, 6.0], 2))

    def test_rates_over_whole_windows(self):
        times = [0.01 * i for i in range(1, 100)]  # 100/s, last at 0.99 s
        times += [0.25 + 0.001 * i for i in range(50)]  # a burst in window 1
        rates = h.window_rates(times, 0.25)
        self.assertEqual(len(rates), 3)
        self.assertAlmostEqual(h.median(rates), 100.0)
        self.assertAlmostEqual(rates[1], 300.0)

    def test_partial_trailing_window_is_dropped(self):
        self.assertEqual(h.window_rates([0.1, 0.2, 0.3, 0.35], 0.25), [8.0])

    def test_too_short_raises(self):
        with self.assertRaises(ValueError):
            h.window_rates([0.1], 0.25)


class Attribution(unittest.TestCase):
    def counts(self):
        c = {"mttkrp.bytes": 800.0, "mttkrp.flops": 100.0, "mttkrp.launches": 4,
             "update.bytes": 160.0, "update.flops": 10.0 / 3.0, "update.launches": 40,
             "cstf.bytes": 40.0, "cstf.flops": 2.0, "cstf.launches": 6,
             "misattributed": 0}
        for k in ("bytes", "flops", "launches"):
            c["device." + k] = sum(c[f"{layer}.{k}"] for layer in reversed(h.LAYERS))
        return c

    def test_consistent_counts_pass(self):
        self.assertEqual(h.attribution_errors(self.counts()), [])

    def test_kernel_counted_twice_fails(self):
        c = self.counts()
        c["mttkrp.bytes"] += 40.0  # a cstf kernel also booked under MTTKRP
        c["mttkrp.launches"] += 1
        errors = h.attribution_errors(c)
        self.assertEqual(len(errors), 2)
        self.assertTrue(errors[0].startswith("bytes"))

    def test_dropped_kernel_fails(self):
        c = self.counts()
        c["device.flops"] += 1.0
        self.assertEqual(len(h.attribution_errors(c)), 1)

    def test_kernel_outside_its_phase_fails(self):
        c = self.counts()
        c["misattributed"] = 2
        self.assertEqual(h.attribution_errors(c), ["2 kernels outside their layer's phase"])


class ErrorAccounting(unittest.TestCase):
    def test_shed_deadline_error_and_check_failures_count(self):
        outcomes = [h.OK] * 6 + [h.SHED, h.DEADLINE, h.ERROR, h.CHECK_FAILED]
        attempted, failed = h.failure_tally(outcomes, checks_attempted=10,
                                            checks_failed=1)
        self.assertEqual((attempted, failed), (20, 5))
        self.assertAlmostEqual(h.error_rate(attempted, failed), 0.25)

    def test_clean_run_has_zero_error_rate(self):
        attempted, failed = h.failure_tally([h.OK] * 5)
        self.assertEqual(h.error_rate(attempted, failed), 0.0)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            h.error_rate(0, 0)


class Spread(unittest.TestCase):
    def test_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        self.assertAlmostEqual(h.spread(values), (8.25 - 2.75) / 5.5)


if __name__ == "__main__":
    unittest.main()
