"""Tests of the benchmark's own helpers.

    python3 -m pytest shabench/test_helpers.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
import stats  # noqa: E402
from spans import layer_totals  # noqa: E402


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        assert stats.percentile(values, 0.5) == 50
        assert stats.percentile(values, 0.9) == 90

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
        assert stats.percentile(values, 0.5) == stats.percentile(sorted(values), 0.5) == 3.0

    def test_rank_is_exact_at_round_counts(self):
        # 0.9 * 100 is 90.00000000000001 in floating point; the rank is still 90
        assert stats.percentile_rank(100, 0.9) == 90
        assert stats.percentile_rank(1000, 0.99) == 990

    def test_rejects_bad_quantiles(self):
        with pytest.raises(ValueError):
            stats.percentile_rank(10, 1.0)
        with pytest.raises(ValueError):
            stats.percentile_rank(0, 0.5)


class TestSamplesBeyond:
    def test_ten_beyond_needs_enough_samples(self):
        assert stats.samples_beyond(40, 0.75) == 10
        assert stats.samples_beyond(39, 0.75) == 9
        assert stats.samples_beyond(1000, 0.99) == 10

    def test_boundary(self):
        assert stats.samples_beyond(100, 0.9) == 10
        assert stats.samples_beyond(99, 0.9) == 9
        stats.percentile(list(range(100)), 0.9)
        with pytest.raises(ValueError):
            stats.percentile(list(range(99)), 0.9)


class TestFastHalfMean:
    def test_mean_up_to_the_median(self):
        values = list(range(1, 101))  # 1..100; ranks 1..50
        assert stats.fast_half_mean(values) == 25.5

    def test_slow_outliers_do_not_count(self):
        assert stats.fast_half_mean([3.0, 1.0, 1000.0, 2000.0]) == 2.0

    def test_moves_in_proportion_to_the_slowed_share(self):
        # the median jumps from 1.0 to 1.5 once half the ops are slow; the mean of the faster half moves by steps
        fast = [1.0] * 100
        slow = [1.0] * 40 + [1.5] * 60
        assert stats.percentile(slow, 0.5) == 1.5
        assert stats.fast_half_mean(fast) == 1.0
        assert stats.fast_half_mean(slow) == pytest.approx(1.1)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            stats.fast_half_mean([1.0])


class TestTailMean:
    def test_mean_of_the_samples_beyond_the_quantile(self):
        values = list(range(1, 41))  # 1..40; p75 is 30, beyond it 31..40
        assert stats.tail_mean(values, 0.75) == 35.5

    def test_order_does_not_matter(self):
        values = [float(v % 17) for v in range(100)]
        assert stats.tail_mean(values, 0.75) == stats.tail_mean(sorted(values, reverse=True), 0.75)

    def test_moves_in_proportion_to_the_slowed_share(self):
        # 3 of the 10 samples beyond p75 run 1.5x slower: the mean rises by 15%
        fast = [1.0] * 20 + [10.0] * 20
        slow = [1.0] * 20 + [10.0] * 17 + [15.0] * 3
        assert stats.tail_mean(fast, 0.75) == 10.0
        assert stats.tail_mean(slow, 0.75) == pytest.approx(11.5)

    def test_needs_ten_beyond(self):
        stats.tail_mean(list(range(40)), 0.75)
        with pytest.raises(ValueError):
            stats.tail_mean(list(range(39)), 0.75)


class TestFailureCounting:
    def test_counts_every_non_true_outcome(self):
        outcomes = [True, True, "exit 2: bad reduction", None, False, True]
        assert stats.count_failures(outcomes) == (6, 3)

    def test_empty(self):
        assert stats.count_failures([]) == (0, 0)


class TestSelfTime:
    def test_children_are_subtracted_once(self):
        # root 10 s, children 3 s and 2 s, grandchild 1 s inside the first child
        spans = [(1, None, 10.0), (2, 1, 3.0), (3, 1, 2.0), (4, 2, 1.0)]
        assert stats.self_times(spans) == {1: 5.0, 2: 2.0, 3: 2.0, 4: 1.0}

    def test_unknown_parent_is_ignored(self):
        assert stats.self_times([(7, 99, 1.5)]) == {7: 1.5}

    def test_layer_totals_fold_processes(self):
        # (id, parent, name, start, end, thread, cpu seconds)
        proc_a = [(1, None, "engine.analyze", 0, 1, 1, 0.010), (2, 1, "arith.factor", 0, 1, 1, 0.004)]
        proc_b = [(1, None, "engine.analyze", 0, 1, 1, 0.020), (2, 1, "arith.factor", 0, 1, 1, 0.005)]
        summary_a = {"counters": {"mm_hits": 3, "mm_misses": 1, "first_factor_s": 0.004},
                     "images": [(9, 40, 4, 0.001, False)], "interp_s": 0.05, "import_s": 0.1}
        summary_b = {"counters": {"mm_hits": 1, "mm_misses": 3, "first_factor_s": 0.005},
                     "images": [(9, 60, 2, 0.002, True)], "interp_s": 0.06, "import_s": 0.1}
        t = layer_totals([(proc_a, summary_a), (proc_b, summary_b)])
        assert t["arith.factor_ms"] == pytest.approx(9.0)
        assert t["arith.factor_calls"] == 2
        assert t["engine.analyze_self_ms"] == pytest.approx(6.0 + 15.0)
        assert t["arith.first_factor_ms"] == pytest.approx(9.0)
        assert t["curve.minimal_model_hit_ratio"] == pytest.approx(0.5)
        assert t["galrep.primes_scanned"] == 100
        assert t["galrep.witness_yield"] == pytest.approx(0.06)
        assert t["galrep.fallback_jobs"] == 1
        assert t["galrep.fallback_ms"] == pytest.approx(2.0)
        assert t["cli.interp_ms"] == pytest.approx(110.0)


class TestChecks:
    def cert(self, **changes):
        doc = {"label": "11a1", "p": 5, "a_p": 1, "bounds": {"0": {"lower": 0, "upper": 1}}}
        doc.update(changes)
        return json.dumps(doc)

    def test_good_certificate(self):
        assert checks.check_certificate(self.cert(), "11a1", 5) is True

    def test_each_violation_is_named(self):
        assert "Hasse" in checks.check_certificate(self.cert(a_p=5), "11a1", 5)
        assert "label" in checks.check_certificate(self.cert(), "37a1", 5)
        assert "p =" in checks.check_certificate(self.cert(), "11a1", 7)
        bad_bounds = self.cert(bounds={"2": {"lower": 3, "upper": 2}})
        assert "lower 3 > upper 2" in checks.check_certificate(bad_bounds, "11a1", 5)
        assert "unparsable" in checks.check_certificate("{", "11a1", 5)


class TestInputs:
    def test_same_seed_same_inputs(self):
        assert inputs.fresh_curves(3, 5, 5) == inputs.fresh_curves(3, 5, 5)
        assert inputs.fresh_curves(3, 5, 5) != inputs.fresh_curves(4, 5, 5)

    def test_fresh_curves_are_good_at_their_prime_and_not_cm(self):
        for p, records in inputs.fresh_curves(1, 20, 10).items():
            for r in records:
                assert inputs.discriminant(*r["ainvs"]) % p != 0
                _, _, _, a4, a6 = r["ainvs"]
                assert inputs._non_cm(a4, a6)

    def test_bad_curve_is_bad_at_p(self):
        r = inputs.bad_curve(1, 5)
        assert inputs.discriminant(*r["ainvs"]) % 5 == 0

    def test_sweep_jobs_cover_every_good_pair_once(self):
        curves = {"11a1": (0, -1, 1, -10, -20), "37a1": (0, 0, 1, -1, 0)}
        jobs = inputs.sweep_jobs(curves, 7)
        expected = {(label, p) for label, a in curves.items()
                    for p in inputs.odd_primes_up_to(97) if inputs.discriminant(*a) % p}
        assert sorted(jobs) == sorted(expected) and len(jobs) == len(expected)
        assert jobs == inputs.sweep_jobs(curves, 7) != inputs.sweep_jobs(curves, 8)

    def test_discriminant_matches_a_known_curve(self):
        assert inputs.discriminant(0, -1, 1, -10, -20) == -161051  # 11a1: -11^5
