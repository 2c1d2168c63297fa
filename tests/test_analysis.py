"""Tests for run-to-run output analysis."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    compare_monitors,
    compare_samples,
    plot_series,
    reduce_series,
    welch_t,
)
from repro.core import Monitor, StreamFactory, ValidationError


class TestWelch:
    def test_clearly_different_samples(self):
        a = [1.0, 1.1, 0.9, 1.05, 0.95]
        b = [5.0, 5.2, 4.9, 5.1, 5.05]
        t, p = welch_t(a, b)
        assert p < 1e-6 and t < 0

    def test_identical_distributions_not_significant(self):
        s = StreamFactory(3).stream("w")
        a = [s.exponential(1.0) for _ in range(40)]
        b = [s.exponential(1.0) for _ in range(40)]
        _, p = welch_t(a, b)
        assert p > 0.01  # same distribution: rarely "significant"

    def test_too_few_samples(self):
        with pytest.raises(ValidationError):
            welch_t([1.0], [2.0, 3.0])

    def test_constant_groups(self):
        import math

        t, p = welch_t([1.0, 1.0, 1.0], [1.0, 1.0])
        assert math.isnan(t) and math.isnan(p)
        assert welch_t([1.0, 1.0], [2.0, 2.0]) == (-math.inf, 0.0)
        assert welch_t([2.0, 2.0], [1.0, 1.0, 1.0]) == (math.inf, 0.0)


class TestCompareSamples:
    def test_significant_winner(self):
        cmp = compare_samples("fast", [1.0, 1.1, 0.9, 1.0],
                              "slow", [3.0, 3.1, 2.9, 3.0])
        assert cmp.significant and cmp.winner == "fast"
        assert cmp.diff == pytest.approx(-2.0)
        assert "fast is lower" in cmp.render()

    def test_tie_reported(self):
        s = StreamFactory(5).stream("t")
        a = [s.exponential(2.0) for _ in range(30)]
        b = [s.exponential(2.0) for _ in range(30)]
        cmp = compare_samples("a", a, "b", b)
        if not cmp.significant:  # overwhelmingly likely
            assert cmp.winner == "tie"
            assert "no significant difference" in cmp.render()

    def test_bad_alpha(self):
        with pytest.raises(ValidationError):
            compare_samples("a", [1, 2], "b", [3, 4], alpha=1.5)


class TestCompareMonitors:
    def monitors(self):
        a, b = Monitor("A"), Monitor("B")
        for v in (1.0, 2.0, 3.0):
            a.tally("wait").record(v)
        for v in (2.0, 4.0, 6.0):
            b.tally("wait").record(v)
        a.counter("done").increment(1.0)
        b.counter("done").increment(1.0, by=2)
        return a, b

    def test_shared_collectors_diffed(self):
        a, b = self.monitors()
        lines = compare_monitors(a, b)
        joined = "\n".join(lines)
        assert "tally.wait.mean" in joined
        assert "+100.0%" in joined  # mean 2 -> 4

    def test_one_sided_collectors_flagged(self):
        a, b = self.monitors()
        a.tally("extra").record(1.0)
        lines = compare_monitors(a, b, "left", "right")
        assert any("only in left" in line for line in lines)


class TestSeriesReduction:
    def test_short_series_unchanged(self):
        s = [(0.0, 1.0), (1.0, 2.0)]
        assert reduce_series(s, buckets=10) == s

    def test_reduces_to_bucket_count(self):
        s = [(float(i), float(i % 7)) for i in range(1000)]
        out = reduce_series(s, buckets=20)
        assert len(out) <= 20
        times = [t for t, _ in out]
        assert times == sorted(times)

    def test_bucket_means_bounded_by_extremes(self):
        s = [(float(i), math.sin(i / 10.0)) for i in range(500)]
        out = reduce_series(s, buckets=25)
        lo, hi = min(v for _, v in s), max(v for _, v in s)
        assert all(lo - 1e-9 <= v <= hi + 1e-9 for _, v in out)

    def test_degenerate_time_span(self):
        s = [(5.0, 1.0)] * 50
        assert reduce_series(s, buckets=10) == [(5.0, 1.0)]

    def test_bad_buckets(self):
        with pytest.raises(ValidationError):
            reduce_series([(0.0, 1.0)], buckets=0)

    def test_plot_series_renders(self):
        s = [(float(i), float(i * i)) for i in range(200)]
        out = plot_series(s, label="quadratic")
        assert "quadratic" in out and "*" in out


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1e3), st.floats(-1e3, 1e3)),
                min_size=2, max_size=300))
def test_property_reduction_preserves_time_order(points):
    series = sorted(points)
    out = reduce_series(series, buckets=15)
    times = [t for t, _ in out]
    assert times == sorted(times)
    assert len(out) <= max(15, 1)
