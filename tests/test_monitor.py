"""Tests for statistics collectors and reporting."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, Counter, Monitor, Tally, TimeWeighted, ascii_plot


class TestTally:
    def test_empty_stats_are_nan(self):
        t = Tally("x")
        assert math.isnan(t.mean) and math.isnan(t.minimum)
        assert t.count == 0

    def test_basic_moments(self):
        t = Tally("x")
        for v in [2.0, 4.0, 6.0]:
            t.record(v)
        assert t.count == 3
        assert t.mean == 4.0
        assert t.minimum == 2.0 and t.maximum == 6.0
        assert abs(t.variance - 4.0) < 1e-12
        assert abs(t.std - 2.0) < 1e-12

    def test_confidence_interval_covers_mean(self):
        t = Tally("x")
        for v in [10.0] * 50:
            t.record(v)
        mean, half = t.confidence_interval()
        assert mean == 10.0 and half == 0.0

    def test_confidence_interval_single_sample_infinite(self):
        t = Tally("x")
        t.record(1.0)
        _, half = t.confidence_interval()
        assert math.isinf(half)

    def test_batch_means_reasonable(self):
        t = Tally("x")
        for i in range(200):
            t.record(float(i % 10))
        mean, half = t.batch_means(10)
        assert abs(mean - 4.5) < 1e-9
        assert half >= 0.0


class TestTimeWeighted:
    def test_time_average_steps(self):
        lv = TimeWeighted("L")
        lv.set(0.0, 2.0)   # level 0 during [start..0], then 2
        lv.set(10.0, 4.0)  # level 2 during [0,10]
        lv.set(20.0, 0.0)  # level 4 during [10,20]
        assert lv.mean(20.0) == pytest.approx((2 * 10 + 4 * 10) / 20)

    def test_mean_extends_to_t_end(self):
        lv = TimeWeighted("L", initial=3.0)
        assert lv.mean(10.0) == pytest.approx(3.0)

    def test_add_delta(self):
        lv = TimeWeighted("L")
        lv.add(1.0, 2.0)
        lv.add(2.0, -1.0)
        assert lv.level == 1.0

    def test_min_max_track_levels(self):
        lv = TimeWeighted("L", initial=5.0)
        lv.set(1.0, 7.0)
        lv.set(2.0, 3.0)
        assert lv.minimum == 3.0 and lv.maximum == 7.0

    def test_backwards_time_rejected(self):
        lv = TimeWeighted("L")
        lv.set(5.0, 1.0)
        with pytest.raises(ConfigurationError, match="backwards"):
            lv.set(4.0, 2.0)

    def test_series_retention(self):
        lv = TimeWeighted("L", keep_series=True)
        lv.set(1.0, 2.0)
        assert lv.series == [(0.0, 0.0), (1.0, 2.0)]

    def test_variance_constant_level_zero(self):
        lv = TimeWeighted("L", initial=4.0)
        lv.set(10.0, 4.0)
        assert lv.variance(10.0) == pytest.approx(0.0)


class TestCounter:
    def test_count_and_rate(self):
        c = Counter("jobs")
        c.increment(0.0)
        c.increment(5.0)
        c.increment(10.0, by=2)
        assert c.count == 4
        assert c.rate() == pytest.approx(4 / 10)

    def test_rate_with_explicit_end(self):
        c = Counter("jobs")
        c.increment(0.0)
        assert c.rate(t_end=20.0) == pytest.approx(1 / 20)

    def test_empty_rate_zero(self):
        assert Counter("x").rate() == 0.0

    def test_negative_increment_rejected(self):
        c = Counter("x")
        with pytest.raises(ConfigurationError):
            c.increment(0.0, by=-1)


class TestMonitor:
    def test_collectors_created_on_first_use_and_cached(self):
        m = Monitor()
        t1 = m.tally("w")
        t2 = m.tally("w")
        assert t1 is t2
        assert m.level("q") is m.level("q")
        assert m.counter("c") is m.counter("c")

    def test_summary_structure(self):
        m = Monitor("test")
        m.tally("wait").record(2.0)
        m.level("queue").set(10.0, 3.0)
        m.counter("done").increment(1.0)
        s = m.summary(t_end=10.0)
        assert s["tally.wait"]["mean"] == 2.0
        assert "level.queue" in s and "counter.done" in s


class TestAsciiPlot:
    def test_plot_renders_grid(self):
        out = ascii_plot([0, 1, 2, 3], [0, 1, 4, 9], label="sq")
        assert "sq" in out and "*" in out

    def test_empty_data(self):
        assert ascii_plot([], []) == "(no data)"

    def test_mismatched_lengths(self):
        assert ascii_plot([1, 2], [1]) == "(no data)"


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
def test_property_tally_matches_numpy(values):
    import numpy as np

    t = Tally("p")
    for v in values:
        t.record(v)
    arr = np.asarray(values)
    assert t.mean == pytest.approx(arr.mean(), rel=1e-9, abs=1e-6)
    assert t.minimum == arr.min() and t.maximum == arr.max()
    if len(values) > 1:
        assert t.variance == pytest.approx(arr.var(ddof=1), rel=1e-6, abs=1e-5)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.001, max_value=100),
                          st.floats(min_value=0, max_value=50)),
                min_size=1, max_size=50))
def test_property_time_weighted_mean_bounded(steps):
    """The time-average always lies within [min level, max level]."""
    lv = TimeWeighted("L", initial=steps[0][1])
    t = 0.0
    for dt, level in steps:
        t += dt
        lv.set(t, level)
    m = lv.mean(t)
    assert lv.minimum - 1e-9 <= m <= lv.maximum + 1e-9
