"""The windowed time-series layer: buckets, windows, and bounded memory."""

import math

import pytest

from repro.telemetry.metrics import (
    DEFAULT_BOUNDS,
    BucketHistogram,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.timeseries import (
    CounterSeries,
    GaugeSeries,
    QuantileSeries,
    TimeSeriesStore,
    bucket_index,
)


class TestBucketHistogram:
    def test_percentile_is_bound_clamped_to_max(self):
        hist = BucketHistogram()
        for value in (0.3, 0.4, 0.6, 80.0):
            hist.observe(value)
        # p50 falls in the (0.25, 0.5] bucket -> upper bound 0.5
        assert hist.percentile(50) == 0.5
        # the top observation caps at the true max, not the bound (100)
        assert hist.percentile(100) == 80.0
        assert hist.count == 4
        assert hist.max == 80.0

    def test_overflow_bucket_catches_huge_values(self):
        hist = BucketHistogram()
        hist.observe(10.0**7)
        assert hist.percentile(95) == 10.0**7
        assert hist.counts[len(DEFAULT_BOUNDS)] == 1

    def test_boundary_value_lands_in_its_bound(self):
        hist = BucketHistogram(bounds=(1.0, 2.0))
        hist.observe(1.0)
        assert hist.counts[0] == 1

    def test_merge_requires_same_bounds(self):
        a, b = BucketHistogram(), BucketHistogram()
        a.observe(1.0)
        b.observe(100.0)
        a.merge(b)
        assert a.count == 2
        assert a.max == 100.0
        with pytest.raises(ValueError):
            a.merge(BucketHistogram(bounds=(1.0,)))

    def test_empty_percentile_raises(self):
        with pytest.raises(ValueError):
            BucketHistogram().percentile(95)


class TestStreamingHistogram:
    def test_exact_mode_is_the_default(self):
        hist = MetricsRegistry().histogram("latency")
        assert type(hist) is Histogram
        hist.observe(3.0)
        assert hist.values() == [3.0]
        assert hist.percentile(50) == 3.0

    def test_streaming_mode_never_retains_values(self):
        hist = MetricsRegistry(histogram_bounds=DEFAULT_BOUNDS).histogram("x")
        assert type(hist) is BucketHistogram
        for value in (0.3, 0.4, 0.6, 80.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.percentile(50) == 0.5  # bound estimate
        with pytest.raises(AttributeError):
            hist.values()

    def test_registry_bounds_switch_every_histogram(self):
        registry = MetricsRegistry(histogram_bounds=DEFAULT_BOUNDS)
        hist = registry.histogram("latency", endpoint="a")
        assert type(hist) is BucketHistogram
        default = MetricsRegistry()
        assert type(default.histogram("latency")) is Histogram


class TestCounterSeries:
    def test_increments_bucket_by_time(self):
        series = CounterSeries(window=60.0, max_buckets=8)
        series.inc(10.0)
        series.inc(59.9)
        series.inc(60.0)  # next bucket
        assert series.total == 3.0
        assert series.buckets() == [(0.0, 2.0), (60.0, 1.0)]

    def test_sum_over_excludes_bucket_at_boundary(self):
        series = CounterSeries(window=60.0, max_buckets=8)
        series.inc(30.0)
        series.inc(90.0)
        series.inc(120.0)  # bucket starting exactly at until=120
        # window [60, 120): only the 90s observation counts
        assert series.sum_over(120.0, 60.0) == 1.0
        # mid-bucket until includes the partial bucket
        assert series.sum_over(125.0, 60.0) == 2.0

    def test_rate_over(self):
        series = CounterSeries(window=60.0, max_buckets=8)
        for t in (0.0, 10.0, 20.0):
            series.inc(t)
        assert series.rate_over(60.0, 60.0) == pytest.approx(3.0 / 60.0)

    def test_negative_increment_rejected(self):
        series = CounterSeries(window=60.0, max_buckets=8)
        with pytest.raises(ValueError):
            series.inc(0.0, -1.0)

    def test_ring_drops_oldest_bucket(self):
        series = CounterSeries(window=1.0, max_buckets=4)
        for t in range(10):
            series.inc(float(t))
        assert len(series) == 4
        assert series.buckets()[0][0] == 6.0  # oldest retained bucket
        assert series.total == 10.0  # cumulative total survives the ring


class TestGaugeSeries:
    def test_set_inc_dec_and_high_water(self):
        series = GaugeSeries(window=60.0, max_buckets=8)
        series.inc(0.0)
        series.inc(1.0)
        series.dec(130.0)
        assert series.value == 1.0
        assert series.max_value == 2.0
        assert series.buckets() == [(0.0, 2.0), (120.0, 1.0)]

    def test_trend_over_is_last_minus_first(self):
        series = GaugeSeries(window=60.0, max_buckets=8)
        series.set(10.0, 2.0)
        series.set(70.0, 5.0)
        series.set(130.0, 9.0)
        assert series.trend_over(150.0, 180.0) == 7.0
        # fewer than two buckets in the window -> no trend
        assert series.trend_over(150.0, 30.0) == 0.0


class TestSeriesVersion:
    """Every write method bumps ``version``; reads leave it alone."""

    @pytest.mark.parametrize(
        "make, write",
        [
            (CounterSeries, lambda s, t: s.inc(t)),
            (CounterSeries, lambda s, t: s.inc(t, 0.0)),
            (GaugeSeries, lambda s, t: s.set(t, 3.0)),
            (GaugeSeries, lambda s, t: s.inc(t)),
            (GaugeSeries, lambda s, t: s.dec(t)),
            (QuantileSeries, lambda s, t: s.observe(t, 1.5)),
        ],
        ids=["counter.inc", "counter.inc0", "gauge.set", "gauge.inc",
             "gauge.dec", "quantile.observe"],
    )
    def test_each_write_bumps_version(self, make, write):
        series = make(window=60.0, max_buckets=2)
        assert series.version == 0
        # same bucket, a new bucket, and one that evicts the oldest
        for step, time in enumerate((10.0, 20.0, 70.0, 130.0), start=1):
            write(series, time)
            assert series.version == step

    def test_reads_do_not_bump_version(self):
        counter = CounterSeries(window=60.0, max_buckets=8)
        gauge = GaugeSeries(window=60.0, max_buckets=8)
        quantile = QuantileSeries(window=60.0, max_buckets=8)
        counter.inc(5.0)
        gauge.set(5.0, 2.0)
        quantile.observe(5.0, 1.0)
        counter.sum_over(100.0, 120.0)
        counter.rate_over(100.0, 120.0)
        gauge.trend_over(100.0, 120.0)
        quantile.quantile_over(95.0, 100.0, 120.0)
        for series in (counter, gauge, quantile):
            series.buckets()
            assert series.version == 1


class TestQuantileSeries:
    def test_per_bucket_histograms_merge_over_windows(self):
        series = QuantileSeries(window=60.0, max_buckets=8)
        series.observe(10.0, 1.0)
        series.observe(70.0, 100.0)
        assert series.count == 2
        # window covering only the second bucket
        assert series.quantile_over(95, 120.0, 60.0) == 100.0
        # window covering both buckets
        assert series.quantile_over(50, 120.0, 120.0) == 1.0
        assert series.quantile_over(95, 120.0, 120.0) == 100.0

    def test_empty_window_quantile_is_zero(self):
        series = QuantileSeries(window=60.0, max_buckets=8)
        series.observe(10.0, 1.0)
        assert series.quantile_over(95, 600.0, 60.0) == 0.0

    def test_snapshot_summarizes_buckets(self):
        series = QuantileSeries(window=60.0, max_buckets=8)
        series.observe(10.0, 2.0)
        (start, summary), = series.buckets()
        assert start == 0.0
        assert summary["count"] == 1
        assert summary["max"] == 2.0


class TestTimeSeriesStore:
    def test_create_on_first_use_and_lookup(self):
        store = TimeSeriesStore()
        counter = store.counter("tasks", endpoint="a")
        assert store.counter("tasks", endpoint="a") is counter
        assert store.get("tasks", endpoint="a") is counter
        # get() never creates
        assert store.get("tasks", endpoint="b") is None
        assert len(store) == 1

    def test_type_conflict_raises(self):
        store = TimeSeriesStore()
        store.counter("x")
        with pytest.raises(TypeError):
            store.gauge("x")

    def test_labels_for_and_find(self):
        store = TimeSeriesStore()
        store.counter("tasks", endpoint="a")
        store.counter("tasks", endpoint="b")
        assert store.labels_for("tasks") == [
            {"endpoint": "a"}, {"endpoint": "b"},
        ]
        matches = store.find("tasks", endpoint="a")
        assert len(matches) == 1
        assert matches[0][0] == {"endpoint": "a"}

    def test_observers_fire_once_per_closed_bucket(self):
        store = TimeSeriesStore(window=60.0)
        boundaries = []
        store.add_observer(boundaries.append)
        store.advance_to(10.0)  # opens bucket 0, nothing closed
        assert boundaries == []
        store.advance_to(59.0)  # still bucket 0
        assert boundaries == []
        store.advance_to(200.0)  # skipped over buckets 1..3
        assert boundaries == [60.0, 120.0, 180.0]
        store.advance_to(199.0)  # going nowhere fires nothing
        assert boundaries == [60.0, 120.0, 180.0]

    @pytest.mark.parametrize(
        "window", [0.0, -1.0, math.nan, math.inf, -math.inf]
    )
    def test_window_must_be_positive(self, window):
        # nan used to crash the first write and inf to fold every
        # observation into bucket 0
        with pytest.raises(ValueError, match="^window "):
            TimeSeriesStore(window=window)

    @pytest.mark.parametrize("max_buckets", [0, -1])
    def test_max_buckets_must_be_at_least_one(self, max_buckets):
        # an empty ring recorded nothing while the totals still counted
        with pytest.raises(ValueError, match="^max_buckets "):
            TimeSeriesStore(max_buckets=max_buckets)

    def test_snapshot_is_json_shaped(self):
        store = TimeSeriesStore(window=60.0)
        store.counter("tasks", endpoint="a").inc(5.0)
        store.gauge("depth").set(5.0, 3.0)
        store.quantile("wait").observe(5.0, 1.5)
        snap = store.snapshot()
        assert snap["tasks{endpoint=a}"]["total"] == 1.0
        assert snap["depth"]["value"] == 3.0
        assert snap["wait"]["count"] == 1

    def test_bucket_index_helper(self):
        assert bucket_index(0.0, 60.0) == 0
        assert bucket_index(59.999, 60.0) == 0
        assert bucket_index(60.0, 60.0) == 1
