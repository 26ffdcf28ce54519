"""Windowed time-series: virtual-time-bucketed counters, gauges, quantiles.

:class:`MetricsRegistry` answers "how did the run go?" with one summary
per instrument. This module answers "*when* did it go wrong?": every
observation lands in a virtual-time bucket of fixed width, and each
series keeps a bounded ring of recent buckets — memory stays flat at a
million tasks no matter how long the run is.

Three series types mirror the registry's instruments:

* :class:`CounterSeries` — per-bucket increments plus a cumulative
  total (``rate_over`` turns a window of buckets into events/second);
* :class:`GaugeSeries` — last value per bucket with a high-water mark,
  plus a ``trend_over`` slope sign used by the health scorer;
* :class:`QuantileSeries` — one fixed-bound streaming histogram per
  bucket; windows merge bucket histograms, so a p95-over-the-last-five-
  minutes costs O(buckets × bounds), never O(observations).

The store is fed exclusively by the
:class:`~repro.telemetry.metrics.EventMetricsBridge` subscriber (nothing
in the hot path calls it directly) and notifies registered observers —
the SLO engine — whenever an event's time closes a bucket. Everything is
deterministic: the same event stream produces byte-identical buckets.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

from repro.telemetry.metrics import DEFAULT_BOUNDS, BucketHistogram, LabelKey

DEFAULT_WINDOW = 60.0
DEFAULT_MAX_BUCKETS = 256


def bucket_index(time: float, window: float) -> int:
    """The bucket an observation at ``time`` belongs to."""
    return int(time // window)


def _covered(until: float, window: float, width: float) -> Tuple[int, int]:
    """First and last bucket index a read of ``[until-window, until)`` covers.

    ``width`` is the bucket width. When ``until`` sits exactly on a
    bucket boundary the bucket starting there is not covered. The health
    scorer keys its cache on these bounds, so they have one definition.
    """
    # inlined bucket_index (hot path: every health score computes these)
    first = int((until - window) // width)
    last = int(until // width)
    if last * width >= until:
        last -= 1
    return first, last


class _Series:
    """Common ring bookkeeping: a deque of ``(index, payload)`` pairs.

    Buckets appear only when an observation lands in them (sparse), in
    strictly increasing index order, and the ring drops its oldest
    bucket once ``max_buckets`` is exceeded — the bounded-memory
    guarantee.

    ``version`` counts writes. Every write method bumps it, and they are
    the only code that changes the ring, so a reader that saw the same
    version and reads the same buckets reads the same values.
    """

    __slots__ = ("window", "max_buckets", "version", "_ring")

    kind = "series"

    def __init__(self, window: float, max_buckets: int) -> None:
        self.window = window
        self.max_buckets = max_buckets
        self.version = 0
        self._ring: Deque[List[Any]] = deque(maxlen=max_buckets)

    def _in_window(self, until: float, window: float) -> List[List[Any]]:
        """Ring entries covering ``[until-window, until)``, oldest first.

        When ``until`` sits exactly on a bucket boundary (the SLO
        engine's evaluation points), the bucket *starting* there is
        excluded — it belongs to the next window. A mid-bucket ``until``
        (health queries at ``clock.now``) includes the partial bucket.

        Scans from the newest end and stops at the first bucket older
        than the window: SLO windows cover the ring's tail, so each
        query touches O(window) entries, not O(max_buckets).
        """
        first, last = _covered(until, window, self.window)
        out: List[List[Any]] = []
        for entry in reversed(self._ring):
            index = entry[0]
            if index > last:
                continue
            if index < first:
                break
            out.append(entry)
        out.reverse()
        return out

    def buckets(self) -> List[Tuple[float, Any]]:
        """``(bucket_start_time, payload_snapshot)`` pairs, oldest first."""
        return [
            (entry[0] * self.window, self._snapshot(entry[1]))
            for entry in self._ring
        ]

    def _snapshot(self, payload: Any) -> Any:
        return payload

    def __len__(self) -> int:
        return len(self._ring)


class CounterSeries(_Series):
    """Per-bucket increments plus the cumulative total."""

    __slots__ = ("total",)

    kind = "counter"

    def __init__(self, window: float, max_buckets: int) -> None:
        super().__init__(window, max_buckets)
        self.total = 0.0

    def inc(self, time: float, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counter series only go up")
        # bucket lookup inlined: this runs for every task-lifecycle
        # event; deque(maxlen=...) drops the oldest bucket
        index = int(time // self.window)
        ring = self._ring
        if ring and ring[-1][0] == index:
            ring[-1][1] += amount
        else:
            ring.append([index, amount])
        self.total += amount
        self.version += 1

    def sum_over(self, until: float, window: float) -> float:
        """Total increments in the closed buckets of ``[until-window, until)``."""
        return sum(entry[1] for entry in self._in_window(until, window))

    def rate_over(self, until: float, window: float) -> float:
        """Increments per second over the window."""
        return self.sum_over(until, window) / window if window > 0 else 0.0


class GaugeSeries(_Series):
    """Last value per bucket; remembers the all-time high-water mark."""

    __slots__ = ("value", "max_value")

    kind = "gauge"

    def __init__(self, window: float, max_buckets: int) -> None:
        super().__init__(window, max_buckets)
        self.value = 0.0
        self.max_value = 0.0

    def set(self, time: float, value: float) -> None:
        # bucket lookup inlined: queue-depth gauges move on every submit
        # and dispatch, so this is as hot as CounterSeries.inc
        index = int(time // self.window)
        ring = self._ring
        if ring and ring[-1][0] == index:
            ring[-1][1] = value
        else:
            ring.append([index, value])
        self.value = value
        if value > self.max_value:
            self.max_value = value
        self.version += 1

    def inc(self, time: float, amount: float = 1.0) -> None:
        self.set(time, self.value + amount)

    def dec(self, time: float, amount: float = 1.0) -> None:
        value = self.value - amount
        index = int(time // self.window)
        ring = self._ring
        if ring and ring[-1][0] == index:
            ring[-1][1] = value
        else:
            ring.append([index, value])
        self.value = value
        self.version += 1

    def trend_over(self, until: float, window: float) -> float:
        """Last-minus-first bucket value across the window (slope sign).

        Positive means the gauge is rising (e.g. a queue backing up);
        zero when fewer than two buckets fall inside the window.
        """
        values = [entry[1] for entry in self._in_window(until, window)]
        if len(values) < 2:
            return 0.0
        return values[-1] - values[0]


class QuantileSeries(_Series):
    """One fixed-bound histogram per bucket; windows merge buckets."""

    __slots__ = ("bounds", "count", "total")

    kind = "quantile"

    def __init__(self, window: float, max_buckets: int) -> None:
        super().__init__(window, max_buckets)
        self.bounds = DEFAULT_BOUNDS
        self.count = 0
        self.total = 0.0

    def observe(self, time: float, value: float) -> None:
        # bucket lookup and BucketHistogram.observe() inlined: two of these
        # run per dispatch (all-endpoints + per-endpoint series)
        index = int(time // self.window)
        ring = self._ring
        if ring and ring[-1][0] == index:
            hist = ring[-1][1]
        else:
            hist = BucketHistogram(self.bounds)
            ring.append([index, hist])
        hist.counts[bisect_left(hist.bounds, value)] += 1
        hist.count += 1
        hist.total += value
        if value > hist.max:
            hist.max = value
        self.count += 1
        self.total += value
        self.version += 1

    def merged_over(self, until: float, window: float) -> BucketHistogram:
        merged = BucketHistogram(self.bounds)
        for entry in self._in_window(until, window):
            merged.merge(entry[1])
        return merged

    def quantile_over(self, p: float, until: float, window: float) -> float:
        """Percentile over the window; 0.0 when the window is empty."""
        merged = self.merged_over(until, window)
        return merged.percentile(p) if merged.count else 0.0

    def _snapshot(self, payload: BucketHistogram) -> Dict[str, float]:
        return payload.summary()


class TimeSeriesStore:
    """Named, labelled windowed series, created on first use.

    The windowed twin of :class:`~repro.telemetry.metrics.MetricsRegistry`
    — same ``name + labels`` addressing, same create-on-first-use
    discipline, same sorted :meth:`collect` — plus bucket-close
    notification for observers (the SLO engine).

    A series is never removed once created, so ``len(store)`` only
    grows: a reader that found no series for a key needs to look again
    only after the length has changed.
    """

    def __init__(
        self,
        window: float = DEFAULT_WINDOW,
        max_buckets: int = DEFAULT_MAX_BUCKETS,
    ) -> None:
        # NaN fails the first bucket write, infinity folds every
        # observation into bucket 0, and an empty ring records nothing
        if not (math.isfinite(window) and window > 0):
            raise ValueError(f"window must be finite and positive, got {window}")
        if not isinstance(max_buckets, int) or max_buckets < 1:
            raise ValueError(
                f"max_buckets must be an integer of at least 1, got {max_buckets!r}"
            )
        self.window = float(window)
        self.max_buckets = max_buckets
        self._series: Dict[Tuple[str, LabelKey], _Series] = {}
        self._observers: List[Callable[[float], None]] = []
        self._last_bucket: Optional[int] = None

    def _get(self, cls, name: str, labels: Dict[str, Any]) -> Any:
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        series = self._series.get(key)
        if series is None:
            series = cls(self.window, self.max_buckets)
            self._series[key] = series
        elif not isinstance(series, cls):
            raise TypeError(
                f"series {name!r} already registered as {type(series).__name__}"
            )
        return series

    def get(self, name: str, **labels: Any) -> Optional[_Series]:
        """The series for ``name`` + ``labels``, or None — never creates.

        The SLO engine and health scorer read through this so that
        querying a series that no event has touched yet does not
        conjure an empty one into snapshots and exports.
        """
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        return self._series.get(key)

    def counter(self, name: str, **labels: Any) -> CounterSeries:
        return self._get(CounterSeries, name, labels)

    def gauge(self, name: str, **labels: Any) -> GaugeSeries:
        return self._get(GaugeSeries, name, labels)

    def quantile(self, name: str, **labels: Any) -> QuantileSeries:
        return self._get(QuantileSeries, name, labels)

    def __len__(self) -> int:
        return len(self._series)

    def collect(self) -> Iterator[Tuple[str, Dict[str, str], _Series]]:
        """(name, labels, series) triples in sorted order."""
        for (name, label_key) in sorted(self._series):
            yield name, dict(label_key), self._series[(name, label_key)]

    def labels_for(self, name: str) -> List[Dict[str, str]]:
        """Every label set a series name has been observed under."""
        return [
            dict(label_key)
            for (series_name, label_key) in sorted(self._series)
            if series_name == name
        ]

    def find(
        self, name: str, **labels: Any
    ) -> List[Tuple[Dict[str, str], _Series]]:
        """Series matching ``name`` whose labels include ``labels``."""
        wanted = {(k, str(v)) for k, v in labels.items()}
        return [
            (dict(label_key), self._series[(series_name, label_key)])
            for (series_name, label_key) in sorted(self._series)
            if series_name == name and wanted.issubset(set(label_key))
        ]

    # -- observers ----------------------------------------------------------
    def add_observer(self, callback: Callable[[float], None]) -> None:
        """``callback(bucket_end_time)`` fires when a bucket closes."""
        self._observers.append(callback)

    def advance_to(self, time: float) -> None:
        """Note the event stream has reached ``time``; close buckets.

        Called by the metrics bridge after every recorded event. When
        ``time`` lands in a later bucket than the last one seen, each
        skipped-or-closed bucket boundary is reported to observers in
        order — so SLO evaluation happens at deterministic virtual
        times regardless of event spacing.
        """
        index = int(time // self.window)  # inlined bucket_index (hot path)
        last = self._last_bucket
        if last is None:
            self._last_bucket = index
            return
        if index <= last:
            return
        self._last_bucket = index
        for closed in range(last + 1, index + 1):
            boundary = closed * self.window
            for callback in self._observers:
                callback(boundary)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dump of every series' ring (deterministic order)."""
        out: Dict[str, Any] = {}
        for name, labels, series in self.collect():
            suffix = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            key = f"{name}{{{suffix}}}" if suffix else name
            entry: Dict[str, Any] = {
                "kind": series.kind,
                "window": series.window,
                "buckets": [
                    [start, value] for start, value in series.buckets()
                ],
            }
            if isinstance(series, CounterSeries):
                entry["total"] = series.total
            elif isinstance(series, GaugeSeries):
                entry["value"] = series.value
                entry["max"] = series.max_value
            elif isinstance(series, QuantileSeries):
                entry["count"] = series.count
            out[key] = entry
        return out
